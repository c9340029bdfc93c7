"""The slope-walk envelope vs the reference upper hull."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SlotErrorModel,
    SymbolPattern,
    slope_walk_envelope,
    upper_concave_envelope,
)
from repro.core.envelope import score_points


def _patterns(n_values):
    return [SymbolPattern(n, k) for n in n_values for k in range(1, n)]


class TestScorePoints:
    def test_deduplicates_equal_dimming(self):
        pts = score_points(_patterns([10, 20]))
        dims = [p.dimming for p in pts]
        assert len(dims) == len(set(round(d, 12) for d in dims))

    def test_keeps_best_rate_per_level(self):
        pts = score_points(_patterns([10, 20]))
        # At l=0.5, S(20,10) (17/20=0.85) must beat S(10,5) (0.7).
        at_half = [p for p in pts if abs(p.dimming - 0.5) < 1e-9]
        assert len(at_half) == 1
        assert at_half[0].pattern == SymbolPattern(20, 10)

    def test_sorted_by_dimming(self):
        pts = score_points(_patterns([7, 11]))
        dims = [p.dimming for p in pts]
        assert dims == sorted(dims)


class TestSlopeWalk:
    def test_matches_reference_hull(self, paper_errors):
        patterns = _patterns(range(2, 22))
        walk = slope_walk_envelope(patterns, paper_errors)
        hull = upper_concave_envelope(patterns, paper_errors)
        assert [p.pattern for p in walk.points] == [p.pattern for p in hull.points]

    def test_matches_reference_hull_ideal(self):
        # Collinear flat tops may keep different (equivalent) vertex
        # sets, so compare the envelopes as functions.
        patterns = _patterns(range(2, 30))
        walk = slope_walk_envelope(patterns)
        hull = upper_concave_envelope(patterns)
        lo = max(walk.dimming_range[0], hull.dimming_range[0])
        hi = min(walk.dimming_range[1], hull.dimming_range[1])
        for i in range(101):
            x = lo + (hi - lo) * i / 100
            assert walk.rate_at(x) == pytest.approx(hull.rate_at(x), abs=1e-9)

    def test_matches_reference_hull_on_designer_candidates(self, designer,
                                                           paper_errors):
        walk = slope_walk_envelope(designer.candidates, paper_errors)
        hull = upper_concave_envelope(designer.candidates, paper_errors)
        lo, hi = walk.dimming_range
        for i in range(51):
            x = lo + (hi - lo) * i / 50
            assert walk.rate_at(x) == pytest.approx(hull.rate_at(x), abs=1e-9)

    def test_envelope_dominates_every_point(self):
        patterns = _patterns(range(2, 25))
        env = slope_walk_envelope(patterns)
        for point in score_points(patterns):
            assert env.rate_at(point.dimming) >= point.rate - 1e-12

    def test_envelope_is_concave(self):
        env = slope_walk_envelope(_patterns(range(2, 25)))
        slopes = []
        for a, b in zip(env.points, env.points[1:]):
            slopes.append((b.rate - a.rate) / (b.dimming - a.dimming))
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))

    def test_anchor_near_half(self):
        # The best pattern sits around l = 0.5 (the paper's footnote 1).
        env = slope_walk_envelope(_patterns(range(2, 25)))
        best = max(env.points, key=lambda p: p.rate)
        assert abs(best.dimming - 0.5) < 0.1

    def test_fig9_vertices(self, config):
        # With N <= 21 (the Fig. 9 window), the top of the envelope is
        # the paper's 0.857 bits/slot plateau of N=21 patterns
        # (S(21, 0.524) in Fig. 9; several K share the rate).
        env = slope_walk_envelope(_patterns(range(2, 22)))
        best = max(env.points, key=lambda p: p.rate)
        assert best.pattern.n_slots == 21
        assert best.rate == pytest.approx(18 / 21, abs=1e-9)
        assert 0.4 <= best.dimming <= 0.6

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            slope_walk_envelope([])

    def test_single_pattern(self):
        env = slope_walk_envelope([SymbolPattern(10, 5)])
        assert len(env.points) == 1
        assert env.rate_at(0.5) == pytest.approx(0.7)

    @given(st.lists(st.tuples(st.integers(4, 30), st.integers(1, 29)),
                    min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_property_walk_equals_hull(self, pairs):
        patterns = []
        for n, k in pairs:
            if k < n and SymbolPattern(n, k).bits > 0:
                patterns.append(SymbolPattern(n, k))
        if not patterns:
            return
        errors = SlotErrorModel(1e-4, 5e-5)
        walk = slope_walk_envelope(patterns, errors)
        hull = upper_concave_envelope(patterns, errors)
        assert walk.points == hull.points


class TestEnvelopeQueries:
    def test_rate_at_vertex_is_exact(self):
        env = slope_walk_envelope(_patterns([10]))
        assert env.rate_at(0.5) == pytest.approx(0.7)

    def test_rate_at_interpolates(self):
        env = slope_walk_envelope(_patterns([10]))
        left = env.rate_at(0.4)
        right = env.rate_at(0.5)
        mid = env.rate_at(0.45)
        assert mid == pytest.approx((left + right) / 2)

    def test_out_of_range_rejected(self):
        env = slope_walk_envelope(_patterns([10]))
        with pytest.raises(ValueError):
            env.rate_at(0.05)

    def test_bracket_returns_adjacent_vertices(self):
        env = slope_walk_envelope(_patterns([10]))
        left, right = env.bracket(0.45)
        assert left.dimming <= 0.45 <= right.dimming
