"""The delta-debugging reducer: building blocks, greedy loop, laws.

The hypothesis classes pin the two properties the fuzzing pipeline
depends on: *threshold recovery* (a defect guarded by ``value >= T``
shrinks to exactly ``T``) and *idempotence* (shrinking a minimal repro
is a fixed point — zero further steps).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import (
    ShrinkStats,
    shrink,
    shrink_float,
    shrink_int,
    shrink_list,
)


class TestShrinkInt:
    def test_candidates_move_strictly_down_toward_the_floor(self):
        candidates = list(shrink_int(40, 3))
        assert candidates[0] == 3
        assert all(3 <= c < 40 for c in candidates)
        assert len(candidates) == len(set(candidates))
        assert 39 in candidates  # the single decrement is always tried

    def test_at_the_floor_yields_nothing(self):
        assert list(shrink_int(3, 3)) == []
        assert list(shrink_int(2, 3)) == []

    @given(value=st.integers(1, 10_000), lo=st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_ladder_invariants(self, value, lo):
        candidates = list(shrink_int(value, lo))
        if value <= lo:
            assert candidates == []
        else:
            assert all(lo <= c < value for c in candidates)
            assert candidates == sorted(set(candidates))


class TestShrinkFloat:
    def test_target_first_then_roundings(self):
        candidates = list(shrink_float(0.123456, 0.0))
        assert candidates[0] == 0.0
        assert 0.1 in candidates and 0.123 in candidates

    def test_exact_target_yields_nothing(self):
        assert list(shrink_float(0.5, 0.5)) == [] or \
            all(c != 0.5 for c in shrink_float(0.5, 0.5))


class TestShrinkList:
    def test_coarse_to_fine(self):
        candidates = list(shrink_list([1, 2, 3, 4]))
        assert candidates[0] == []
        assert [3, 4] in candidates and [1, 2] in candidates
        assert [2, 3, 4] in candidates  # single deletions
        assert all(len(c) < 4 for c in candidates)

    def test_empty_yields_nothing(self):
        assert list(shrink_list([])) == []


def _threshold_candidates(params):
    for x in shrink_int(params["x"], 0):
        yield {**params, "x": x}
    for y in shrink_int(params["y"], 0):
        yield {**params, "y": y}


class TestGreedyShrink:
    def test_threshold_defect_shrinks_to_the_exact_threshold(self):
        outcome = shrink({"x": 977, "y": 450},
                         lambda p: p["x"] >= 12 and p["y"] >= 24,
                         _threshold_candidates)
        assert outcome.params == {"x": 12, "y": 24}
        assert not outcome.exhausted

    def test_threshold_just_above_half_the_start_is_reached(self):
        # Each threshold sits just above half its start value: every
        # candidate below half passes, so only a ladder that climbs
        # back toward the start converges within the budget.
        outcome = shrink({"x": 463, "y": 785},
                         lambda p: p["x"] >= 232 and p["y"] >= 393,
                         _threshold_candidates, max_attempts=10_000)
        assert outcome.params == {"x": 232, "y": 393}
        assert not outcome.exhausted

    def test_budget_exhaustion_keeps_a_failing_repro(self):
        outcome = shrink({"x": 10_000, "y": 10_000},
                         lambda p: p["x"] >= 9_000 and p["y"] >= 9_000,
                         _threshold_candidates, max_attempts=3)
        assert outcome.exhausted
        assert outcome.params["x"] >= 9_000 and outcome.params["y"] >= 9_000

    def test_never_evaluates_the_starting_params(self):
        calls = []

        def predicate(p):
            calls.append(dict(p))
            return False

        shrink({"x": 5, "y": 5}, predicate, _threshold_candidates)
        assert {"x": 5, "y": 5} not in calls

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            shrink({"x": 1, "y": 1}, lambda p: True,
                   _threshold_candidates, max_attempts=-1)

    @given(x0=st.integers(0, 400), y0=st.integers(0, 400),
           x=st.integers(0, 2_000), y=st.integers(0, 2_000))
    @settings(max_examples=100, deadline=None)
    def test_idempotence_shrinking_a_minimum_is_a_fixed_point(
            self, x0, y0, x, y):
        """The satellite law: shrink(shrink(p)) adopts zero candidates."""
        if not (x >= x0 and y >= y0):
            return  # the starting case must fail

        def fails(p):
            return p["x"] >= x0 and p["y"] >= y0

        first = shrink({"x": x, "y": y}, fails, _threshold_candidates,
                       max_attempts=10_000)
        assert first.params == {"x": x0, "y": y0}
        second = shrink(first.params, fails, _threshold_candidates,
                        max_attempts=10_000)
        assert second.steps == 0
        assert second.params == first.params


class TestShrinkStats:
    def test_tally(self):
        stats = ShrinkStats()
        outcome = shrink({"x": 100, "y": 100},
                         lambda p: p["x"] >= 10 and p["y"] >= 10,
                         _threshold_candidates)
        stats.add("codec", outcome)
        stats.add("codec", outcome)
        assert stats.findings == 2
        assert stats.by_oracle == {"codec": 2}
        assert stats.steps == 2 * outcome.steps
