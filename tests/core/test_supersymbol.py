"""Super-symbols: multiplexing arithmetic, flicker bound, composition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SuperSymbol,
    SymbolPattern,
    SystemConfig,
    compose,
    reachable_dimming_levels,
)


class TestSuperSymbol:
    def test_paper_example_dimming(self):
        # Appending S(10, 0.2) to S(10, 0.1) gives dimming 0.15 (Fig. 5).
        s = SuperSymbol(SymbolPattern(10, 1), 1, SymbolPattern(10, 2), 1)
        assert s.dimming == pytest.approx(0.15)
        assert s.n_slots == 20

    def test_paper_example_finer_resolution(self):
        # Three S(10, 0.2) after one S(10, 0.1): dimming 0.175.
        s = SuperSymbol(SymbolPattern(10, 1), 1, SymbolPattern(10, 2), 3)
        assert s.dimming == pytest.approx(0.175)

    def test_bits_sum(self):
        # C(10,5)=252 -> 7 bits; C(10,2)=45 -> 5 bits.
        s = SuperSymbol(SymbolPattern(10, 5), 2, SymbolPattern(10, 2), 1)
        assert s.bits == 2 * 7 + 5

    def test_symbols_order(self):
        s = SuperSymbol(SymbolPattern(10, 1), 2, SymbolPattern(10, 2), 1)
        seq = list(s.symbols())
        assert seq == [SymbolPattern(10, 1)] * 2 + [SymbolPattern(10, 2)]

    def test_multiplexing_does_not_raise_ser(self, paper_errors):
        # Each constituent decodes separately: the per-symbol SER of a
        # super-symbol's parts equals the standalone SER.
        p1, p2 = SymbolPattern(10, 1), SymbolPattern(10, 2)
        s = SuperSymbol(p1, 1, p2, 1)
        rate = s.normalized_rate(paper_errors)
        expected = (p1.bits * (1 - p1.symbol_error_rate(paper_errors))
                    + p2.bits * (1 - p2.symbol_error_rate(paper_errors))) / 20
        assert rate == pytest.approx(expected)

    def test_flicker_bound(self, config):
        p = SymbolPattern(50, 25)
        assert SuperSymbol.single(p, 10).flicker_free(config)       # 500 slots
        assert not SuperSymbol.single(p, 11).flicker_free(config)   # 550 slots

    def test_degenerate_requires_same_pattern(self):
        with pytest.raises(ValueError):
            SuperSymbol(SymbolPattern(10, 1), 1, SymbolPattern(10, 2), 0)

    def test_m1_must_be_positive(self):
        with pytest.raises(ValueError):
            SuperSymbol(SymbolPattern(10, 1), 0, SymbolPattern(10, 1), 0)

    def test_duration(self, config):
        s = SuperSymbol(SymbolPattern(10, 1), 1, SymbolPattern(10, 2), 1)
        assert s.duration(config) == pytest.approx(20 * 8e-6)


class TestCompose:
    def test_hits_exact_midpoint(self, config):
        s = compose(SymbolPattern(10, 1), SymbolPattern(10, 2), 0.15, config)
        assert s.dimming == pytest.approx(0.15)

    def test_within_tolerance(self, config):
        p1, p2 = SymbolPattern(10, 1), SymbolPattern(10, 2)
        for target in (0.11, 0.125, 0.17, 0.19):
            s = compose(p1, p2, target, config)
            assert abs(s.dimming - target) <= config.tau_perceived

    def test_endpoint_uses_single_pattern(self, config):
        p1, p2 = SymbolPattern(10, 1), SymbolPattern(10, 2)
        s = compose(p1, p2, 0.2, config)
        assert s.dimming == pytest.approx(0.2)

    def test_respects_flicker_bound(self, config):
        p1, p2 = SymbolPattern(50, 5), SymbolPattern(50, 8)
        s = compose(p1, p2, 0.13, config)
        assert s.n_slots <= config.n_max_super

    def test_prefers_higher_rate_on_ties(self, config):
        # Both endpoints reach 0.5 exactly; the better-rate one must win.
        good = SymbolPattern(20, 10)   # 17 bits / 20 slots
        bad = SymbolPattern(4, 2)      # 2 bits / 4 slots
        s = compose(bad, good, 0.5, config)
        assert s.normalized_rate() == pytest.approx(good.normalized_rate())

    def test_out_of_span_rejected(self, config):
        with pytest.raises(ValueError):
            compose(SymbolPattern(10, 1), SymbolPattern(10, 2), 0.5, config)

    def test_invalid_target_rejected(self, config):
        with pytest.raises(ValueError):
            compose(SymbolPattern(10, 1), SymbolPattern(10, 2), 0.0, config)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_dimming_within_tolerance(self, data):
        config = SystemConfig()
        n1 = data.draw(st.integers(5, 25))
        n2 = data.draw(st.integers(5, 25))
        k1 = data.draw(st.integers(1, n1 - 1))
        k2 = data.draw(st.integers(1, n2 - 1))
        p1, p2 = SymbolPattern(n1, k1), SymbolPattern(n2, k2)
        lo, hi = sorted((p1.dimming, p2.dimming))
        if hi - lo < 1e-9:
            return
        target = data.draw(st.floats(lo, hi))
        if not 0.0 < target < 1.0:
            return
        # Worst-case hole in the reachable set sits next to an endpoint:
        # the step from a pure pattern to the most lopsided mix.
        gap = hi - lo
        hole = gap * max(n1 / (n1 + config.m_cap * n2),
                         n2 / (n2 + config.m_cap * n1))
        tolerance = max(config.tau_perceived, hole)
        s = compose(p1, p2, target, config, tolerance=tolerance)
        assert abs(s.dimming - target) <= tolerance
        assert s.n_slots <= config.n_max_super


class TestReachableLevels:
    def test_includes_both_endpoints(self, config):
        p1, p2 = SymbolPattern(10, 1), SymbolPattern(10, 2)
        levels = reachable_dimming_levels(p1, p2, config)
        assert p1.dimming in levels
        assert p2.dimming in levels

    def test_fig6_densification(self, config):
        # Multiplexing two N=10 patterns yields many more levels than 2.
        p1, p2 = SymbolPattern(10, 1), SymbolPattern(10, 2)
        levels = reachable_dimming_levels(p1, p2, config)
        assert len(levels) > 10
        assert levels == sorted(levels)

    def test_all_levels_within_span(self, config):
        p1, p2 = SymbolPattern(10, 3), SymbolPattern(10, 7)
        for level in reachable_dimming_levels(p1, p2, config):
            assert p1.dimming - 1e-12 <= level <= p2.dimming + 1e-12
