"""The perception map Ip = 100·sqrt(Im/100) and the flicker bounds it feeds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    SuperSymbol,
    SymbolPattern,
    measured_step_for,
    perceived_step,
    to_measured,
    to_measured_percent,
    to_perceived,
    to_perceived_percent,
)
from repro.lighting.flicker import type2_analyze


class TestPerceptionMap:
    def test_paper_formula_percent(self):
        assert to_perceived_percent(25.0) == pytest.approx(50.0)
        assert to_perceived_percent(100.0) == pytest.approx(100.0)
        assert to_perceived_percent(0.0) == 0.0

    def test_normalized_equivalent(self):
        assert to_perceived(0.25) == pytest.approx(0.5)

    def test_inverse(self):
        for v in (0.0, 0.1, 0.33, 0.5, 0.99, 1.0):
            assert to_measured(to_perceived(v)) == pytest.approx(v)
            assert to_measured_percent(to_perceived_percent(100 * v)) == \
                pytest.approx(100 * v)

    @given(st.floats(0.0, 1.0))
    def test_monotone(self, x):
        y = min(x + 0.01, 1.0)
        assert to_perceived(y) >= to_perceived(x)

    def test_concave_boosts_dark_changes(self):
        # The same measured step is far more visible near darkness.
        assert perceived_step(0.01, 0.02) > perceived_step(0.90, 0.91)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            to_perceived(1.5)
        with pytest.raises(ValueError):
            to_perceived(-0.1)
        with pytest.raises(ValueError):
            to_measured(2.0)


class TestMeasuredStepFor:
    def test_produces_exact_perceived_delta(self):
        for start in (0.0, 0.1, 0.5, 0.9):
            tau = measured_step_for(start, 0.003)
            assert perceived_step(start, start + tau) == pytest.approx(
                0.003, abs=1e-12)

    def test_step_grows_with_intensity(self):
        # Fig. 10(b): the variable tau is larger when the LED is bright.
        steps = [measured_step_for(x, 0.003) for x in (0.05, 0.2, 0.5, 0.9)]
        assert steps == sorted(steps)

    def test_clips_at_full_scale(self):
        step = measured_step_for(0.9999, 0.1)
        assert 0.9999 + step <= 1.0 + 1e-12

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            measured_step_for(0.5, -0.1)


class TestFlickerPredicates:
    def test_type2_threshold(self, config):
        # tau_p = 0.003: a 1e-4 move at mid brightness is invisible, a
        # dark-end move from 0.2 to 0.3 perceived is not.
        assert type2_analyze([0.5, 0.5 + 1e-4], config).flicker_free
        assert not type2_analyze([0.04, 0.09], config).flicker_free

    def test_type2_symmetric(self, config):
        assert perceived_step(0.51, 0.50) == perceived_step(0.50, 0.51)
        assert (type2_analyze([0.51, 0.50], config).max_perceived_step
                == type2_analyze([0.50, 0.51], config).max_perceived_step)

    def test_type1_threshold(self, config):
        # Eq. (4): a super-symbol repeats at f_tx / N_super, so it fuses
        # at f_th = 250 Hz exactly when N_super <= N_max = 500 slots.
        n_max = config.n_max_super
        assert n_max == 500
        for n_super, fuses in ((n_max, True), (n_max // 4, True),
                               (n_max + 1, False)):
            unit = SuperSymbol.single(SymbolPattern(n_super, 1))
            assert unit.flicker_free(config) is fuses
