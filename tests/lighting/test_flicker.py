"""Type-I and Type-II flicker detectors."""

import pytest

from repro.lighting import (
    max_constant_run,
    type1_perceptual,
    type1_structural_ok,
    type2_analyze,
)


class TestMaxRun:
    def test_alternating(self):
        assert max_constant_run([True, False] * 10) == 1

    def test_run_in_middle(self):
        assert max_constant_run([True, False, False, False, True]) == 3

    def test_empty(self):
        assert max_constant_run([]) == 0


class TestType1Structural:
    def test_amppm_streams_pass(self, config, designer):
        from repro.schemes import AmppmScheme
        scheme = AmppmScheme(config)
        bits = [(i * 3 + 1) % 2 for i in range(2048)]
        for level in (0.1, 0.5, 0.9):
            slots = scheme.design(level).encode_payload(bits)
            assert type1_structural_ok(slots, config)

    def test_long_run_fails(self, config):
        slots = [True] * (config.n_max_super + 1) + [False]
        assert not type1_structural_ok(slots, config)

    def test_boundary_run_passes(self, config):
        slots = [False] + [True] * config.n_max_super + [False]
        assert type1_structural_ok(slots, config)


class TestType1Perceptual:
    def test_fast_alternation_fuses(self, config):
        report = type1_perceptual([True, False] * 600, config)
        assert report.flicker_free
        assert report.mean_brightness == pytest.approx(0.5, abs=0.01)

    def test_slow_square_wave_flickers(self, config):
        # 1000 slots ON then 1000 OFF = 62.5 Hz at 125 kHz slots.
        slots = ([True] * 1000 + [False] * 1000) * 3
        report = type1_perceptual(slots, config)
        assert not report.flicker_free

    def test_needs_one_window(self, config):
        with pytest.raises(ValueError):
            type1_perceptual([True] * 10, config)


class TestType2:
    def test_smooth_trace_clean(self, config):
        from repro.core import plan_perceived_steps
        plan = plan_perceived_steps(0.2, 0.8, config.tau_perceived)
        report = type2_analyze((0.2,) + plan.levels, config)
        assert report.flicker_free

    def test_jump_detected(self, config):
        report = type2_analyze([0.2, 0.2, 0.35, 0.35], config)
        assert not report.flicker_free
        assert report.worst_index == 1

    def test_short_traces_trivially_clean(self, config):
        assert type2_analyze([0.5], config).flicker_free
        assert type2_analyze([], config).flicker_free


class TestDesignerOutputsAreFlickerFree:
    def test_every_design_fits_one_fusion_window(self, designer, config):
        # Eq. (4): the super-symbol repeats above f_th.
        for level in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            design = designer.design(level)
            assert design.super_symbol.flicker_free(config)

    def test_modulated_payload_perceptually_steady(self, config, designer):
        design = designer.design(0.5)
        bits = [(i * 5 + 1) % 2 for i in range(4096)]
        slots = design.encode_payload(bits)
        report = type1_perceptual(slots, config, threshold=0.05)
        assert report.flicker_free
