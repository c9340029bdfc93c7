"""The smart-lighting control loop (Goals 1 and 2)."""

import math

import pytest

from repro.core.adaptation import safe_measured_tau
from repro.lighting import (
    BlindRampAmbient,
    ScheduledAmbient,
    SmartLightingController,
    StaticAmbient,
    type2_analyze,
)
from repro.lighting.controller import AMBIENT_MAX


class TestGoal1ConstantSum:
    def test_sum_constant_over_ramp(self, config, designer):
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        samples = controller.run(BlindRampAmbient(), 67.0)
        for sample in samples:
            assert sample.total == pytest.approx(1.0, abs=1e-9)

    def test_eq5_delta(self, config):
        # △I_led = I1_amb − I2_amb.
        controller = SmartLightingController(target_sum=1.0, config=config)
        controller.tick(0.0, 0.3)
        led_before = controller.led_intensity
        controller.tick(1.0, 0.5)
        assert led_before - controller.led_intensity == pytest.approx(0.2)

    def test_led_clipped_when_ambient_exceeds_target(self, config):
        controller = SmartLightingController(target_sum=0.5, config=config)
        sample = controller.tick(0.0, 0.9)
        assert sample.led == 0.0

    def test_led_clipped_at_full_power(self, config):
        controller = SmartLightingController(target_sum=1.8, config=config)
        sample = controller.tick(0.0, 0.1)
        assert sample.led == 1.0


class TestGoal2FlickerFree:
    def test_internal_steps_respect_tau(self, config):
        controller = SmartLightingController(target_sum=1.0, config=config)
        controller.tick(0.0, 0.2)
        plan = controller._adapter.retarget(0.1)
        assert plan.max_perceived_step <= config.tau_perceived + 1e-12

    def test_trace_type2_clean(self, config, designer):
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        # Collect *all* intermediate levels by stepping with a fine tick.
        samples = controller.run(BlindRampAmbient(), 67.0, tick_s=0.5)
        report = type2_analyze([s.led for s in samples], config)
        # Per-tick ambient moves are slow, so even the tick-to-tick
        # deltas stay near the bound.
        assert report.max_perceived_step <= 5 * config.tau_perceived

    def test_perception_mode_halves_adjustments(self, config):
        smart = SmartLightingController(target_sum=1.0, config=config,
                                        use_perception_domain=True)
        legacy = SmartLightingController(target_sum=1.0, config=config,
                                         use_perception_domain=False)
        profile = BlindRampAmbient()
        smart_samples = smart.run(profile, 67.0)
        legacy_samples = legacy.run(profile, 67.0)
        ratio = legacy_samples[-1].adjustments / smart_samples[-1].adjustments
        assert 1.6 <= ratio <= 2.4  # the paper's ~50% reduction


class TestDesignerIntegration:
    def test_designs_follow_dimming(self, config, designer):
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        sample = controller.tick(0.0, 0.6)
        assert sample.design is not None
        assert sample.design.achieved_dimming == pytest.approx(
            0.4, abs=config.tau_perceived)

    def test_design_cached_when_static(self, config, designer):
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        a = controller.tick(0.0, 0.5).design
        b = controller.tick(1.0, 0.5).design
        assert a is b

    def test_design_changes_with_ambient(self, config, designer):
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        a = controller.tick(0.0, 0.3).design
        b = controller.tick(1.0, 0.7).design
        assert a.achieved_dimming != b.achieved_dimming

    def test_lighting_only_mode(self, config):
        controller = SmartLightingController(target_sum=1.0, config=config)
        assert controller.tick(0.0, 0.5).design is None

    def test_clamps_extreme_dimming(self, config, designer):
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        sample = controller.tick(0.0, 0.999)
        lo, _ = designer.supported_range
        assert sample.design.achieved_dimming >= lo - 1e-9


class TestSettling:
    @pytest.mark.parametrize("target_sum", [0.5, 1.0, 1.8])
    def test_led_starts_at_the_target(self, config, target_sum):
        # Before any ambient is sensed the LED alone carries the target,
        # clipped at full power.
        controller = SmartLightingController(target_sum=target_sum,
                                             config=config)
        assert controller.led_intensity == min(target_sum, 1.0)
        assert controller.adjustments == 0

    def test_unchanged_ambient_moves_nothing(self, config):
        controller = SmartLightingController(target_sum=1.0, config=config)
        controller.tick(0.0, 0.5)
        assert controller.last_plan is not None
        before = controller.adjustments
        sample = controller.tick(1.0, 0.5)
        assert controller.last_plan is None
        assert sample.adjustments == before

    def test_static_ambient_costs_nothing(self, config):
        # The first tick walks the LED from 1.0 to 0.5; no tick after it
        # moves anything.
        controller = SmartLightingController(target_sum=1.0, config=config)
        samples = controller.run(StaticAmbient(0.5), 10.0)
        assert samples[0].adjustments > 0
        assert samples[-1].adjustments == samples[0].adjustments

    def test_step_ambient_single_burst(self, config):
        controller = SmartLightingController(target_sum=1.0, config=config)
        profile = ScheduledAmbient(StaticAmbient(0.2), ((5.0, 0.4),))
        samples = controller.run(profile, 10.0)
        counts = [s.adjustments for s in samples]
        assert counts[-1] == counts[6]  # no further moves after the step
        assert counts[6] > counts[4]


class TestOperatingRange:
    def test_existing_method_step_is_sized_at_the_darkest_led(self, config):
        # The fixed measured-domain step is the flicker-safe one at the
        # LED level that completes the target under AMBIENT_MAX.
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             use_perception_domain=False)
        darkest = controller.required_led(AMBIENT_MAX)
        controller.tick(0.0, AMBIENT_MAX)
        plan = controller.last_plan
        tau_m = safe_measured_tau(darkest, config.tau_perceived)
        assert plan.levels[-1] == darkest
        assert plan.n_steps == math.ceil((1.0 - darkest) / tau_m)
        # Sized there, the walk stays flicker-safe down to that level.
        assert plan.max_perceived_step <= config.tau_perceived + 1e-12


class TestValidation:
    def test_target_sum_range(self, config):
        with pytest.raises(ValueError):
            SmartLightingController(target_sum=0.0, config=config)

    def test_tick_rate(self, config):
        controller = SmartLightingController(target_sum=1.0, config=config)
        with pytest.raises(ValueError):
            controller.run(StaticAmbient(0.5), 1.0, tick_s=0.0)
