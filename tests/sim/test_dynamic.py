"""The Fig. 19 dynamic scenario driver."""

import math

import pytest

from repro.core import SystemConfig
from repro.lighting import (BlindRampAmbient, SmartLightingController,
                            StaticAmbient)
from repro.sim import DynamicScenario


@pytest.fixture(scope="module")
def result():
    return DynamicScenario(config=SystemConfig()).run()


class TestRun:
    def test_tick_count(self, result):
        assert len(result.ticks) == 68  # 0..67 inclusive at 1 s

    def test_sum_constant(self, result):
        assert max(result.sum_trace) - min(result.sum_trace) < 1e-9

    def test_led_mirrors_ambient(self, result):
        # Blind goes up -> ambient rises -> LED dims.
        assert result.ambient_trace[-1] > result.ambient_trace[0]
        assert result.led_trace[-1] < result.led_trace[0]

    def test_throughput_in_paper_band(self, result):
        # Fig. 19(a): roughly 50-110 kbps over the run.
        assert min(result.throughput_bps) > 30e3
        assert 90e3 < max(result.throughput_bps) < 130e3

    def test_throughput_peaks_mid_run(self, result):
        # The dimming level crosses 0.5 mid-ramp where AMPPM peaks.
        series = result.throughput_bps
        n = len(series)
        mid = max(series[n // 3: 2 * n // 3])
        assert mid == max(series)

    def test_adaptation_counts_cumulative(self, result):
        smart = result.cumulative_adjustments_smart
        existing = result.cumulative_adjustments_existing
        assert all(b >= a for a, b in zip(smart, smart[1:]))
        assert all(b >= a for a, b in zip(existing, existing[1:]))

    def test_paper_50pct_reduction(self, result):
        assert 0.40 <= result.adaptation_reduction <= 0.60

    def test_traces_are_each_controllers_own_run(self, result):
        # The two controllers share no state, and designing moves no
        # light: each trace is what a lighting-only run reports.
        config = SystemConfig()
        smart = SmartLightingController(target_sum=1.0, config=config
                                        ).run(BlindRampAmbient(), 67.0)
        existing = SmartLightingController(
            target_sum=1.0, config=config, use_perception_domain=False
        ).run(BlindRampAmbient(), 67.0)
        assert result.times == [sample.t for sample in smart]
        assert result.ambient_trace == [sample.ambient for sample in smart]
        assert result.led_trace == [sample.led for sample in smart]
        assert result.cumulative_adjustments_smart \
            == [sample.adjustments for sample in smart]
        assert result.cumulative_adjustments_existing \
            == [sample.adjustments for sample in existing]


class TestStaticProfile:
    def test_static_ambient_is_flat(self):
        scenario = DynamicScenario(config=SystemConfig(),
                                   profile=StaticAmbient(0.5),
                                   duration_s=10.0)
        result = scenario.run()
        assert max(result.throughput_bps) == pytest.approx(
            min(result.throughput_bps))
        assert result.ticks[-1].adjustments_smart == \
            result.ticks[1].adjustments_smart


class TestValidation:
    # Construction only: tick_s=0 used to make run() loop forever.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["duration_s", "tick_s", "target_sum"])
    def test_non_finite_fields_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DynamicScenario(**{name: bad})

    @pytest.mark.parametrize("tick_s", [0.0, -1.0])
    def test_tick_must_be_positive(self, tick_s):
        with pytest.raises(ValueError, match="tick_s"):
            DynamicScenario(tick_s=tick_s)

    def test_duration_must_be_non_negative(self):
        with pytest.raises(ValueError, match="duration_s"):
            DynamicScenario(duration_s=-1.0)
        assert len(DynamicScenario(duration_s=0.0,
                                   profile=StaticAmbient(0.5)).run().ticks) == 1
