"""Ambient light profiles."""

import math

import numpy as np
import pytest

from repro.lighting import (
    LUX_FULL_SCALE,
    BlindRampAmbient,
    CloudyDayAmbient,
    DaylightAmbient,
    ScheduledAmbient,
    StaticAmbient,
)


def reject_each_non_finite(profile, *names):
    """Each named float field, made NaN or ±inf, fails construction."""
    for name in names:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                profile(**{name: bad})


class TestStatic:
    def test_constant(self):
        profile = StaticAmbient(0.4)
        assert profile.intensity(0.0) == profile.intensity(1e6) == 0.4

    def test_lux_mapping(self):
        assert StaticAmbient(1.0).lux(0.0) == pytest.approx(LUX_FULL_SCALE)

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticAmbient(1.5)


class TestBlindRamp:
    def test_endpoints(self):
        ramp = BlindRampAmbient()
        assert ramp.intensity(0.0) == pytest.approx(ramp.start_level)
        assert ramp.intensity(ramp.duration_s) == pytest.approx(ramp.end_level)

    def test_monotone_overall_but_wobbly(self):
        ramp = BlindRampAmbient()
        t = np.linspace(0.0, 67.0, 300)
        trace = ramp.trace(t)
        # Overall increasing...
        assert trace[-1] > trace[0]
        assert np.all(np.diff(trace) > -0.02)
        # ...but not perfectly linear (the paper's observation).
        linear = np.linspace(trace[0], trace[-1], trace.size)
        assert np.abs(trace - linear).max() > 0.005

    def test_deterministic_per_seed(self):
        a = BlindRampAmbient(seed=1).trace(np.linspace(0, 67, 50))
        b = BlindRampAmbient(seed=1).trace(np.linspace(0, 67, 50))
        c = BlindRampAmbient(seed=2).trace(np.linspace(0, 67, 50))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bounded(self):
        ramp = BlindRampAmbient(start_level=0.0, end_level=1.0, wobble=0.1)
        trace = ramp.trace(np.linspace(-5, 80, 400))
        assert np.all(trace >= 0.0)
        assert np.all(trace <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlindRampAmbient(duration_s=0.0)
        with pytest.raises(ValueError):
            BlindRampAmbient(curvature=0.7)

    def test_non_finite_fields_rejected(self):
        reject_each_non_finite(BlindRampAmbient, "start_level", "end_level",
                               "duration_s", "curvature", "wobble")

    @pytest.mark.parametrize("seed", [2017, 3])
    def test_ripple_equals_the_numpy_scalar_sum(self, seed):
        # The reference keeps np.float64 weights and phases, so builtin
        # sum() takes its generic, uncompensated path on every Python.
        ramp = BlindRampAmbient(seed=seed)
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        weights = rng.uniform(0.4, 1.0, size=4)
        weights = weights / weights.sum()
        for t in np.linspace(-1.0, 68.0, 400).tolist():
            x = min(max(t / ramp.duration_s, 0.0), 1.0)
            smooth = x * x * (3.0 - 2.0 * x)
            shaped = (1.0 - ramp.curvature) * x + ramp.curvature * smooth
            level = ramp.start_level + (
                ramp.end_level - ramp.start_level) * shaped
            if 0.0 < x < 1.0:
                ripple = sum(
                    w * math.sin(2.0 * math.pi * (k + 1) * 0.8 * x + p)
                    for k, (w, p) in enumerate(zip(weights, phases)))
                level += ramp.wobble * ripple * math.sin(math.pi * x)
            assert ramp.intensity(t) == min(max(level, 0.0), 1.0)


class TestCloudyDay:
    def test_daylight_arc(self):
        day = CloudyDayAmbient(cloud_depth=0.0)
        dawn = day.intensity(0.0)
        noon = day.intensity(day.day_length_s / 2)
        dusk = day.intensity(day.day_length_s)
        assert dawn == pytest.approx(0.0, abs=1e-9)
        assert noon == pytest.approx(day.peak_level)
        assert dusk == pytest.approx(0.0, abs=1e-9)

    def test_clouds_attenuate(self):
        clear = CloudyDayAmbient(cloud_depth=0.0)
        cloudy = CloudyDayAmbient(cloud_depth=0.6, seed=5)
        t = np.linspace(0, clear.day_length_s, 200)
        assert np.all(cloudy.trace(t) <= clear.trace(t) + 1e-12)

    def test_clouds_move_fast(self):
        day = CloudyDayAmbient(cloud_depth=0.8, cloud_time_scale_s=10.0)
        mid = day.day_length_s / 2
        window = day.trace(np.linspace(mid - 30, mid + 30, 100))
        assert window.max() - window.min() > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            CloudyDayAmbient(cloud_depth=1.0)

    def test_non_finite_fields_rejected(self):
        reject_each_non_finite(CloudyDayAmbient, "day_length_s", "peak_level",
                               "cloud_depth", "cloud_time_scale_s")


class TestDaylight:
    def test_non_finite_fields_rejected(self):
        reject_each_non_finite(DaylightAmbient, "sunrise_s", "sunset_s",
                               "peak_level", "night_level", "shape",
                               "cloud_depth", "cloud_time_scale_s")


class TestStepProfile:
    def test_steps(self):
        # A stepped profile is a static base with pinning steps on top.
        profile = ScheduledAmbient(StaticAmbient(0.1), ((5.0, 0.6),))
        assert profile.intensity(-1.0) == 0.1
        assert profile.intensity(0.0) == 0.1
        assert profile.intensity(4.99) == 0.1
        assert profile.intensity(5.0) == 0.6
        assert profile.intensity(1e6) == 0.6

    def test_validation(self):
        # Levels at either end of [0, 1] and steps that tie in time are
        # accepted (the later tied step wins); a level below 0 is not.
        profile = ScheduledAmbient(StaticAmbient(0.1),
                                   ((1.0, 0.0), (1.0, 1.0), (2.0, None)))
        assert profile.intensity(1.0) == 1.0
        assert profile.intensity(2.0) == 0.1
        with pytest.raises(ValueError, match="step levels"):
            ScheduledAmbient(StaticAmbient(0.1), ((1.0, -0.1),))


class TestScheduled:
    def test_override_pins_then_releases_to_the_base(self):
        base = StaticAmbient(0.4)
        profile = ScheduledAmbient(base=base,
                                   steps=((10.0, 0.05), (20.0, None)))
        assert profile.intensity(9.99) == 0.4
        assert profile.intensity(10.0) == 0.05
        assert profile.intensity(19.99) == 0.05
        assert profile.intensity(20.0) == 0.4
        assert profile.intensity(1e6) == 0.4

# One case per guard: the profile, the offending fields, the message naming them.
OUT_OF_RANGE = [
    pytest.param(BlindRampAmbient, dict(start_level=-0.1), "start_level",
                 id="ramp-start-level"),
    pytest.param(BlindRampAmbient, dict(end_level=1.1), "end_level",
                 id="ramp-end-level"),
    pytest.param(BlindRampAmbient, dict(wobble=-0.01), "wobble",
                 id="ramp-wobble"),
    pytest.param(CloudyDayAmbient, dict(day_length_s=0.0), "time scales",
                 id="cloudy-day-length"),
    pytest.param(CloudyDayAmbient, dict(cloud_time_scale_s=0.0),
                 "time scales", id="cloudy-cloud-time-scale"),
    pytest.param(CloudyDayAmbient, dict(peak_level=0.0), "peak_level",
                 id="cloudy-peak-level"),
    pytest.param(DaylightAmbient, dict(sunrise_s=100.0, sunset_s=50.0),
                 "sunrise_s", id="daylight-sun-order"),
    pytest.param(DaylightAmbient, dict(night_level=0.9, peak_level=0.5),
                 "night_level", id="daylight-level-order"),
    pytest.param(DaylightAmbient, dict(shape=0.0), "shape",
                 id="daylight-shape"),
    pytest.param(DaylightAmbient, dict(cloud_depth=1.0), "cloud_depth",
                 id="daylight-cloud-depth"),
    pytest.param(DaylightAmbient, dict(cloud_time_scale_s=0.0),
                 "cloud_time_scale_s", id="daylight-cloud-time-scale"),
    pytest.param(ScheduledAmbient,
                 dict(base=StaticAmbient(0.3), steps=((5.0, 0.1), (1.0, 0.2))),
                 "non-decreasing", id="scheduled-step-order"),
    pytest.param(ScheduledAmbient,
                 dict(base=StaticAmbient(0.3), steps=((1.0, 1.5),)),
                 "step levels", id="scheduled-step-level"),
    pytest.param(ScheduledAmbient,
                 dict(base=StaticAmbient(0.3),
                      steps=((0.0, 0.1), (5.0, 0.2), (1.0, 0.3))),
                 "non-decreasing", id="step-order"),
]


@pytest.mark.parametrize("profile, fields, message", OUT_OF_RANGE)
def test_out_of_range_parameter_rejected(profile, fields, message):
    with pytest.raises(ValueError, match=message):
        profile(**fields)
