"""Waveform-level integration: the full TX → optics → RX chain."""

import numpy as np
import pytest

from repro.core import SystemConfig
from repro.phy import LinkGeometry
from repro.schemes import AmppmScheme, Mppm, OokCt
from repro.sim import EndToEndLink


@pytest.fixture(scope="module")
def config():
    return SystemConfig()


class TestDelivery:
    @pytest.mark.parametrize("scheme_cls", [AmppmScheme, Mppm, OokCt])
    def test_short_range_delivers(self, config, scheme_cls, rng):
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(2.0))
        design = scheme_cls(config).design_clamped(0.4)
        report = link.send_frame(bytes(range(48)), design, rng)
        assert report.delivered
        assert report.slot_errors == 0

    def test_various_dimming_levels(self, config, rng):
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(2.5))
        scheme = AmppmScheme(config)
        for level in (0.15, 0.5, 0.85):
            report = link.send_frame(b"dimming sweep", scheme.design(level), rng)
            assert report.delivered, level

    def test_far_range_fails(self, config, rng):
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(7.0))
        design = AmppmScheme(config).design(0.5)
        failures = sum(
            not link.send_frame(bytes(16), design, rng).delivered
            for _ in range(5))
        assert failures >= 4

    def test_off_axis_fails_at_distance(self, config, rng):
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_arc(3.3, 14.0))
        design = AmppmScheme(config).design(0.5)
        report = link.send_frame(bytes(24), design, rng)
        near = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_arc(1.3, 14.0))
        report_near = near.send_frame(bytes(24), design, rng)
        assert report_near.delivered
        assert report_near.slot_errors <= report.slot_errors

    def test_ambient_noise_costs_margin(self, config):
        # Same noise draws on both links (same seed): only the ambient
        # noise term differs, so the dark link cannot do worse.
        design = AmppmScheme(config).design(0.5)
        dark = EndToEndLink(config=config, ambient=0.05,
                            geometry=LinkGeometry.on_axis(4.8))
        bright = EndToEndLink(config=config, ambient=1.0,
                              geometry=LinkGeometry.on_axis(4.8))
        dark_errs = dark.measure_slot_error_rate(
            design, bytes(64), 10, np.random.default_rng(99))
        bright_errs = bright.measure_slot_error_rate(
            design, bytes(64), 10, np.random.default_rng(99))
        assert dark_errs <= bright_errs


class TestBatchParity:
    def test_measured_ser_bit_identical_to_scalar(self, config):
        # Both paths consume the identical random stream, so the rates
        # must match exactly — not just statistically.
        design = AmppmScheme(config).design(0.5)
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(4.8))
        batched = link.measure_slot_error_rate(
            design, bytes(48), 8, np.random.default_rng(1234))
        rng = np.random.default_rng(1234)
        reports = [link.send_frame(bytes(48), design, rng) for _ in range(8)]
        scalar = (sum(r.slot_errors for r in reports)
                  / sum(r.n_slots for r in reports))
        assert batched == scalar
        assert batched > 0  # 4.8 m is noisy enough to exercise errors

    def test_zero_frames(self, config):
        link = EndToEndLink(config=config)
        design = AmppmScheme(config).design(0.5)
        assert link.measure_slot_error_rate(
            design, bytes(8), 0, np.random.default_rng(0)) == 0.0


class TestReport:
    def test_slot_error_rate_field(self, config, rng):
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(1.0))
        report = link.send_frame(bytes(8), AmppmScheme(config).design(0.5), rng)
        assert report.slot_error_rate == 0.0
        assert report.frame is not None
        assert report.failure == ""

    def test_failure_reported(self, config, rng):
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(8.0))
        report = link.send_frame(bytes(8), AmppmScheme(config).design(0.5), rng)
        if not report.delivered:
            assert report.failure != ""
