"""Waveform-level integration: the full TX → optics → RX chain."""

import numpy as np
import pytest

from repro.core import SystemConfig
from repro.link.receiver import SampleSynchronizer
from repro.link.transmitter import Transmitter
from repro.phy import LinkGeometry
from repro.phy.waveform import SlotSampler, WaveformSynthesizer
from repro.schemes import AmppmScheme, Mppm, OokCt
from repro.sim import EndToEndLink
from repro.sim.endtoend import EndToEndReport


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

        def slot_errors(ambient):
            link = EndToEndLink(config=config, ambient=ambient,
                                geometry=LinkGeometry.on_axis(4.8))
            rng = np.random.default_rng(99)
            return sum(link.send_frame(bytes(64), design, rng).slot_errors
                       for _ in range(10))

        assert slot_errors(0.05) <= slot_errors(1.0)


class TestBatchParity:
    """Slot error rates measured over a batch of ``send_frame`` reports."""

    def test_measured_ser_bit_identical_to_scalar(self, config):
        # Each frame draws one received waveform from the stream, and
        # its report counts exactly the slot decisions that differ from
        # what was sent: the pipeline's stages replayed one by one on
        # the same seed give the same rate, not just statistically.
        design = AmppmScheme(config).design(0.5)
        link = EndToEndLink(config=config,
                            geometry=LinkGeometry.on_axis(4.8))
        rng = np.random.default_rng(1234)
        reports = [link.send_frame(bytes(48), design, rng) for _ in range(8)]
        measured = (sum(r.slot_errors for r in reports)
                    / sum(r.n_slots for r in reports))

        slots = Transmitter(config).encode_frame(bytes(48), design)
        padded = ([False] * link.leading_silence_slots + slots
                  + [False] * link.leading_silence_slots)
        synth = WaveformSynthesizer(config)
        sync = SampleSynchronizer(config)
        sampler = SlotSampler(config)
        replay_rng = np.random.default_rng(1234)
        flips = 0
        for _ in range(8):
            samples = synth.received_samples(padded, link.channel,
                                             link.geometry, link.ambient,
                                             replay_rng)
            start = sync.find_frame_start(samples)
            decided = sampler.decide(
                samples, (samples.size - start) // config.oversampling,
                offset=start)
            flips += sum(1 for sent, got in zip(slots, decided) if sent != got)
        assert measured == flips / (8 * len(slots))
        assert measured > 0  # 4.8 m is noisy enough to exercise errors

    def test_zero_frames(self):
        # A measurement that carried no slots reads a rate of zero.
        assert EndToEndReport(False, None, 0, 0).slot_error_rate == 0.0


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
