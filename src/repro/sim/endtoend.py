"""Waveform-level end-to-end simulation: the whole prototype in one run.

This is the integration path that exercises every substrate at the
sample level — the analytic link model's results must be explainable by
what happens here:

    payload → frame slots → LED drive → edge-filtered light →
    Lambertian channel → photocurrent + ambient + noise → ADC →
    preamble correlation → slot decisions → frame decode → CRC

Used by the integration tests and the ``waveform_link`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import SchemeDesign
from ..core.params import SystemConfig
from ..link.frame import FrameError
from ..link.receiver import DecodedFrame, Receiver, SampleSynchronizer
from ..link.transmitter import Transmitter
from ..obs import metrics
from ..phy.channel import VlcChannel, calibrated_channel
from ..phy.optics import LinkGeometry
from ..phy.waveform import SlotSampler, WaveformSynthesizer


@dataclass(frozen=True)
class EndToEndReport:
    """Outcome of one waveform-level frame exchange."""

    delivered: bool
    frame: DecodedFrame | None
    slot_errors: int
    n_slots: int
    failure: str = ""

    @property
    def slot_error_rate(self) -> float:
        if self.n_slots == 0:
            return 0.0
        return self.slot_errors / self.n_slots


@dataclass
class EndToEndLink:
    """A complete TX → optics → RX chain at the sample level."""

    config: SystemConfig = field(default_factory=SystemConfig)
    channel: VlcChannel | None = None
    geometry: LinkGeometry = field(
        default_factory=lambda: LinkGeometry.on_axis(3.0))
    ambient: float = 1.0
    #: samples of ambient-only silence prepended before the frame
    leading_silence_slots: int = 16

    def __post_init__(self) -> None:
        if self.channel is None:
            self.channel = calibrated_channel(self.config)
        self._tx = Transmitter(self.config)
        self._rx = Receiver(self.config)
        self._synth = WaveformSynthesizer(self.config)
        self._sync = SampleSynchronizer(self.config)
        self._sampler = SlotSampler(self.config)

    def send_frame(self, payload: bytes, design: SchemeDesign,
                   rng: np.random.Generator) -> EndToEndReport:
        """Push one frame through the full pipeline."""
        registry = metrics()
        registry.counter("repro_endtoend_frames_total",
                         help="frames pushed through the waveform path").inc()
        slots = self._tx.encode_frame(payload, design)
        padded = ([False] * self.leading_silence_slots + slots
                  + [False] * self.leading_silence_slots)
        samples = self._synth.received_samples(
            padded, self.channel, self.geometry, self.ambient, rng)

        start = self._sync.find_frame_start(samples)
        available = (samples.size - start) // self.config.oversampling
        decided = self._sampler.decide(samples, available, offset=start)

        slot_errors = sum(
            1 for sent, got in zip(slots, decided) if sent != got)
        registry.counter("repro_endtoend_slot_errors_total",
                         help="slot decisions that flipped end to end") \
            .inc(slot_errors)
        try:
            frame = self._rx.decode_frame(decided)
        except FrameError as exc:
            registry.counter("repro_endtoend_frame_failures_total",
                             help="waveform-path frames lost to decode "
                                  "errors").inc()
            return EndToEndReport(False, None, slot_errors, len(slots),
                                  failure=str(exc))
        delivered = frame.payload == payload
        if not delivered:
            registry.counter("repro_endtoend_frame_failures_total",
                             help="waveform-path frames lost to decode "
                                  "errors").inc()
        return EndToEndReport(delivered, frame, slot_errors, len(slots),
                              failure="" if delivered else "payload mismatch")
