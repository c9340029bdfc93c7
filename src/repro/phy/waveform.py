"""Waveform synthesis and the receiver sampling front-end.

The slot-level world of the modulation layer meets the sample-level
world of the hardware here:

* :class:`WaveformSynthesizer` — turn ON/OFF slots into the optical
  waveform the LED actually emits (oversampled, edge-filtered) and then
  into the noisy, quantised sample stream the ADC hands to software.
* :class:`SlotSampler` — the inverse direction: average the samples of
  each slot and threshold against the midpoint of the observed swing,
  recovering ON/OFF decisions.

Frame-level synchronisation (preamble search) lives in
:mod:`repro.link.receiver`; this module assumes slot alignment is known
or is being searched by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.params import SystemConfig
from ..obs import metrics
from .adc import AdcModel
from .channel import VlcChannel
from .led import LedModel
from .optics import LinkGeometry


@dataclass(frozen=True)
class WaveformSynthesizer:
    """TX-side chain: slots → drive → light → photocurrent → samples."""

    config: SystemConfig = field(default_factory=SystemConfig)
    led: LedModel = field(default_factory=LedModel)

    def drive_waveform(self, slots: Sequence[bool]) -> np.ndarray:
        """Ideal 0/1 command waveform, ``oversampling`` samples per slot."""
        slot_array = np.asarray([1.0 if s else 0.0 for s in slots])
        return np.repeat(slot_array, self.config.oversampling)

    def emitted_waveform(self, slots: Sequence[bool],
                         initial: float = 0.0) -> np.ndarray:
        """Normalized optical intensity after LED edge filtering."""
        drive = self.drive_waveform(slots)
        return self.led.apply(drive, self.config.sample_rate, initial=initial)

    def default_adc(self, channel: VlcChannel, geometry: LinkGeometry,
                    ambient: float) -> AdcModel:
        """An ADC whose full scale spans the *actual* operating point.

        The span covers the ambient pedestal plus the signal swing the
        given geometry really delivers, with margin for noise peaks —
        previously the span was hardcoded to a 0.5 m / full-ambient
        link, so at shorter range (or brighter ambient) the ADC
        silently clipped the top of the signal.
        """
        pd = channel.photodiode
        span = (pd.ambient_current(ambient)
                + pd.signal_current(channel.optics.received_power_w(geometry)))
        span = 1.05 * span + 8.0 * pd.noise_sigma(ambient)
        if span <= 0.0:
            # Degenerate dark/blocked link: any positive scale works.
            span = pd.ambient_current(1.0) or 1.0e-6
        return AdcModel(bits=self.config.adc_bits, full_scale=span,
                        sample_rate_hz=self.config.sample_rate)

    def received_samples(self, slots: Sequence[bool], channel: VlcChannel,
                         geometry: LinkGeometry, ambient: float,
                         rng: np.random.Generator,
                         adc: AdcModel | None = None) -> np.ndarray:
        """The full pipeline: what the receiver software actually sees.

        Returns the quantised photocurrent waveform (amps) including
        the ambient DC pedestal and calibrated noise.
        """
        light = self.emitted_waveform(slots)
        optical_power = light * channel.optics.received_power_w(geometry)
        current = channel.photodiode.receive(optical_power, ambient, rng)
        if adc is None:
            adc = self.default_adc(channel, geometry, ambient)
        samples = adc.convert(current)
        metrics().counter("repro_waveform_samples_total",
                          help="ADC samples synthesised").inc(samples.size)
        return samples


@dataclass(frozen=True)
class SlotSampler:
    """RX-side slot recovery from an aligned sample stream."""

    config: SystemConfig = field(default_factory=SystemConfig)
    #: fraction of each slot's samples kept, to dodge the slot edges
    guard_fraction: float = 0.5
    #: samples the kept window is shifted towards the slot's tail, where
    #: the LED has settled; clamped so the window stays inside the slot
    #: (so with ``guard_fraction=1.0`` the shift is necessarily a no-op).
    #: 0 keeps the window truly centred.
    tail_bias: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.guard_fraction <= 1.0:
            raise ValueError("guard_fraction must lie in (0, 1]")
        if self.tail_bias < 0:
            raise ValueError("tail_bias must be non-negative")

    def slot_means(self, samples: np.ndarray, n_slots: int,
                   offset: int = 0) -> np.ndarray:
        """Per-slot mean of each slot's kept window, starting at ``offset``.

        The window holds the ``guard_fraction`` middle samples of the
        slot, shifted ``tail_bias`` samples towards the tail (clamped to
        the slot boundary).
        """
        per_slot = self.config.oversampling
        needed = offset + n_slots * per_slot
        samples = np.asarray(samples, dtype=float)
        if samples.size < needed:
            raise ValueError(
                f"need {needed} samples for {n_slots} slots, got {samples.size}"
            )
        window = samples[offset:needed].reshape(n_slots, per_slot)
        keep = max(1, int(round(per_slot * self.guard_fraction)))
        start = (per_slot - keep) // 2
        start = min(per_slot - keep, start + self.tail_bias)
        return window[:, start:start + keep].mean(axis=1)

    def threshold(self, means: np.ndarray) -> float:
        """Decision threshold: midpoint of the observed swing.

        Uses the 5th/95th percentiles rather than min/max so noise
        outliers — and the ADC's clipping of near-zero currents in dark
        ambient conditions — do not drag the threshold into one of the
        clusters.
        """
        means = np.asarray(means, dtype=float)
        if means.size == 0:
            raise ValueError("cannot threshold an empty slot sequence")
        lo = float(np.percentile(means, 5))
        hi = float(np.percentile(means, 95))
        return 0.5 * (lo + hi)

    def decide(self, samples: np.ndarray, n_slots: int, offset: int = 0,
               threshold: float | None = None) -> list[bool]:
        """Recover ON/OFF slot decisions from aligned samples."""
        means = self.slot_means(samples, n_slots, offset)
        level = self.threshold(means) if threshold is None else threshold
        return [bool(m > level) for m in means]
