"""Photodiode + transimpedance amplifier: light in, noisy current out.

The receiver chain (SFH206K photodiode into a TLC237 amplifier) is
modelled as a responsivity that converts optical power to photocurrent,
an additive ambient-light photocurrent, and Gaussian noise whose
variance has a thermal floor plus an ambient-dependent (shot) term —
the reason the paper's dynamic run loses a little throughput when the
blind is fully up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhotodiodeModel:
    """Optical-to-electrical conversion with calibrated noise.

    Attributes:
        responsivity_a_per_w: Photocurrent per watt of incident light.
        thermal_noise_a: RMS noise current with no ambient light.
        ambient_noise_gain: Multiplies sqrt(ambient) to add shot noise;
            ``ambient`` is the normalized 0..1 ambient level.
        ambient_full_current_a: Photocurrent produced by ambient level
            1.0 (the DC pedestal the receiver must remove).
    """

    responsivity_a_per_w: float = 0.62
    thermal_noise_a: float = 1.0e-8
    ambient_noise_gain: float = 0.5e-8
    ambient_full_current_a: float = 5.0e-6

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0:
            raise ValueError("responsivity must be positive")
        if self.thermal_noise_a < 0 or self.ambient_noise_gain < 0:
            raise ValueError("noise terms must be non-negative")
        if self.ambient_full_current_a < 0:
            raise ValueError("ambient_full_current_a must be non-negative")

    def signal_current(self, optical_power_w: float) -> float:
        """Photocurrent for a given received optical power."""
        if optical_power_w < 0:
            raise ValueError("optical power must be non-negative")
        return self.responsivity_a_per_w * optical_power_w

    def noise_sigma(self, ambient: float) -> float:
        """RMS noise current at a normalized ambient level."""
        if not 0.0 <= ambient <= 1.0:
            raise ValueError("ambient must lie in [0, 1]")
        return math.hypot(self.thermal_noise_a,
                          self.ambient_noise_gain * math.sqrt(ambient))

    def ambient_current(self, ambient: float) -> float:
        """DC photocurrent contributed by the ambient light."""
        if not 0.0 <= ambient <= 1.0:
            raise ValueError("ambient must lie in [0, 1]")
        return self.ambient_full_current_a * ambient

    def receive(self, optical_waveform_w: np.ndarray, ambient: float,
                rng: np.random.Generator) -> np.ndarray:
        """Convert an optical waveform to a noisy current waveform."""
        optical = np.asarray(optical_waveform_w, dtype=float)
        current = self.responsivity_a_per_w * optical
        current = current + self.ambient_current(ambient)
        sigma = self.noise_sigma(ambient)
        if sigma > 0:
            current = current + rng.normal(0.0, sigma, size=current.shape)
        return current
