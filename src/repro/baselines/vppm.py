"""Variable Pulse Position Modulation (IEEE 802.15.7 dimming scheme).

Each symbol spans N slots and carries exactly one bit: a pulse of width
W placed at the leading edge encodes one value, at the trailing edge the
other (a blend of 2-PPM and PWM).  Dimming is the pulse duty W/N, so
the resolution is 1/N, but the rate is a flat 1/N bit per slot — which
is why the paper notes VPPM is outperformed by MPPM in theory and omits
it from the measurements.  Included here as a related-work extension.

The receiver makes a nearest-codeword (Hamming) decision, but a symbol
counts as received only when all its slots decode correctly (Eq. (3)):
a matched-filter receiver does better, and the slot-wise bound keeps
VPPM comparable with the MPPM analysis.
"""

from __future__ import annotations

from ..core.params import SystemConfig
from .base import FixedLengthScheme, FixedSymbolDesign, nearest_on_count


class VppmDesign(FixedSymbolDesign):
    """VPPM bound to the nearest W/N duty."""

    bits = 1

    def __init__(self, dimming: float, n_slots: int, config: SystemConfig):
        self.width = nearest_on_count("VPPM", dimming, n_slots)
        super().__init__(dimming, n_slots, self.width, config)

    def encode(self, value: int) -> list[bool]:
        """A leading-edge pulse for 0, a trailing-edge pulse for 1."""
        gap = [False] * (self.n_slots - self.width)
        pulse = [True] * self.width
        return gap + pulse if value else pulse + gap


class Vppm(FixedLengthScheme):
    """Factory for :class:`VppmDesign` with a fixed symbol length."""

    name = "VPPM"

    DEFAULT_N = 10
    design_class = VppmDesign
