"""DarkLight-style communication for lights-off hours (paper Section 7).

The paper positions SmartVLC as orthogonal to DarkLight [35]: "when
illumination is required, SmartVLC can be applied and when illumination
is not required (e.g., at night), DarkLight can then be applied
instead."  This module provides that companion mode: ultra-sparse
single-pulse position modulation whose average light output is so low
(one slot ON out of hundreds) that the LED *appears off* while still
carrying data at a few kbps.

It is an (N, 1) pulse-position code with N far beyond the AMPPM
designer's range; the pulse position carries ``floor(log2 N)`` bits per
symbol and the apparent brightness is 1/N.
"""

from __future__ import annotations

from typing import Sequence

from ..core.params import SystemConfig
from .base import FixedSymbolDesign, ModulationScheme

#: Largest symbol length the frame header can describe (12-bit field).
MAX_DARKLIGHT_N = 4095


class DarkLightDesign(FixedSymbolDesign):
    """Single-pulse PPM at an imperceptible duty cycle."""

    def __init__(self, n_slots: int, config: SystemConfig):
        if not 2 <= n_slots <= MAX_DARKLIGHT_N:
            raise ValueError(
                f"DarkLight symbol length must lie in [2, {MAX_DARKLIGHT_N}]"
            )
        super().__init__(1.0 / n_slots, n_slots, 1, config)
        #: bits per symbol: floor(log2 N) pulse positions are used
        self.bits = n_slots.bit_length() - 1
        #: number of usable pulse positions, 2**bits
        self.positions = 1 << self.bits

    def encode(self, value: int) -> list[bool]:
        """One ON slot, at position ``value``."""
        symbol = [False] * self.n_slots
        symbol[value] = True
        return symbol

    def decode(self, slots: Sequence[bool]) -> int:
        """The pulse position; anything but one usable pulse raises."""
        ons = [i for i, s in enumerate(slots) if s]
        if len(ons) != 1 or ons[0] >= self.positions:
            raise ValueError(f"DarkLight symbol corrupted: pulse positions {ons}")
        return ons[0]


class DarkLight(ModulationScheme):
    """Factory for :class:`DarkLightDesign`.

    ``design(dimming)`` picks the symbol length whose 1/N duty is
    closest to (but not above) the requested darkness level.
    """

    name = "DarkLight"

    DEFAULT_N = 512

    def __init__(self, config: SystemConfig | None = None,
                 n_slots: int | None = None):
        super().__init__(config)
        self.n_slots = n_slots if n_slots is not None else self.DEFAULT_N
        if not 2 <= self.n_slots <= MAX_DARKLIGHT_N:
            raise ValueError(
                f"DarkLight symbol length must lie in [2, {MAX_DARKLIGHT_N}]"
            )

    @property
    def supported_range(self) -> tuple[float, float]:
        return 1.0 / MAX_DARKLIGHT_N, 0.5

    def design(self, dimming: float) -> DarkLightDesign:
        if not 0.0 < dimming <= 0.5:
            raise ValueError("DarkLight serves dimming levels in (0, 0.5]")
        n = min(max(round(1.0 / dimming), 2), MAX_DARKLIGHT_N)
        return DarkLightDesign(n, self.config)

    def darkest_design(self) -> DarkLightDesign:
        """The configured default darkness (duty 1/DEFAULT_N)."""
        return DarkLightDesign(self.n_slots, self.config)
