"""Overlapping Pulse Position Modulation (related work [8, 35]).

An OPPM symbol spans N slots and carries one contiguous pulse of width
W; the pulse may start at any of the N - W + 1 positions (starts are
allowed to overlap between codewords, hence the name), giving
``floor(log2 (N - W + 1))`` bits per symbol at a dimming level of W/N.
Only the first 2**bits starts carry data, and the receiver picks the
nearest of those codewords (best correlation).  Better than VPPM,
still below MPPM — which can scatter its ON slots — and with the same
coarse dimming grid as any fixed-parameter scheme.
"""

from __future__ import annotations

from ..core.params import SystemConfig
from .base import FixedLengthScheme, FixedSymbolDesign, nearest_on_count


class OppmDesign(FixedSymbolDesign):
    """OPPM bound to the nearest W/N duty."""

    def __init__(self, dimming: float, n_slots: int, config: SystemConfig):
        self.width = nearest_on_count("OPPM", dimming, n_slots)
        super().__init__(dimming, n_slots, self.width, config)
        #: number of distinct pulse start positions (at least 2)
        self.positions = n_slots - self.width + 1
        #: data bits per symbol: floor(log2 positions)
        self.bits = self.positions.bit_length() - 1

    def encode(self, value: int) -> list[bool]:
        """A pulse of ``width`` slots starting at slot ``value``."""
        symbol = [False] * self.n_slots
        symbol[value:value + self.width] = [True] * self.width
        return symbol


class Oppm(FixedLengthScheme):
    """Factory for :class:`OppmDesign` with a fixed symbol length."""

    name = "OPPM"

    DEFAULT_N = 16
    design_class = OppmDesign
