"""Fixed-N MPPM — the compensation-free baseline.

Data rides in the positions of K ON slots within an N-slot symbol
(Fig. 1, "compensation-free approach").  Dimming is a by-product of the
(N, K) choice, so a fixed N offers only the N-1 discrete levels
K/N — the coarse step-wise function the paper criticises.  The
evaluation uses N = 20, the largest value whose SER stays under the
bound at every K (Section 6.2).
"""

from __future__ import annotations

from typing import Sequence

from ..core.coding import decode_symbol, encode_symbol
from ..core.params import SystemConfig
from ..core.symbols import SymbolPattern
from .base import FixedLengthScheme, FixedSymbolDesign, nearest_on_count


class MppmDesign(FixedSymbolDesign):
    """MPPM bound to the nearest achievable K/N level."""

    def __init__(self, dimming: float, n_slots: int, config: SystemConfig):
        k = nearest_on_count("MPPM", dimming, n_slots)
        super().__init__(dimming, n_slots, k, config)
        self.pattern = SymbolPattern(n_slots, k)
        self.bits = self.pattern.bits

    @property
    def quantisation_error(self) -> float:
        """|K/N - target|: the dimming error MPPM cannot avoid."""
        return abs(self.achieved_dimming - self.target_dimming)

    def encode(self, value: int) -> tuple[bool, ...]:
        """The combinadic codeword of ``value`` (Algorithm 1)."""
        return encode_symbol(value, self.n_slots, self.n_on)

    def decode(self, slots: Sequence[bool]) -> int:
        """Algorithm 2; raises CodewordWeightError on a wrong ON count."""
        return decode_symbol(slots, self.n_on)


class Mppm(FixedLengthScheme):
    """Factory for :class:`MppmDesign` with a fixed symbol length."""

    name = "MPPM"

    #: the paper's evaluation choice for the MPPM baseline
    DEFAULT_N = 20
    design_class = MppmDesign

    @property
    def supported_levels(self) -> list[float]:
        """The step-wise K/N levels — what Fig. 6(a) plots."""
        return [k / self.n_slots for k in range(1, self.n_slots)]
