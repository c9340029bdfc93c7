"""Super-symbols: multiplexing two symbol patterns (Sections 4.1-4.2).

A super-symbol ⟨S1(N1, l1), m1, S2(N2, l2), m2⟩ concatenates m1 symbols
of the first pattern with m2 of the second.  Its dimming level is the
slot-weighted average of the two patterns' levels, which is how AMPPM
reaches dimming levels *between* the discrete levels any single pattern
can offer — without touching the per-symbol error rate, because every
constituent symbol is still decoded on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errormodel import SlotErrorModel
from .params import SystemConfig
from .symbols import SymbolPattern


@dataclass(frozen=True)
class SuperSymbol:
    """⟨S1, m1, S2, m2⟩ — the transmission unit of AMPPM.

    A single-pattern super-symbol is expressed with ``m2 == 0`` and
    ``second`` equal to ``first`` (the canonical degenerate form used
    when the target dimming level falls exactly on a candidate).
    """

    first: SymbolPattern
    m1: int
    second: SymbolPattern
    m2: int

    def __post_init__(self) -> None:
        if self.m1 < 1:
            raise ValueError("m1 must be at least 1")
        if self.m2 < 0:
            raise ValueError("m2 must be non-negative")
        if self.m2 == 0 and self.second != self.first:
            raise ValueError("degenerate super-symbols must repeat `first`")

    @property
    def n_slots(self) -> int:
        """Total slots N_super = m1*N1 + m2*N2."""
        return self.m1 * self.first.n_slots + self.m2 * self.second.n_slots

    @property
    def n_on(self) -> int:
        """Total ON slots across the super-symbol."""
        return self.m1 * self.first.n_on + self.m2 * self.second.n_on

    @property
    def dimming(self) -> float:
        """l_super: slot-weighted average of the two dimming levels."""
        return self.n_on / self.n_slots

    @property
    def bits(self) -> int:
        """Data bits carried by one super-symbol."""
        return self.m1 * self.first.bits + self.m2 * self.second.bits

    @property
    def n_symbols(self) -> int:
        """Number of constituent symbols, m1 + m2."""
        return self.m1 + self.m2

    def duration(self, config: SystemConfig) -> float:
        """Duration of one super-symbol in seconds."""
        return self.n_slots * config.t_slot

    def symbols(self) -> Iterator[SymbolPattern]:
        """Yield the constituent patterns in transmission order."""
        for _ in range(self.m1):
            yield self.first
        for _ in range(self.m2):
            yield self.second

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        """Expected data bits per slot, optionally SER-discounted.

        Each constituent symbol is decoded independently, so the
        expected goodput is the per-pattern SER-discounted bit count
        averaged over the super-symbol's slots.
        """
        bits1 = self.m1 * self.first.bits
        bits2 = self.m2 * self.second.bits
        if errors is not None:
            bits1 *= 1.0 - self.first.symbol_error_rate(errors)
            bits2 *= 1.0 - self.second.symbol_error_rate(errors)
        return (bits1 + bits2) / self.n_slots

    def data_rate(self, config: SystemConfig,
                  errors: SlotErrorModel | None = None) -> float:
        """Expected data rate in bit/s at the PHY (no frame overhead)."""
        return self.normalized_rate(errors) / config.t_slot

    def flicker_free(self, config: SystemConfig) -> bool:
        """True when the super-symbol meets the Type-I constraint.

        The brightness pattern repeats once per super-symbol, so its
        repetition frequency is f_tx / N_super; Eq. (4) requires
        N_super <= N_max.
        """
        return self.n_slots <= config.n_max_super

    @classmethod
    def single(cls, pattern: SymbolPattern, repeats: int = 1) -> "SuperSymbol":
        """A degenerate super-symbol using one pattern only."""
        return cls(pattern, repeats, pattern, 0)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.m2 == 0:
            return f"<{self.first} x{self.m1}>"
        return f"<{self.first} x{self.m1} | {self.second} x{self.m2}>"


def compose(first: SymbolPattern, second: SymbolPattern, target_dimming: float,
            config: SystemConfig, tolerance: float | None = None) -> SuperSymbol:
    """Choose repeat counts so the super-symbol hits ``target_dimming``.

    Searches m1 in 1..m_cap and m2 in 0..m_cap subject to the Type-I
    flicker bound (N_super <= N_max) and returns the combination whose
    dimming level is closest to the target; ties are broken towards the
    higher error-free normalized rate, then towards fewer slots (a
    shorter super-symbol restarts the brightness cycle sooner).

    ``tolerance`` (default: the configured perceived step tau_p) is the
    acceptable |achieved - target| gap; exceeding it raises ValueError
    because the resulting brightness error would be user-visible.
    """
    if not 0.0 < target_dimming < 1.0:
        raise ValueError("target dimming must lie in (0, 1)")
    if tolerance is None:
        tolerance = config.tau_perceived

    lo, hi = sorted((first.dimming, second.dimming))
    if not lo - tolerance <= target_dimming <= hi + tolerance:
        raise ValueError(
            f"target {target_dimming:.4f} outside the span "
            f"[{lo:.4f}, {hi:.4f}] of the given patterns"
        )

    best: SuperSymbol | None = None
    best_key: tuple[float, float, int] | None = None
    for m1 in range(0, config.m_cap + 1):
        for m2 in range(0, config.m_cap + 1):
            if m1 == 0 and m2 == 0:
                continue
            if m1 > 0 and m2 > 0 and second == first:
                break
            if m1 == 0:
                candidate = SuperSymbol.single(second, m2)
            elif m2 == 0:
                candidate = SuperSymbol.single(first, m1)
            else:
                candidate = SuperSymbol(first, m1, second, m2)
            if candidate.n_slots > config.n_max_super:
                break
            gap = abs(candidate.dimming - target_dimming)
            key = (gap, -candidate.normalized_rate(), candidate.n_slots)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
    if best is None or abs(best.dimming - target_dimming) > tolerance:
        achieved = float("nan") if best is None else best.dimming
        raise ValueError(
            f"no flicker-free multiplexing of {first} and {second} reaches "
            f"dimming {target_dimming:.4f} within {tolerance:.4f} "
            f"(closest: {achieved:.4f})"
        )
    return best


def reachable_dimming_levels(first: SymbolPattern, second: SymbolPattern,
                             config: SystemConfig) -> list[float]:
    """All dimming levels reachable by multiplexing the two patterns.

    This is the set plotted in Fig. 6(b): every flicker-free (m1, m2)
    combination contributes one level.  Sorted and de-duplicated.
    """
    levels = {second.dimming}
    for m1 in range(1, config.m_cap + 1):
        for m2 in range(0, config.m_cap + 1):
            if m2 > 0 and second == first:
                break
            n_slots = m1 * first.n_slots + m2 * second.n_slots
            if n_slots > config.n_max_super:
                break
            n_on = m1 * first.n_on + m2 * second.n_on
            levels.add(n_on / n_slots)
    return sorted(levels)
