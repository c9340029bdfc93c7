"""Symbol patterns S(N, l): the unit the AMPPM designer reasons about.

Following the paper's definitions (Section 3), a *symbol* is N time
slots of which K are ON; its dimming level is l = K / N (Eq. (1)) and
its data capacity is ``floor(log2 C(N, K))`` bits (Eq. (2)).  A symbol
pattern deliberately does not fix which slots are ON — that choice is
what carries the data (see :mod:`repro.core.coding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .combinatorics import bits_per_symbol
from .errormodel import SlotErrorModel
from .params import SystemConfig


@dataclass(frozen=True, order=True)
class SymbolPattern:
    """An (N, K) multiple-pulse-position symbol pattern.

    Ordering is lexicographic on (n_slots, n_on), which keeps candidate
    enumeration deterministic.
    """

    n_slots: int
    n_on: int

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError("a symbol needs at least one slot")
        if not 0 <= self.n_on <= self.n_slots:
            raise ValueError(
                f"n_on must lie in [0, n_slots], got K={self.n_on} N={self.n_slots}"
            )

    @property
    def dimming(self) -> float:
        """Dimming level l = K / N, Eq. (1)."""
        return self.n_on / self.n_slots

    @property
    def bits(self) -> int:
        """Data bits carried per symbol: floor(log2 C(N, K))."""
        return bits_per_symbol(self.n_slots, self.n_on)

    def duration(self, config: SystemConfig) -> float:
        """Symbol duration T = N * t_slot in seconds."""
        return self.n_slots * config.t_slot

    def symbol_error_rate(self, errors: SlotErrorModel) -> float:
        """PSER of this pattern under the given slot error model (Eq. (3))."""
        return errors.symbol_error_rate(self.n_slots, self.n_on)

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        """Expected data bits per slot, optionally SER-discounted.

        Without an error model this is the ``bits / N`` quantity plotted
        on the y-axis of the paper's Figs. 6 and 9; with one it is the
        goodput factor of Eq. (2) divided by the slot rate.
        """
        rate = self.bits / self.n_slots
        if errors is not None:
            rate *= 1.0 - self.symbol_error_rate(errors)
        return rate

    def data_rate(self, config: SystemConfig,
                  errors: SlotErrorModel | None = None) -> float:
        """Achievable data rate in bit/s, Eq. (2)."""
        return self.normalized_rate(errors) / config.t_slot

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"S({self.n_slots}, {self.dimming:.3f})"


def enumerate_patterns(n_values: Iterable[int]) -> Iterator[SymbolPattern]:
    """Yield every data-bearing pattern S(N, K) for the given N values.

    K runs over 1..N-1: all-ON and all-OFF symbols carry no data and are
    never candidates (they are plain dimming, not modulation).
    """
    for n in n_values:
        if n < 2:
            continue
        for k in range(1, n):
            yield SymbolPattern(n, k)


def candidate_patterns(config: SystemConfig,
                       errors: SlotErrorModel) -> list[SymbolPattern]:
    """Patterns surviving the paper's Step 1 and Step 2 pruning.

    Step 1 bounds the symbol length by the flicker constraint
    (N <= N_max, Eq. (4)) and the designer's cap; Step 2 abandons any
    pattern whose symbol error rate exceeds ``config.ser_bound``
    (Fig. 8).  Patterns that carry zero bits are also dropped.
    """
    n_hi = min(config.n_cap, config.n_max_super)
    kept = []
    for pattern in enumerate_patterns(range(config.n_min, n_hi + 1)):
        if pattern.bits == 0:
            continue
        if pattern.symbol_error_rate(errors) > config.ser_bound:
            continue
        kept.append(pattern)
    return kept
