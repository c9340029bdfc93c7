"""Combinatorial-dichotomy MPPM encoder/decoder (Algorithms 1 and 2).

Classical pulse-position codecs map data to codewords through lookup
tables or constellation graphs; at N = 50, K = 25 that table would hold
C(50, 25) ≈ 1.26e14 entries (the paper's 126 TB example).  SmartVLC
instead walks the combinadic: at each slot the encoder compares the
remaining value against C(N-i, K-j) — the number of codewords that
place an ON here — and branches, so encoding and decoding are O(N)
big-integer operations with no table at all.

The paper's pseudocode fills the tail from ``iN + 1`` after the main
loop, which would leave slot ``iN`` unwritten because ``iN`` has already
advanced past the last slot the loop touched; we fill from ``iN``
(0-indexed: from the loop's exit position) instead, which is the
behaviour the accompanying prose describes.

:class:`StreamCodec` is the one symbol walk that turns a bit stream
into slots and back, for any cycle of codeword maps: an AMPPM
super-symbol's constituent symbols (:class:`SuperSymbolCodec`) or a
fixed-symbol baseline's single shape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .combinatorics import binomial, bits_per_symbol, symbol_capacity
from .supersymbol import SuperSymbol
from .symbols import SymbolPattern


def encode_symbol(value: int, n: int, k: int) -> tuple[bool, ...]:
    """Encode ``value`` into an (n, k) codeword (Algorithm 1).

    ``value`` must be below 2**bits_per_symbol(n, k); the returned tuple
    has exactly ``n`` entries of which exactly ``k`` are True (ON).
    """
    capacity = symbol_capacity(n, k)
    if bits_per_symbol(n, k) == 0:
        raise ValueError(f"S({n},{k}) carries no data bits")
    if not 0 <= value < capacity:
        raise ValueError(
            f"value {value} out of range for S({n},{k}) (capacity {capacity})"
        )

    slots: list[bool] = []
    remaining = value
    ones_left = k
    zeros_left = n - k
    while ones_left > 0 and zeros_left > 0:
        with_on_here = binomial(ones_left + zeros_left - 1, ones_left - 1)
        if remaining >= with_on_here:
            slots.append(False)
            remaining -= with_on_here
            zeros_left -= 1
        else:
            slots.append(True)
            ones_left -= 1
    # One side is exhausted: the tail is forced.
    slots.extend([True] * ones_left)
    slots.extend([False] * zeros_left)
    return tuple(slots)


def decode_symbol(slots: Sequence[bool], k: int) -> int:
    """Decode an (n, k) codeword back to its value (Algorithm 2).

    ``k`` is known from the frame header; it is validated against the
    codeword so corrupted inputs fail loudly instead of aliasing.
    """
    n = len(slots)
    observed_k = sum(1 for s in slots if s)
    if observed_k != k:
        raise CodewordWeightError(n, k, observed_k)

    value = 0
    ones_left = k
    for i, slot in enumerate(slots):
        if ones_left == 0:
            break
        remaining = n - i - 1
        if remaining < ones_left:
            break  # tail is forced ONs
        if slot:
            ones_left -= 1
        else:
            value += binomial(remaining, ones_left - 1)
    return value


class CodewordWeightError(ValueError):
    """Raised when a codeword's ON count disagrees with the header."""

    def __init__(self, n: int, expected_k: int, observed_k: int):
        super().__init__(
            f"codeword of length {n} has {observed_k} ONs, expected {expected_k}"
        )
        self.n = n
        self.expected_k = expected_k
        self.observed_k = observed_k


class SymbolCodec:
    """Codeword map of one fixed symbol pattern (Algorithms 1 and 2)."""

    def __init__(self, pattern: SymbolPattern):
        if pattern.bits == 0:
            raise ValueError(f"{pattern} carries no data bits")
        self.pattern = pattern
        #: data bits consumed/produced per symbol
        self.bits = pattern.bits
        #: slots per codeword
        self.n_slots = pattern.n_slots

    def encode(self, value: int) -> tuple[bool, ...]:
        """Encode one symbol's worth of data."""
        return encode_symbol(value, self.n_slots, self.pattern.n_on)

    def decode(self, slots: Sequence[bool]) -> int:
        """Decode one codeword; raises CodewordWeightError on corruption."""
        if len(slots) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} slots, got {len(slots)}")
        return decode_symbol(slots, self.pattern.n_on)


class StreamCodec:
    """Encode/decode a bit stream through a repeating cycle of symbols.

    Each entry of ``cycle`` is a codeword map exposing ``bits``,
    ``n_slots``, ``encode(value)`` and ``decode(slots)``: a
    :class:`SymbolCodec`, or a fixed-symbol baseline design, which is
    its own map.  Bits are consumed most-significant-first, one symbol
    at a time, in cycle order, repeating.  A stream may end mid-cycle:
    the final unit is truncated at a symbol boundary, so at most one
    *symbol* of padding is ever transmitted.  Both sides derive the
    symbol walk from the frame header's bit count, so no extra
    signalling is needed.
    """

    def __init__(self, cycle: Iterable):
        self._cycle = tuple(cycle)
        if sum(c.bits for c in self._cycle) < 1:
            raise ValueError("a symbol cycle must carry data bits")

    def symbol_plan(self, n_bits: int) -> list:
        """The symbol sequence that carries ``n_bits`` data bits."""
        if n_bits <= 0:
            return []
        plan = []
        remaining = n_bits
        while remaining > 0:
            for codec in self._cycle:
                plan.append(codec)
                remaining -= codec.bits
                if remaining <= 0:
                    break
        return plan

    def slots_for_bits(self, n_bits: int) -> int:
        """Slots needed to carry ``n_bits`` data bits."""
        return sum(c.n_slots for c in self.symbol_plan(n_bits))

    def encode_stream(self, bits: Iterable[int]) -> tuple[list[bool], int]:
        """Encode an arbitrary stream of 0/1 bits, zero-padding the final
        symbol; any other bit value raises ValueError.

        Returns the slot sequence and the number of padding bits added
        (the receiver drops them using the frame's length field).
        """
        buffered = list(bits)
        plan = self.symbol_plan(len(buffered))
        capacity = sum(c.bits for c in plan)
        padding = capacity - len(buffered)
        buffered.extend([0] * padding)
        slots: list[bool] = []
        cursor = 0
        for codec in plan:
            chunk = buffered[cursor:cursor + codec.bits]
            cursor += codec.bits
            value = 0
            for bit in chunk:
                if bit not in (0, 1):
                    raise ValueError(f"payload bits must be 0 or 1, got {bit!r}")
                value = (value << 1) | (1 if bit else 0)
            slots.extend(codec.encode(value))
        return slots, padding

    def decode_stream(self, slots: Sequence[bool], n_bits: int) -> list[int]:
        """Decode the symbols that carry ``n_bits`` bits, dropping padding.

        The symbol walk for ``n_bits`` is replayed: slots past its end
        are ignored, and a shorter stream raises ValueError.
        """
        plan = self.symbol_plan(n_bits)
        needed = sum(c.n_slots for c in plan)
        if len(slots) < needed:
            raise ValueError(f"need {needed} slots for {n_bits} bits, "
                             f"got {len(slots)}")
        bits: list[int] = []
        cursor = 0
        for codec in plan:
            n = codec.n_slots
            value = codec.decode(slots[cursor:cursor + n])
            cursor += n
            for shift in range(codec.bits - 1, -1, -1):
                bits.append((value >> shift) & 1)
        return bits[:n_bits]


class SuperSymbolCodec(StreamCodec):
    """Encode/decode a bit stream through AMPPM super-symbols.

    The walk's cycle is the super-symbol's constituent symbols in
    transmission order: m1 symbols of the first pattern, then m2 of the
    second.
    """

    def __init__(self, super_symbol: SuperSymbol):
        self.super_symbol = super_symbol
        super().__init__(SymbolCodec(p) for p in super_symbol.symbols())

    @property
    def bits(self) -> int:
        """Data bits per full super-symbol."""
        return self.super_symbol.bits

    @property
    def n_slots(self) -> int:
        """Slots per full super-symbol."""
        return self.super_symbol.n_slots

    def encode(self, bits: Sequence[int]) -> list[bool]:
        """Encode exactly one super-symbol's worth of bits into slots."""
        if len(bits) != self.bits:
            raise ValueError(f"expected {self.bits} bits, got {len(bits)}")
        slots, _ = self.encode_stream(bits)
        return slots

    def decode(self, slots: Sequence[bool]) -> list[int]:
        """Decode one full super-symbol's slots back into bits."""
        if len(slots) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} slots, got {len(slots)}")
        return self.decode_stream(slots, self.bits)

    def decode_stream(self, slots: Sequence[bool],
                      n_bits: int | None = None) -> list[int]:
        """Decode a slot stream back to ``n_bits`` bits.

        When ``n_bits`` is omitted the stream must be a whole number of
        super-symbols, and all of their bits are returned.
        """
        if n_bits is None:
            if len(slots) % self.n_slots:
                raise ValueError(
                    f"slot count {len(slots)} is not a multiple of {self.n_slots}"
                )
            n_bits = len(slots) // self.n_slots * self.bits
        return super().decode_stream(slots, n_bits)
