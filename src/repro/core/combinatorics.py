"""Combinatorial helpers shared by the MPPM-family modulators.

An (N, K) pulse-position symbol can take C(N, K) distinct shapes, of
which a power of two is actually used: each symbol carries
``floor(log2 C(N, K))`` data bits (Eq. (2) of the paper).  The encoder
in :mod:`repro.core.coding` walks the combinadic (combinatorial number
system) order of those shapes, so everything here is exact integer
arithmetic — no floating point, no precomputed tables.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k is outside 0..n.

    ``math.comb`` raises on negative arguments, while the combinadic
    walk naturally steps outside the triangle, so this wrapper returns
    zero there instead.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=65536)
def bits_per_symbol(n: int, k: int) -> int:
    """Number of data bits carried by an (n, k) MPPM symbol.

    This is ``floor(log2 C(n, k))`` computed exactly via integer bit
    length.  Returns 0 when the symbol admits fewer than two shapes
    (i.e. it cannot encode even one bit).
    """
    count = binomial(n, k)
    if count < 2:
        return 0
    return count.bit_length() - 1


def symbol_capacity(n: int, k: int) -> int:
    """Number of codeword values usable by an (n, k) symbol: 2**bits."""
    return 1 << bits_per_symbol(n, k) if bits_per_symbol(n, k) > 0 else 1


def rank_of_codeword(slots: Sequence[bool]) -> int:
    """Rank of an ON/OFF slot vector in the combinadic order.

    The order is the one produced by Algorithm 1 of the paper: among
    codewords with the same N and K, a codeword whose first slot is ON
    sorts before one whose first slot is OFF, recursively.  The rank of
    the all-leading-ONs codeword is therefore 0.
    """
    n = len(slots)
    rank = 0
    ones_left = sum(1 for s in slots if s)
    for i, slot in enumerate(slots):
        remaining = n - i - 1
        if slot:
            ones_left -= 1
        else:
            # An OFF here skips every codeword that placed an ON instead.
            rank += binomial(remaining, ones_left - 1)
    return rank


def iter_weighted_codewords(n: int, k: int) -> Iterator[tuple[bool, ...]]:
    """Yield all (n, k) codewords in combinadic (Algorithm 1) order.

    The reference order the tests check the codec and
    :func:`rank_of_codeword` against; the live system never
    materialises this set.
    """
    if k < 0 or k > n:
        return

    def _rec(prefix: list[bool], remaining: int, ones_left: int) -> Iterator[tuple[bool, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if ones_left > 0:
            prefix.append(True)
            yield from _rec(prefix, remaining - 1, ones_left - 1)
            prefix.pop()
        if remaining - 1 >= ones_left:
            prefix.append(False)
            yield from _rec(prefix, remaining - 1, ones_left)
            prefix.pop()

    yield from _rec([], n, k)
