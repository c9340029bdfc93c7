"""Combinadic helpers: exactness, ordering, bit capacities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.combinatorics import (
    binomial,
    bits_per_symbol,
    iter_weighted_codewords,
    rank_of_codeword,
    symbol_capacity,
)


class TestBinomial:
    def test_matches_math_comb(self):
        for n in range(0, 30):
            for k in range(0, n + 1):
                assert binomial(n, k) == math.comb(n, k)

    @pytest.mark.parametrize("n,k", [(-1, 0), (5, -1), (3, 4)])
    def test_outside_triangle_is_zero(self, n, k):
        assert binomial(n, k) == 0

    def test_large_exact(self):
        # The paper's 126 TB example: C(50, 25).
        assert binomial(50, 25) == 126410606437752
        # A lookup table of 4-byte codewords would exceed 500 TB.
        assert binomial(50, 25) * 4 > 500e12


class TestBitsPerSymbol:
    def test_paper_eq2_examples(self):
        # S(10, 5): C=252 -> 7 bits; S(20, 2): C=190 -> 7 bits.
        assert bits_per_symbol(10, 5) == 7
        assert bits_per_symbol(20, 2) == 7

    def test_degenerate_symbols_carry_nothing(self):
        assert bits_per_symbol(10, 0) == 0
        assert bits_per_symbol(10, 10) == 0
        assert bits_per_symbol(1, 1) == 0

    def test_exact_power_of_two(self):
        # C(4, 2) = 6 -> 2 bits; C(5, 1) = 5 -> 2 bits; C(4, 1) = 4 -> 2.
        assert bits_per_symbol(4, 2) == 2
        assert bits_per_symbol(5, 1) == 2
        assert bits_per_symbol(4, 1) == 2

    @given(st.integers(2, 40), st.integers(1, 39))
    def test_capacity_is_power_of_two_below_count(self, n, k):
        if k >= n:
            k = n - 1
        cap = symbol_capacity(n, k)
        count = binomial(n, k)
        assert cap <= count
        assert cap & (cap - 1) == 0  # power of two
        if count >= 2:
            assert 2 * cap > count


class TestCombinadicOrder:
    def test_enumeration_matches_rank(self):
        for n, k in [(5, 2), (6, 3), (7, 1), (8, 7)]:
            for expected_rank, codeword in enumerate(iter_weighted_codewords(n, k)):
                assert rank_of_codeword(codeword) == expected_rank

    def test_enumeration_count(self):
        assert sum(1 for _ in iter_weighted_codewords(6, 3)) == binomial(6, 3)

    def test_all_codewords_distinct(self):
        seen = set(iter_weighted_codewords(7, 3))
        assert len(seen) == binomial(7, 3)

    def test_rank_zero_is_leading_ones(self):
        first = next(iter_weighted_codewords(6, 2))
        assert first == (True, True, False, False, False, False)
