"""Algorithms 1-2: the combinatorial-dichotomy codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CodewordWeightError,
    StreamCodec,
    SuperSymbol,
    SuperSymbolCodec,
    SymbolCodec,
    SymbolPattern,
    decode_symbol,
    encode_symbol,
    symbol_capacity,
)
from repro.core.combinatorics import iter_weighted_codewords, rank_of_codeword


class TestEncodeSymbol:
    def test_weight_is_always_k(self):
        for n, k in [(10, 3), (20, 10), (50, 25)]:
            for value in (0, 1, symbol_capacity(n, k) - 1):
                cw = encode_symbol(value, n, k)
                assert len(cw) == n
                assert sum(cw) == k

    def test_exhaustive_roundtrip_small(self):
        for n, k in [(5, 2), (8, 3), (10, 5), (12, 1), (12, 11)]:
            for value in range(symbol_capacity(n, k)):
                assert decode_symbol(encode_symbol(value, n, k), k) == value

    def test_injective(self):
        n, k = 9, 4
        seen = {encode_symbol(v, n, k) for v in range(symbol_capacity(n, k))}
        assert len(seen) == symbol_capacity(n, k)

    def test_combinadic_order(self):
        # encode(value) must be the value-th codeword in Algorithm 1's order.
        n, k = 7, 3
        ordered = list(iter_weighted_codewords(n, k))
        for value in range(symbol_capacity(n, k)):
            assert encode_symbol(value, n, k) == ordered[value]
            assert rank_of_codeword(ordered[value]) == value

    def test_large_symbol_roundtrip(self):
        # N=50, K=25 would need a 126 TB lookup table (Section 4.4);
        # the arithmetic codec handles it directly.
        n, k = 50, 25
        for value in (0, 1, 10**9, 2**40 + 12345, symbol_capacity(n, k) - 1):
            assert decode_symbol(encode_symbol(value, n, k), k) == value

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            encode_symbol(symbol_capacity(10, 5), 10, 5)
        with pytest.raises(ValueError):
            encode_symbol(-1, 10, 5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            encode_symbol(0, 5, 0)

    @given(st.integers(2, 63), st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        cap = symbol_capacity(n, k)
        if cap < 2:
            return
        value = data.draw(st.integers(0, cap - 1))
        cw = encode_symbol(value, n, k)
        assert sum(cw) == k
        assert decode_symbol(cw, k) == value


class TestDecodeSymbol:
    def test_wrong_weight_detected(self):
        cw = list(encode_symbol(3, 10, 4))
        cw[0] = not cw[0]
        with pytest.raises(CodewordWeightError) as exc:
            decode_symbol(cw, 4)
        assert exc.value.expected_k == 4

    def test_weight_preserving_corruption_aliases(self):
        # A swap of an ON and an OFF keeps the weight: decoding succeeds
        # but yields a different value — this is why frames carry a CRC.
        cw = list(encode_symbol(5, 10, 4))
        on = cw.index(True)
        off = cw.index(False)
        cw[on], cw[off] = cw[off], cw[on]
        assert decode_symbol(cw, 4) != 5


class TestSymbolCodec:
    def test_rejects_zero_bit_patterns(self):
        with pytest.raises(ValueError):
            SymbolCodec(SymbolPattern(3, 3))

    def test_length_check(self):
        codec = SymbolCodec(SymbolPattern(10, 5))
        with pytest.raises(ValueError):
            codec.decode([True] * 9)


class TestStreamCodec:
    def test_rejects_a_cycle_without_data(self):
        # An empty walk would never consume a bit.
        with pytest.raises(ValueError):
            StreamCodec([])

    def test_cycle_of_one_symbol(self):
        codec = StreamCodec([SymbolCodec(SymbolPattern(10, 2))])  # 5 bits
        bits = [1, 0, 1, 1, 0, 0, 1]
        slots, padding = codec.encode_stream(bits)
        assert (len(slots), padding) == (20, 3)
        assert codec.decode_stream(slots, len(bits)) == bits


    def test_msb_first(self):
        symbol = SymbolCodec(SymbolPattern(5, 2))  # C(5,2)=10 -> 3 bits
        codec = StreamCodec([symbol])
        slots, padding = codec.encode_stream([1, 1, 0])
        assert (slots, padding) == (list(symbol.encode(6)), 0)
        assert codec.decode_stream(symbol.encode(6), 3) == [1, 1, 0]

    def test_padding_fills_the_last_symbol_with_zeros(self):
        symbol = SymbolCodec(SymbolPattern(5, 2))
        codec = StreamCodec([symbol])
        slots, padding = codec.encode_stream([1, 0, 1, 1])
        assert padding == 2
        assert slots == list(symbol.encode(0b101) + symbol.encode(0b100))
        assert codec.decode_stream(slots, 4) == [1, 0, 1, 1]

    def test_rejects_non_bits(self):
        codec = StreamCodec([SymbolCodec(SymbolPattern(5, 2))])
        with pytest.raises(ValueError, match="0 or 1"):
            codec.encode_stream([0, 2, 1])

    def test_empty_stream(self):
        codec = StreamCodec([SymbolCodec(SymbolPattern(5, 2))])
        assert codec.encode_stream([]) == ([], 0)
        assert codec.decode_stream([], 0) == []


class TestSuperSymbolCodec:
    def _codec(self) -> SuperSymbolCodec:
        s = SuperSymbol(SymbolPattern(10, 2), 2, SymbolPattern(10, 3), 1)
        return SuperSymbolCodec(s)

    def test_bits_and_slots(self):
        codec = self._codec()
        assert codec.bits == 2 * 5 + 6  # C(10,2)=45->5 bits, C(10,3)=120->6
        assert codec.n_slots == 30

    def test_unit_roundtrip(self):
        codec = self._codec()
        bits = [(i * 5 + 1) % 2 for i in range(codec.bits)]
        slots = codec.encode(bits)
        assert len(slots) == codec.n_slots
        assert codec.decode(slots) == bits

    def test_stream_roundtrip_with_partial_unit(self):
        codec = self._codec()
        # 50 bits: 2 full units (44) plus a partial one.
        bits = [(i * 7 + 3) % 2 for i in range(50)]
        slots, padding = codec.encode_stream(bits)
        assert padding < max(c.bits for c in codec.symbol_plan(50))
        assert codec.decode_stream(slots, 50) == bits

    def test_partial_unit_saves_slots(self):
        codec = self._codec()
        # One bit should cost one symbol, not one super-symbol.
        assert codec.slots_for_bits(1) == 10
        assert codec.slots_for_bits(codec.bits) == codec.n_slots

    def test_symbol_plan_walk_order(self):
        codec = self._codec()
        plan = codec.symbol_plan(codec.bits + 1)
        kinds = [c.pattern for c in plan]
        assert kinds[:3] == [SymbolPattern(10, 2)] * 2 + [SymbolPattern(10, 3)]
        assert kinds[3] == SymbolPattern(10, 2)  # the walk wraps around

    def test_stream_length_validation(self):
        codec = self._codec()
        with pytest.raises(ValueError):
            codec.decode_stream([True] * 7)

    def test_whole_unit_decode_without_bit_count(self):
        codec = self._codec()
        bits = [1, 0] * (codec.bits // 2) + [1] * (codec.bits % 2)
        slots, _ = codec.encode_stream(bits)
        assert codec.decode_stream(slots)[:len(bits)] == bits

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_stream_roundtrip(self, data):
        n1 = data.draw(st.integers(4, 16))
        k1 = data.draw(st.integers(1, n1 - 1))
        n2 = data.draw(st.integers(4, 16))
        k2 = data.draw(st.integers(1, n2 - 1))
        p1, p2 = SymbolPattern(n1, k1), SymbolPattern(n2, k2)
        if p1.bits == 0 or p2.bits == 0:
            return
        codec = SuperSymbolCodec(SuperSymbol(p1, 2, p2, 2))
        n_bits = data.draw(st.integers(1, 200))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n_bits,
                                  max_size=n_bits))
        slots, _ = codec.encode_stream(bits)
        assert len(slots) == codec.slots_for_bits(n_bits)
        assert codec.decode_stream(slots, n_bits) == bits
