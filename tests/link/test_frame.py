"""The Table 1 frame format: descriptor packing, compensation, headers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SuperSymbol, SymbolPattern
from repro.link import (
    HEADER_SLOTS,
    PREAMBLE_SLOTS,
    Frame,
    FrameHeader,
    PatternDescriptor,
    Transmitter,
    compensation_run,
)
from repro.link.frame import (
    SCHEME_MPPM,
    SCHEME_OOK,
    SCHEME_OPPM,
    SCHEME_VPPM,
    HeaderError,
    header_slots,
    parse_header_slots,
)
from repro.schemes import AmppmScheme


class TestPreamble:
    def test_three_bytes(self):
        assert len(PREAMBLE_SLOTS) == 24

    def test_alternating(self):
        assert all(a != b for a, b in zip(PREAMBLE_SLOTS, PREAMBLE_SLOTS[1:]))


class TestPatternDescriptor:
    def test_super_symbol_roundtrip(self):
        s = SuperSymbol(SymbolPattern(21, 11), 3, SymbolPattern(21, 12), 2)
        desc = PatternDescriptor.for_super_symbol(s)
        recovered = PatternDescriptor.from_int(desc.to_int())
        assert recovered == desc
        assert recovered.super_symbol() == s
        assert recovered.scheme == SCHEME_MPPM

    def test_degenerate_super_symbol(self):
        s = SuperSymbol.single(SymbolPattern(20, 4), 2)
        desc = PatternDescriptor.for_super_symbol(s)
        assert PatternDescriptor.from_int(desc.to_int()).super_symbol() == s

    def test_ook_descriptor(self):
        desc = PatternDescriptor.for_ook()
        assert desc.scheme == SCHEME_OOK
        assert PatternDescriptor.from_int(desc.to_int()).scheme == SCHEME_OOK

    def test_pulse_descriptors(self):
        for scheme in (SCHEME_VPPM, SCHEME_OPPM):
            desc = PatternDescriptor.for_pulse(scheme, 16, 5)
            back = PatternDescriptor.from_int(desc.to_int())
            assert back.scheme == scheme
            assert back.n2 == 16
            assert back.k2 == 5

    def test_fits_4_bytes(self):
        s = SuperSymbol(SymbolPattern(63, 62), 15, SymbolPattern(63, 1), 15)
        value = PatternDescriptor.for_super_symbol(s).to_int()
        assert 0 <= value < (1 << 32)

    def test_field_width_validation(self):
        with pytest.raises(ValueError):
            PatternDescriptor(n1=64)
        with pytest.raises(ValueError):
            PatternDescriptor(m1=16)

    def test_malformed_scheme_raises(self):
        desc = PatternDescriptor(n1=0, k1=1)  # k1=1 is not a valid escape
        with pytest.raises(HeaderError):
            _ = desc.scheme

    def test_super_symbol_on_wrong_scheme_raises(self):
        with pytest.raises(HeaderError):
            PatternDescriptor.for_ook().super_symbol()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_property_packing_bijective(self, value):
        desc = PatternDescriptor.from_int(value)
        assert desc.to_int() == value


class TestFrameHeader:
    def test_roundtrip_bytes(self):
        header = FrameHeader(513, PatternDescriptor.for_ook())
        assert FrameHeader.from_bytes(header.to_bytes()) == header

    def test_roundtrip_slots(self):
        header = FrameHeader(
            128, PatternDescriptor.for_super_symbol(
                SuperSymbol.single(SymbolPattern(20, 10))))
        slots = header_slots(header)
        assert len(slots) == HEADER_SLOTS
        assert parse_header_slots(slots) == header

    def test_length_field_bounds(self):
        with pytest.raises(ValueError):
            FrameHeader(0x10000, PatternDescriptor.for_ook()).to_bytes()

    def test_wrong_size_rejected(self):
        with pytest.raises(HeaderError):
            FrameHeader.from_bytes(b"\x00" * 5)
        with pytest.raises(HeaderError):
            parse_header_slots([True] * (HEADER_SLOTS - 1))


class TestCompensation:
    def test_darkens_bright_header(self):
        count, on = compensation_run(36, 72, 0.2, 500)
        assert on is False
        assert (36) / (72 + count) == pytest.approx(0.2, abs=0.01)

    def test_brightens_dark_header(self):
        count, on = compensation_run(10, 72, 0.5, 500)
        assert on is True
        assert (10 + count) / (72 + count) == pytest.approx(0.5, abs=0.01)

    def test_always_at_least_one_slot(self):
        count, _ = compensation_run(36, 72, 0.5, 500)
        assert count >= 1

    def test_capped_by_flicker_bound(self):
        count, _ = compensation_run(36, 72, 0.01, 500)
        assert count <= 500

    def test_invalid_dimming(self):
        with pytest.raises(ValueError):
            compensation_run(10, 72, 0.0, 500)


class TestFrame:
    def test_build_and_protect(self):
        frame = Frame.build(b"payload", PatternDescriptor.for_ook())
        protected = frame.protected_bytes()
        assert frame.verify(protected)
        assert protected[:2] == (7).to_bytes(2, "big")

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame.build(bytes(0x10001), PatternDescriptor.for_ook())

    def test_header_overhead_grows_at_extreme_dimming(self, config):
        scheme, tx = AmppmScheme(config), Transmitter(config)
        mid = tx.frame_overhead_slots(scheme.design(0.5))
        dark = tx.frame_overhead_slots(scheme.design(0.05))
        assert dark > mid
