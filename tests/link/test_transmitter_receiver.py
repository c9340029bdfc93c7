"""Slot-level frame transmission and reception across all schemes."""

import pytest

from repro.core import SystemConfig
from repro.link import (
    CrcError,
    PreambleNotFoundError,
    Receiver,
    Transmitter,
    descriptor_for_design,
)
from repro.link.frame import FrameError
from repro.schemes import AmppmScheme, Mppm, OokCt, Oppm, Vppm


@pytest.fixture(scope="module")
def stack():
    config = SystemConfig()
    return config, Transmitter(config), Receiver(config)


PAYLOAD = bytes(range(96))


class TestRoundTrip:
    @pytest.mark.parametrize("scheme_cls", [AmppmScheme, Mppm, OokCt, Vppm, Oppm])
    @pytest.mark.parametrize("dimming", [0.2, 0.5, 0.8])
    def test_all_schemes_all_levels(self, stack, scheme_cls, dimming):
        config, tx, rx = stack
        design = scheme_cls(config).design_clamped(dimming)
        slots = tx.encode_frame(PAYLOAD, design)
        frame = rx.decode_frame(slots)
        assert frame.payload == PAYLOAD
        assert frame.header.payload_length == len(PAYLOAD)

    def test_long_amppm_frame(self, stack):
        config, tx, rx = stack
        payload = bytes(range(128))
        slots = tx.encode_frame(payload, AmppmScheme(config).design(0.5))
        assert len(slots) > 1000
        assert rx.decode_frame(slots).payload == payload

    def test_empty_payload(self, stack):
        config, tx, rx = stack
        design = OokCt(config).design(0.5)
        slots = tx.encode_frame(b"", design)
        assert rx.decode_frame(slots).payload == b""

    def test_frame_dimming_tracks_design(self, stack):
        config, tx, _ = stack
        design = AmppmScheme(config).design(0.3)
        slots = tx.encode_frame(PAYLOAD, design)
        duty = sum(slots) / len(slots)
        assert duty == pytest.approx(0.3, abs=0.03)

    def test_leading_noise_tolerated(self, stack):
        config, tx, rx = stack
        design = Mppm(config).design(0.4)
        slots = [True, True, False, True] * 5 + tx.encode_frame(PAYLOAD, design)
        frame = rx.decode_frame(slots)
        assert frame.payload == PAYLOAD
        assert frame.start == 20

    def test_back_to_back_frames(self, stack):
        config, tx, rx = stack
        design = AmppmScheme(config).design(0.5)
        slots = (tx.encode_frame(b"first", design)
                 + tx.encode_frame(b"second", design))
        frames = rx.decode_all(slots)
        assert [f.payload for f in frames] == [b"first", b"second"]


class TestCorruption:
    def test_payload_bit_flip_caught(self, stack):
        config, tx, rx = stack
        design = OokCt(config).design(0.5)
        slots = tx.encode_frame(PAYLOAD, design)
        # Index 120 is safely inside the modulated payload section
        # (preamble 24 + header 48 + a short compensation run + sync).
        slots[120] = not slots[120]
        with pytest.raises(FrameError):
            rx.decode_frame(slots)

    def test_header_corruption_detected(self, stack):
        config, tx, rx = stack
        design = OokCt(config).design(0.5)
        slots = tx.encode_frame(PAYLOAD, design)
        # Flip a header bit: either the descriptor breaks (HeaderError)
        # or the final CRC catches it (CrcError) — never silent success.
        slots[24 + 3] = not slots[24 + 3]
        with pytest.raises(FrameError):
            rx.decode_frame(slots)

    def test_truncated_stream(self, stack):
        config, tx, rx = stack
        design = Mppm(config).design(0.5)
        slots = tx.encode_frame(PAYLOAD, design)
        with pytest.raises(FrameError):
            rx.decode_frame(slots[:len(slots) // 2])

    def test_no_preamble(self, stack):
        _, _, rx = stack
        with pytest.raises(PreambleNotFoundError):
            rx.decode_frame([True, False, False] * 30)

    def test_decode_all_skips_corrupt_frames(self, stack):
        config, tx, rx = stack
        design = AmppmScheme(config).design(0.5)
        good = tx.encode_frame(b"good", design)
        bad = tx.encode_frame(b"bad!", design)
        bad[-10] = not bad[-10]
        frames = rx.decode_all(bad + good)
        assert [f.payload for f in frames] == [b"good"]

    def test_crc_error_type(self, stack):
        config, tx, rx = stack
        design = OokCt(config).design(0.5)
        slots = tx.encode_frame(PAYLOAD, design)
        # Flip one payload data slot (OOK: one bit) -> clean CRC failure.
        slots[130] = not slots[130]
        with pytest.raises(CrcError):
            rx.decode_frame(slots)


class TestDescriptorMapping:
    def test_all_designs_have_descriptors(self, stack):
        config, _, _ = stack
        for scheme in (AmppmScheme(config), Mppm(config), OokCt(config),
                       Vppm(config), Oppm(config)):
            descriptor = descriptor_for_design(scheme.design_clamped(0.4))
            assert 0 <= descriptor.to_int() < (1 << 32)

    def test_unknown_design_rejected(self):
        with pytest.raises(TypeError):
            descriptor_for_design(object())  # type: ignore[arg-type]

    def test_overhead_slots_estimate(self, stack):
        config, tx, _ = stack
        design = AmppmScheme(config).design(0.5)
        overhead = tx.frame_overhead_slots(design)
        actual = len(tx.encode_frame(b"", design))
        # b"" still carries a CRC (2 bytes) in the modulated section.
        assert overhead <= actual
        assert actual - overhead <= design.payload_slots(16) + 8
