"""Slot-level and sample-level frame receivers.

:class:`Receiver` consumes a boolean slot stream (the output of a
hard-decision PHY front-end) and walks the Table 1 structure: find the
preamble, read the OOK header, skip the compensation run using the sync
edge, rebuild the payload codec from the Pattern descriptor, decode,
and CRC-check.

:class:`SampleSynchronizer` is the sample-level front-end for the
waveform pipeline: it locates the preamble by correlation against the
±1 preamble template and hands an aligned offset to
:class:`~repro.phy.waveform.SlotSampler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..baselines.darklight import DarkLightDesign
from ..baselines.oppm import OppmDesign
from ..baselines.vppm import VppmDesign
from ..core.coding import SuperSymbolCodec
from ..core.params import SystemConfig
from .bitstream import bits_to_bytes
from .crc import crc16
from .frame import (
    HEADER_SLOTS,
    PREAMBLE_SLOTS,
    SCHEME_DARKLIGHT,
    SCHEME_MPPM,
    SCHEME_OOK,
    SCHEME_OPPM,
    SCHEME_VPPM,
    CrcError,
    FrameError,
    FrameHeader,
    HeaderError,
    PreambleNotFoundError,
    parse_header_slots,
)


@dataclass(frozen=True)
class DecodedFrame:
    """A successfully decoded and CRC-verified frame."""

    header: FrameHeader
    payload: bytes
    start: int
    end: int


def _payload_decoder(header: FrameHeader,
                     config: SystemConfig) -> tuple[Callable[[Sequence[bool], int], list[int]], Callable[[int], int]]:
    """Rebuild (decode_fn, slots_needed_fn) from the Pattern descriptor."""
    descriptor = header.descriptor
    if descriptor.scheme == SCHEME_MPPM:
        codec = SuperSymbolCodec(descriptor.super_symbol())
        return codec.decode_stream, codec.slots_for_bits

    if descriptor.scheme == SCHEME_OOK:
        def slots_needed(n_bits: int) -> int:
            return n_bits

        def decode(slots: Sequence[bool], n_bits: int) -> list[int]:
            return [1 if s else 0 for s in slots[:n_bits]]

        return decode, slots_needed

    if descriptor.scheme == SCHEME_DARKLIGHT:
        n = descriptor.darklight_n
        if n < 2:
            raise HeaderError("malformed DarkLight descriptor")
        design = DarkLightDesign(n, config)
    elif descriptor.scheme in (SCHEME_VPPM, SCHEME_OPPM):
        if descriptor.n2 < 2 or not 0 < descriptor.k2 < descriptor.n2:
            raise HeaderError("malformed pulse-scheme descriptor")
        cls = VppmDesign if descriptor.scheme == SCHEME_VPPM else OppmDesign
        design = cls(descriptor.k2 / descriptor.n2, descriptor.n2, config)
    else:
        raise HeaderError(f"unknown scheme id {descriptor.scheme}")
    return design.decode_payload, design.payload_slots


@dataclass
class Receiver:
    """Walk a slot stream and extract CRC-clean frames."""

    config: SystemConfig = field(default_factory=SystemConfig)

    def find_preamble(self, slots: Sequence[bool], start: int = 0) -> int:
        """Index of the first preamble at or after ``start``.

        Raises :class:`PreambleNotFoundError` when the stream ends
        without one.
        """
        pattern = PREAMBLE_SLOTS
        limit = len(slots) - len(pattern)
        for i in range(max(start, 0), limit + 1):
            if tuple(slots[i:i + len(pattern)]) == pattern:
                return i
        raise PreambleNotFoundError(
            f"no preamble in {len(slots)} slots from index {start}"
        )

    def decode_frame(self, slots: Sequence[bool], start: int = 0) -> DecodedFrame:
        """Decode the first frame at or after ``start``.

        Raises a :class:`FrameError` subclass on any structural or CRC
        failure; the MAC turns those into retransmissions.
        """
        begin = self.find_preamble(slots, start)
        cursor = begin + len(PREAMBLE_SLOTS)

        if cursor + HEADER_SLOTS > len(slots):
            raise HeaderError("slot stream truncated inside the header")
        header = parse_header_slots(list(slots[cursor:cursor + HEADER_SLOTS]))
        cursor += HEADER_SLOTS

        cursor = self._skip_compensation(slots, cursor)

        try:
            decode, slots_needed = _payload_decoder(header, self.config)
        except FrameError:
            raise
        except ValueError as exc:
            raise HeaderError(f"unusable pattern descriptor: {exc}") from exc
        n_bits = 8 * (header.payload_length + 2)  # payload + CRC
        needed = slots_needed(n_bits)
        if cursor + needed > len(slots):
            raise FrameError("slot stream truncated inside the payload")
        try:
            bits = decode(list(slots[cursor:cursor + needed]), n_bits)
        except FrameError:
            raise
        except ValueError as exc:
            # Codeword-level corruption (e.g. wrong ON count) — the
            # frame is undecodable and gets dropped like a CRC failure.
            raise FrameError(f"payload corrupted: {exc}") from exc
        cursor += needed

        data = bits_to_bytes(bits)
        payload, trailer = data[:header.payload_length], data[header.payload_length:]
        expected = crc16(header.to_bytes() + payload)
        if int.from_bytes(trailer, "big") != expected:
            raise CrcError(
                f"CRC mismatch: got {int.from_bytes(trailer, 'big'):#06x}, "
                f"expected {expected:#06x}"
            )
        return DecodedFrame(header, payload, begin, cursor)

    def decode_all(self, slots: Sequence[bool]) -> list[DecodedFrame]:
        """Every CRC-clean frame in the stream (corrupt ones skipped)."""
        frames: list[DecodedFrame] = []
        cursor = 0
        while True:
            try:
                frame = self.decode_frame(slots, cursor)
            except PreambleNotFoundError:
                break
            except FrameError:
                # Skip past this preamble and hunt for the next frame.
                try:
                    cursor = self.find_preamble(slots, cursor) + 1
                except PreambleNotFoundError:
                    break
                continue
            frames.append(frame)
            cursor = frame.end
        return frames

    def _skip_compensation(self, slots: Sequence[bool], cursor: int) -> int:
        """Advance past the compensation run and the sync edge.

        The run is one or more identical slots; the first differing slot
        is the sync edge and the payload starts right after it.
        """
        if cursor >= len(slots):
            raise FrameError("slot stream truncated before compensation")
        run_value = slots[cursor]
        cursor += 1
        while cursor < len(slots) and slots[cursor] == run_value:
            cursor += 1
        if cursor >= len(slots):
            raise FrameError("slot stream truncated inside compensation")
        return cursor + 1  # consume the sync slot


@dataclass
class SampleSynchronizer:
    """Find the frame start in a raw sample stream by correlation."""

    config: SystemConfig = field(default_factory=SystemConfig)

    def preamble_template(self) -> np.ndarray:
        """The ±1 oversampled preamble used for matched filtering."""
        pattern = np.asarray([1.0 if s else -1.0 for s in PREAMBLE_SLOTS])
        return np.repeat(pattern, self.config.oversampling)

    def find_frame_start(self, samples: np.ndarray) -> int:
        """Sample index where the preamble most plausibly begins."""
        samples = np.asarray(samples, dtype=float)
        template = self.preamble_template()
        if samples.size < template.size:
            raise PreambleNotFoundError(
                f"stream of {samples.size} samples is shorter than the preamble"
            )
        centered = samples - samples.mean()
        score = np.correlate(centered, template, mode="valid")
        return int(np.argmax(score))
