"""The SmartVLC frame format (Table 1).

::

    Preamble | Length | Pattern | Compensation | Sync  | Payload | CRC
    3 bytes  | 2 B    | 4 B     | x B          | 1 bit | 0-MAX B | 2 B

* **Preamble** — 24 slots of alternating ON/OFF marking a frame start.
* **Length** — payload byte count, big-endian.
* **Pattern** — a 32-bit descriptor of the modulation the payload uses
  (for AMPPM: the super-symbol tuple ⟨N1,K1,m1,N2,K2,m2⟩), so the
  receiver can decode without out-of-band agreement.
* **Compensation** — a run of identical slots sized so the brightness of
  preamble+header matches the payload's dimming level (no intra-frame
  Type-II flicker).
* **Sync** — a single slot of the opposite value, i.e. an edge, telling
  the receiver where the compensation run ends.
* **Payload + CRC** — scheme-modulated; the CRC-16 covers length,
  pattern and payload bytes.

The preamble and header are plain OOK: the receiver must read them
*before* it knows the payload's modulation parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.params import MAX_PAYLOAD_BYTES
from ..core.supersymbol import SuperSymbol
from ..core.symbols import SymbolPattern
from .bitstream import bits_to_bytes, bytes_to_bits
from .crc import append_crc, check_crc

#: 3 bytes of alternating ON/OFF (Table 1's Preamble).
PREAMBLE_SLOTS: tuple[bool, ...] = tuple(bool((i + 1) % 2) for i in range(24))
#: ON and OFF slots of the preamble.
PREAMBLE_ON_SLOTS = sum(PREAMBLE_SLOTS)
PREAMBLE_OFF_SLOTS = len(PREAMBLE_SLOTS) - PREAMBLE_ON_SLOTS

#: Length (2 B) + Pattern (4 B) encoded as OOK.
HEADER_BYTES = 6
HEADER_SLOTS = HEADER_BYTES * 8

#: Scheme identifiers carried by the Pattern field (see
#: :class:`PatternDescriptor` for the encoding).
SCHEME_OOK = 0
SCHEME_MPPM = 1  # covers MPPM, AMPPM and any super-symbol scheme
SCHEME_VPPM = 2
SCHEME_OPPM = 3
SCHEME_DARKLIGHT = 4


class FrameError(ValueError):
    """Base class for frame parsing failures."""


class PreambleNotFoundError(FrameError):
    """No preamble in the slot stream."""


class HeaderError(FrameError):
    """The header failed to parse into a usable pattern descriptor."""


class CrcError(FrameError):
    """The frame check sequence did not match (frame is dropped)."""


@dataclass(frozen=True)
class PatternDescriptor:
    """The 4-byte Pattern field: which modulation the payload uses.

    Bit layout (MSB first): ``n1:6 | k1:6 | n2:6 | k2:6 | m1:4 | m2:4``.

    The scheme is implicit: ``n1 >= 2`` describes an MPPM-family
    super-symbol ⟨S(n1,k1), m1, S(n2,k2), m2⟩; ``n1 == 0`` escapes to
    the non-MPPM schemes, with ``k1`` carrying the scheme id (OOK,
    VPPM or OPPM) and ``n2``/``k2`` the pulse parameters.
    """

    n1: int = 0
    k1: int = 0
    n2: int = 0
    k2: int = 0
    m1: int = 0
    m2: int = 0

    def __post_init__(self) -> None:
        for name, value, width in (("n1", self.n1, 6), ("k1", self.k1, 6),
                                   ("n2", self.n2, 6), ("k2", self.k2, 6),
                                   ("m1", self.m1, 4), ("m2", self.m2, 4)):
            if not 0 <= value < (1 << width):
                raise ValueError(f"{name}={value} does not fit {width} bits")

    @property
    def scheme(self) -> int:
        """The scheme id (SCHEME_* constant) this descriptor denotes."""
        if self.n1 >= 2:
            return SCHEME_MPPM
        if self.n1 == 0 and self.k1 in (SCHEME_OOK, SCHEME_VPPM,
                                        SCHEME_OPPM, SCHEME_DARKLIGHT):
            return self.k1
        raise HeaderError(f"malformed pattern descriptor {self!r}")

    def to_int(self) -> int:
        """Pack into the 32-bit wire value."""
        return ((self.n1 << 26) | (self.k1 << 20) | (self.n2 << 14)
                | (self.k2 << 8) | (self.m1 << 4) | self.m2)

    @classmethod
    def from_int(cls, value: int) -> "PatternDescriptor":
        """Unpack the 32-bit wire value."""
        if not 0 <= value < (1 << 32):
            raise ValueError("pattern descriptor must fit 32 bits")
        return cls(
            n1=(value >> 26) & 0x3F,
            k1=(value >> 20) & 0x3F,
            n2=(value >> 14) & 0x3F,
            k2=(value >> 8) & 0x3F,
            m1=(value >> 4) & 0xF,
            m2=value & 0xF,
        )

    @classmethod
    def for_super_symbol(cls, super_symbol: SuperSymbol) -> "PatternDescriptor":
        """Describe an AMPPM/MPPM super-symbol."""
        return cls(
            n1=super_symbol.first.n_slots,
            k1=super_symbol.first.n_on,
            n2=super_symbol.second.n_slots if super_symbol.m2 else 0,
            k2=super_symbol.second.n_on if super_symbol.m2 else 0,
            m1=super_symbol.m1,
            m2=super_symbol.m2,
        )

    @classmethod
    def for_ook(cls) -> "PatternDescriptor":
        """Describe a plain OOK payload (OOK-CT)."""
        return cls(n1=0, k1=SCHEME_OOK)

    @classmethod
    def for_pulse(cls, scheme: int, n_slots: int, width: int) -> "PatternDescriptor":
        """Describe a VPPM or OPPM payload (single pulse of given width)."""
        if scheme not in (SCHEME_VPPM, SCHEME_OPPM):
            raise ValueError("for_pulse is for VPPM/OPPM descriptors")
        return cls(n1=0, k1=scheme, n2=n_slots, k2=width)

    @classmethod
    def for_darklight(cls, n_slots: int) -> "PatternDescriptor":
        """Describe a DarkLight payload (single pulse in N slots).

        N exceeds the 6-bit pattern fields, so it is split across the
        n2/k2 fields as a 12-bit value (N <= 4095).
        """
        if not 2 <= n_slots <= 0xFFF:
            raise ValueError("DarkLight N must fit 12 bits (2..4095)")
        return cls(n1=0, k1=SCHEME_DARKLIGHT,
                   n2=(n_slots >> 6) & 0x3F, k2=n_slots & 0x3F)

    @property
    def darklight_n(self) -> int:
        """Recover the DarkLight symbol length from n2/k2."""
        if self.scheme != SCHEME_DARKLIGHT:
            raise HeaderError("descriptor is not a DarkLight descriptor")
        return (self.n2 << 6) | self.k2

    def super_symbol(self) -> SuperSymbol:
        """Reconstruct the super-symbol (scheme must be SCHEME_MPPM)."""
        if self.scheme != SCHEME_MPPM:
            raise HeaderError(f"descriptor scheme {self.scheme} is not MPPM-family")
        if self.m1 < 1:
            raise HeaderError("malformed super-symbol descriptor")
        first = SymbolPattern(self.n1, self.k1)
        if self.m2 == 0:
            return SuperSymbol.single(first, self.m1)
        if self.n2 < 2:
            raise HeaderError("malformed second pattern in descriptor")
        return SuperSymbol(first, self.m1, SymbolPattern(self.n2, self.k2), self.m2)


@dataclass(frozen=True)
class FrameHeader:
    """Decoded Length + Pattern fields."""

    payload_length: int
    descriptor: PatternDescriptor

    def to_bytes(self) -> bytes:
        if not 0 <= self.payload_length <= MAX_PAYLOAD_BYTES:
            raise ValueError("payload length does not fit the 2-byte field")
        return (self.payload_length.to_bytes(2, "big")
                + self.descriptor.to_int().to_bytes(4, "big"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "FrameHeader":
        if len(data) != HEADER_BYTES:
            raise HeaderError(f"header must be {HEADER_BYTES} bytes, got {len(data)}")
        length = int.from_bytes(data[:2], "big")
        descriptor = PatternDescriptor.from_int(int.from_bytes(data[2:], "big"))
        return cls(length, descriptor)


def compensation_run(header_on: int, header_total: int, dimming: float,
                     max_run: int) -> tuple[int, bool]:
    """Length and polarity of the compensation run after the header.

    Appends ``count`` slots of value ``on`` so that the preamble+header
    region's average brightness approaches the payload dimming level.
    The run is capped at ``max_run`` (the Type-I flicker bound): a very
    low or high dimming level would otherwise demand an unbounded run.
    At least one slot is always emitted so the sync edge that follows is
    well defined.
    """
    if not 0.0 < dimming < 1.0:
        raise ValueError("dimming must lie in (0, 1)")
    current = header_on / header_total
    if current > dimming:
        count = math.ceil(header_on / dimming - header_total)
        on = False
    elif current < dimming:
        count = math.ceil((dimming * header_total - header_on) / (1.0 - dimming))
        on = True
    else:
        count, on = 1, False
    return max(1, min(count, max_run)), on


@dataclass(frozen=True)
class Frame:
    """A fully specified frame ready for slot encoding."""

    header: FrameHeader
    payload: bytes

    @property
    def body_bytes(self) -> bytes:
        """Length + Pattern + payload — the bytes the CRC covers."""
        return self.header.to_bytes() + self.payload

    def protected_bytes(self) -> bytes:
        """Body with CRC appended (what rides in the modulated section)."""
        return append_crc(self.body_bytes)

    @classmethod
    def build(cls, payload: bytes, descriptor: PatternDescriptor) -> "Frame":
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds the 2-byte length field"
            )
        return cls(FrameHeader(len(payload), descriptor), payload)

    def verify(self, recovered: bytes) -> bool:
        """CRC check helper for tests."""
        return check_crc(recovered)


def header_slots(header: FrameHeader) -> list[bool]:
    """OOK-encode the 6 header bytes (1 bit per slot)."""
    return [bool(b) for b in bytes_to_bits(header.to_bytes())]


def parse_header_slots(slots: list[bool]) -> FrameHeader:
    """Decode 48 OOK header slots back into a :class:`FrameHeader`."""
    if len(slots) != HEADER_SLOTS:
        raise HeaderError(f"expected {HEADER_SLOTS} header slots, got {len(slots)}")
    data = bits_to_bytes([1 if s else 0 for s in slots])
    return FrameHeader.from_bytes(data)
