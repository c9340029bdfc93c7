"""Slot-level frame transmitter.

Assembles Table 1 frames: OOK preamble + header, a brightness
compensation run, the sync edge, then the scheme-modulated payload and
CRC.  Works with any :class:`~repro.baselines.base.SchemeDesign`; the
Pattern field is derived from the design so the receiver is
self-describing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..baselines.base import SchemeDesign
from ..baselines.darklight import DarkLightDesign
from ..baselines.mppm import MppmDesign
from ..baselines.ookct import OokCtDesign
from ..baselines.oppm import OppmDesign
from ..baselines.vppm import VppmDesign
from ..core.params import SystemConfig
from ..core.supersymbol import SuperSymbol
from ..schemes import AmppmSchemeDesign
from .bitstream import bytes_to_bits
from .crc import append_crc
from .frame import (
    PREAMBLE_ON_SLOTS,
    PREAMBLE_SLOTS,
    SCHEME_OPPM,
    SCHEME_VPPM,
    Frame,
    FrameHeader,
    PatternDescriptor,
    compensation_run,
    header_slots,
)


def descriptor_for_design(design: SchemeDesign) -> PatternDescriptor:
    """Build the Pattern field for any known scheme design."""
    if isinstance(design, AmppmSchemeDesign):
        return PatternDescriptor.for_super_symbol(design.super_symbol)
    if isinstance(design, MppmDesign):
        return PatternDescriptor.for_super_symbol(SuperSymbol.single(design.pattern))
    if isinstance(design, OokCtDesign):
        return PatternDescriptor.for_ook()
    if isinstance(design, DarkLightDesign):
        return PatternDescriptor.for_darklight(design.n_slots)
    if isinstance(design, VppmDesign):
        return PatternDescriptor.for_pulse(SCHEME_VPPM, design.n_slots, design.width)
    if isinstance(design, OppmDesign):
        return PatternDescriptor.for_pulse(SCHEME_OPPM, design.n_slots, design.width)
    raise TypeError(f"no pattern descriptor mapping for {type(design).__name__}")


@dataclass
class Transmitter:
    """Build the ON/OFF slot stream for frames of one scheme design."""

    config: SystemConfig = field(default_factory=SystemConfig)

    def encode_frame(self, payload: bytes, design: SchemeDesign) -> list[bool]:
        """One complete frame as a slot sequence.

        The CRC covers the header bytes and the payload, so corruption
        of the plain-OOK header is also detected at the end.
        """
        frame = Frame.build(payload, descriptor_for_design(design))
        return self._assemble(frame, design)

    def frame_overhead_slots(self, design: SchemeDesign,
                             payload_bytes: int | None = None) -> int:
        """Non-payload slots of a frame at this design's dimming level.

        Exact for a given payload length: the compensation run depends
        on the header's bit pattern, which includes the length field.
        """
        n_payload = (payload_bytes if payload_bytes is not None
                     else self.config.payload_bytes)
        return overhead_slots(descriptor_for_design(design),
                              design.achieved_dimming, n_payload,
                              self.config.n_max_super)

    def _assemble(self, frame: Frame, design: SchemeDesign) -> list[bool]:
        slots: list[bool] = list(PREAMBLE_SLOTS)
        hdr = header_slots(frame.header)
        slots.extend(hdr)

        comp_count, comp_on = compensation_run(
            sum(1 for s in slots if s), len(slots),
            design.achieved_dimming, self.config.n_max_super)
        slots.extend([comp_on] * comp_count)
        slots.append(not comp_on)  # the sync edge

        protected = append_crc(frame.header.to_bytes() + frame.payload)
        body_bits = bytes_to_bits(protected[len(frame.header.to_bytes()):])
        # The modulated section carries payload + CRC; the CRC bytes at
        # the end of `protected` cover header + payload.
        slots.extend(design.encode_payload(body_bits))
        return slots


@functools.lru_cache(maxsize=4096)
def overhead_slots(descriptor: PatternDescriptor, dimming: float,
                   payload_bytes: int, n_max_super: int) -> int:
    """Preamble + OOK header + compensation run + sync slots of a frame.

    A pure function of the header's fields and the payload's dimming
    level, so it is cached by value: every design of any scheme with
    the same Pattern field, dimming level and payload size shares one
    entry, and an entry equals the fresh computation.  The cache is
    bounded because baseline schemes reach any dimming level; an
    evicted entry is simply computed again.
    """
    hdr = header_slots(FrameHeader(payload_bytes, descriptor))
    on_count = PREAMBLE_ON_SLOTS + sum(hdr)
    total = len(PREAMBLE_SLOTS) + len(hdr)
    comp, _ = compensation_run(on_count, total, dimming, n_max_super)
    return total + comp + 1
