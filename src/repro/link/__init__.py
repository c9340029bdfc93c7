"""Link layer: framing (Table 1), CRC, TX/RX codecs, Wi-Fi ACKs, MAC."""

from .bitstream import bits_to_bytes, bytes_to_bits
from .crc import append_crc, check_crc, crc16
from .frame import (
    HEADER_SLOTS,
    MAX_PAYLOAD_BYTES,
    PREAMBLE_SLOTS,
    CrcError,
    Frame,
    FrameError,
    FrameHeader,
    HeaderError,
    PatternDescriptor,
    PreambleNotFoundError,
    compensation_run,
)
from .mac import MacStats, StopAndWaitMac, corrupt_slots
from .receiver import DecodedFrame, Receiver, SampleSynchronizer
from .supervision import (
    BackoffPolicy,
    LinkState,
    LinkSupervisor,
    LinkTransition,
)
from .transmitter import Transmitter, descriptor_for_design
from .wifi import WifiUplink

__all__ = [
    "BackoffPolicy",
    "CrcError",
    "DecodedFrame",
    "Frame",
    "FrameError",
    "FrameHeader",
    "HEADER_SLOTS",
    "HeaderError",
    "LinkState",
    "LinkSupervisor",
    "LinkTransition",
    "MAX_PAYLOAD_BYTES",
    "MacStats",
    "PREAMBLE_SLOTS",
    "PatternDescriptor",
    "PreambleNotFoundError",
    "Receiver",
    "SampleSynchronizer",
    "StopAndWaitMac",
    "Transmitter",
    "WifiUplink",
    "append_crc",
    "bits_to_bytes",
    "bytes_to_bits",
    "check_crc",
    "compensation_run",
    "corrupt_slots",
    "crc16",
    "descriptor_for_design",
]
