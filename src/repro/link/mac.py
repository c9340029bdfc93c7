"""Stop-and-wait MAC with Wi-Fi acknowledgements.

The prototype's MAC: the transmitter sends one frame, the receiver
CRC-checks it and — like the paper's setup — sends an ACK over Wi-Fi;
a missing ACK triggers a retransmission after a timeout.  Frames that
fail CRC are dropped silently at the receiver (Section 6.1).

Two evaluation paths are provided:

* :meth:`StopAndWaitMac.run` — a stochastic slot-accurate session
  against a :class:`~repro.core.errormodel.SlotErrorModel`, flipping
  individual slots and running the real receiver.
* :meth:`StopAndWaitMac.expected_throughput` — the closed-form
  expectation used by the figure harnesses (identical model, no RNG).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import SchemeDesign
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig
from ..obs import metrics, span
from .frame import (
    HEADER_SLOTS,
    PREAMBLE_OFF_SLOTS,
    PREAMBLE_ON_SLOTS,
    FrameError,
)
from .receiver import Receiver
from .transmitter import Transmitter
from .wifi import WifiUplink


@dataclass
class MacStats:
    """Counters accumulated over a MAC session."""

    frames_sent: int = 0
    frames_delivered: int = 0
    retransmissions: int = 0
    payload_bits_acked: int = 0
    airtime_s: float = 0.0
    elapsed_s: float = 0.0
    #: payloads given up on after exhausting every retry
    frames_abandoned: int = 0
    #: retransmitted frames the receiver already held (seq-number dedup)
    duplicates_suppressed: int = 0
    #: payload bits handed up by the receiver exactly once (first copy)
    payload_bits_delivered: int = 0
    #: transmission attempts that failed CRC/decode at the receiver
    crc_failures: int = 0
    #: attempts the receiver decoded but whose Wi-Fi ACK was lost
    ack_losses: int = 0

    @property
    def throughput_bps(self) -> float:
        """Acked payload bits per second of elapsed time."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.payload_bits_acked / self.elapsed_s

    @property
    def frame_loss_rate(self) -> float:
        """Fraction of transmissions that were not acknowledged."""
        if self.frames_sent == 0:
            return 0.0
        return 1.0 - self.frames_delivered / self.frames_sent


def header_success_probability(errors: SlotErrorModel) -> float:
    """Probability the preamble + OOK header decode cleanly.

    Preamble slots alternate ON/OFF; header bits are equiprobable.
    """
    p_on_ok = 1.0 - errors.p_on_error
    p_off_ok = 1.0 - errors.p_off_error
    p_pre = p_on_ok ** PREAMBLE_ON_SLOTS * p_off_ok ** PREAMBLE_OFF_SLOTS
    p_hdr_slot = 1.0 - 0.5 * (errors.p_on_error + errors.p_off_error)
    return p_pre * p_hdr_slot ** HEADER_SLOTS


def corrupt_slots(slots: list[bool], errors: SlotErrorModel,
                  rng: np.random.Generator) -> list[bool]:
    """Flip each slot independently with its error probability."""
    if errors.p_off_error == 0.0 and errors.p_on_error == 0.0:
        return list(slots)
    draws = rng.random(len(slots))
    out = []
    for slot, draw in zip(slots, draws):
        p = errors.p_on_error if slot else errors.p_off_error
        out.append(not slot if draw < p else slot)
    return out


@dataclass
class StopAndWaitMac:
    """One transmitter, one receiver, one outstanding frame.

    The paper's loop: a missing ACK triggers a retransmission after the
    fixed ``ack_timeout_s``, up to ``max_retries`` times per payload.
    Frames carry an alternating-bit sequence number: a retransmission
    of a payload the receiver already decoded is recognized, counted in
    ``duplicates_suppressed``, re-ACKed, and *not* delivered twice.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    uplink: WifiUplink = field(default_factory=WifiUplink)
    ack_timeout_s: float = 10.0e-3
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.ack_timeout_s <= 0:
            raise ValueError("ack_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._tx = Transmitter(self.config)
        self._rx = Receiver(self.config)

    def run(self, payloads: list[bytes], design: SchemeDesign,
            errors: SlotErrorModel, rng: np.random.Generator,
            corruptor=None) -> MacStats:
        """Deliver a list of payloads over the noisy link.

        ``corruptor(slots, rng)`` overrides the default i.i.d. slot
        flipping — pass e.g. ``lambda s, r: burst_channel.corrupt(s,
        r)[0]`` to run the MAC over a Gilbert-Elliott shadowing process.
        """
        if corruptor is None:
            def corrupt(slots, generator):
                return corrupt_slots(slots, errors, generator)
        else:
            corrupt = corruptor
        stats = MacStats()
        now = 0.0
        with span("mac.run", payloads=len(payloads)):
            for payload in payloads:
                slots = self._tx.encode_frame(payload, design)
                airtime = len(slots) * self.config.t_slot
                delivered = False
                receiver_has_copy = False  # alternating-bit dedup state
                for attempt in range(self.max_retries + 1):
                    stats.frames_sent += 1
                    if attempt > 0:
                        stats.retransmissions += 1
                    stats.airtime_s += airtime
                    now += airtime
                    received = corrupt(list(slots), rng)
                    ack_at = None
                    decoded = False
                    try:
                        frame = self._rx.decode_frame(received)
                        decoded = frame.payload == payload
                    except FrameError:
                        decoded = False  # receiver stays silent on CRC failure
                    if decoded:
                        # Same sequence number: suppress the duplicate but
                        # re-ACK so the transmitter can move on.
                        if receiver_has_copy:
                            stats.duplicates_suppressed += 1
                        else:
                            receiver_has_copy = True
                            stats.payload_bits_delivered += 8 * len(payload)
                        ack_at = self.uplink.deliver(now, rng)
                    if ack_at is not None:
                        now = max(now, ack_at)
                        delivered = True
                        stats.frames_delivered += 1
                        stats.payload_bits_acked += 8 * len(payload)
                        break
                    if decoded:
                        stats.ack_losses += 1
                    else:
                        stats.crc_failures += 1
                    now += self.ack_timeout_s
                if not delivered:
                    # Give up on this payload (upper layers would resubmit).
                    stats.frames_abandoned += 1
                    continue
        stats.elapsed_s = now
        self._record_metrics(stats)
        return stats

    @staticmethod
    def _record_metrics(stats: MacStats) -> None:
        """Fold one session's counters into the telemetry registry.

        Recorded once per session from the finished :class:`MacStats`,
        so the per-attempt loop itself carries no telemetry cost.
        """
        registry = metrics()
        for name, value, help_text in (
                ("repro_mac_frames_sent_total", stats.frames_sent,
                 "MAC transmission attempts"),
                ("repro_mac_frames_delivered_total", stats.frames_delivered,
                 "MAC frames acknowledged"),
                ("repro_mac_retransmissions_total", stats.retransmissions,
                 "MAC retransmissions"),
                ("repro_mac_crc_failures_total", stats.crc_failures,
                 "MAC attempts lost to CRC/decode failure"),
                ("repro_mac_ack_losses_total", stats.ack_losses,
                 "MAC attempts whose Wi-Fi ACK was lost"),
                ("repro_mac_frames_abandoned_total", stats.frames_abandoned,
                 "MAC payloads given up on after every retry")):
            if value:
                registry.counter(name, help=help_text).inc(value)

    def expected_throughput(self, design: SchemeDesign,
                            errors: SlotErrorModel,
                            payload_bytes: int | None = None) -> float:
        """Closed-form goodput of the stop-and-wait loop in bit/s.

        The paper's expression,

            throughput = payload_bits · P_ok / E[cycle],
            E[cycle] = T_frame + P_ok·T_ack + (1-P_ok)·T_timeout.
        """
        n_payload = (payload_bytes if payload_bytes is not None
                     else self.config.payload_bytes)
        n_bits = 8 * (n_payload + 2)
        # Expected airtime for equiprobable payload bits (the paper's
        # Section 6.1 assumption), not any particular payload's.
        frame_slots = (self._tx.frame_overhead_slots(design, n_payload)
                       + design.payload_slots(n_bits))
        t_frame = frame_slots * self.config.t_slot
        p_payload = design.success_probability(n_bits, errors)
        p_ok = (p_payload * header_success_probability(errors)
                * (1.0 - self.uplink.loss_probability))
        if p_ok <= 0.0:
            return 0.0
        t_ack = self.uplink.expected_latency_s
        t_cycle = t_frame + p_ok * t_ack + (1.0 - p_ok) * self.ack_timeout_s
        return 8 * n_payload * p_ok / t_cycle
