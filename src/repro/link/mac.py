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

import inspect
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
from .supervision import BackoffPolicy, LinkSupervisor
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


def _time_aware(corruptor) -> bool:
    """Whether a corruptor accepts the ``(slots, rng, now)`` signature."""
    try:
        params = inspect.signature(corruptor).parameters
    except (TypeError, ValueError):
        return False
    positional = [p for p in params.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if any(p.kind == p.VAR_POSITIONAL for p in params.values()):
        return True
    return len(positional) >= 3


@dataclass
class StopAndWaitMac:
    """One transmitter, one receiver, one outstanding frame.

    Two supervision hooks upgrade the paper's fixed-timeout loop:

    * ``backoff`` replaces the constant ``ack_timeout_s`` with a
      :class:`~repro.link.supervision.BackoffPolicy` schedule — attempt
      ``a`` of a payload waits ``backoff.timeout_for(a)`` before
      retransmitting;
    * ``supervisor`` receives per-attempt evidence (delivery, CRC
      failure, ACK loss) so a
      :class:`~repro.link.supervision.LinkSupervisor` can track link
      health across the session.

    Frames carry an alternating-bit sequence number: a retransmission
    of a payload the receiver already decoded is recognized, counted in
    ``duplicates_suppressed``, re-ACKed, and *not* delivered twice.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    uplink: WifiUplink = field(default_factory=WifiUplink)
    ack_timeout_s: float = 10.0e-3
    max_retries: int = 8
    backoff: BackoffPolicy | None = None
    supervisor: LinkSupervisor | None = None

    def __post_init__(self) -> None:
        if self.ack_timeout_s <= 0:
            raise ValueError("ack_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._tx = Transmitter(self.config)
        self._rx = Receiver(self.config)

    def timeout_for(self, attempt: int) -> float:
        """The ACK timeout after the ``attempt``-th failure (0-indexed)."""
        if self.backoff is None:
            return self.ack_timeout_s
        return self.backoff.timeout_for(attempt)

    def run(self, payloads: list[bytes], design: SchemeDesign,
            errors: SlotErrorModel, rng: np.random.Generator,
            corruptor=None) -> MacStats:
        """Deliver a list of payloads over the noisy link.

        ``corruptor`` overrides the default i.i.d. slot flipping — pass
        e.g. ``lambda s, r: burst_channel.corrupt(s, r)[0]`` to run the
        MAC over a Gilbert-Elliott shadowing process.  A three-argument
        corruptor ``(slots, rng, now)`` additionally sees the MAC clock,
        which is how :meth:`FaultSchedule.corruptor
        <repro.resilience.faults.FaultSchedule.corruptor>` injects
        time-windowed faults.
        """
        if corruptor is None:
            def corrupt(slots, generator, _now):
                return corrupt_slots(slots, errors, generator)
        elif _time_aware(corruptor):
            corrupt = corruptor
        else:
            def corrupt(slots, generator, _now, inner=corruptor):
                return inner(slots, generator)
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
                    received = corrupt(list(slots), rng, now)
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
                        if self.supervisor is not None:
                            self.supervisor.on_success(now)
                        break
                    if decoded:
                        stats.ack_losses += 1
                    else:
                        stats.crc_failures += 1
                    now += self.timeout_for(attempt)
                    if self.supervisor is not None:
                        self.supervisor.on_failure(
                            now, reason="ack-loss" if decoded else "crc")
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

        With a constant timeout (no backoff, or a degenerate backoff
        with factor 1.0 and no jitter) this is the paper's expression,

            throughput = payload_bits · P_ok / E[cycle],
            E[cycle] = T_frame + P_ok·T_ack + (1-P_ok)·T_timeout.

        With backoff the timeout depends on the attempt index; summing
        the geometric attempt distribution over the (infinite-retry)
        schedule gives

            E[T] = T_frame/P + T_ack + Σ_a (1-P)^(a+1)·timeout(a),

        which reduces *exactly* to the constant-timeout form when the
        schedule is flat — disabling backoff changes nothing.
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

        flat = (self.backoff is None
                or (self.backoff.factor == 1.0
                    and self.backoff.jitter_frac == 0.0))
        if flat:
            tau = (self.ack_timeout_s if self.backoff is None
                   else self.backoff.base_timeout_s)
            t_cycle = t_frame + p_ok * t_ack + (1.0 - p_ok) * tau
            return 8 * n_payload * p_ok / t_cycle

        # Backoff-aware series: the timeout tail beyond the cap is an
        # exact geometric sum; before the cap we sum term by term.
        q = 1.0 - p_ok
        tail_weight = q  # q^(a+1) for a = 0
        timeout_sum = 0.0
        attempt = 0
        last = 0.0
        while attempt < 4096 and tail_weight > 0.0:
            last = self.backoff.timeout_for(attempt)
            if last >= self.backoff.cap_s:
                timeout_sum += self.backoff.cap_s * tail_weight / p_ok
                break
            timeout_sum += tail_weight * last
            tail_weight *= q
            attempt += 1
        else:
            # Schedule never reached the cap (jittered flat factor):
            # close the series with the last, largest timeout seen.
            timeout_sum += last * tail_weight / p_ok
        expected_time = t_frame / p_ok + t_ack + timeout_sum
        return 8 * n_payload / expected_time

