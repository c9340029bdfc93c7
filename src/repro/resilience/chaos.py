"""The chaos harness: a supervised VLC link under injected faults.

One :class:`ChaosScenario` runs a single luminaire-to-receiver link on
the discrete-event kernel while a :class:`FaultSchedule` batters it:

* a lighting control process ticks the
  :class:`~repro.lighting.controller.SmartLightingController` against
  the (fault-perturbed) ambient, preserving Goal 1 and the Type-II
  flicker guarantee whatever the link state;
* a MAC process runs stop-and-wait data transfer whose per-frame
  success probability follows the analytic link model under the
  *current* fault-modified error model, with backoff, duplicate
  suppression, and a :class:`~repro.link.supervision.LinkSupervisor`
  reacting to the evidence — stepping down to conservative designs and
  small payloads when DEGRADED, suspending data and probing when DOWN;
* every fault boundary, link transition, control tick, delivery and
  loss is journaled, so the run collapses to one determinism digest.

Running with ``supervised=False`` yields the paper-faithful baseline:
fixed timeout, fixed payload, no state machine — the comparison arm
for the "supervision pays for itself" acceptance criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.ampdesign import shared_designer
from ..core.params import SystemConfig, require_finite
from ..des.journal import EventJournal
from ..des.kernel import EventScheduler
from ..lighting.ambient import AmbientProfile, StaticAmbient
from ..lighting.controller import SmartLightingController
from ..link.supervision import BackoffPolicy, LinkState, LinkSupervisor
from ..link.wifi import WifiUplink
from ..phy.channel import VlcChannel, calibrated_channel
from ..phy.optics import LinkGeometry
from ..schemes import shared_scheme_design
from ..sim.linkmodel import frame_slot_count, frame_success_probability
from .faults import FaultSchedule, install_fault_events
from .metrics import ResilienceReport, build_report

#: The paper's fixed ACK timeout: the baseline waits it out after every
#: lost frame, and a supervised link after every lost probe.
ACK_TIMEOUT_S = 10.0e-3
#: Retransmissions of one payload before it is abandoned.
MAX_RETRIES = 8
#: The supervised link's backoff: half the flat timeout as base (retry
#: sooner on a first loss) with a gentle 1.25 factor — the losses here
#: are random, not congestive, so aggressive escalation would only idle
#: the channel — up to a cap of 4x the flat timeout under persistent
#: loss.
SUPERVISED_BACKOFF = BackoffPolicy(base_timeout_s=ACK_TIMEOUT_S / 2,
                                   factor=1.25, cap_s=4 * ACK_TIMEOUT_S)
#: Payload of a data frame sent while DEGRADED.
DEGRADED_PAYLOAD_BYTES = 32
#: Pause after a lost probe's timeout before the next probe.
PROBE_INTERVAL_S = 10.0e-3
#: Consecutive CRC failures that degrade the supervised link.
DEGRADED_AFTER = 3
#: Higher than the LinkSupervisor default: under a lossy (rather than
#: dead) ACK path, 8-failure streaks occur by chance and each needless
#: DOWN excursion parks the link in probing.
DOWN_AFTER = 16
#: Higher than the LinkSupervisor default on purpose: premature
#: DEGRADED->UP excursions retry large frames against a channel that
#: is still faulted, and each excursion costs ~100 ms.
RECOVER_AFTER = 6


@dataclass(frozen=True)
class ChaosResult:
    """A chaos run's report plus its full determinism evidence."""

    report: ResilienceReport
    journal: EventJournal
    schedule: FaultSchedule


class _Counters:
    """Mutable per-run tallies shared between the DES processes."""

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.probes_sent = 0
        self.bits_acked = 0
        self.bits_delivered = 0
        self.bits_acked_degraded = 0
        self.max_step = 0.0


@dataclass
class ChaosScenario:
    """One supervised (or baseline) link under a fault schedule.

    :meth:`run` builds all state from scratch, so the same instance run
    twice — or run under any ``SweepRunner`` worker count — produces
    bit-identical journals and reports.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    duration_s: float = 40.0
    seed: int = 13
    supervised: bool = True
    ambient: AmbientProfile = field(default_factory=lambda: StaticAmbient(0.4))
    target_sum: float = 1.0
    tick_s: float = 1.0
    uplink: WifiUplink = field(default_factory=WifiUplink)
    #: paper's worst-case operating point (Section 3's 3.6 m reference)
    distance_m: float = 3.6
    channel: VlcChannel | None = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")

    def run(self) -> ChaosResult:
        """Simulate the scenario and assemble its resilience report."""
        journal = EventJournal()
        scheduler = EventScheduler()
        rng = np.random.default_rng(self.seed)
        channel = (self.channel if self.channel is not None
                   else calibrated_channel(self.config))
        geometry = LinkGeometry.on_axis(self.distance_m)
        designer = shared_designer(self.config)
        controller = SmartLightingController(
            target_sum=self.target_sum, config=self.config,
            designer=designer)
        supervisor = (LinkSupervisor(degraded_after=DEGRADED_AFTER,
                                     down_after=DOWN_AFTER,
                                     recover_after=RECOVER_AFTER,
                                     journal=journal)
                      if self.supervised else None)
        counters = _Counters()
        install_fault_events(self.schedule, scheduler, journal)

        # -- per-time channel state, memoized on (ambient, scale) -------
        error_cache: dict = {}
        frame_cache: dict = {}

        def ambient_now(t: float) -> float:
            return self.schedule.ambient_at(t, self.ambient.intensity(t))

        def errors_now(t: float):
            key = (round(ambient_now(t), 12),
                   self.schedule.error_scale_at(t))
            if key not in error_cache:
                base = channel.slot_error_model(geometry, key[0])
                error_cache[key] = (base if key[1] == 1.0
                                    else base.scaled(key[1]))
            return error_cache[key]

        def design_for(led: float, conservative: bool):
            raw = (controller.conservative_design(led) if conservative
                   else designer.design_clamped(led))
            return (shared_scheme_design(raw, self.config)
                    if raw is not None else None)

        def frame_params(design, n_payload, errors):
            # Keyed on the shared wrapper: one per bucket design.
            key = (design, n_payload, errors)
            if key not in frame_cache:
                t_frame = (frame_slot_count(design, self.config, n_payload)
                           * self.config.t_slot)
                p_ok = frame_success_probability(design, errors,
                                                 self.config, n_payload)
                frame_cache[key] = (t_frame, p_ok)
            return frame_cache[key]

        def try_ack(t: float):
            """ACK arrival time, or None (Wi-Fi loss or fault burst)."""
            burst = self.schedule.ack_loss_at(t)
            if burst > 0.0 and rng.random() < burst:
                return None
            return self.uplink.deliver(t, rng)

        # -- processes ---------------------------------------------------

        def control_loop():
            while True:
                now = scheduler.now
                amb = ambient_now(now)
                state = (supervisor.state if supervisor is not None
                         else LinkState.UP)
                sample = controller.tick(now, amb, link_state=state)
                plan = controller.last_plan
                step = plan.max_perceived_step if plan is not None else 0.0
                counters.max_step = max(counters.max_step, step)
                journal.record(now, "control", "controller",
                               ambient=amb, led=sample.led,
                               state=state.value, step=step)
                yield self.tick_s

        def mac_loop():
            pending_bytes: int | None = None
            receiver_has_copy = False
            attempt = 0
            while True:
                now = scheduler.now
                state = (supervisor.state if supervisor is not None
                         else LinkState.UP)
                if supervisor is not None and state is LinkState.DOWN:
                    state = supervisor.start_probing(now)
                if state is LinkState.PROBING:
                    # Header-only probe on the most conservative design.
                    led = controller.led_intensity
                    design = design_for(led, conservative=True)
                    if design is None:
                        yield self.tick_s
                        continue
                    counters.probes_sent += 1
                    errors = errors_now(now)
                    t_probe, p_ok = frame_params(design, 0, errors)
                    yield t_probe
                    sent_at = scheduler.now
                    decoded = rng.random() < p_ok
                    ack_at = try_ack(sent_at) if decoded else None
                    if ack_at is not None:
                        journal.record(sent_at, "probe-ok", "mac")
                        supervisor.on_probe_success(sent_at)
                        yield max(ack_at - sent_at, 0.0)
                    else:
                        journal.record(sent_at, "probe-lost", "mac")
                        supervisor.on_probe_failure(sent_at + ACK_TIMEOUT_S)
                        yield ACK_TIMEOUT_S + PROBE_INTERVAL_S
                    continue

                # -- data frame (UP or DEGRADED) -----------------------
                if pending_bytes is None:
                    pending_bytes = (DEGRADED_PAYLOAD_BYTES
                                     if state is LinkState.DEGRADED
                                     else self.config.payload_bytes)
                    receiver_has_copy = False
                    attempt = 0
                elif (state is LinkState.DEGRADED
                      and pending_bytes > DEGRADED_PAYLOAD_BYTES):
                    # Re-segment: a stalled large frame is re-framed at
                    # the degraded size instead of being retried (with
                    # escalating backoff) against a channel that just
                    # proved it cannot carry it.
                    pending_bytes = DEGRADED_PAYLOAD_BYTES
                    receiver_has_copy = False
                    attempt = 0
                led = controller.led_intensity
                conservative = state is LinkState.DEGRADED
                design = design_for(led, conservative)
                if design is None:
                    yield self.tick_s
                    continue
                errors = errors_now(now)
                t_frame, p_ok = frame_params(design, pending_bytes, errors)
                counters.frames_sent += 1
                if attempt > 0:
                    counters.retransmissions += 1
                yield t_frame
                sent_at = scheduler.now
                decoded = rng.random() < p_ok
                ack_at = None
                if decoded:
                    if receiver_has_copy:
                        counters.duplicates_suppressed += 1
                    else:
                        receiver_has_copy = True
                        counters.bits_delivered += 8 * pending_bytes
                    ack_at = try_ack(sent_at)
                if ack_at is not None:
                    counters.frames_delivered += 1
                    counters.bits_acked += 8 * pending_bytes
                    if state is not LinkState.UP:
                        counters.bits_acked_degraded += 8 * pending_bytes
                    journal.record(sent_at, "frame-acked", "mac",
                                   bits=8 * pending_bytes,
                                   state=state.value)
                    if supervisor is not None:
                        supervisor.on_success(sent_at)
                    pending_bytes = None
                    yield max(ack_at - sent_at, 0.0)
                else:
                    reason = "ack-loss" if decoded else "crc"
                    if supervisor is not None:
                        supervisor.on_failure(sent_at, reason=reason)
                    attempt += 1
                    if attempt > MAX_RETRIES:
                        counters.frames_lost += 1
                        journal.record(sent_at, "frame-abandoned", "mac",
                                       reason=reason)
                        pending_bytes = None
                    yield (SUPERVISED_BACKOFF.timeout_for(attempt - 1)
                           if supervisor is not None else ACK_TIMEOUT_S)

        scheduler.spawn(control_loop(), name="control", priority=0)
        scheduler.spawn(mac_loop(), name="mac", priority=1)
        scheduler.run(until_s=self.duration_s)

        if supervisor is not None:
            transitions = supervisor.transitions
            time_degraded = supervisor.time_in_state(
                LinkState.DEGRADED, self.duration_s)
            time_down = (supervisor.time_in_state(LinkState.DOWN,
                                                  self.duration_s)
                         + supervisor.time_in_state(LinkState.PROBING,
                                                    self.duration_s))
        else:
            transitions = []
            time_degraded = 0.0
            time_down = 0.0
        not_up = time_degraded + time_down
        report = build_report(
            duration_s=self.duration_s,
            supervised=self.supervised,
            schedule=self.schedule,
            transitions=transitions,
            goodput_bps=counters.bits_acked / self.duration_s,
            delivered_goodput_bps=counters.bits_delivered / self.duration_s,
            degraded_goodput_bps=(counters.bits_acked_degraded / not_up
                                  if not_up > 0 else 0.0),
            frames_sent=counters.frames_sent,
            frames_delivered=counters.frames_delivered,
            frames_lost=counters.frames_lost,
            retransmissions=counters.retransmissions,
            duplicates_suppressed=counters.duplicates_suppressed,
            probes_sent=counters.probes_sent,
            time_degraded_s=time_degraded,
            time_down_s=time_down,
            max_perceived_step=counters.max_step,
            digest=journal.digest(),
        )
        return ChaosResult(report=report, journal=journal,
                           schedule=self.schedule)
