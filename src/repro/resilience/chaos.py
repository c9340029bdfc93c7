"""The chaos harness: a supervised VLC link under injected faults.

One :class:`ChaosScenario` runs a single luminaire-to-receiver link on
the discrete-event kernel while a :class:`FaultSchedule` batters it:

* a lighting control process ticks the
  :class:`~repro.lighting.controller.SmartLightingController` against
  the ambient with the schedule's steps applied, preserving Goal 1 and
  the Type-II flicker guarantee whatever the link state;
* a MAC process runs stop-and-wait data transfer whose per-frame
  success probability follows the analytic link model under the
  *current* fault-modified error model, with backoff, duplicate
  suppression, and a :class:`~repro.link.supervision.LinkSupervisor`
  reacting to the evidence — stepping down to the
  :func:`degraded_designer`'s designs and small payloads when
  DEGRADED, suspending data and probing when DOWN;
* every fault boundary, link transition, control tick, delivery and
  loss is journaled, so the run collapses to one determinism digest.

Running with ``supervised=False`` yields the paper-faithful baseline:
fixed timeout, fixed payload, no state machine — the comparison arm
for the "supervision pays for itself" acceptance criterion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..core.ampdesign import AmppmDesigner, shared_designer
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig, require_finite
from ..des.journal import EventJournal
from ..des.kernel import EventScheduler
from ..lighting.ambient import ScheduledAmbient, StaticAmbient
from ..lighting.controller import SmartLightingController
from ..link.mac import ACK_TIMEOUT_S, MAX_RETRIES
from ..link.supervision import BackoffPolicy, LinkState, LinkSupervisor
from ..link.wifi import WifiUplink
from ..phy.channel import REFERENCE_DISTANCE_M, calibrated_channel
from ..phy.optics import LinkGeometry
from ..sim.linkmodel import frame_slot_count, frame_success_probability
from .faults import FaultSchedule, install_fault_events
from .metrics import ResilienceReport, fault_attribution

#: The static ambient level behind the link, before faults perturb it.
AMBIENT = 0.4
#: The illumination target the lighting controller holds.
TARGET_SUM = 1.0
#: Period of the control loop.
TICK_S = 1.0
#: The Wi-Fi path that carries ACKs.
UPLINK = WifiUplink()
#: The supervised link's backoff: half the flat timeout as base (retry
#: sooner on a first loss) with a gentle 1.25 factor — the losses here
#: are random, not congestive, so aggressive escalation would only idle
#: the channel — up to a cap of 4x the flat timeout under persistent
#: loss.
SUPERVISED_BACKOFF = BackoffPolicy(base_timeout_s=ACK_TIMEOUT_S / 2,
                                   factor=1.25, cap_s=4 * ACK_TIMEOUT_S)
#: Payload of a data frame sent while DEGRADED.
DEGRADED_PAYLOAD_BYTES = 32
#: Error-probability inflation of the designer a DEGRADED link and its
#: probes design with — the envelope then prefers shorter, more
#: redundant super-symbols.
DEGRADED_ERROR_MARGIN = 4.0
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
#: Longest run a scenario may ask for; one at the cap took 26 s and 337 MB.
MAX_DURATION_S = 10_000.0


@functools.cache
def degraded_designer(config: SystemConfig) -> AmppmDesigner:
    """The designer of a DEGRADED link's frames and of every probe.

    Its slot error model is the config's, inflated by
    :data:`DEGRADED_ERROR_MARGIN`, so the SER bound admits only
    shorter, more redundant super-symbols — the graceful step-down a
    supervised link takes before giving up.  When the margin prunes
    every candidate it is :func:`~repro.core.ampdesign.shared_designer`,
    so the link keeps a design rather than losing it.
    """
    errors = SlotErrorModel.from_config(config).scaled(DEGRADED_ERROR_MARGIN)
    try:
        return shared_designer(config, errors)
    except ValueError:
        return shared_designer(config)


@dataclass(frozen=True)
class ChaosResult:
    """A chaos run's report plus its full determinism evidence."""

    report: ResilienceReport
    journal: EventJournal


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

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0 < self.duration_s <= MAX_DURATION_S:
            raise ValueError(f"duration_s must lie in (0, {MAX_DURATION_S:g}]")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def run(self) -> ChaosResult:
        """Simulate the scenario and assemble its resilience report."""
        journal = EventJournal()
        scheduler = EventScheduler()
        rng = np.random.default_rng(self.seed)
        channel = calibrated_channel(self.config)
        geometry = LinkGeometry.on_axis(REFERENCE_DISTANCE_M)
        designer = shared_designer(self.config)
        controller = SmartLightingController(target_sum=TARGET_SUM,
                                             config=self.config)
        ambient = ScheduledAmbient(StaticAmbient(AMBIENT),
                                   self.schedule.ambient_steps())
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

        def errors_now(t: float):
            key = (round(ambient.intensity(t), 12),
                   self.schedule.error_scale_at(t))
            if key not in error_cache:
                base = channel.slot_error_model(geometry, key[0])
                error_cache[key] = (base if key[1] == 1.0
                                    else base.scaled(key[1]))
            return error_cache[key]

        def design_for(led: float, degraded: bool):
            source = degraded_designer(self.config) if degraded else designer
            return source.design_clamped(led)

        def frame_params(design, n_payload, errors):
            # Keyed on the design: the designer memoises one per bucket.
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
            return UPLINK.deliver(t, rng)

        # -- processes ---------------------------------------------------

        def control_loop():
            while True:
                now = scheduler.now
                amb = ambient.intensity(now)
                state = (supervisor.state if supervisor is not None
                         else LinkState.UP)
                sample = controller.tick(now, amb)
                plan = controller.last_plan
                step = plan.max_perceived_step if plan is not None else 0.0
                counters.max_step = max(counters.max_step, step)
                journal.record(now, "control", "controller",
                               ambient=amb, led=sample.led,
                               state=state.value, step=step)
                yield TICK_S

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
                    # Header-only probe on the degraded design.
                    design = design_for(controller.led_intensity,
                                        degraded=True)
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
                design = design_for(controller.led_intensity,
                                    degraded=state is LinkState.DEGRADED)
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
        report = ResilienceReport(
            duration_s=self.duration_s,
            supervised=self.supervised,
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
            transitions=len(transitions),
            time_degraded_s=time_degraded,
            time_down_s=time_down,
            max_perceived_step=counters.max_step,
            digest=journal.digest(),
            **fault_attribution(self.schedule, transitions),
        )
        return ChaosResult(report=report, journal=journal)
