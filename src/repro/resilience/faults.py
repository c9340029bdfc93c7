"""Composable, seedable fault schedules for every simulation substrate.

A :class:`FaultSchedule` is an ordered tuple of typed fault primitives:

* :class:`UplinkOutage` — every Wi-Fi packet (ACKs and ambient
  reports alike) is lost for a window;
* :class:`AckLossBurst` — a window of elevated ACK loss on an
  otherwise healthy uplink;
* :class:`AdcBlinding` — a saturation/blinding window at the
  photodiode: slot error probabilities scale up (analytic paths) and
  the ambient pedestal rises (waveform paths);
* :class:`AmbientStep` — a step transient in the ambient level that
  persists until the next step;
* :class:`NodeDowntime` — receiver churn (multicell).

The same schedule injects into two substrates: by-time queries
(:meth:`FaultSchedule.ack_loss_at` and friends) for the chaos harness
and :mod:`repro.sim.endtoend`, and discrete-event kernels: the
multicell simulator installs its churn and outage windows itself, and
:func:`install_fault_events` journals every boundary for the chaos
harness.

Everything is frozen and validated at construction (every fault time
must be finite), and :meth:`FaultSchedule.random` derives an
intensity-scaled schedule from a seed alone, so chaos sweeps are pure
functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..des.journal import EventJournal
    from ..des.kernel import EventScheduler


def _check_window(start_s: float, end_s: float, what: str) -> None:
    """Require ``0 <= start_s < end_s < inf``; NaN fails every compare."""
    if not (0 <= start_s < end_s and math.isfinite(end_s)):
        raise ValueError(f"bad {what} window ({start_s}, {end_s})")


@dataclass(frozen=True)
class UplinkOutage:
    """A window during which every Wi-Fi packet is lost."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, "outage")


@dataclass(frozen=True)
class AckLossBurst:
    """A window of elevated ACK loss probability on the uplink."""

    start_s: float
    end_s: float
    loss_probability: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, "ACK-loss")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must lie in [0, 1]")


@dataclass(frozen=True)
class AdcBlinding:
    """A photodiode saturation window of a given severity in (0, 1].

    Severity maps to an error-probability scale for the analytic slot
    error model (``1 + severity·(max_error_scale - 1)``) and to an
    additive ambient pedestal for the waveform path.
    """

    start_s: float
    end_s: float
    severity: float = 0.5
    max_error_scale: float = 100.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, "blinding")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must lie in (0, 1]")
        if self.max_error_scale < 1.0:
            raise ValueError("max_error_scale must be >= 1")

    @property
    def error_scale(self) -> float:
        """Multiplier applied to slot error probabilities."""
        return 1.0 + self.severity * (self.max_error_scale - 1.0)

    @property
    def ambient_boost(self) -> float:
        """Additive normalized-ambient pedestal for waveform paths."""
        return self.severity


@dataclass(frozen=True)
class AmbientStep:
    """A step transient: ambient jumps to ``level`` at ``at_s``."""

    at_s: float
    level: float

    def __post_init__(self) -> None:
        if not 0 <= self.at_s < math.inf:
            raise ValueError("at_s must be finite and non-negative")
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("level must lie in [0, 1]")


@dataclass(frozen=True)
class NodeDowntime:
    """Receiver churn: ``node`` is gone over ``[start_s, end_s)``."""

    node: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, f"{self.node!r} downtime")


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated collection of fault primitives."""

    faults: tuple = ()

    def __post_init__(self) -> None:
        allowed = (UplinkOutage, AckLossBurst, AdcBlinding, AmbientStep,
                   NodeDowntime)
        for fault in self.faults:
            if not isinstance(fault, allowed):
                raise TypeError(f"unsupported fault {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def of_type(self, kind: type) -> tuple:
        """All faults of one primitive type, in schedule order."""
        return tuple(f for f in self.faults if isinstance(f, kind))

    def combine(self, other: "FaultSchedule") -> "FaultSchedule":
        """A schedule containing this schedule's faults then ``other``'s.

        Composition is commutative *in effect*: every by-time query
        folds active windows with order-independent reductions (max for
        loss/scale/boost, any() for outages and churn, latest-step for
        ambient), so ``a.combine(b)`` and ``b.combine(a)`` answer every
        query identically even though their fault tuples differ.
        """
        return FaultSchedule(self.faults + other.faults)

    def shifted(self, dt: float) -> "FaultSchedule":
        """The same schedule displaced ``dt`` seconds into the future.

        Time-translation equivariance: ``shifted(dt)`` at ``t + dt``
        answers every by-time query exactly as the original does at
        ``t``.  Shifting left (``dt < 0``) is allowed as long as no
        window start would go negative.
        """
        from dataclasses import replace

        def move(fault):
            if isinstance(fault, AmbientStep):
                return replace(fault, at_s=fault.at_s + dt)
            return replace(fault, start_s=fault.start_s + dt,
                           end_s=fault.end_s + dt)

        return FaultSchedule(tuple(move(fault) for fault in self.faults))

    # -- by-time queries (chaos harness, end-to-end link) ---------------

    def uplink_outage_at(self, t: float) -> bool:
        """Whether a full uplink outage is active at ``t``."""
        return any(f.start_s <= t < f.end_s
                   for f in self.of_type(UplinkOutage))

    def ack_loss_at(self, t: float) -> float:
        """Extra ACK loss probability at ``t`` (1.0 during outages)."""
        loss = 0.0
        for f in self.of_type(AckLossBurst):
            if f.start_s <= t < f.end_s:
                loss = max(loss, f.loss_probability)
        if self.uplink_outage_at(t):
            loss = 1.0
        return loss

    def error_scale_at(self, t: float) -> float:
        """Slot-error scale from active blinding windows (1.0 if none)."""
        scale = 1.0
        for f in self.of_type(AdcBlinding):
            if f.start_s <= t < f.end_s:
                scale = max(scale, f.error_scale)
        return scale

    def ambient_at(self, t: float, base: float) -> float:
        """Room ambient at ``t``: the latest step override, else ``base``.

        Blinding does *not* enter here — it saturates the receiver, not
        the room — so lighting control sees only genuine daylight.
        Steps landing at exactly the same instant resolve to the
        brightest level, not to tuple position, so the answer is
        independent of the order schedules were combined in.
        """
        level = base
        last_step = None
        for f in self.of_type(AmbientStep):
            if f.at_s > t:
                continue
            if (last_step is None or f.at_s > last_step.at_s
                    or (f.at_s == last_step.at_s
                        and f.level > last_step.level)):
                last_step = f
        if last_step is not None:
            level = last_step.level
        return min(max(level, 0.0), 1.0)

    def ambient_boost_at(self, t: float) -> float:
        """Receiver-side ambient pedestal from active blinding windows.

        Used by the waveform path (:mod:`repro.sim.endtoend`), where
        blinding manifests as extra light saturating the ADC.
        """
        boost = 0.0
        for f in self.of_type(AdcBlinding):
            if f.start_s <= t < f.end_s:
                boost = max(boost, f.ambient_boost)
        return boost

    def node_down_at(self, node: str, t: float) -> bool:
        """Whether ``node`` is churned out at ``t``."""
        return any(f.node == node and f.start_s <= t < f.end_s
                   for f in self.of_type(NodeDowntime))

    @property
    def end_s(self) -> float:
        """When the last fault window closes (0.0 for an empty schedule)."""
        ends = [f.at_s if isinstance(f, AmbientStep) else f.end_s
                for f in self.faults]
        return max(ends, default=0.0)

    @classmethod
    def random(cls, seed: int, duration_s: float,
               intensity: float, nodes: tuple[str, ...] = ()
               ) -> "FaultSchedule":
        """An intensity-scaled random schedule, pure in its arguments.

        ``intensity`` in [0, 1] scales the number, length, and severity
        of injected faults; 0 yields an empty schedule.  The mix leans
        on blinding windows — the dominant real-world failure mode on
        OpenVLC-class hardware — with ACK bursts, ambient steps, full
        outages, and (when ``nodes`` are given) churn mixed in.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        n_faults = int(round(6 * intensity))
        kinds = ["blinding", "ack-burst", "ambient-step", "outage"]
        weights = [0.45, 0.25, 0.2, 0.1]
        if nodes:
            kinds.append("churn")
            weights = [0.4, 0.2, 0.15, 0.1, 0.15]
        faults: list = []
        for _ in range(n_faults):
            kind = rng.choice(kinds, p=weights)
            start = float(rng.uniform(0.05, 0.75)) * duration_s
            length = float(rng.uniform(0.04, 0.12)) * duration_s \
                * (0.5 + intensity)
            end = min(start + length, duration_s * 0.95)
            if kind == "blinding":
                severity = 0.25 + 0.5 * intensity * float(rng.random())
                faults.append(AdcBlinding(start, end, severity=severity))
            elif kind == "ack-burst":
                loss = 0.5 + 0.5 * intensity * float(rng.random())
                faults.append(AckLossBurst(start, end,
                                           loss_probability=loss))
            elif kind == "ambient-step":
                faults.append(AmbientStep(start,
                                          float(rng.uniform(0.1, 0.9))))
            elif kind == "outage":
                faults.append(UplinkOutage(start, end))
            else:
                node = str(rng.choice(list(nodes)))
                faults.append(NodeDowntime(node, start, end))
        return cls(tuple(faults))


def shipped_schedules(duration_s: float = 40.0) -> dict[str, FaultSchedule]:
    """The curated fault schedules used by ``repro chaos`` and CI.

    Each schedule stresses one failure mode reported on real VLC
    deployments; ``mixed`` composes them.  All are sized for a
    ``duration_s``-second run (windows scale linearly).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    s = duration_s / 40.0

    def blinding() -> tuple:
        return (AdcBlinding(8.0 * s, 14.0 * s, severity=0.35),
                AdcBlinding(22.0 * s, 30.0 * s, severity=0.55))

    def ack_burst() -> tuple:
        return (AckLossBurst(10.0 * s, 16.0 * s, loss_probability=0.7),
                AdcBlinding(24.0 * s, 30.0 * s, severity=0.4))

    def transients() -> tuple:
        return (AmbientStep(6.0 * s, 0.85),
                AdcBlinding(12.0 * s, 18.0 * s, severity=0.45),
                AmbientStep(20.0 * s, 0.3),
                AdcBlinding(26.0 * s, 31.0 * s, severity=0.3))

    def mixed() -> tuple:
        return (AdcBlinding(5.0 * s, 10.0 * s, severity=0.4),
                UplinkOutage(13.0 * s, 16.0 * s),
                AckLossBurst(19.0 * s, 23.0 * s, loss_probability=0.8),
                AmbientStep(25.0 * s, 0.8),
                AdcBlinding(28.0 * s, 34.0 * s, severity=0.5))

    return {
        "blinding": FaultSchedule(blinding()),
        "ack-burst": FaultSchedule(ack_burst()),
        "transients": FaultSchedule(transients()),
        "mixed": FaultSchedule(mixed()),
    }


def install_fault_events(schedule: FaultSchedule,
                         scheduler: "EventScheduler",
                         journal: "EventJournal") -> None:
    """Journal every fault boundary as events on a DES scheduler.

    Windowed faults record ``fault-begin``/``fault-end`` pairs (with
    the fault kind in the detail); ambient steps record a single
    ``fault-step``; the actor is always ``"faults"``.  Physics stays
    with the by-time queries — these events make fault boundaries
    visible in the trace so resilience metrics can attribute
    detections and recoveries.
    """

    def mark(kind: str, fault_kind: str, **detail):
        def apply() -> None:
            journal.record(scheduler.now, kind, "faults",
                           fault=fault_kind, **detail)
        return apply

    for fault in schedule.faults:
        if isinstance(fault, AmbientStep):
            scheduler.schedule_at(fault.at_s,
                                  mark("fault-step", "ambient-step",
                                       level=fault.level),
                                  priority=-1)
            continue
        name = {UplinkOutage: "uplink-outage",
                AckLossBurst: "ack-loss-burst",
                AdcBlinding: "adc-blinding",
                NodeDowntime: "node-downtime"}[type(fault)]
        scheduler.schedule_at(fault.start_s, mark("fault-begin", name),
                              priority=-1)
        scheduler.schedule_at(fault.end_s, mark("fault-end", name),
                              priority=-1)
