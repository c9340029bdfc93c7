"""Seedable fault schedules for the chaos harness and the multicell DES.

A :class:`FaultSchedule` is an ordered tuple of typed fault primitives:

* :class:`UplinkOutage` — every Wi-Fi packet (ACKs and ambient
  reports alike) is lost for a window;
* :class:`AckLossBurst` — a window of elevated ACK loss on an
  otherwise healthy uplink;
* :class:`AdcBlinding` — a saturation/blinding window at the
  photodiode: slot error probabilities scale up;
* :class:`AmbientStep` — a step transient in the ambient level that
  persists until the next step;
* :class:`NodeDowntime` — receiver churn (multicell).

The chaos harness reads a schedule through by-time queries
(:meth:`FaultSchedule.ack_loss_at` and friends), and
:func:`install_fault_events` journals every boundary on its kernel; the
multicell simulator installs its churn and outage windows itself.
Ambient steps have no by-time query: :meth:`FaultSchedule.ambient_steps`
lists them for :class:`~repro.lighting.ambient.ScheduledAmbient`, the
one place a timed ambient step is resolved.  Each primitive names its
``kind`` once, for journals, reports and notes.

Everything is frozen and validated at construction (every fault time
must be finite), and :meth:`FaultSchedule.random` derives an
intensity-scaled schedule from a seed alone, so chaos sweeps are pure
functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

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

    kind: ClassVar[str] = "uplink-outage"
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, "outage")


@dataclass(frozen=True)
class AckLossBurst:
    """A window of elevated ACK loss probability on the uplink."""

    kind: ClassVar[str] = "ack-loss-burst"
    start_s: float
    end_s: float
    loss_probability: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, "ACK-loss")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must lie in [0, 1]")


#: slot-error scale of a full-severity blinding window
MAX_ERROR_SCALE = 100.0


@dataclass(frozen=True)
class AdcBlinding:
    """A photodiode saturation window of a given severity in (0, 1].

    Severity maps to an error-probability scale for the analytic slot
    error model, ``1 + severity·(MAX_ERROR_SCALE - 1)``.
    """

    kind: ClassVar[str] = "adc-blinding"
    start_s: float
    end_s: float
    severity: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s, "blinding")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must lie in (0, 1]")

    @property
    def error_scale(self) -> float:
        """Multiplier applied to slot error probabilities."""
        return 1.0 + self.severity * (MAX_ERROR_SCALE - 1.0)


@dataclass(frozen=True)
class AmbientStep:
    """A step transient: ambient jumps to ``level`` at ``at_s``."""

    kind: ClassVar[str] = "ambient-step"
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

    kind: ClassVar[str] = "node-downtime"
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

    # -- by-time queries (chaos harness) --------------------------------

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

    def ambient_steps(self) -> tuple[tuple[float, float], ...]:
        """The ambient steps as ``(at_s, level)`` pairs, sorted.

        Sorted by time, then level: under
        :class:`~repro.lighting.ambient.ScheduledAmbient` the last step
        at or before ``t`` holds, so of several steps at one instant the
        brightest applies, whatever the order of the faults.  Blinding
        does *not* enter here — it saturates the receiver, not the room
        — so lighting control sees only genuine daylight.
        """
        return tuple(sorted((f.at_s, f.level)
                            for f in self.of_type(AmbientStep)))

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
    return {
        "blinding": FaultSchedule((
            AdcBlinding(8.0 * s, 14.0 * s, severity=0.35),
            AdcBlinding(22.0 * s, 30.0 * s, severity=0.55))),
        "ack-burst": FaultSchedule((
            AckLossBurst(10.0 * s, 16.0 * s, loss_probability=0.7),
            AdcBlinding(24.0 * s, 30.0 * s, severity=0.4))),
        "transients": FaultSchedule((
            AmbientStep(6.0 * s, 0.85),
            AdcBlinding(12.0 * s, 18.0 * s, severity=0.45),
            AmbientStep(20.0 * s, 0.3),
            AdcBlinding(26.0 * s, 31.0 * s, severity=0.3))),
        "mixed": FaultSchedule((
            AdcBlinding(5.0 * s, 10.0 * s, severity=0.4),
            UplinkOutage(13.0 * s, 16.0 * s),
            AckLossBurst(19.0 * s, 23.0 * s, loss_probability=0.8),
            AmbientStep(25.0 * s, 0.8),
            AdcBlinding(28.0 * s, 34.0 * s, severity=0.5))),
    }


#: The shipped schedules' names, in :func:`shipped_schedules` order.
SHIPPED_SCHEDULES = tuple(shipped_schedules())


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
                                  mark("fault-step", fault.kind,
                                       level=fault.level),
                                  priority=-1)
            continue
        scheduler.schedule_at(fault.start_s, mark("fault-begin", fault.kind),
                              priority=-1)
        scheduler.schedule_at(fault.end_s, mark("fault-end", fault.kind),
                              priority=-1)
