"""The receiver → transmitter feedback plane.

In the prototype, every receiver senses the ambient light at its own
position and reports it — together with ACKs — over the ESP8266 Wi-Fi
uplink (Section 5.1).  The transmitter therefore works with *delayed,
possibly missing* observations.  This module models that plane on the
:class:`~repro.des.EventScheduler` clock: a report rides a
:class:`~repro.link.wifi.WifiUplink` and becomes a scheduled arrival
(or a journaled loss), reports arrive out of order, and the plane
keeps the freshest delivered value per node and fuses the fresh ones
by their mean, so report latency, uplink outages and node dropouts
interleave the way they would in the deployed system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..des import EventJournal, EventScheduler
from ..link.wifi import WifiUplink


@dataclass(frozen=True)
class AmbientReport:
    """One receiver's sensed ambient level, stamped at sensing time."""

    node: str
    value: float
    sensed_at: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("ambient value must lie in [0, 1]")


@dataclass
class FeedbackPlane:
    """One luminaire's Wi-Fi ambient-report plane, driven by the clock.

    A submitted report either schedules a ``report-arrival`` event at
    its Wi-Fi delivery time or journals a ``report-lost``.  While
    :attr:`outage` is raised (the multicell simulator's fault events set
    it) every report is lost with reason ``"outage"`` — the paper's
    receivers keep sensing, but the ESP8266 uplink is down.
    ``staleness_s`` bounds how old a delivered report may be before it
    is ignored — a receiver that went quiet must not pin the controller
    to an outdated daylight level.
    """

    scheduler: EventScheduler
    journal: EventJournal
    uplink: WifiUplink
    staleness_s: float = 5.0
    outage: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.staleness_s < math.inf:
            raise ValueError("staleness_s must be finite and positive")
        self._delivered: dict[str, AmbientReport] = {}

    def submit(self, report: AmbientReport, rng: np.random.Generator) -> bool:
        """Send one report; returns whether it will be delivered."""
        now = self.scheduler.now
        if self.outage:
            self.journal.record(now, "report-lost", report.node,
                                reason="outage")
            return False
        arrival = self.uplink.deliver(now, rng)
        if arrival is None:
            self.journal.record(now, "report-lost", report.node,
                                reason="wifi-loss")
            return False

        def on_arrival() -> None:
            self.deliver(report)
            self.journal.record(arrival, "report-arrival", report.node,
                                value=report.value, latency=arrival - now)

        self.scheduler.schedule_at(arrival, on_arrival)
        return True

    def deliver(self, report: AmbientReport) -> None:
        """Register a report that has just arrived.

        Per node, the freshest *sensing* time wins, whatever order the
        Wi-Fi delays deliver reports in.
        """
        current = self._delivered.get(report.node)
        if current is None or report.sensed_at > current.sensed_at:
            self._delivered[report.node] = report

    def estimate(self, fallback: float | None = None) -> float | None:
        """The mean of the fresh reports as of the scheduler clock.

        A report is fresh while its age is at most ``staleness_s``;
        ``fallback`` is returned when none is.
        """
        now = self.scheduler.now
        values = [report.value for report in self._delivered.values()
                  if now - report.sensed_at <= self.staleness_s]
        if not values:
            return fallback
        # Left to right from the first value, as np.mean sums up to 7
        # values; not builtin sum(), which Python 3.12 compensates.
        total = values[0]
        for value in values[1:]:
            total += value
        return total / len(values)
