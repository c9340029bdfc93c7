"""The Wi-Fi feedback plane re-expressed as a discrete-event process.

:class:`DesFeedbackPlane` puts the
:class:`~repro.net.feedback.FeedbackCollector` on the
:class:`EventScheduler` clock: a receiver's ambient report becomes a
scheduled *arrival* event (or a journaled loss), so report latency,
uplink outages and node dropouts interleave the way they would in the
deployed system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .journal import EventJournal
from .kernel import EventScheduler

if TYPE_CHECKING:  # imported lazily to keep repro.des importable first
    from ..net.feedback import AmbientReport, FeedbackCollector


@dataclass
class DesFeedbackPlane:
    """The Wi-Fi ambient-report plane driven by scheduler events.

    Wraps a :class:`FeedbackCollector`: a submitted report either
    schedules a ``report-arrival`` event at its Wi-Fi delivery time or
    journals a ``report-lost``.  While :attr:`outage` is raised (the
    multicell simulator's fault events set it) every report is lost
    with reason ``"outage"`` — the paper's receivers keep sensing, but
    the ESP8266 uplink is down.
    """

    scheduler: EventScheduler
    journal: EventJournal
    collector: "FeedbackCollector"
    outage: bool = False

    def submit(self, report: AmbientReport, rng: np.random.Generator) -> bool:
        """Send one report; returns whether it will be delivered."""
        now = self.scheduler.now
        if self.outage:
            self.journal.record(now, "report-lost", report.node,
                                reason="outage")
            return False
        arrival = self.collector.uplink.deliver(now, rng)
        if arrival is None:
            self.journal.record(now, "report-lost", report.node,
                                reason="wifi-loss")
            return False

        def on_arrival(_event) -> None:
            self.collector.deliver(report)
            self.journal.record(arrival, "report-arrival", report.node,
                                value=report.value, latency=arrival - now)

        self.scheduler.schedule_at(arrival, "report-arrival", on_arrival,
                                   actor=report.node)
        return True

    def estimate(self, fallback: float | None = None) -> float | None:
        """The fused ambient estimate as of the scheduler clock."""
        return self.collector.ambient_estimate(self.scheduler.now,
                                               fallback=fallback)
