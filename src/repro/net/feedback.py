"""The receiver → transmitter feedback plane.

In the prototype, every receiver senses the ambient light at its own
position and reports it — together with ACKs — over the ESP8266 Wi-Fi
uplink (Section 5.1).  The transmitter therefore works with *delayed,
possibly missing* observations.  This module models that plane: reports
ride a :class:`~repro.link.wifi.WifiUplink`, arrive out of order, and a
collector keeps the freshest delivered value per node with an
aggregation policy and a staleness cut-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

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


class Aggregation(Enum):
    """How the transmitter fuses multi-receiver ambient reports."""

    MEAN = "mean"
    MIN = "min"      # darkest spot rules: nobody is under-lit
    MAX = "max"
    LATEST = "latest"


@dataclass
class FeedbackCollector:
    """Delivers reports over Wi-Fi and serves the fused ambient value.

    ``staleness_s`` bounds how old a delivered report may be before it
    is ignored — a receiver that went quiet must not pin the controller
    to an outdated daylight level.  ``max_nodes`` (optional) bounds the
    per-node state against receiver churn: when exceeded, stale entries
    are purged first and then the oldest-sensed entries are evicted.
    """

    uplink: WifiUplink = field(default_factory=WifiUplink)
    aggregation: Aggregation = Aggregation.MEAN
    staleness_s: float = 5.0
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.staleness_s < math.inf:
            raise ValueError("staleness_s must be finite and positive")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be positive when set")
        # Per node: (arrival_time, report); in-flight as (arrival, report).
        self._delivered: dict[str, tuple[float, AmbientReport]] = {}
        self._in_flight: list[tuple[float, AmbientReport]] = []

    def submit(self, report: AmbientReport,
               rng: np.random.Generator) -> None:
        """A receiver sends a report; it may be lost or delayed."""
        arrival = self.uplink.deliver(report.sensed_at, rng)
        if arrival is not None:
            self._in_flight.append((arrival, report))

    def deliver(self, report: AmbientReport, arrival: float) -> None:
        """Register a report that arrived at ``arrival``.

        This is the delivery half of :meth:`submit`, exposed so a
        discrete-event scheduler can compute the arrival instant itself
        (see :class:`repro.des.DesFeedbackPlane`) and still share the
        freshest-sensing-time-wins semantics.
        """
        current = self._delivered.get(report.node)
        # Keep the freshest *sensing* time, not arrival order.
        if current is None or report.sensed_at > current[1].sensed_at:
            self._delivered[report.node] = (arrival, report)

    def forget(self, node: str) -> bool:
        """Drop all state for a departed node (returns whether any existed).

        Call on receiver churn: a node that left the room must neither
        linger in the fused estimate until it goes stale nor leak its
        per-node entry forever.  In-flight reports from the node are
        discarded too.
        """
        existed = self._delivered.pop(node, None) is not None
        before = len(self._in_flight)
        self._in_flight = [(arrival, report)
                           for arrival, report in self._in_flight
                           if report.node != node]
        return existed or len(self._in_flight) < before

    def _purge(self, now: float) -> None:
        """Enforce ``max_nodes``: drop stale entries, then oldest-sensed."""
        if self.max_nodes is None or len(self._delivered) <= self.max_nodes:
            return
        stale = [node for node, (_, report) in self._delivered.items()
                 if now - report.sensed_at > self.staleness_s]
        for node in stale:
            del self._delivered[node]
        excess = len(self._delivered) - self.max_nodes
        if excess > 0:
            oldest = sorted(self._delivered,
                            key=lambda n: self._delivered[n][1].sensed_at)
            for node in oldest[:excess]:
                del self._delivered[node]

    def _drain(self, now: float) -> None:
        still_flying = []
        for arrival, report in self._in_flight:
            if arrival <= now:
                self.deliver(report, arrival)
            else:
                still_flying.append((arrival, report))
        self._in_flight = still_flying
        self._purge(now)

    def fresh_reports(self, now: float) -> list[AmbientReport]:
        """Delivered, non-stale reports as of ``now``."""
        self._drain(now)
        return [report for _, report in self._delivered.values()
                if now - report.sensed_at <= self.staleness_s]

    def ambient_estimate(self, now: float,
                         fallback: float | None = None) -> float | None:
        """The fused ambient level, or ``fallback`` when nothing is fresh."""
        reports = self.fresh_reports(now)
        if not reports:
            return fallback
        values = [r.value for r in reports]
        if self.aggregation is Aggregation.MEAN:
            return float(np.mean(values))
        if self.aggregation is Aggregation.MIN:
            return min(values)
        if self.aggregation is Aggregation.MAX:
            return max(values)
        return max(reports, key=lambda r: r.sensed_at).value

    def known_nodes(self) -> Iterable[str]:
        """Nodes that have ever delivered a report."""
        return self._delivered.keys()
