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
    """Keeps the freshest delivered report per node and fuses them.

    ``uplink`` is the Wi-Fi link the reports ride; the discrete-event
    plane (:class:`repro.des.DesFeedbackPlane`) draws each report's
    loss and delay from it and calls :meth:`deliver` on arrival.
    ``staleness_s`` bounds how old a delivered report may be before it
    is ignored — a receiver that went quiet must not pin the controller
    to an outdated daylight level.
    """

    uplink: WifiUplink = field(default_factory=WifiUplink)
    aggregation: Aggregation = Aggregation.MEAN
    staleness_s: float = 5.0

    def __post_init__(self) -> None:
        if not 0 < self.staleness_s < math.inf:
            raise ValueError("staleness_s must be finite and positive")
        self._delivered: dict[str, AmbientReport] = {}

    def deliver(self, report: AmbientReport) -> None:
        """Register a report that has just arrived.

        Per node, the freshest *sensing* time wins, whatever order the
        Wi-Fi delays deliver reports in.
        """
        current = self._delivered.get(report.node)
        if current is None or report.sensed_at > current.sensed_at:
            self._delivered[report.node] = report

    def forget(self, node: str) -> bool:
        """Drop all state for a departed node (returns whether any existed).

        Call on receiver churn: a node that left the room must not
        linger in the fused estimate until it goes stale.
        """
        return self._delivered.pop(node, None) is not None

    def fresh_reports(self, now: float) -> list[AmbientReport]:
        """Delivered, non-stale reports as of ``now``."""
        return [report for report in self._delivered.values()
                if now - report.sensed_at <= self.staleness_s]

    def ambient_estimate(self, now: float,
                         fallback: float | None = None) -> float | None:
        """The fused ambient level, or ``fallback`` when nothing is fresh."""
        reports = self.fresh_reports(now)
        if not reports:
            return fallback
        values = [r.value for r in reports]
        if self.aggregation is Aggregation.MEAN:
            # Left to right from the first value, as np.mean sums up to
            # 7 values; not builtin sum(), which Python 3.12 compensates.
            total = values[0]
            for value in values[1:]:
                total += value
            return total / len(values)
        if self.aggregation is Aggregation.MIN:
            return min(values)
        if self.aggregation is Aggregation.MAX:
            return max(values)
        return max(reports, key=lambda r: r.sensed_at).value

    def known_nodes(self) -> Iterable[str]:
        """Nodes that have ever delivered a report."""
        return self._delivered.keys()
