"""Resilience measurement: fault attribution and the ResilienceReport.

Given a fault schedule, the supervisor's transition trace, and the MAC
counters of a chaos run, this module answers the operational questions:
how fast was each fault *detected* (first departure from UP inside the
window), how fast did the link *recover* (first return to UP after the
window closed), how much goodput survived degradation, and how many
frames were lost per injected fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..link.supervision import LinkState, LinkTransition
from .faults import AckLossBurst, AdcBlinding, FaultSchedule, UplinkOutage

#: grace period after a window closes during which a departure from UP
#: still counts as detecting that window (late evidence of its tail)
DETECTION_GRACE_S = 1.0


def fault_windows(schedule: FaultSchedule
                  ) -> tuple[tuple[str, float, float], ...]:
    """Channel-affecting ``(kind, start_s, end_s)`` windows, sorted.

    Ambient steps are excluded — they have no end and are handled by
    the controller, not the link supervisor; node downtime is a
    multicell concern with no single-link meaning.
    """
    windows = [(f.kind, f.start_s, f.end_s) for f in schedule.faults
               if isinstance(f, (AdcBlinding, AckLossBurst, UplinkOutage))]
    return tuple(sorted(windows, key=lambda w: (w[1], w[2], w[0])))


def detection_delays(windows: tuple[tuple[str, float, float], ...],
                     transitions: list[LinkTransition]
                     ) -> list[float | None]:
    """Per-window seconds from fault onset to leaving UP (None: missed)."""
    delays: list[float | None] = []
    for _kind, start, end in windows:
        detected = None
        for tr in transitions:
            if (tr.source is LinkState.UP and tr.target is not LinkState.UP
                    and start <= tr.time < end + DETECTION_GRACE_S):
                detected = tr.time - start
                break
        delays.append(detected)
    return delays


def recovery_delays(windows: tuple[tuple[str, float, float], ...],
                    transitions: list[LinkTransition]
                    ) -> list[float | None]:
    """Per-window seconds from fault end to the next return to UP.

    ``None`` when the link never left UP for that window (nothing to
    recover from) or never returned before the trace ended.
    """
    detections = detection_delays(windows, transitions)
    delays: list[float | None] = []
    for (_kind, _start, end), detected in zip(windows, detections):
        if detected is None:
            delays.append(None)
            continue
        recovered = None
        for tr in transitions:
            if tr.target is LinkState.UP and tr.time >= end:
                recovered = tr.time - end
                break
        delays.append(recovered)
    return delays


def _mean(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)


@dataclass(frozen=True)
class ResilienceReport:
    """The measured outcome of one chaos run.

    All rates are over the full run duration; ``degraded_goodput_bps``
    divides the bits acknowledged while the link was *not* UP by the
    time spent not-UP (0 when the link never degraded).
    """

    duration_s: float
    supervised: bool
    goodput_bps: float
    delivered_goodput_bps: float
    degraded_goodput_bps: float
    frames_sent: int
    frames_delivered: int
    frames_lost: int
    retransmissions: int
    duplicates_suppressed: int
    probes_sent: int
    transitions: int
    time_degraded_s: float
    time_down_s: float
    n_faults: int
    mean_time_to_detect_s: float | None
    mean_time_to_recover_s: float | None
    max_perceived_step: float
    digest: str

    @property
    def frames_lost_per_fault(self) -> float:
        """Abandoned payloads per injected channel-affecting fault."""
        if self.n_faults == 0:
            return float(self.frames_lost)
        return self.frames_lost / self.n_faults

    def metrics(self) -> dict[str, float]:
        """A flat numeric dict (the determinism-comparison payload)."""
        out = {
            "goodput_bps": self.goodput_bps,
            "delivered_goodput_bps": self.delivered_goodput_bps,
            "degraded_goodput_bps": self.degraded_goodput_bps,
            "frames_sent": float(self.frames_sent),
            "frames_delivered": float(self.frames_delivered),
            "frames_lost": float(self.frames_lost),
            "frames_lost_per_fault": self.frames_lost_per_fault,
            "retransmissions": float(self.retransmissions),
            "duplicates_suppressed": float(self.duplicates_suppressed),
            "probes_sent": float(self.probes_sent),
            "transitions": float(self.transitions),
            "time_degraded_s": self.time_degraded_s,
            "time_down_s": self.time_down_s,
            "max_perceived_step": self.max_perceived_step,
        }
        if self.mean_time_to_detect_s is not None:
            out["mean_time_to_detect_s"] = self.mean_time_to_detect_s
        if self.mean_time_to_recover_s is not None:
            out["mean_time_to_recover_s"] = self.mean_time_to_recover_s
        return out

    def render(self) -> str:
        """Aligned text form for the ``repro chaos`` CLI."""
        mode = "supervised" if self.supervised else "unsupervised"
        lines = [f"resilience report ({mode}, {self.duration_s:g} s, "
                 f"{self.n_faults} fault windows)"]

        def row(label: str, value: str) -> None:
            lines.append(f"  {label:<26} {value}")

        row("goodput", f"{self.goodput_bps / 1e3:.2f} kbps")
        row("goodput while degraded", f"{self.degraded_goodput_bps / 1e3:.2f} kbps")
        row("frames sent/delivered", f"{self.frames_sent}/{self.frames_delivered}")
        row("frames lost", f"{self.frames_lost} "
            f"({self.frames_lost_per_fault:.2f} per fault)")
        row("retransmissions", str(self.retransmissions))
        row("duplicates suppressed", str(self.duplicates_suppressed))
        row("probes sent", str(self.probes_sent))
        row("link transitions", str(self.transitions))
        row("time degraded / down", f"{self.time_degraded_s:.2f} s / "
            f"{self.time_down_s:.2f} s")
        if self.mean_time_to_detect_s is not None:
            row("mean time to detect", f"{self.mean_time_to_detect_s:.3f} s")
        if self.mean_time_to_recover_s is not None:
            row("mean time to recover", f"{self.mean_time_to_recover_s:.3f} s")
        row("max perceived step", f"{self.max_perceived_step:.5f}")
        row("journal digest", self.digest)
        return "\n".join(lines)


def fault_attribution(schedule: FaultSchedule,
                      transitions: list[LinkTransition]) -> dict:
    """The report's fault fields: ``n_faults`` and the mean times to
    detect and to recover over the schedule's channel windows."""
    windows = fault_windows(schedule)
    return {
        "n_faults": len(windows),
        "mean_time_to_detect_s": _mean(detection_delays(windows,
                                                        transitions)),
        "mean_time_to_recover_s": _mean(recovery_delays(windows,
                                                        transitions)),
    }
