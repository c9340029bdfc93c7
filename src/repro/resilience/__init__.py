"""Resilience: fault injection, chaos scenarios, and recovery metrics.

The paper's prototype assumes the control plane stays up; this package
supplies the production-hardening counterpart — a composable, seedable
fault substrate (:mod:`~repro.resilience.faults`), a supervised-link
chaos harness on the discrete-event kernel
(:mod:`~repro.resilience.chaos`), and the resilience report
(:mod:`~repro.resilience.metrics`) that quantifies time-to-detect,
time-to-recover, and goodput under degradation.
"""

from .chaos import ChaosResult, ChaosScenario
from .faults import (
    AckLossBurst,
    AdcBlinding,
    AmbientStep,
    FaultSchedule,
    NodeDowntime,
    UplinkOutage,
    install_fault_events,
    shipped_schedules,
)
from .metrics import ResilienceReport, fault_windows

__all__ = [
    "AckLossBurst",
    "AdcBlinding",
    "AmbientStep",
    "ChaosResult",
    "ChaosScenario",
    "FaultSchedule",
    "NodeDowntime",
    "ResilienceReport",
    "UplinkOutage",
    "fault_windows",
    "install_fault_events",
    "shipped_schedules",
]
