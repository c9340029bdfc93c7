"""Discrete-event simulation: kernel, journal, and network processes.

``repro.des`` is the timing substrate the multi-luminaire network model
(:mod:`repro.net.multicell`) runs on: a deterministic heap-based event
scheduler, an append-only event journal doubling as the observability
layer, and a DES re-expression of the Wi-Fi feedback plane so report
latency, uplink outages and node dropouts all share one clock.
"""

from .journal import (
    EventJournal,
    JournalEntry,
    journals_equal,
    write_journal_jsonl,
)
from .kernel import (
    Event,
    EventHandle,
    EventScheduler,
    ProcessHandle,
)
from .processes import DesFeedbackPlane

__all__ = [
    "DesFeedbackPlane",
    "Event",
    "EventHandle",
    "EventJournal",
    "EventScheduler",
    "JournalEntry",
    "ProcessHandle",
    "journals_equal",
    "write_journal_jsonl",
]
