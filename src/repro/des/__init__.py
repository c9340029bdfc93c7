"""Discrete-event simulation: kernel, journal, and network processes.

``repro.des`` is the timing substrate the multi-luminaire network model
(:mod:`repro.net.multicell`) and the chaos harness
(:mod:`repro.resilience.chaos`) run on: a deterministic heap-based
event scheduler whose whole surface is ``now``, ``schedule_at``,
``spawn`` and ``run``; an append-only event journal that the
simulators' callbacks write and that doubles as the observability
layer and the determinism witness; and a DES re-expression of the
Wi-Fi feedback plane so report latency, uplink outages and node
dropouts all share one clock.
"""

from .journal import EventJournal, JournalEntry, write_journal_jsonl
from .kernel import EventScheduler
from .processes import DesFeedbackPlane

__all__ = [
    "DesFeedbackPlane",
    "EventJournal",
    "EventScheduler",
    "JournalEntry",
    "write_journal_jsonl",
]
