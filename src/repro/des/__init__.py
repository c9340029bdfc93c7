"""Discrete-event simulation: the kernel and the event journal.

``repro.des`` is the timing substrate the multi-luminaire network model
(:mod:`repro.net.multicell`, whose Wi-Fi feedback plane
:class:`repro.net.FeedbackPlane` schedules report arrivals on the same
clock) and the chaos harness (:mod:`repro.resilience.chaos`) run on: a
deterministic heap-based event scheduler whose whole surface is
``now``, ``schedule_at``, ``spawn`` and ``run``; and an append-only
event journal that the simulators' callbacks write and that doubles as
the observability layer and the determinism witness.
"""

from .journal import EventJournal, JournalEntry, write_journal_jsonl
from .kernel import EventScheduler

__all__ = [
    "EventJournal",
    "EventScheduler",
    "JournalEntry",
    "write_journal_jsonl",
]
