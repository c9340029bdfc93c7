"""The event journal: a structured per-event trace plus aggregation.

Every discrete-event consumer appends :class:`JournalEntry` records —
``(seq, time, kind, actor, detail)`` — to one :class:`EventJournal`.
The journal is simultaneously

* the *observability layer*: ``count()``, ``counts()`` and
  ``of_kind()`` aggregate over entries, ``tail()`` shows the latest
  activity, and :func:`write_journal_jsonl` exports the full trace for
  external tooling; and
* the *determinism witness*: journals compare exactly under ``==``
  (tuple equality over exact floats) and :meth:`digest` collapses a
  whole run into one hex string, so "two same-seed runs are identical"
  is a one-line assertion.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

#: The named columns of an entry; ``detail`` keys may not shadow them.
_COLUMNS = frozenset({"seq", "time", "kind", "actor"})

#: Entries hashed per ``update`` by :meth:`EventJournal.digest`: long
#: enough to amortise the call, short enough to keep the buffer small.
_DIGEST_CHUNK = 1024


class JournalEntry(NamedTuple):
    """One journaled occurrence; ``detail`` is sorted ``(key, value)``.

    An immutable named tuple: a run journals one per event, so it
    stays as cheap as a tuple.
    """

    seq: int
    time: float
    kind: str
    actor: str = ""
    detail: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """A detail value by key (``default`` when absent)."""
        for name, value in self.detail:
            if name == key:
                return value
        return default

    def as_dict(self) -> dict[str, Any]:
        """A flat dict form (for JSONL export and ad-hoc inspection)."""
        row: dict[str, Any] = {"seq": self.seq, "time": self.time,
                               "kind": self.kind, "actor": self.actor}
        row.update(self.detail)
        return row


@dataclass
class EventJournal:
    """An append-only trace of journal entries with per-kind counters."""

    entries: list[JournalEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._counts: Counter[str] = Counter(e.kind for e in self.entries)

    def record(self, time: float, kind: str, actor: str = "",
               **detail: Any) -> JournalEntry:
        """Append one entry; ``detail`` keys are sorted for stability.

        A detail key may not be a column name (``seq``, ``time``,
        ``kind``, ``actor``): the flat :meth:`JournalEntry.as_dict`
        form, and with it the JSONL export, would overwrite the column.
        """
        if detail:
            if not _COLUMNS.isdisjoint(detail):
                clash = min(_COLUMNS.intersection(detail))
                raise ValueError(f"detail key {clash!r} is a journal column")
            packed = tuple(sorted(detail.items()))
        else:
            packed = ()
        entry = JournalEntry(len(self.entries), time, kind, actor, packed)
        self.entries.append(entry)
        self._counts[kind] += 1
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventJournal):
            return NotImplemented
        return self.entries == other.entries

    def count(self, kind: str) -> int:
        """How many entries of one kind were recorded."""
        return self._counts[kind]

    def counts(self) -> dict[str, int]:
        """Per-kind entry counts, sorted by kind."""
        return dict(sorted(self._counts.items()))

    def of_kind(self, kind: str, actor: str | None = None) -> list[JournalEntry]:
        """All entries of a kind, optionally filtered to one actor."""
        return [e for e in self.entries
                if e.kind == kind and (actor is None or e.actor == actor)]

    def tail(self, n: int = 10) -> list[JournalEntry]:
        """The last ``n`` entries."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.entries[-n:] if n else []

    def digest(self) -> str:
        """A SHA-256 fingerprint of the entire trace.

        Floats are hashed through ``repr`` (exact, round-trippable), so
        two digests agree iff the journals are bit-identical.  Each
        entry contributes one ``seq|time|kind|actor|detail`` line; the
        lines are hashed a chunk of entries per update, which digests
        the same bytes as one update per line.
        """
        hasher = hashlib.sha256()
        entries = self.entries
        for start in range(0, len(entries), _DIGEST_CHUNK):
            hasher.update("".join([
                f"{seq}|{time!r}|{kind}|{actor}|{detail!r}\n"
                for seq, time, kind, actor, detail
                in entries[start:start + _DIGEST_CHUNK]
            ]).encode())
        return hasher.hexdigest()

    def render(self, n_tail: int = 12) -> str:
        """Counters plus the last ``n_tail`` entries as aligned text."""
        lines = [f"event journal: {len(self.entries)} entries"]
        for kind, count in self.counts().items():
            lines.append(f"  {kind:<18} {count:>6}")
        if n_tail and self.entries:
            lines.append(f"  last {min(n_tail, len(self.entries))} events:")
            for e in self.tail(n_tail):
                detail = " ".join(f"{k}={_fmt(v)}" for k, v in e.detail)
                lines.append(f"    [{e.seq:>5}] t={e.time:9.3f}  "
                             f"{e.kind:<16} {e.actor:<14} {detail}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    """Compact detail-value formatting for :meth:`EventJournal.render`."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def write_journal_jsonl(journal: EventJournal,
                        path: str | Path) -> Path:
    """Write a journal as JSON-lines (one entry per line)."""
    path = Path(path)
    with path.open("w") as handle:
        for entry in journal.entries:
            handle.write(json.dumps(entry.as_dict(), sort_keys=True) + "\n")
    return path
