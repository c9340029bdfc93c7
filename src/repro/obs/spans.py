"""Contextvar-based span tracing with monotonic timings.

A *span* is one timed region of work — ``with span("montecarlo.ser"): ...``
— identified by a name plus optional attributes.  Spans nest: the
contextvar holding the active span makes the enclosing ``with`` block
the parent of any span opened inside it, across generator suspensions
and (if it ever comes to that) asyncio tasks, without any explicit
threading of a tracer object through call signatures.

Timings come from :func:`time.perf_counter` and are *relative to the
recorder's epoch* (its construction instant), so a trace is a set of
``(start_s, duration_s)`` intervals starting near zero.  Wall-clock
values live only here and in the exported telemetry files — results,
journals and their digests never see them, which is what keeps the
golden-seed determinism contract intact.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Mapping

_ACTIVE_SPAN: ContextVar["_OpenSpan | None"] = ContextVar(
    "repro_obs_active_span", default=None)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, position in the tree, and timing."""

    span_id: int
    parent_id: int | None
    name: str
    depth: int
    start_s: float
    duration_s: float
    attrs: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """An attribute value by key (``default`` when absent)."""
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def as_dict(self) -> dict[str, Any]:
        """A flat dict form (for JSONL export)."""
        row: dict[str, Any] = {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "name": self.name, "depth": self.depth,
            "start_s": self.start_s, "duration_s": self.duration_s,
        }
        if self.attrs:
            row["attrs"] = dict(self.attrs)
        return row


class _OpenSpan:
    """Book-keeping for a span that has been entered but not exited."""

    __slots__ = ("span_id", "parent", "name", "depth", "start", "attrs",
                 "recorder", "_token")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 attrs: dict[str, Any]):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent: _OpenSpan | None = None
        self.depth = 0
        self.start = 0.0
        self._token = None

    def __enter__(self) -> "_OpenSpan":
        recorder = self.recorder
        self.span_id = recorder._next_id
        recorder._next_id += 1
        self.parent = _ACTIVE_SPAN.get()
        if self.parent is not None and self.parent.recorder is not recorder:
            # A span from another recorder (e.g. the session's, around a
            # standalone recorder) cannot be a parent: parent links must
            # stay within one recorder's id space, or absorb() would
            # resolve them against the wrong sequence.
            self.parent = None
        self.depth = 0 if self.parent is None else self.parent.depth + 1
        self._token = _ACTIVE_SPAN.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self.start
        _ACTIVE_SPAN.reset(self._token)
        self.recorder._finished.append(SpanRecord(
            span_id=self.span_id,
            parent_id=None if self.parent is None else self.parent.span_id,
            name=self.name,
            depth=self.depth,
            start_s=self.start - self.recorder.epoch,
            duration_s=duration,
            attrs=tuple(sorted(self.attrs.items())),
        ))
        return False


class SpanRecorder:
    """Collects finished spans for one telemetry session."""

    __slots__ = ("epoch", "_next_id", "_finished")

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._next_id = 0
        self._finished: list[SpanRecord] = []

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """A context manager timing one region under the active parent."""
        return _OpenSpan(self, name, attrs)

    @property
    def records(self) -> list[SpanRecord]:
        """Every finished span, in completion order."""
        return list(self._finished)

    def __len__(self) -> int:
        return len(self._finished)

    def payload(self) -> dict[str, Any]:
        """The recorder's spans as a picklable shard payload.

        The inverse is :meth:`absorb` in another process's recorder;
        the ``epoch`` rides along so the absorber can rebase the
        timings onto its own timeline (``perf_counter`` reads the same
        monotonic clock in every process of a machine).
        """
        return {"epoch": self.epoch,
                "records": [r.as_dict() for r in self._finished]}

    def absorb(self, payload: Mapping[str, Any], shard: int | None = None,
               parent_id: int | None = None,
               base_depth: int = 0) -> list[SpanRecord]:
        """Fold a :meth:`payload` from another process into this recorder.

        Span ids are remapped onto this recorder's sequence (parent
        links inside the payload follow), start times are rebased from
        the payload's epoch onto this recorder's, and ``shard`` (when
        given) is stamped on every absorbed span's attributes — the
        marker the Chrome-trace exporter uses to give each shard its
        own pid.  Roots of the payload (and orphans whose parent is
        missing from it) are stitched under ``parent_id`` at
        ``base_depth``, so absorbed shard trees nest inside the span
        that ran the sweep.  Returns the absorbed records.
        """
        rows = list(payload.get("records", ()))
        offset = float(payload.get("epoch", self.epoch)) - self.epoch
        ids = {row["span_id"]: self._next_id + i
               for i, row in enumerate(rows)}
        self._next_id += len(rows)
        absorbed: list[SpanRecord] = []
        for row in rows:
            attrs = dict(row.get("attrs", {}))
            if shard is not None:
                attrs["shard"] = shard
            old_parent = row.get("parent_id")
            new_parent = (ids.get(old_parent, parent_id)
                          if old_parent is not None else parent_id)
            record = SpanRecord(
                span_id=ids[row["span_id"]],
                parent_id=new_parent,
                name=row["name"],
                depth=row.get("depth", 0) + base_depth,
                start_s=row["start_s"] + offset,
                duration_s=row["duration_s"],
                attrs=tuple(sorted(attrs.items())),
            )
            self._finished.append(record)
            absorbed.append(record)
        return absorbed


def active_span() -> "_OpenSpan | None":
    """The innermost open span of the current context, or None."""
    return _ACTIVE_SPAN.get()


class NullSpan:
    """The telemetry-off span: a shared, reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        """No-op."""
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op."""
        return False


NULL_SPAN = NullSpan()
"""Shared instance returned by :func:`repro.obs.span` when disabled."""


def span_tree(records: list[SpanRecord]) -> list[tuple[SpanRecord, list]]:
    """Nest finished spans into ``(record, children)`` forests.

    Roots (and siblings) are ordered by start time; a record whose
    parent is missing from ``records`` is treated as a root.
    """
    by_id = {r.span_id: (r, []) for r in records}
    roots: list[tuple[SpanRecord, list]] = []
    for record in sorted(records, key=lambda r: (r.start_s, r.span_id)):
        node = by_id[record.span_id]
        parent = (by_id.get(record.parent_id)
                  if record.parent_id is not None else None)
        if parent is None:
            roots.append(node)
        else:
            parent[1].append(node)
    return roots
