"""Heap-based discrete-event kernel.

The closed-loop simulations in :mod:`repro.net` historically advanced
in lockstep ``step(t)`` calls, which cannot express events that happen
*between* ticks — a Wi-Fi report landing 2 ms after it was sensed, an
ACK timeout firing mid-window, a receiver dropping out at an arbitrary
instant.  This kernel gives every consumer one real clock:

* :class:`EventScheduler` — a binary-heap event queue.  Events fire in
  ``(time, priority, seq)`` order, where ``seq`` is the monotonically
  increasing insertion index; two events at the same time and priority
  therefore dispatch in the order they were scheduled, making same-seed
  runs bit-identical regardless of host or hash randomisation.
* :class:`Event` — an immutable named tuple recording one occurrence
  (kind, actor, payload), also the unit the event journal traces.
* :class:`ProcessHandle` — a cancellable handle on a spawned generator
  process (a coroutine that ``yield``-s delays between actions), the
  idiom the periodic sense/control/measure loops are written in.

Every time an event is queued at — an absolute time, a delay, a
process's yield — must be finite: NaN and infinity are rejected with
``ValueError`` rather than queued.  A ``run`` bound may be infinite,
but not NaN.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, NamedTuple

from ..obs import metrics, span
from .journal import EventJournal

#: Payload keys that would collide with journal columns on dispatch.
_RESERVED_PAYLOAD = frozenset({"seq", "time"})


class Event(NamedTuple):
    """One scheduled occurrence on the simulation clock.

    An immutable named tuple: one is built per scheduled event, so it
    stays as cheap as a tuple.  ``payload`` is a tuple of sorted
    ``(key, value)`` pairs rather than a dict so events stay immutable
    and cheaply comparable.
    """

    time: float
    kind: str
    seq: int
    priority: int = 0
    actor: str = ""
    payload: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """A payload value by key (``default`` when absent)."""
        for name, value in self.payload:
            if name == key:
                return value
        return default

    def as_dict(self) -> dict[str, Any]:
        """A flat dict form: the named fields, then the payload."""
        row: dict[str, Any] = {"time": self.time, "kind": self.kind,
                               "seq": self.seq, "priority": self.priority,
                               "actor": self.actor}
        row.update(self.payload)
        return row


class CancelledEventError(RuntimeError):
    """Raised when a cancelled handle is asked to do work again."""


class EventHandle:
    """A cancellable reference to a not-yet-dispatched event."""

    __slots__ = ("event", "_cancelled", "_scheduler")

    def __init__(self, event: Event, scheduler: "EventScheduler | None" = None):
        self.event = event
        self._cancelled = False
        self._scheduler = scheduler

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before dispatch."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent).

        The owning scheduler is notified so it can account for the dead
        heap entry (and compact the heap once cancellations dominate).
        """
        if self._cancelled:
            return
        self._cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancelled()


class ProcessHandle:
    """A running generator process on the scheduler.

    The generator yields finite non-negative delays; between yields it
    performs its actions against the simulation state.  ``cancel()``
    stops the process before its next resume.
    """

    __slots__ = ("name", "_alive", "_pending")

    def __init__(self, name: str):
        self.name = name
        self._alive = True
        self._pending: EventHandle | None = None

    @property
    def alive(self) -> bool:
        """Whether the process may still be resumed."""
        return self._alive

    def cancel(self) -> None:
        """Stop the process; its pending resume event is cancelled."""
        self._alive = False
        if self._pending is not None:
            self._pending.cancel()


@dataclass
class EventScheduler:
    """The event queue: schedule, cancel, and run events in time order.

    ``journal`` is optional; when set, every *dispatched* event is
    recorded (kind, actor, payload), which is the cheapest way to get a
    full kernel-level trace.  Domain layers usually journal richer
    entries from inside their callbacks instead.
    """

    journal: EventJournal | None = None
    compact_min_pending: int = 64
    compact_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.compact_fraction <= 1.0:
            raise ValueError("compact_fraction must lie in (0, 1]")
        if self.compact_min_pending < 1:
            raise ValueError("compact_min_pending must be positive")
        self._heap: list[tuple[float, int, int, EventHandle,
                               Callable[[Event], None] | None]] = []
        self._seq = 0
        self._now = 0.0
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled_in_heap

    def _note_cancelled(self) -> None:
        """Account for a handle cancelled while still on the heap.

        Timer-heavy workloads (retransmission timers, fault schedules)
        cancel far more events than they dispatch; without compaction
        the dead entries pile up and degrade every ``heappush``.  Once
        cancelled entries exceed ``compact_fraction`` of a heap at least
        ``compact_min_pending`` long, the heap is rebuilt without them —
        amortized O(1) per cancellation.
        """
        self._cancelled_in_heap += 1
        if (len(self._heap) >= self.compact_min_pending
                and self._cancelled_in_heap
                > self.compact_fraction * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        live = [entry for entry in self._heap if not entry[3].cancelled]
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._scheduler = None
        heapq.heapify(live)
        self._heap = live
        self._cancelled_in_heap = 0

    def schedule(self, delay_s: float, kind: str,
                 callback: Callable[[Event], None] | None = None, *,
                 priority: int = 0, actor: str = "",
                 **payload: Any) -> EventHandle:
        """Schedule ``kind`` to fire ``delay_s`` seconds from now."""
        if not 0.0 <= delay_s < math.inf:
            raise ValueError(
                f"delay_s must be finite and non-negative, got {delay_s}")
        return self.schedule_at(self._now + delay_s, kind, callback,
                                priority=priority, actor=actor, **payload)

    def schedule_at(self, time_s: float, kind: str,
                    callback: Callable[[Event], None] | None = None, *,
                    priority: int = 0, actor: str = "",
                    **payload: Any) -> EventHandle:
        """Schedule ``kind`` at an absolute time (not before ``now``).

        ``payload`` may not use the keys ``seq`` or ``time``: a
        journaling scheduler records the payload beside those columns.
        """
        if not math.isfinite(time_s):
            raise ValueError(f"time_s must be finite, got {time_s}")
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule at {time_s} before now={self._now}")
        if not payload:
            return self._push(time_s, kind, callback, priority, actor, ())
        if not _RESERVED_PAYLOAD.isdisjoint(payload):
            clash = min(_RESERVED_PAYLOAD.intersection(payload))
            raise ValueError(f"payload key {clash!r} is a journal column")
        return self._push(time_s, kind, callback, priority, actor,
                          tuple(sorted(payload.items())))

    def _push(self, time_s: float, kind: str,
              callback: Callable[[Event], None] | None, priority: int,
              actor: str, payload: tuple) -> EventHandle:
        """Queue a validated event (the shared tail of every schedule)."""
        seq = self._seq
        handle = EventHandle(Event(time_s, kind, seq, priority, actor,
                                   payload), self)
        heapq.heappush(self._heap, (time_s, priority, seq, handle, callback))
        self._seq = seq + 1
        return handle

    def spawn(self, generator: Generator[float, None, None],
              name: str = "process", *, delay_s: float = 0.0,
              priority: int = 0) -> ProcessHandle:
        """Run a generator as a process: each yielded value is the delay
        until its next resume; returning (or ``StopIteration``) ends it.

        A negative or non-finite yield journals ``process-error`` and
        raises ``ValueError`` out of :meth:`run`.
        """
        handle = ProcessHandle(name)
        kind = f"resume:{name}"

        def fail(error: BaseException) -> None:
            # The resume event just dispatched, so its handle is spent:
            # leaving it on the process would let a later cancel() poke
            # a dead event.  Journal the failure before the exception
            # unwinds run(), so the trace shows *which* process died.
            handle._alive = False
            handle._pending = None
            if self.journal is not None:
                self.journal.record(self._now, "process-error", name,
                                    error=f"{type(error).__name__}: {error}")

        def resume(_event: Event) -> None:
            if not handle._alive:
                return
            try:
                delay = next(generator)
            except StopIteration:
                handle._alive = False
                handle._pending = None
                return
            except Exception as error:
                fail(error)
                raise
            if not 0.0 <= delay < math.inf:
                problem = "negative" if delay < 0 else "non-finite"
                error = ValueError(
                    f"process {name!r} yielded a {problem} delay ({delay})")
                fail(error)
                raise error
            handle._pending = self._push(self._now + delay, kind, resume,
                                         priority, name, ())

        handle._pending = self.schedule(delay_s, kind, resume,
                                        priority=priority, actor=name)
        return handle

    def step(self) -> Event | None:
        """Dispatch the single next non-cancelled event, if any."""
        while self._heap:
            time_s, _priority, _seq, handle, callback = heapq.heappop(self._heap)
            handle._scheduler = None
            if handle._cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = time_s
            event = handle.event
            if self.journal is not None:
                self.journal.record(event.time, event.kind, event.actor,
                                    **dict(event.payload))
            if callback is not None:
                callback(event)
            return event
        return None

    def run(self, until_s: float | None = None,
            max_events: int | None = None) -> int:
        """Dispatch events in order; returns the number dispatched.

        ``until_s`` stops before any event later than that time (the
        clock then rests at the last dispatched event); it may be
        infinite but not NaN.  ``max_events`` bounds runaway event
        cascades.
        """
        if until_s is not None:
            if math.isnan(until_s):
                raise ValueError("until_s must not be NaN")
            if until_s < self._now:
                raise ValueError("until_s lies in the past")
        dispatched = 0
        with span("des.run", until_s=until_s):
            while self._heap:
                if max_events is not None and dispatched >= max_events:
                    break
                next_time = self._heap[0][0]
                if until_s is not None and next_time > until_s:
                    break
                if self.step() is not None:
                    dispatched += 1
        registry = metrics()
        registry.counter("repro_des_events_dispatched_total",
                         help="events dispatched by the DES kernel") \
            .inc(dispatched)
        registry.gauge("repro_des_clock_seconds",
                       help="simulation clock after the latest run") \
            .set_max(self._now)
        return dispatched
