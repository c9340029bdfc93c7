"""Heap-based discrete-event kernel.

The closed-loop simulations in :mod:`repro.net` and
:mod:`repro.resilience` share one real clock: a Wi-Fi report lands
2 ms after it was sensed, an ACK timeout fires mid-window, a receiver
drops out at an arbitrary instant.  :class:`EventScheduler` is that
clock: a binary heap of ``(time, priority, seq, callback)`` tuples,
where ``seq`` is the insertion index.  Events fire in
``(time, priority, seq)`` order, so two events at the same time and
priority dispatch in the order they were scheduled, making same-seed
runs bit-identical regardless of host or hash randomisation.

A callback takes no argument; what it needs it closes over.  A process
is a generator that ``yield``-s the delay until its next resume, the
idiom the periodic sense/control/link loops are written in.

Every time an event is queued at — an absolute time or a process's
yield — must be finite: NaN and infinity are rejected with
``ValueError`` rather than queued.  A ``run`` bound may be infinite,
but not NaN.  An exception raised by a callback or a process
propagates out of :meth:`EventScheduler.run` unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Generator

from ..obs import metrics, span


class EventScheduler:
    """The event queue: schedule callbacks and processes, run in order."""

    __slots__ = ("_heap", "_order", "_now")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._order = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule_at(self, time_s: float, callback: Callable[[], None], *,
                    priority: int = 0) -> None:
        """Call ``callback()`` at an absolute time (finite, not before
        ``now``); a lower ``priority`` fires first at the same time."""
        if not math.isfinite(time_s):
            raise ValueError(f"time_s must be finite, got {time_s}")
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule at {time_s} before now={self._now}")
        heapq.heappush(self._heap,
                       (time_s, priority, next(self._order), callback))

    def spawn(self, generator: Generator[float, None, None], name: str, *,
              priority: int = 0) -> None:
        """Run a generator as a process, first resumed now: each yielded
        value is the delay until its next resume; returning ends it.

        A negative or non-finite yield raises ``ValueError`` naming the
        process out of :meth:`run`.
        """
        heap, order = self._heap, self._order

        def resume() -> None:
            try:
                delay = next(generator)
            except StopIteration:
                return
            if not 0.0 <= delay < math.inf:
                problem = "negative" if delay < 0 else "non-finite"
                raise ValueError(
                    f"process {name!r} yielded a {problem} delay ({delay})")
            heapq.heappush(heap,
                           (self._now + delay, priority, next(order), resume))

        self.schedule_at(self._now, resume, priority=priority)

    def run(self, until_s: float | None = None) -> int:
        """Dispatch events in order; returns the number dispatched.

        ``until_s`` stops before any event later than that time (the
        clock then rests at the last dispatched event); it may be
        infinite but not NaN.
        """
        if until_s is not None:
            if math.isnan(until_s):
                raise ValueError("until_s must not be NaN")
            if until_s < self._now:
                raise ValueError("until_s lies in the past")
        bound = math.inf if until_s is None else until_s
        heap, pop = self._heap, heapq.heappop
        dispatched = 0
        with span("des.run", until_s=until_s):
            while heap and heap[0][0] <= bound:
                self._now, _priority, _seq, callback = pop(heap)
                callback()
                dispatched += 1
        registry = metrics()
        registry.counter("repro_des_events_dispatched_total",
                         help="events dispatched by the DES kernel") \
            .inc(dispatched)
        registry.gauge("repro_des_clock_seconds",
                       help="simulation clock after the latest run") \
            .set_max(self._now)
        return dispatched
