"""A frozen pure-Python probe of how fast the host runs the interpreter.

The benchmark's host is a small VM on a shared machine.  Its speed
swings by up to a factor of two, in spells of a few seconds that can
last for minutes, and the same unit of work takes that much longer in a
slow spell; a median over a run does not remove a spell that covers
most of the run.  So each timed unit of work runs beside a
:class:`Meter`: a background thread that times a short probe every
``PERIOD`` seconds while the unit runs, in thread CPU time (time spent
waiting for the GIL or a core does not count).  A unit's time is scaled
to the reference speed by the mean probe time over that same unit.

The probe is frozen code beside the benchmark, so a change to ``repro``
moves the unit times and never the scale.  Probes timed *before* a unit
tracked the host poorly (its spells change within seconds); probes
timed *during* the unit, averaged, do (see ``README.md``).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import os
import random
import threading
import time

#: Heap, dict and allocation steps of one probe (1.5-3 ms on the host the
#: benchmark was defined on).
STEPS = 500
#: Seconds between probes while a unit runs (~2% of one core).
PERIOD = 0.1
#: Mean probe time, in seconds, at the reference speed: the host the
#: benchmark was defined on, at its usual speed.  Scaled times read as
#: if measured there.
REFERENCE_S = 0.002


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: str, value: int):
        self.t, self.key, self.value = t, key, value


def probe(steps: int = STEPS) -> float:
    """A small event-queue loop in the style of the DES kernel; returns
    an accumulator so the work cannot be skipped."""
    rng = random.Random(1)
    heap: list = []
    state: dict[str, float] = {}
    acc = 0.0
    for i in range(steps):
        heapq.heappush(heap, (rng.random() * 100.0, i,
                              _Event(i * 0.5, f"k{i % 257}", i)))
        if len(heap) > 64:
            t, _, event = heapq.heappop(heap)
            state[event.key] = (state.get(event.key, 0.0) * 0.9
                                + t * event.value ** 0.5)
            acc += sum(list(state.values())[:8])
    return acc


def time_probe() -> float:
    """Thread CPU seconds of one probe.

    The collector is off meanwhile: a collection runs in the thread
    whose allocation triggers it, and a full one walks the workload's
    whole heap, which once made a probe 50 times its usual time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        probe()
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times probes on a background thread while the ``with`` body runs.

    ``samples`` holds the probe times; there is always at least one,
    taken at exit if the body ended before the first period.
    """

    def __init__(self, period: float = PERIOD, cpus: tuple[int, ...] = ()):
        self.period = period
        #: CPUs the probes take turns on; empty leaves placement to the
        #: scheduler, which suits work on one thread.  Work spread over
        #: every core (a worker pool) needs its probes on every core:
        #: each core of the host swings on its own.
        self.cpus = cpus
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        turns = itertools.cycle(self.cpus)
        while not self._stop.wait(self.period):
            if self.cpus:
                # Pid 0 is the calling thread: the work keeps its cores.
                os.sched_setaffinity(0, {next(turns)})
            self.samples.append(time_probe())

    def __enter__(self) -> "Meter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(time_probe())

    def scale(self) -> float:
        """Factor that turns a time measured under this meter into the
        time at the reference speed (below 1 on a slow host)."""
        return REFERENCE_S / (sum(self.samples) / len(self.samples))
