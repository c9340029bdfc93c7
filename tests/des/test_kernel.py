"""The discrete-event kernel: ordering, determinism, processes."""

import math
import random

import pytest

from repro.des import EventJournal, EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        s = EventScheduler()
        fired = []
        s.schedule_at(2.0, lambda: fired.append("b"))
        s.schedule_at(1.0, lambda: fired.append("a"))
        s.schedule_at(3.0, lambda: fired.append("c"))
        assert s.run() == 3
        assert fired == ["a", "b", "c"]
        assert s.now == 3.0

    def test_same_time_ties_break_by_insertion_order(self):
        s = EventScheduler()
        fired = []
        for name in ("first", "second", "third"):
            s.schedule_at(1.0, lambda name=name: fired.append(name))
        s.run()
        assert fired == ["first", "second", "third"]

    def test_priority_beats_insertion_order(self):
        s = EventScheduler()
        fired = []
        s.schedule_at(1.0, lambda: fired.append("late"), priority=1)
        s.schedule_at(1.0, lambda: fired.append("early"), priority=0)
        s.run()
        assert fired == ["early", "late"]

    def test_dispatch_order_is_time_priority_insertion(self):
        rng = random.Random(5)
        s = EventScheduler()
        keys = [(float(rng.randrange(4)), rng.randrange(-1, 3), i)
                for i in range(200)]
        fired = []
        for key in keys:
            s.schedule_at(key[0], lambda key=key: fired.append(key),
                          priority=key[1])
        assert s.run() == len(keys)
        assert fired == sorted(keys)

    def test_run_until_stops_before_later_events(self):
        s = EventScheduler()
        fired = []
        s.schedule_at(1.0, lambda: fired.append("in"))
        s.schedule_at(2.0, lambda: fired.append("edge"))
        s.schedule_at(5.0, lambda: fired.append("out"))
        assert s.run(until_s=2.0) == 2
        assert fired == ["in", "edge"]
        assert s.now == 2.0
        assert s.run(until_s=math.inf) == 1
        assert fired == ["in", "edge", "out"]

    def test_callback_may_schedule_more_events(self):
        s = EventScheduler()
        fired = []

        def chain():
            fired.append(s.now)
            if len(fired) < 3:
                s.schedule_at(s.now + 1.0, chain)

        s.schedule_at(1.0, chain)
        s.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_validation(self):
        s = EventScheduler()
        s.schedule_at(1.0, lambda: None)
        s.run()
        with pytest.raises(ValueError, match="before now"):
            s.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError, match="past"):
            s.run(until_s=0.0)


class TestProcesses:
    def test_process_resumes_at_yielded_delays(self):
        s = EventScheduler()
        times = []

        def proc():
            for _ in range(3):
                times.append(s.now)
                yield 2.0

        s.spawn(proc(), "ticker")
        s.run()
        assert times == [0.0, 2.0, 4.0]

    def test_process_ends_on_return(self):
        s = EventScheduler()
        steps = []

        def proc():
            steps.append(s.now)
            yield 1.0
            steps.append(s.now)

        s.spawn(proc(), "once")
        assert s.run() == 2
        assert steps == [0.0, 1.0]
        assert s.run() == 0

    def test_same_time_resumes_follow_priority(self):
        s = EventScheduler()
        order = []

        def proc(name):
            while s.now < 2.0:
                order.append((s.now, name))
                yield 1.0

        s.spawn(proc("link"), "link", priority=2)
        s.spawn(proc("sense"), "sense", priority=0)
        s.run()
        assert order == [(0.0, "sense"), (0.0, "link"), (1.0, "sense"),
                         (1.0, "link")]

    def test_two_schedulers_same_script_identical_journals(self):
        def build():
            journal = EventJournal()
            s = EventScheduler()

            def proc():
                while s.now < 3.0:
                    journal.record(s.now, "tick", "ticker")
                    yield 1.0

            s.spawn(proc(), "ticker")
            s.schedule_at(1.5, lambda: journal.record(s.now, "midway",
                                                      "external"))
            s.run(until_s=5.0)
            return journal

        assert build() == build()
        assert build().digest() == build().digest()
        assert [e.kind for e in build().entries] == [
            "tick", "tick", "midway", "tick"]


class TestProcessFailures:
    def test_negative_delay_raises_with_the_process_name(self):
        s = EventScheduler()

        def proc():
            yield 1.0
            yield -0.5

        s.spawn(proc(), "bad-timer")
        with pytest.raises(ValueError, match="'bad-timer'.*negative delay"):
            s.run()
        assert s.now == 1.0

    def test_process_exception_is_reraised_unchanged(self):
        s = EventScheduler()
        boom = RuntimeError("boom")

        def proc():
            yield 1.0
            raise boom

        s.spawn(proc(), "exploder")
        with pytest.raises(RuntimeError) as caught:
            s.run()
        assert caught.value is boom
        assert s.now == 1.0


class TestNonFiniteTimes:
    def test_schedule_at_rejects_a_nan_time(self):
        s = EventScheduler()
        with pytest.raises(ValueError, match="finite"):
            s.schedule_at(math.nan, lambda: None)
        assert s.run() == 0

    def test_schedule_at_rejects_an_infinite_time(self):
        s = EventScheduler()
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                s.schedule_at(bad, lambda: None)
        assert s.run() == 0

    def test_process_yielding_nan_fails_like_a_negative_delay(self):
        s = EventScheduler()

        def proc():
            yield 1.0
            yield math.nan

        s.spawn(proc(), "nan-timer")
        with pytest.raises(ValueError, match="'nan-timer'.*non-finite delay"):
            s.run()
        assert s.now == 1.0

    def test_process_yielding_an_infinite_delay_fails(self):
        s = EventScheduler()

        def proc():
            yield math.inf

        s.spawn(proc(), "inf-timer")
        with pytest.raises(ValueError, match="'inf-timer'.*non-finite delay"):
            s.run()
        assert s.run() == 0

    def test_run_rejects_a_nan_bound(self):
        s = EventScheduler()

        def proc():
            while True:
                yield 1.0

        s.spawn(proc(), "forever")
        with pytest.raises(ValueError, match="NaN"):
            s.run(until_s=math.nan)
        assert s.now == 0.0
