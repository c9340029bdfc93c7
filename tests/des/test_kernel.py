"""The discrete-event kernel: ordering, determinism, processes."""

import math

import pytest

from repro.des import EventJournal, EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        s = EventScheduler()
        fired = []
        s.schedule(2.0, "b", lambda e: fired.append(e.kind))
        s.schedule(1.0, "a", lambda e: fired.append(e.kind))
        s.schedule(3.0, "c", lambda e: fired.append(e.kind))
        assert s.run() == 3
        assert fired == ["a", "b", "c"]
        assert s.now == 3.0

    def test_same_time_ties_break_by_insertion_order(self):
        s = EventScheduler()
        fired = []
        for name in ("first", "second", "third"):
            s.schedule(1.0, name, lambda e: fired.append(e.kind))
        s.run()
        assert fired == ["first", "second", "third"]

    def test_priority_beats_insertion_order(self):
        s = EventScheduler()
        fired = []
        s.schedule(1.0, "late", lambda e: fired.append(e.kind), priority=1)
        s.schedule(1.0, "early", lambda e: fired.append(e.kind), priority=0)
        s.run()
        assert fired == ["early", "late"]

    def test_run_until_stops_before_later_events(self):
        s = EventScheduler()
        fired = []
        s.schedule(1.0, "in", lambda e: fired.append(e.kind))
        s.schedule(5.0, "out", lambda e: fired.append(e.kind))
        assert s.run(until_s=2.0) == 1
        assert fired == ["in"]
        assert s.pending == 1

    def test_callback_may_schedule_more_events(self):
        s = EventScheduler()
        fired = []

        def chain(event):
            fired.append(s.now)
            if len(fired) < 3:
                s.schedule(1.0, "chain", chain)

        s.schedule(1.0, "chain", chain)
        s.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bounds_cascades(self):
        s = EventScheduler()

        def forever(event):
            s.schedule(0.1, "again", forever)

        s.schedule(0.0, "again", forever)
        assert s.run(max_events=25) == 25

    def test_cancel_prevents_dispatch(self):
        s = EventScheduler()
        fired = []
        handle = s.schedule(1.0, "x", lambda e: fired.append(e.kind))
        handle.cancel()
        assert handle.cancelled
        assert s.run() == 0
        assert fired == []

    def test_payload_travels_with_the_event(self):
        s = EventScheduler()
        seen = {}
        s.schedule(1.0, "x", lambda e: seen.update({"v": e.get("value")}),
                   value=42)
        s.run()
        assert seen == {"v": 42}

    def test_validation(self):
        s = EventScheduler()
        with pytest.raises(ValueError):
            s.schedule(-1.0, "x")
        s.schedule(1.0, "x")
        s.run()
        with pytest.raises(ValueError):
            s.schedule_at(0.5, "past")
        with pytest.raises(ValueError):
            s.run(until_s=0.0)


class TestProcesses:
    def test_process_resumes_at_yielded_delays(self):
        s = EventScheduler()
        times = []

        def proc():
            for _ in range(3):
                times.append(s.now)
                yield 2.0

        s.spawn(proc())
        s.run()
        assert times == [0.0, 2.0, 4.0]

    def test_process_ends_on_return(self):
        s = EventScheduler()

        def proc():
            yield 1.0

        handle = s.spawn(proc())
        assert handle.alive
        s.run()
        assert not handle.alive

    def test_cancel_stops_the_process(self):
        s = EventScheduler()
        ticks = []

        def proc():
            while True:
                ticks.append(s.now)
                yield 1.0

        handle = s.spawn(proc())
        s.run(until_s=2.5)
        handle.cancel()
        s.run(until_s=10.0)
        assert ticks == [0.0, 1.0, 2.0]
        assert not handle.alive

    def test_two_schedulers_same_script_identical_journals(self):
        def build():
            journal = EventJournal()
            s = EventScheduler(journal=journal)

            def proc():
                while s.now < 3.0:
                    yield 1.0

            s.spawn(proc(), name="ticker")
            s.schedule(1.5, "midway", actor="external")
            s.run(until_s=5.0)
            return journal

        assert build() == build()
        assert build().digest() == build().digest()


class TestHeapCompaction:
    def test_pending_counts_live_events_only(self):
        s = EventScheduler()
        handles = [s.schedule(float(i + 1), "x") for i in range(10)]
        assert s.pending == 10
        for handle in handles[:4]:
            handle.cancel()
        assert s.pending == 6

    def test_compaction_drops_cancelled_heap_entries(self):
        s = EventScheduler(compact_min_pending=8, compact_fraction=0.25)
        handles = [s.schedule(float(i + 1), "x") for i in range(16)]
        for handle in handles[:8]:
            handle.cancel()
        # The dead entries were physically removed, not just skipped.
        assert len(s._heap) == s.pending == 8

    def test_cancel_is_idempotent_in_the_count(self):
        s = EventScheduler()
        handle = s.schedule(1.0, "x")
        s.schedule(2.0, "y")
        handle.cancel()
        handle.cancel()
        assert s.pending == 1

    def test_cancel_after_dispatch_keeps_the_count_honest(self):
        s = EventScheduler()
        first = s.schedule(1.0, "x")
        later = s.schedule(2.0, "y")
        s.step()
        first.cancel()  # late cancel of an already-dispatched event
        assert s.pending == 1
        later.cancel()
        assert s.pending == 0

    def test_compaction_never_changes_dispatch_order_or_journal(self):
        def build(compact_min: int):
            journal = EventJournal()
            s = EventScheduler(journal=journal,
                               compact_min_pending=compact_min,
                               compact_fraction=0.01)
            fired = []
            handles = [
                s.schedule(float(i % 7), "tick",
                           lambda e: fired.append(e.seq), actor=f"a{i:02d}")
                for i in range(40)
            ]
            for handle in handles[1::2]:
                handle.cancel()
            s.run()
            return fired, journal

        aggressive_fired, aggressive_journal = build(2)
        lazy_fired, lazy_journal = build(10**6)
        assert aggressive_fired == lazy_fired
        assert aggressive_journal.digest() == lazy_journal.digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            EventScheduler(compact_fraction=0.0)
        with pytest.raises(ValueError):
            EventScheduler(compact_min_pending=0)


class TestProcessFailures:
    def test_negative_delay_raises_with_the_process_name(self):
        journal = EventJournal()
        s = EventScheduler(journal=journal)

        def proc():
            yield 1.0
            yield -0.5

        handle = s.spawn(proc(), name="bad-timer")
        with pytest.raises(ValueError, match="bad-timer"):
            s.run()
        assert not handle.alive
        assert handle._pending is None
        errors = [e for e in journal.entries if e.kind == "process-error"]
        assert len(errors) == 1
        assert errors[0].actor == "bad-timer"
        assert "negative delay" in errors[0].get("error")

    def test_process_exception_is_journaled_and_reraised(self):
        journal = EventJournal()
        s = EventScheduler(journal=journal)

        def proc():
            yield 1.0
            raise RuntimeError("boom")

        handle = s.spawn(proc(), name="exploder")
        with pytest.raises(RuntimeError, match="boom"):
            s.run()
        assert not handle.alive
        assert handle._pending is None
        errors = [e for e in journal.entries if e.kind == "process-error"]
        assert [e.get("error") for e in errors] == ["RuntimeError: boom"]

    def test_failed_process_ignores_late_cancel(self):
        s = EventScheduler()

        def proc():
            yield -1.0

        handle = s.spawn(proc(), name="doomed")
        with pytest.raises(ValueError):
            s.run()
        handle.cancel()  # must not blow up on the cleared pending event
        assert not handle.alive


class TestNonFiniteTimes:
    def test_schedule_rejects_a_nan_delay(self):
        s = EventScheduler()
        with pytest.raises(ValueError, match="finite"):
            s.schedule(math.nan, "x")
        assert s.pending == 0

    def test_schedule_rejects_an_infinite_delay(self):
        s = EventScheduler()
        with pytest.raises(ValueError, match="finite"):
            s.schedule(math.inf, "x")
        assert s.pending == 0

    def test_schedule_at_rejects_a_nan_time(self):
        s = EventScheduler()
        with pytest.raises(ValueError, match="finite"):
            s.schedule_at(math.nan, "x")
        assert s.pending == 0

    def test_process_yielding_nan_fails_like_a_negative_delay(self):
        journal = EventJournal()
        s = EventScheduler(journal=journal)

        def proc():
            yield 1.0
            yield math.nan

        handle = s.spawn(proc(), name="nan-timer")
        with pytest.raises(ValueError, match="nan-timer"):
            s.run()
        assert not handle.alive
        assert s.now == 1.0
        errors = journal.of_kind("process-error")
        assert [e.actor for e in errors] == ["nan-timer"]
        assert "non-finite delay" in errors[0].get("error")

    def test_run_rejects_a_nan_bound(self):
        s = EventScheduler()

        def proc():
            while True:
                yield 1.0

        s.spawn(proc())
        with pytest.raises(ValueError, match="NaN"):
            s.run(until_s=math.nan, max_events=1000)
        assert s.now == 0.0


class TestReservedPayloadKeys:
    @pytest.mark.parametrize("key", ["seq", "time"])
    def test_schedule_at_rejects_journal_columns(self, key):
        s = EventScheduler()
        with pytest.raises(ValueError, match=repr(key)):
            s.schedule_at(1.0, "x", **{key: 5})
        with pytest.raises(ValueError, match=repr(key)):
            s.schedule(1.0, "x", **{key: 5})
        assert s.pending == 0

    def test_other_payload_keys_still_reach_the_journal(self):
        journal = EventJournal()
        s = EventScheduler(journal=journal)
        s.schedule(0.5, "x", actor="a", value=3, when=2.0)
        s.run()
        assert journal.entries[0].as_dict() == {
            "seq": 0, "time": 0.5, "kind": "x", "actor": "a",
            "value": 3, "when": 2.0}


class TestEventRecord:
    def test_event_is_an_immutable_tuple(self):
        s = EventScheduler()
        event = s.schedule(1.5, "x", actor="a", b=2, a=1).event
        assert event == (1.5, "x", 0, 0, "a", (("a", 1), ("b", 2)))
        assert event.get("b") == 2 and event.get("c", 9) == 9
        assert event.as_dict() == {"time": 1.5, "kind": "x", "seq": 0,
                                   "priority": 0, "actor": "a",
                                   "a": 1, "b": 2}
        with pytest.raises(AttributeError):
            event.kind = "y"
