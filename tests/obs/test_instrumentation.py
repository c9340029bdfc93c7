"""End-to-end telemetry: instrumented hot paths feed one session.

These tests exercise the permanent instrumentation sites — the
Monte-Carlo replay, the DES kernel, the MAC and the sweep runner —
under an active session, and pin the two contracts that make it safe
to leave them in: counter totals are identical whether a sweep runs
serially or across processes, and enabling telemetry never changes a
result value.
"""

import numpy as np

from repro.core.errormodel import SlotErrorModel
from repro.core.symbols import SymbolPattern
from repro.des.kernel import EventScheduler
from repro.sim.montecarlo import MonteCarloValidator
from repro.sim.sweep import SweepRunner
from repro.obs import telemetry_session
from repro.schemes import AmppmScheme

PATTERN = SymbolPattern(20, 10)
ERRORS = SlotErrorModel(0.01, 0.01)


def _count_errors(n_symbols, rng):
    """Module-level sweep worker (must be picklable for process pools)."""
    estimate = MonteCarloValidator().symbol_error_rate(
        PATTERN, ERRORS, rng, n_symbols=int(n_symbols))
    return estimate.n_errors


class TestBatchEngine:
    """The Monte-Carlo replay, counting each batch of symbols it runs."""

    def test_ser_records_symbol_counters(self):
        with telemetry_session() as session:
            estimate = MonteCarloValidator().symbol_error_rate(
                PATTERN, ERRORS, np.random.default_rng(3), n_symbols=2000)
        counter = session.registry.counter
        assert counter("repro_montecarlo_symbols_total").value() == 2000
        assert (counter("repro_montecarlo_symbol_errors_total").value()
                == estimate.n_errors)
        names = [r.name for r in session.spans.records]
        assert "montecarlo.symbol_error_rate" in names

    def test_frame_loss_records_span_and_frame_counters(self):
        design = AmppmScheme().design(0.5)
        lossy = SlotErrorModel(2e-4, 2e-4)
        with telemetry_session() as session:
            measured, _ = MonteCarloValidator().frame_loss_rate(
                design, lossy, np.random.default_rng(5), n_frames=50)
        losses = round(measured * 50)
        assert 0 < losses < 50
        counter = session.registry.counter
        assert counter("repro_montecarlo_frames_total").value() == 50
        assert counter("repro_montecarlo_frame_losses_total").value() == losses
        (replay,) = [r for r in session.spans.records
                     if r.name == "montecarlo.frame_loss_rate"]
        assert replay.get("n_frames") == 50

    def test_off_by_default_and_result_unchanged(self):
        baseline = MonteCarloValidator().symbol_error_rate(
            PATTERN, ERRORS, np.random.default_rng(3), n_symbols=2000)
        with telemetry_session():
            observed = MonteCarloValidator().symbol_error_rate(
                PATTERN, ERRORS, np.random.default_rng(3), n_symbols=2000)
        # Telemetry observes; it must never perturb the random stream.
        assert observed == baseline


class TestDesKernel:
    def test_run_records_dispatch_counter_and_clock(self):
        scheduler = EventScheduler()
        for time_s in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time_s, lambda: None)
        with telemetry_session() as session:
            scheduler.run()
        registry = session.registry
        assert registry.counter("repro_des_events_dispatched_total").value() == 3
        assert registry.gauge("repro_des_clock_seconds").value() == 3.0
        assert any(r.name == "des.run" for r in session.spans.records)


class TestSweepAggregation:
    def test_parallel_counters_match_serial(self):
        points = [500, 700, 900]
        with telemetry_session() as serial_session:
            serial = SweepRunner().map(_count_errors, points, seed=11)
        with telemetry_session() as parallel_session:
            parallel = SweepRunner(jobs=2).map(_count_errors, points, seed=11)
        assert parallel == serial
        a, b = serial_session.registry, parallel_session.registry
        # Worker shards are absorbed into the parent: same totals as the
        # in-process run, however the pool scheduled the points.
        assert (a.counter("repro_montecarlo_symbols_total").value()
                == b.counter("repro_montecarlo_symbols_total").value()
                == sum(points))
        assert (a.counter("repro_montecarlo_symbol_errors_total").value()
                == b.counter("repro_montecarlo_symbol_errors_total").value()
                == sum(serial))

    def test_sweep_span_and_point_counter(self):
        with telemetry_session() as session:
            SweepRunner().map(_count_errors, [300, 300], seed=5)
        assert (session.registry.counter("repro_sweep_points_total").value()
                == 2)
        (sweep_span,) = [r for r in session.spans.records
                         if r.name == "sweep.map"]
        assert sweep_span.get("points") == 2
        assert sweep_span.get("seeded") is True

    def test_parallel_without_session_still_works(self):
        points = [400, 600]
        assert (SweepRunner(jobs=2).map(_count_errors, points, seed=7)
                == SweepRunner().map(_count_errors, points, seed=7))


class TestSweepShardSpans:
    def test_parallel_shards_ship_spans_stitched_under_sweep_map(self):
        points = [300, 400, 500]
        with telemetry_session() as session:
            SweepRunner(jobs=2).map(_count_errors, points, seed=3)
        records = session.spans.records
        (sweep_span,) = [r for r in records if r.name == "sweep.map"]
        shard_points = [r for r in records if r.name == "sweep.point"]
        # One per grid point, each stamped with its shard index and
        # stitched directly under the sweep.map span.
        assert len(shard_points) == len(points)
        assert sorted(r.get("shard") for r in shard_points) == [0, 1, 2]
        assert {r.get("point") for r in shard_points} == {0, 1, 2}
        for record in shard_points:
            assert record.parent_id == sweep_span.span_id
            assert record.depth == sweep_span.depth + 1
            # Rebasing puts every shard inside the parent's timeline.
            assert record.start_s >= 0.0
            assert (record.start_s + record.duration_s
                    <= sweep_span.start_s + sweep_span.duration_s + 0.5)

    def test_serial_sweep_has_no_shard_attrs(self):
        with telemetry_session() as session:
            SweepRunner().map(_count_errors, [300], seed=3)
        assert all(r.get("shard") is None for r in session.spans.records)
