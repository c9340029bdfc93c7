"""Mobility traces: bounds, determinism, query-order independence."""

import math

import numpy as np
import pytest

from repro.net import LinearTrace, RandomWaypoint, StaticPosition

def reject_each_non_finite(model, **valid):
    """Each float field of ``valid``, made NaN or ±inf, fails construction."""
    for name in valid:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                model(**{**valid, name: bad})


class TestStaticPosition:
    def test_never_moves(self):
        node = StaticPosition(1.5, 2.5)
        assert node.position(0.0) == (1.5, 2.5)
        assert node.position(1e6) == (1.5, 2.5)
        assert node.speed(10.0) == pytest.approx(0.0)

    def test_non_finite_coordinates_rejected(self):
        reject_each_non_finite(StaticPosition, x_m=1.0, y_m=1.0)


class TestLinearTrace:
    def test_constant_velocity(self):
        trace = LinearTrace(0.0, 1.0, velocity_x_mps=0.5,
                            velocity_y_mps=-0.25)
        assert trace.position(0.0) == (0.0, 1.0)
        assert trace.position(4.0) == pytest.approx((2.0, 0.0))
        assert trace.speed(2.0) == pytest.approx(math.hypot(0.5, 0.25),
                                                 rel=1e-6)

    def test_freezes_after_end_time(self):
        trace = LinearTrace(0.0, 0.0, velocity_x_mps=1.0, end_t_s=3.0)
        assert trace.position(3.0) == (3.0, 0.0)
        assert trace.position(100.0) == (3.0, 0.0)

    def test_negative_time_clamps_to_start(self):
        trace = LinearTrace(1.0, 2.0, velocity_x_mps=1.0)
        assert trace.position(-5.0) == (1.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearTrace(0.0, 0.0, end_t_s=-1.0)

    def test_non_finite_fields_rejected(self):
        reject_each_non_finite(LinearTrace, start_x_m=1.0, start_y_m=1.0,
                               velocity_x_mps=0.5, velocity_y_mps=0.5,
                               end_t_s=3.0)


class TestRandomWaypoint:
    def test_stays_inside_the_floor(self):
        walker = RandomWaypoint(5.0, 4.0, seed=11)
        for t in range(0, 600, 3):
            x, y = walker.position(float(t))
            assert 0.0 <= x <= 5.0
            assert 0.0 <= y <= 4.0

    def test_same_seed_same_trace(self):
        a = RandomWaypoint(5.0, 5.0, seed=42)
        b = RandomWaypoint(5.0, 5.0, seed=42)
        for t in (0.0, 1.5, 10.0, 99.9):
            assert a.position(t) == b.position(t)

    def test_different_seeds_diverge(self):
        a = RandomWaypoint(5.0, 5.0, seed=1)
        b = RandomWaypoint(5.0, 5.0, seed=2)
        assert any(a.position(float(t)) != b.position(float(t))
                   for t in range(20))

    def test_query_order_does_not_matter(self):
        forward = RandomWaypoint(6.0, 6.0, seed=7)
        ordered = [forward.position(float(t)) for t in range(0, 40)]
        backward = RandomWaypoint(6.0, 6.0, seed=7)
        reverse = [backward.position(float(t))
                   for t in reversed(range(0, 40))]
        assert ordered == list(reversed(reverse))

    def test_speed_respects_the_configured_range(self):
        walker = RandomWaypoint(50.0, 50.0, speed_min_mps=0.5,
                                speed_max_mps=0.5, pause_s=0.0, seed=3)
        # With a degenerate speed range and no pauses every mid-leg
        # finite-difference speed is exactly 0.5 m/s, except across a
        # waypoint corner, where the chord is shorter.
        speeds = [walker.speed(float(t)) for t in range(5, 100)]
        assert max(speeds) <= 0.5 + 1e-9
        assert any(s > 0.4 for s in speeds)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(0.0, 5.0)
        with pytest.raises(ValueError):
            RandomWaypoint(5.0, 5.0, speed_min_mps=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(5.0, 5.0, speed_min_mps=2.0, speed_max_mps=1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(5.0, 5.0, pause_s=-1.0)

    def test_non_finite_fields_rejected(self):
        reject_each_non_finite(RandomWaypoint, width_m=5.0, depth_m=4.0,
                               speed_min_mps=0.2, speed_max_mps=1.0,
                               pause_s=2.0)


def scalar_draw_positions(width, depth, speed_min, speed_max, pause, seed,
                          times):
    """Random-waypoint positions from one ``Generator.uniform`` call per
    coordinate and speed, with no trimming: the reference trace."""
    rng = np.random.default_rng(seed)
    frontier = (float(rng.uniform(0.0, width)), float(rng.uniform(0.0, depth)))
    legs, frontier_t = [], 0.0
    positions = []
    for t in times:
        while frontier_t <= t:
            x1 = float(rng.uniform(0.0, width))
            y1 = float(rng.uniform(0.0, depth))
            speed = float(rng.uniform(speed_min, speed_max))
            x0, y0 = frontier
            walk = math.hypot(x1 - x0, y1 - y0) / speed
            legs.append((frontier_t, walk, (x0, y0), (x1, y1)))
            frontier_t += walk + pause
            frontier = (x1, y1)
        t_start, walk, (x0, y0), (x1, y1) = next(
            leg for leg in reversed(legs) if t >= leg[0])
        frac = min((t - t_start) / walk, 1.0)
        positions.append((x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac))
    return positions, len(legs)


class TestBlockDraws:
    """Block-drawn legs against scalar ``Generator.uniform`` calls."""

    @pytest.mark.parametrize("seed", [0, 7, 33, 2024])
    def test_positions_equal_the_scalar_draw_trace(self, seed):
        args = (5.0, 4.0, 0.3, 1.1, 1.5, seed)
        # 200 times over 2000 s: well past the first 64-leg block.
        times = [10.0 * k + 0.37 for k in range(200)]
        expected, n_legs = scalar_draw_positions(*args, times)
        assert n_legs > 2 * 64
        walker = RandomWaypoint(*args[:4], pause_s=args[4], seed=seed)
        got = []
        for t in times[:120]:
            got.append(walker.position(t))
            walker.forget_before(t)
        # Leave and rejoin: the rest replays from a fresh block.
        walker.retire(times[120])
        got += [walker.position(t) for t in times[120:]]
        assert got == expected


class TestForgetBefore:
    def test_trimming_preserves_future_positions(self):
        pristine = RandomWaypoint(6.0, 6.0, seed=7)
        reference = [pristine.position(float(t)) for t in range(0, 300, 2)]
        trimmed = RandomWaypoint(6.0, 6.0, seed=7)
        got = []
        for t in range(0, 300, 2):
            got.append(trimmed.position(float(t)))
            trimmed.forget_before(float(t))
        assert got == reference

    def test_legs_stay_bounded_on_long_monotone_runs(self):
        walker = RandomWaypoint(4.0, 4.0, pause_s=0.5, seed=5)
        peak = 0
        for t in range(0, 5000, 1):
            walker.position(float(t))
            walker.forget_before(float(t))
            peak = max(peak, len(walker._legs))
        untrimmed = RandomWaypoint(4.0, 4.0, pause_s=0.5, seed=5)
        untrimmed.position(5000.0)
        # The trimmed trace holds a handful of live legs; the untrimmed
        # one accumulates the whole history.
        assert peak < 10
        assert len(untrimmed._legs) > 10 * peak

    def test_queries_behind_the_mark_raise(self):
        walker = RandomWaypoint(5.0, 5.0, seed=9)
        walker.position(50.0)
        walker.forget_before(40.0)
        with pytest.raises(ValueError, match="predates forget_before"):
            walker.position(39.9)
        # At or after the mark stays answerable.
        walker.position(40.0)

    def test_mark_is_monotone(self):
        walker = RandomWaypoint(5.0, 5.0, seed=9)
        walker.position(30.0)
        walker.forget_before(20.0)
        walker.forget_before(5.0)  # moving backwards is a no-op
        with pytest.raises(ValueError):
            walker.position(10.0)

    def test_reset_rewinds_and_replays_identically(self):
        walker = RandomWaypoint(6.0, 6.0, seed=13)
        reference = [walker.position(float(t)) for t in range(0, 80)]
        walker.forget_before(60.0)
        walker.reset()
        assert [walker.position(float(t)) for t in range(0, 80)] == reference

    def test_base_model_hooks_are_noops(self):
        desk = StaticPosition(1.0, 1.0)
        desk.forget_before(100.0)
        desk.reset()
        assert desk.position(0.0) == (1.0, 1.0)


class TestRetire:
    """The churn contract: leave a room, rejoin, walk the same floor."""

    def test_retire_is_reset_plus_forget(self):
        retired = RandomWaypoint(6.0, 6.0, seed=21)
        manual = RandomWaypoint(6.0, 6.0, seed=21)
        retired.position(120.0)
        retired.retire(80.0)
        manual.position(120.0)
        manual.reset()
        manual.forget_before(80.0)
        for t in range(80, 160, 4):
            assert retired.position(float(t)) == manual.position(float(t))

    def test_rejoining_node_matches_a_node_that_never_left(self):
        fresh = RandomWaypoint(5.0, 4.0, seed=33)
        reference = [fresh.position(float(t)) for t in range(200, 400, 5)]
        churned = RandomWaypoint(5.0, 4.0, seed=33)
        churned.position(150.0)          # walked a while...
        churned.retire(200.0)            # ...then left the room
        assert [churned.position(float(t))
                for t in range(200, 400, 5)] == reference

    def test_churn_cannot_resurrect_trimmed_legs(self):
        # Regenerating the covered prefix after a retire must not
        # re-buffer it: the rejoined trace holds only live legs.
        walker = RandomWaypoint(4.0, 4.0, pause_s=0.5, seed=5)
        walker.position(2000.0)
        walker.retire(2000.0)
        walker.position(2100.0)
        untrimmed = RandomWaypoint(4.0, 4.0, pause_s=0.5, seed=5)
        untrimmed.position(2100.0)
        assert 4 * len(walker._legs) < len(untrimmed._legs)

    def test_queries_before_the_departure_raise(self):
        walker = RandomWaypoint(5.0, 5.0, seed=9)
        walker.position(50.0)
        walker.retire(60.0)
        with pytest.raises(ValueError, match="predates forget_before"):
            walker.position(59.9)
        walker.position(60.0)  # the rejoin instant stays answerable

    def test_repeated_churn_cycles_stay_consistent(self):
        fresh = RandomWaypoint(6.0, 3.0, seed=17)
        churned = RandomWaypoint(6.0, 3.0, seed=17)
        for rejoin in (50.0, 130.0, 400.0):
            churned.retire(rejoin)
            for dt in (0.0, 3.0, 9.5):
                assert churned.position(rejoin + dt) \
                    == fresh.position(rejoin + dt)
