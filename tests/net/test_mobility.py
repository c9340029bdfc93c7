"""Mobility traces: bounds, determinism, query-order independence."""

import math
import random

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
    coordinate and speed, keeping every leg: the reference trace."""
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

    ARGS = (5.0, 4.0, 0.3, 1.1, 1.5)
    # 200 times over 2000 s: well past the first 64-leg block.
    TIMES = [10.0 * k + 0.37 for k in range(200)]

    def walker(self, seed):
        width, depth, low, high, pause = self.ARGS
        return RandomWaypoint(width, depth, low, high, pause_s=pause,
                              seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 33, 2024])
    def test_positions_equal_the_scalar_draw_trace(self, seed):
        expected, n_legs = scalar_draw_positions(*self.ARGS, seed,
                                                 self.TIMES)
        assert n_legs > 2 * 64
        by_time = dict(zip(self.TIMES, expected))
        walker = self.walker(seed)
        assert [walker.position(t) for t in self.TIMES] == expected
        # Jump back and walk forward again: the trace replays from the
        # seed.
        rejoined = self.TIMES[40:] + self.TIMES[:160]
        assert [walker.position(t) for t in rejoined] \
            == [by_time[t] for t in rejoined]
        shuffled = list(self.TIMES)
        random.Random(seed).shuffle(shuffled)
        walker = self.walker(seed)
        assert [walker.position(t) for t in shuffled] \
            == [by_time[t] for t in shuffled]


class TestForgetBefore:
    """Long runs and backwards queries: the walker holds one leg and
    replays an earlier time from its seed."""

    def test_trimming_preserves_future_positions(self):
        pristine = RandomWaypoint(6.0, 6.0, seed=7)
        reference = [pristine.position(float(t)) for t in range(0, 300, 2)]
        walker = RandomWaypoint(6.0, 6.0, seed=7)
        walker.position(299.0)
        assert [walker.position(float(t))
                for t in range(0, 300, 2)] == reference

    def test_legs_stay_bounded_on_long_monotone_runs(self):
        walker = RandomWaypoint(4.0, 4.0, pause_s=0.5, seed=5)
        walker.position(5000.0)
        t_start, walk, _, _ = walker._leg
        assert t_start <= 5000.0 < walker._next_t
        assert walker._next_t == t_start + (walk + 0.5)
        assert len(walker._block) < 3 * 64
        assert not any(isinstance(value, (list, dict))
                       for name, value in vars(walker).items()
                       if name != "_block")

    def test_reset_rewinds_and_replays_identically(self):
        walker = RandomWaypoint(6.0, 6.0, seed=13)
        reference = [walker.position(float(t)) for t in range(0, 80)]
        assert [walker.position(float(t)) for t in range(0, 80)] == reference
        assert [walker.position(float(t))
                for t in reversed(range(0, 80))] == reference[::-1]


class TestRetire:
    """Churn: an absent occupant's trace is not queried, and on return
    it draws the legs it missed."""

    def test_rejoining_node_matches_a_node_that_never_left(self):
        fresh = RandomWaypoint(5.0, 4.0, seed=33)
        reference = [fresh.position(float(t)) for t in range(2000, 4000, 5)]
        churned = RandomWaypoint(5.0, 4.0, seed=33)
        churned.position(150.0)          # walked a while, then left
        assert [churned.position(float(t))
                for t in range(2000, 4000, 5)] == reference

    def test_repeated_churn_cycles_stay_consistent(self):
        churned = RandomWaypoint(6.0, 3.0, seed=17)
        for rejoin in (50.0, 130.0, 400.0, 9000.0):
            fresh = RandomWaypoint(6.0, 3.0, seed=17)
            for dt in (0.0, 3.0, 9.5):
                assert churned.position(rejoin + dt) \
                    == fresh.position(rejoin + dt)
            assert churned._leg == fresh._leg
