"""Flicker-free adaptation planners (Section 4.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_CONFIG,
    Adapter,
    perceived_step,
    plan_measured_steps,
    plan_perceived_steps,
    safe_measured_tau,
    shared_designer,
    to_measured,
    to_perceived,
)
from repro.lighting import SmartLightingController


def eager_perceived_levels(start, target, tau):
    """The perceived planner's levels as built eagerly before they
    became lazy: the reference the lazy build must match bit for bit."""
    p_start = to_perceived(start)
    span = to_perceived(target) - p_start
    n_steps = max(1, math.ceil(abs(span) / tau)) if span else 0
    levels = [to_measured(p_start + span * i / n_steps)
              for i in range(1, n_steps + 1)]
    if levels:
        levels[-1] = target
    return tuple(levels)


def eager_measured_levels(start, target, tau):
    """The measured planner's eager levels, likewise."""
    span = target - start
    n_steps = max(1, math.ceil(abs(span) / tau)) if span else 0
    levels = [start + span * i / n_steps for i in range(1, n_steps + 1)]
    if levels:
        levels[-1] = target
    return tuple(levels)


def bits(levels):
    """Each float's exact bits, so -0.0 and 0.0 would differ."""
    return [level.hex() for level in levels]


class TestLazyLevels:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(1e-3, 0.5))
    @settings(max_examples=200)
    def test_levels_equal_the_eager_formula(self, start, target, tau):
        perceived = plan_perceived_steps(start, target, tau)
        measured = plan_measured_steps(start, target, tau)
        assert bits(perceived.levels) == bits(
            eager_perceived_levels(start, target, tau))
        assert bits(measured.levels) == bits(
            eager_measured_levels(start, target, tau))
        assert perceived.n_steps == len(perceived.levels)
        assert measured.n_steps == len(measured.levels)

    def test_a_retargeting_tick_leaves_levels_unbuilt(self):
        controller = SmartLightingController(
            config=DEFAULT_CONFIG, designer=shared_designer(DEFAULT_CONFIG))
        controller.tick(0.0, 0.2)
        plan = controller.last_plan
        assert plan is not None and plan.n_steps > 0
        assert "levels" not in vars(plan)
        assert len(plan.levels) == plan.n_steps
        assert "levels" in vars(plan)


class TestPerceivedPlanner:
    def test_reaches_target_exactly(self):
        plan = plan_perceived_steps(0.2, 0.73, 0.003)
        assert plan.levels[-1] == pytest.approx(0.73)

    def test_never_exceeds_tau(self):
        plan = plan_perceived_steps(0.05, 0.95, 0.003)
        assert plan.max_perceived_step <= 0.003 + 1e-12

    def test_downward_moves(self):
        plan = plan_perceived_steps(0.9, 0.1, 0.003)
        assert plan.levels[-1] == pytest.approx(0.1)
        assert plan.max_perceived_step <= 0.003 + 1e-12
        assert all(b < a for a, b in zip((0.9,) + plan.levels, plan.levels))

    def test_no_move_no_steps(self):
        assert plan_perceived_steps(0.4, 0.4, 0.003).n_steps == 0

    def test_step_count_matches_perceived_distance(self):
        plan = plan_perceived_steps(0.1, 0.9, 0.003)
        import math
        expected = math.ceil(perceived_step(0.1, 0.9) / 0.003)
        assert plan.n_steps == expected

    def test_measured_steps_grow_with_intensity(self):
        # The variable-tau behaviour of Fig. 10(b).
        plan = plan_perceived_steps(0.05, 0.95, 0.01)
        diffs = [b - a for a, b in zip((0.05,) + plan.levels, plan.levels)]
        assert diffs[-1] > 2 * diffs[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_perceived_steps(-0.1, 0.5, 0.003)
        with pytest.raises(ValueError):
            plan_perceived_steps(0.1, 0.5, 0.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_property_flicker_free_and_complete(self, start, target):
        plan = plan_perceived_steps(start, target, 0.003)
        assert plan.max_perceived_step <= 0.003 + 1e-9
        if start != target:
            assert plan.levels[-1] == pytest.approx(target, abs=1e-12)


class TestMeasuredPlanner:
    def test_uniform_steps(self):
        plan = plan_measured_steps(0.1, 0.5, 0.01)
        diffs = [b - a for a, b in zip((0.1,) + plan.levels, plan.levels)]
        assert all(d == pytest.approx(diffs[0]) for d in diffs)

    def test_reaches_target(self):
        plan = plan_measured_steps(0.8, 0.2, 0.01)
        assert plan.levels[-1] == pytest.approx(0.2)

    def test_can_flicker_in_the_dark(self):
        # A fixed measured step safe at mid brightness is visible near
        # darkness — the existing method's fundamental problem.
        tau_mid = safe_measured_tau(0.5, 0.003)
        plan = plan_measured_steps(0.01, 0.2, tau_mid)
        assert plan.max_perceived_step > 0.003


class TestSafeTau:
    def test_sized_at_range_minimum(self):
        tau = safe_measured_tau(0.1, 0.003)
        assert perceived_step(0.1, 0.1 + tau) == pytest.approx(0.003)

    def test_smaller_when_darker(self):
        assert safe_measured_tau(0.05, 0.003) < safe_measured_tau(0.5, 0.003)

    def test_validation(self):
        with pytest.raises(ValueError):
            safe_measured_tau(1.0, 0.003)


class TestAdapter:
    def test_counts_accumulate(self):
        adapter = Adapter(tau_perceived=0.003, intensity=0.5)
        adapter.retarget(0.6)
        first = adapter.adjustments
        adapter.retarget(0.4)
        assert adapter.adjustments > first
        assert adapter.intensity == pytest.approx(0.4)

    def test_perception_domain_needs_fewer_steps(self):
        smart = Adapter(tau_perceived=0.003, intensity=0.9,
                        use_perception_domain=True)
        legacy = Adapter(tau_perceived=0.003, intensity=0.9,
                         use_perception_domain=False, range_min=0.1)
        smart.retarget(0.1)
        legacy.retarget(0.1)
        # The paper's ~2x reduction over a 0.1..0.9 operating range.
        ratio = legacy.adjustments / smart.adjustments
        assert 1.7 <= ratio <= 2.3

    def test_every_emitted_plan_is_flicker_free(self):
        adapter = Adapter(tau_perceived=0.003, intensity=0.3)
        for target in (0.5, 0.2, 0.9, 0.05):
            plan = adapter.retarget(target)
            assert plan.max_perceived_step <= 0.003 + 1e-12
