"""The AMPPM designer: Steps 1-3 end to end."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AmppmDesigner,
    SlotErrorModel,
    SystemConfig,
    UnreachableDimmingError,
    shared_designer,
)


class TestDesign:
    def test_dimming_error_bounded_everywhere(self, designer, config):
        for level in np.arange(0.05, 0.951, 0.005):
            design = designer.design(float(level))
            assert design.dimming_error <= config.tau_perceived + 1e-12

    def test_flicker_bound_always_respected(self, designer, config):
        for level in np.arange(0.05, 0.951, 0.01):
            design = designer.design(float(level))
            assert design.super_symbol.n_slots <= config.n_max_super

    def test_at_most_two_patterns(self, designer):
        # The paper: "at most two different symbol patterns are required".
        for level in (0.1, 0.15, 0.33, 0.5, 0.77, 0.9):
            s = designer.design(level).super_symbol
            kinds = {p for p in s.symbols()}
            assert len(kinds) <= 2

    def test_exact_vertex_uses_single_pattern(self, designer):
        vertex = designer.envelope.points[len(designer.envelope.points) // 2]
        design = designer.design(vertex.dimming)
        assert design.super_symbol.m2 == 0

    def test_rate_tracks_envelope(self, designer):
        # Between vertices the design's rate is close to the chord.
        for level in (0.3, 0.45, 0.62, 0.8):
            design = designer.design(level)
            envelope_rate = designer.envelope.rate_at(level)
            achieved = design.normalized_rate(designer.errors)
            assert achieved >= 0.93 * envelope_rate

    def test_rate_peaks_at_half(self, designer):
        mid = designer.design(0.5).normalized_rate()
        lo = designer.design(0.1).normalized_rate()
        hi = designer.design(0.9).normalized_rate()
        assert mid > lo
        assert mid > hi

    def test_roughly_symmetric(self, designer):
        for level in (0.1, 0.2, 0.3, 0.4):
            low = designer.design(level).normalized_rate()
            high = designer.design(1.0 - level).normalized_rate()
            assert low == pytest.approx(high, rel=0.15)

    def test_out_of_range_raises(self, designer):
        lo, hi = designer.supported_range
        with pytest.raises(UnreachableDimmingError):
            designer.design(lo / 2)
        with pytest.raises(UnreachableDimmingError):
            designer.design((1 + hi) / 2)

    def test_clamped_design(self, designer):
        lo, hi = designer.supported_range
        assert designer.design_clamped(0.001).achieved_dimming == pytest.approx(
            lo, abs=designer.config.tau_perceived)

    def test_cache_returns_same_object(self, designer):
        assert designer.design(0.42) is designer.design(0.42)

    def test_candidates_are_copies(self, designer):
        candidates = designer.candidates
        candidates.clear()
        assert designer.candidates


class TestMemoKey:
    def test_matches_the_memo_bucket(self, designer, config):
        # Two requests share a design exactly when their keys agree.
        a, b = 0.5, 0.5 + config.tau_perceived / 4
        assert designer.memo_key(a) == designer.memo_key(b)
        assert designer.design(a) is designer.design(b)

    def test_distinct_buckets_get_distinct_designs(self, designer, config):
        a = 0.5
        b = 0.5 + 2 * config.tau_perceived
        assert designer.memo_key(a) != designer.memo_key(b)

    def test_clamps_like_design_clamped(self, designer):
        lo, hi = designer.supported_range
        assert designer.memo_key(-1.0) == designer.memo_key(lo)
        assert designer.memo_key(2.0) == designer.memo_key(hi)


@pytest.fixture()
def fresh(config) -> AmppmDesigner:
    """A newly built designer with an empty memo."""
    return AmppmDesigner(config)


class TestDesignMany:
    """Many requests through :meth:`design`: one design per bucket."""

    def test_matches_individual_designs(self, designer, fresh):
        levels = [0.2, 0.5, 0.2, 0.81, 0.5]
        batch = [fresh.design(lv) for lv in levels]
        assert [d.target_dimming for d in batch] == \
            [designer.design(lv).target_dimming for lv in levels]
        assert [d.super_symbol for d in batch] == \
            [designer.design(lv).super_symbol for lv in levels]

    def test_same_bucket_shares_the_same_object(self, fresh, config):
        tau = config.tau_perceived
        center = fresh.memo_key(0.5) * tau    # an exact bucket center
        batch = [fresh.design(lv) for lv in (center, center + tau / 4, 0.7,
                                             center - tau / 4)]
        assert batch[0] is batch[1] is batch[3]
        assert batch[2] is not batch[0]

    def test_one_core_call_per_unique_bucket(self, fresh, monkeypatch):
        calls = []
        compose_at = fresh._compose_at

        def counting(level):
            calls.append(level)
            return compose_at(level)

        monkeypatch.setattr(fresh, "_compose_at", counting)
        levels = [0.3, 0.3, 0.6, 0.6, 0.6, 0.9]
        for level in levels:
            fresh.design(level)
        assert len(calls) == len({fresh.memo_key(lv) for lv in levels})

    def test_rejects_out_of_range_before_designing(self, fresh):
        with pytest.raises(UnreachableDimmingError):
            fresh.design(0.001)
        assert not fresh._cache

    def test_duplicate_requests_share_one_object(self, fresh):
        """Byte-for-byte duplicates collapse to a single design object."""
        batch = [fresh.design(0.47) for _ in range(3)]
        assert batch[0] is batch[1] is batch[2]
        assert len(fresh._cache) == 1


class TestConfigurationEffects:
    def test_too_noisy_channel_rejected(self):
        noisy = SlotErrorModel(0.4, 0.4)
        with pytest.raises(ValueError):
            AmppmDesigner(SystemConfig(), noisy)

    def test_smaller_cap_narrows_range(self):
        wide = AmppmDesigner(SystemConfig(n_cap=50))
        narrow = AmppmDesigner(SystemConfig(n_cap=10))
        assert narrow.supported_range[0] > wide.supported_range[0]
        assert narrow.supported_range[1] < wide.supported_range[1]

    def test_ideal_channel_designer(self):
        designer = AmppmDesigner(SystemConfig(), SlotErrorModel.ideal())
        design = designer.design(0.5)
        assert design.normalized_rate() > 0.9

    def test_designs_reproducible_across_instances(self, config):
        a = AmppmDesigner(config)
        b = AmppmDesigner(config)
        for level in (0.13, 0.5, 0.87):
            assert a.design(level).super_symbol == b.design(level).super_symbol


def _bucket_edges(designer: AmppmDesigner, key: int) -> tuple[float, float]:
    """The lowest and highest request that quantize to ``key``."""
    tau = designer.config.tau_perceived
    lower = designer.clamp((key - 0.5) * tau)
    while designer.memo_key(lower) != key:
        lower = math.nextafter(lower, 1.0)
    upper = designer.clamp((key + 0.5) * tau)
    while designer.memo_key(upper) != key:
        upper = math.nextafter(upper, 0.0)
    return lower, upper


_BUCKET_CONFIGS = {
    "default": (SystemConfig(), None),
    "n_cap=21": (SystemConfig(n_cap=21), None),
    "errors x4": (SystemConfig(),
                  SlotErrorModel.from_config(SystemConfig()).scaled(4.0)),
}


class TestCanonicalBuckets:
    """Every bucket is designed at its canonical level, so every request
    is served within tau_p of its own level, whoever asked first."""

    @pytest.mark.parametrize("name", list(_BUCKET_CONFIGS))
    def test_every_bucket_edge_within_tau(self, name):
        config, errors = _BUCKET_CONFIGS[name]
        tau = config.tau_perceived
        probe = AmppmDesigner(config, errors)
        lo, hi = probe.supported_range
        keys = range(probe.memo_key(lo), probe.memo_key(hi) + 1)
        edges = {key: _bucket_edges(probe, key) for key in keys}
        for first in (0, 1):   # lower edges first, then upper edges first
            designer = AmppmDesigner(config, errors)
            for key in keys:
                designer.design(edges[key][first])
            for key in keys:
                design = designer.design(edges[key][0])
                for edge in edges[key]:
                    assert designer.design(edge) is design
                    assert abs(design.achieved_dimming - edge) \
                        <= tau + 1e-12, (name, key, edge)
                canonical = designer.clamp(key * tau)
                assert design.target_dimming == canonical
                assert design.dimming_error <= tau / 2 + 1e-12, (name, key)


class TestHistoryIndependence:
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_designs_ignore_request_order(self, designer, levels, rnd):
        """The session designer (warm with every earlier test's requests)
        and a fresh one asked in a shuffled order agree per request."""
        warm = [designer.design_clamped(lv).super_symbol for lv in levels]
        order = list(range(len(levels)))
        rnd.shuffle(order)
        fresh = AmppmDesigner(designer.config)
        shuffled = {i: fresh.design_clamped(levels[i]).super_symbol
                    for i in order}
        assert [shuffled[i] for i in range(len(levels))] == warm


class TestSharedDesigner:
    def test_equal_arguments_share_one_designer(self):
        errors = SlotErrorModel(2e-4, 1e-4)
        one = shared_designer(SystemConfig(n_cap=40), errors)
        two = shared_designer(SystemConfig(n_cap=40), SlotErrorModel(2e-4, 1e-4))
        assert one is two
        assert shared_designer(SystemConfig(n_cap=41), errors) is not one

    def test_default_errors_are_the_config_constants(self, config):
        assert shared_designer(config) is shared_designer(
            config, SlotErrorModel.from_config(config))
        assert shared_designer() is shared_designer(SystemConfig())
