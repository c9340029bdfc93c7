"""The Wi-Fi ambient-report feedback plane."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.link import WifiUplink
from repro.net import Aggregation, AmbientReport, FeedbackCollector


def collector(**kwargs) -> FeedbackCollector:
    defaults = dict(uplink=WifiUplink(latency_s=1e-3, jitter_s=0.0))
    defaults.update(kwargs)
    return FeedbackCollector(**defaults)


class TestDelivery:
    def test_fallback_used_when_empty(self):
        c = collector()
        assert c.ambient_estimate(1.0, fallback=0.7) == 0.7

    def test_stale_reports_dropped(self):
        c = collector(staleness_s=2.0)
        c.deliver(AmbientReport("a", 0.4, sensed_at=0.0))
        assert c.ambient_estimate(1.0) == pytest.approx(0.4)
        assert c.ambient_estimate(5.0, fallback=0.9) == 0.9

    def test_fresher_sensing_wins_per_node(self):
        c = collector()
        c.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        c.deliver(AmbientReport("a", 0.6, sensed_at=1.0))
        assert c.ambient_estimate(2.0) == pytest.approx(0.6)

    def test_known_nodes(self):
        c = collector()
        c.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        c.deliver(AmbientReport("b", 0.4, sensed_at=0.0))
        assert set(c.known_nodes()) == {"a", "b"}

    def test_report_aged_exactly_staleness_is_still_fresh(self):
        # The cut-off is inclusive: age == staleness_s keeps the report.
        c = collector(staleness_s=2.0)
        c.deliver(AmbientReport("a", 0.4, sensed_at=0.0))
        assert c.ambient_estimate(2.0) == pytest.approx(0.4)
        assert c.ambient_estimate(2.0 + 1e-9, fallback=0.9) == 0.9

    def test_out_of_order_delivery_keeps_freshest_sensing(self):
        c = collector()
        # The older sensing arrives *after* the newer one.
        c.deliver(AmbientReport("a", 0.8, sensed_at=1.0))
        c.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        assert c.ambient_estimate(2.0) == pytest.approx(0.8)


class TestDeliveryProperties:
    @settings(max_examples=60, deadline=None)
    @given(latencies=st.lists(
        st.floats(min_value=0.0, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12))
    def test_freshest_sensing_wins_under_any_latency_pattern(
            self, latencies):
        """However Wi-Fi delays and reorders reports, the estimate after
        everything has landed is the freshest-sensed value."""
        c = FeedbackCollector(uplink=WifiUplink(latency_s=0.0, jitter_s=0.0),
                              staleness_s=1e6)
        reports = [AmbientReport("n", (i % 10) / 10.0, sensed_at=float(i))
                   for i in range(len(latencies))]
        # Deliver in arrival order: sensing time plus Wi-Fi delay.
        for i in sorted(range(len(reports)),
                        key=lambda i: reports[i].sensed_at + latencies[i]):
            c.deliver(reports[i])
        horizon = max(r.sensed_at for r in reports) + max(latencies) + 1.0
        freshest = max(reports, key=lambda r: r.sensed_at)
        assert c.ambient_estimate(horizon) == pytest.approx(freshest.value)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_estimate_stays_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        c = FeedbackCollector()
        for i in range(20):
            if rng.random() < 0.8:  # the rest are lost on the uplink
                c.deliver(AmbientReport(f"n{i % 4}", float(rng.random()),
                                        sensed_at=0.1 * i))
        estimate = c.ambient_estimate(5.0)
        assert estimate is None or 0.0 <= estimate <= 1.0


class TestAggregation:
    def _loaded(self, policy) -> FeedbackCollector:
        c = collector(aggregation=policy)
        c.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        c.deliver(AmbientReport("b", 0.6, sensed_at=0.5))
        return c

    def test_mean(self):
        c = self._loaded(Aggregation.MEAN)
        assert c.ambient_estimate(1.0) == pytest.approx(0.4)

    @pytest.mark.parametrize("n_reports", range(1, 8))
    def test_mean_equals_numpy_mean(self, n_reports):
        rng = np.random.default_rng(n_reports)
        for _ in range(200):
            values = rng.random(n_reports).tolist()
            c = collector(aggregation=Aggregation.MEAN)
            for i, value in enumerate(values):
                c.deliver(AmbientReport(f"n{i}", value, sensed_at=0.0))
            estimate = c.ambient_estimate(1.0)
            assert type(estimate) is float
            assert estimate == float(np.mean(values))

    def test_min(self):
        c = self._loaded(Aggregation.MIN)
        assert c.ambient_estimate(1.0) == pytest.approx(0.2)

    def test_max(self):
        c = self._loaded(Aggregation.MAX)
        assert c.ambient_estimate(1.0) == pytest.approx(0.6)

    def test_latest(self):
        c = self._loaded(Aggregation.LATEST)
        assert c.ambient_estimate(1.0) == pytest.approx(0.6)


class TestChurn:
    def test_forget_drops_delivered_state(self):
        c = collector(aggregation=Aggregation.MAX)
        c.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        c.deliver(AmbientReport("b", 0.9, sensed_at=0.0))
        assert c.ambient_estimate(1.0) == pytest.approx(0.9)
        assert c.forget("b")
        assert c.ambient_estimate(1.0) == pytest.approx(0.2)
        assert set(c.known_nodes()) == {"a"}

    def test_forget_unknown_node_is_a_noop(self):
        c = collector()
        assert not c.forget("ghost")

    def test_unbounded_collector_never_evicts(self):
        c = collector(staleness_s=100.0)
        for i in range(50):
            c.deliver(AmbientReport(f"n{i}", 0.5, sensed_at=float(i)))
        assert len(list(c.fresh_reports(60.0))) == 50


class TestValidation:
    def test_report_value_range(self):
        with pytest.raises(ValueError):
            AmbientReport("a", 1.4, 0.0)

    def test_staleness_positive(self):
        with pytest.raises(ValueError):
            FeedbackCollector(staleness_s=0.0)

    @pytest.mark.parametrize("staleness", [float("nan"), float("inf")])
    def test_staleness_finite(self, staleness):
        with pytest.raises(ValueError, match="staleness_s"):
            FeedbackCollector(staleness_s=staleness)
