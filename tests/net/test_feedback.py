"""The Wi-Fi ambient-report feedback plane."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import EventJournal, EventScheduler
from repro.link import WifiUplink
from repro.net import AmbientReport, FeedbackPlane


def make_plane(uplink=None, **kwargs) -> FeedbackPlane:
    return FeedbackPlane(EventScheduler(), EventJournal(),
                         uplink or WifiUplink(latency_s=1e-3, jitter_s=0.0),
                         **kwargs)


def at(plane: FeedbackPlane, t: float) -> FeedbackPlane:
    """Advance the plane's clock to ``t``.

    The kernel clock only moves by dispatching, so a no-op event is
    scheduled at ``t``.
    """
    plane.scheduler.schedule_at(t, lambda: None)
    plane.scheduler.run()
    return plane


class TestFeedbackPlane:
    def test_report_arrives_after_wifi_latency(self, rng):
        plane = make_plane(WifiUplink(latency_s=2e-3, jitter_s=0.0))
        assert plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        # Not delivered until the arrival event dispatches.
        assert plane.estimate() is None
        plane.scheduler.run()
        assert plane.scheduler.now == pytest.approx(2e-3)
        assert plane.estimate() == pytest.approx(0.5)
        (arrival,) = plane.journal.of_kind("report-arrival")
        assert arrival.get("latency") == pytest.approx(2e-3)

    def test_lossy_uplink_journals_the_loss(self, rng):
        plane = make_plane(WifiUplink(loss_probability=0.999999999))
        assert not plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        assert plane.journal.count("report-lost") == 1
        assert plane.journal.of_kind("report-lost")[0].get("reason") \
            == "wifi-loss"

    def test_outage_drops_everything_and_is_journaled(self, rng):
        plane = make_plane()
        plane.outage = True
        assert not plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        assert plane.journal.of_kind("report-lost")[0].get("reason") \
            == "outage"
        plane.outage = False
        assert plane.submit(AmbientReport("n0", 0.6, sensed_at=0.1), rng)
        assert plane.journal.count("report-lost") == 1

    def test_freshest_sensing_wins_across_out_of_order_arrivals(self, rng):
        plane = make_plane()
        plane.submit(AmbientReport("n0", 0.9, sensed_at=0.0), rng)
        plane.scheduler.run()
        # An older sensing delivered later must not override.
        plane.deliver(AmbientReport("n0", 0.1, sensed_at=-1.0))
        assert plane.estimate() == pytest.approx(0.9)

    def test_outage_keeps_delivered_reports_until_stale(self, rng):
        # The uplink going down loses new reports; what already arrived
        # still steers the controller until it ages out.
        plane = make_plane(staleness_s=2.0)
        plane.submit(AmbientReport("n0", 0.3, sensed_at=0.0), rng)
        plane.scheduler.run()
        plane.outage = True
        assert not plane.submit(AmbientReport("n0", 0.9, sensed_at=1.0), rng)
        assert at(plane, 1.5).estimate() == pytest.approx(0.3)
        assert at(plane, 2.5).estimate() is None

    def test_report_in_flight_when_the_outage_starts_still_lands(self, rng):
        plane = make_plane(WifiUplink(latency_s=2e-3, jitter_s=0.0))
        assert plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        plane.outage = True
        plane.scheduler.run()
        (arrival,) = plane.journal.of_kind("report-arrival", actor="n0")
        assert arrival.time == pytest.approx(2e-3)
        assert arrival.get("value") == 0.5
        assert plane.estimate() == 0.5


class TestDelivery:
    def test_empty_plane_has_no_estimate(self):
        # None sends the control loop to its zone's daylight.
        assert at(make_plane(), 1.0).estimate() is None

    def test_stale_reports_dropped(self):
        plane = make_plane(staleness_s=2.0)
        plane.deliver(AmbientReport("a", 0.4, sensed_at=0.0))
        assert at(plane, 1.0).estimate() == pytest.approx(0.4)
        assert at(plane, 5.0).estimate() is None

    def test_fresher_sensing_wins_per_node(self):
        plane = make_plane()
        plane.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        plane.deliver(AmbientReport("a", 0.6, sensed_at=1.0))
        assert at(plane, 2.0).estimate() == pytest.approx(0.6)

    def test_report_aged_exactly_staleness_is_still_fresh(self):
        # The cut-off is inclusive: age == staleness_s keeps the report.
        plane = make_plane(staleness_s=2.0)
        plane.deliver(AmbientReport("a", 0.4, sensed_at=0.0))
        assert at(plane, 2.0).estimate() == pytest.approx(0.4)
        assert at(plane, 2.0 + 1e-9).estimate() is None

    def test_staleness_counts_from_sensing_not_arrival(self):
        # Sensed at 0 s, delivered at 1.5 s: stale 2 s after sensing,
        # however recently it arrived.
        plane = make_plane(staleness_s=2.0)
        at(plane, 1.5).deliver(AmbientReport("a", 0.4, sensed_at=0.0))
        assert at(plane, 2.0).estimate() == pytest.approx(0.4)
        assert at(plane, 2.5).estimate() is None

    def test_stale_node_drops_out_of_the_mean(self):
        plane = make_plane(staleness_s=2.0)
        plane.deliver(AmbientReport("quiet", 0.9, sensed_at=0.0))
        plane.deliver(AmbientReport("live", 0.1, sensed_at=0.0))
        assert at(plane, 1.0).estimate() == pytest.approx(0.5)
        plane.deliver(AmbientReport("live", 0.3, sensed_at=2.5))
        assert at(plane, 3.0).estimate() == pytest.approx(0.3)

    def test_out_of_order_delivery_keeps_freshest_sensing(self):
        plane = make_plane()
        # The older sensing arrives *after* the newer one.
        plane.deliver(AmbientReport("a", 0.8, sensed_at=1.0))
        plane.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        assert at(plane, 2.0).estimate() == pytest.approx(0.8)

    def test_unbounded_plane_never_evicts(self):
        plane = make_plane(staleness_s=100.0)
        values = [i / 100.0 for i in range(50)]
        for i, value in enumerate(values):
            plane.deliver(AmbientReport(f"n{i}", value, sensed_at=float(i)))
        assert at(plane, 60.0).estimate() == pytest.approx(np.mean(values))


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
        plane = make_plane(staleness_s=1e6)
        reports = [AmbientReport("n", (i % 10) / 10.0, sensed_at=float(i))
                   for i in range(len(latencies))]
        # Deliver in arrival order: sensing time plus Wi-Fi delay.
        for i in sorted(range(len(reports)),
                        key=lambda i: reports[i].sensed_at + latencies[i]):
            plane.deliver(reports[i])
        horizon = max(r.sensed_at for r in reports) + max(latencies) + 1.0
        freshest = max(reports, key=lambda r: r.sensed_at)
        assert at(plane, horizon).estimate() == pytest.approx(freshest.value)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_estimate_stays_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        plane = make_plane()
        for i in range(20):
            if rng.random() < 0.8:  # the rest are lost on the uplink
                plane.deliver(AmbientReport(f"n{i % 4}", float(rng.random()),
                                            sensed_at=0.1 * i))
        estimate = at(plane, 5.0).estimate()
        assert estimate is None or 0.0 <= estimate <= 1.0


class TestAggregation:
    """Fusion is the mean of the fresh reports."""

    def test_mean(self):
        plane = make_plane()
        plane.deliver(AmbientReport("a", 0.2, sensed_at=0.0))
        plane.deliver(AmbientReport("b", 0.6, sensed_at=0.5))
        assert at(plane, 1.0).estimate() == pytest.approx(0.4)

    @pytest.mark.parametrize("n_reports", range(1, 8))
    def test_mean_equals_numpy_mean(self, n_reports):
        rng = np.random.default_rng(n_reports)
        for _ in range(200):
            values = rng.random(n_reports).tolist()
            plane = make_plane()
            for i, value in enumerate(values):
                plane.deliver(AmbientReport(f"n{i}", value, sensed_at=0.0))
            estimate = at(plane, 1.0).estimate()
            assert type(estimate) is float
            assert estimate == float(np.mean(values))


class TestValidation:
    def test_report_value_range(self):
        with pytest.raises(ValueError):
            AmbientReport("a", 1.4, 0.0)

    def test_staleness_positive(self):
        with pytest.raises(ValueError):
            make_plane(staleness_s=0.0)
        with pytest.raises(ValueError):
            make_plane(staleness_s=-1.0)

    @pytest.mark.parametrize("staleness", [float("nan"), float("inf"),
                                           float("-inf")])
    def test_staleness_finite(self, staleness):
        with pytest.raises(ValueError, match="staleness_s"):
            make_plane(staleness_s=staleness)
