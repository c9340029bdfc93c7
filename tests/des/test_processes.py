"""The DES Wi-Fi feedback plane."""

import pytest

from repro.des import DesFeedbackPlane, EventJournal, EventScheduler
from repro.link import WifiUplink
from repro.net import AmbientReport, FeedbackCollector


def make_plane(uplink=None, **collector_kwargs):
    scheduler = EventScheduler()
    journal = EventJournal()
    collector = FeedbackCollector(uplink=uplink or WifiUplink(),
                                  **collector_kwargs)
    return scheduler, journal, DesFeedbackPlane(scheduler, journal, collector)


class TestFeedbackPlane:
    def test_report_arrives_after_wifi_latency(self, rng):
        uplink = WifiUplink(latency_s=2e-3, jitter_s=0.0)
        scheduler, journal, plane = make_plane(uplink)
        assert plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        # Not delivered until the arrival event dispatches.
        assert plane.estimate() is None
        scheduler.run()
        assert scheduler.now == pytest.approx(2e-3)
        assert plane.estimate() == pytest.approx(0.5)
        (arrival,) = journal.of_kind("report-arrival")
        assert arrival.get("latency") == pytest.approx(2e-3)

    def test_lossy_uplink_journals_the_loss(self, rng):
        uplink = WifiUplink(loss_probability=0.999999999)
        scheduler, journal, plane = make_plane(uplink)
        assert not plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        assert journal.count("report-lost") == 1
        assert journal.of_kind("report-lost")[0].get("reason") == "wifi-loss"

    def test_outage_drops_everything_and_is_journaled(self, rng):
        scheduler, journal, plane = make_plane()
        plane.outage = True
        assert not plane.submit(AmbientReport("n0", 0.5, sensed_at=0.0), rng)
        assert journal.of_kind("report-lost")[0].get("reason") == "outage"
        plane.outage = False
        assert plane.submit(AmbientReport("n0", 0.6, sensed_at=0.1), rng)
        assert journal.count("report-lost") == 1

    def test_freshest_sensing_wins_across_out_of_order_arrivals(self, rng):
        scheduler, journal, plane = make_plane(
            WifiUplink(latency_s=1e-3, jitter_s=0.0))
        plane.submit(AmbientReport("n0", 0.9, sensed_at=0.0), rng)
        scheduler.run()
        # An older sensing delivered later must not override.
        plane.collector.deliver(AmbientReport("n0", 0.1, sensed_at=-1.0))
        assert plane.estimate() == pytest.approx(0.9)
