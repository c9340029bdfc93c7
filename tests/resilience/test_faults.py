"""Fault primitives, schedule queries, and the DES installer."""

import math

import pytest

from repro.des import EventJournal, EventScheduler
from repro.resilience import (AckLossBurst, AdcBlinding, AmbientStep,
                              FaultSchedule, NodeDowntime, UplinkOutage,
                              install_fault_events, shipped_schedules)

#: windows a NaN or an infinity makes unusable
NON_FINITE_WINDOWS = ((math.nan, 5.0), (1.0, math.nan), (1.0, math.inf),
                      (math.inf, math.inf), (-math.inf, 5.0))


class TestPrimitiveValidation:
    def test_windows_must_be_ordered(self):
        for cls in (UplinkOutage, AckLossBurst, AdcBlinding):
            with pytest.raises(ValueError):
                cls(5.0, 5.0)
            with pytest.raises(ValueError):
                cls(-1.0, 2.0)
        with pytest.raises(ValueError):
            NodeDowntime("n0", 3.0, 2.0)

    def test_ack_loss_probability_range(self):
        with pytest.raises(ValueError):
            AckLossBurst(0.0, 1.0, loss_probability=1.5)

    def test_blinding_severity_range(self):
        with pytest.raises(ValueError):
            AdcBlinding(0.0, 1.0, severity=0.0)
        with pytest.raises(ValueError):
            AdcBlinding(0.0, 1.0, severity=1.1)
        with pytest.raises(ValueError):
            AdcBlinding(0.0, 1.0, max_error_scale=0.5)

    def test_ambient_step_range(self):
        with pytest.raises(ValueError):
            AmbientStep(-1.0, 0.5)
        with pytest.raises(ValueError):
            AmbientStep(1.0, 1.5)

    def test_blinding_derived_scales(self):
        blinding = AdcBlinding(0.0, 1.0, severity=0.5, max_error_scale=100.0)
        assert blinding.error_scale == pytest.approx(50.5)
        assert blinding.ambient_boost == pytest.approx(0.5)

    def test_schedule_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            FaultSchedule(("not a fault",))


class TestFiniteTimes:
    """Every fault time must be finite: NaN would pass ``<``/``<=``."""

    def test_uplink_outage(self):
        for start, end in NON_FINITE_WINDOWS:
            with pytest.raises(ValueError, match="outage window"):
                UplinkOutage(start, end)

    def test_ack_loss_burst(self):
        for start, end in NON_FINITE_WINDOWS:
            with pytest.raises(ValueError, match="ACK-loss window"):
                AckLossBurst(start, end)

    def test_adc_blinding(self):
        for start, end in NON_FINITE_WINDOWS:
            with pytest.raises(ValueError, match="blinding window"):
                AdcBlinding(start, end)

    def test_ambient_step(self):
        for at in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="at_s"):
                AmbientStep(at, 0.9)

    def test_node_downtime(self):
        for start, end in NON_FINITE_WINDOWS:
            with pytest.raises(ValueError, match="'n0' downtime window"):
                NodeDowntime("n0", start, end)


class TestScheduleQueries:
    SCHEDULE = FaultSchedule((
        AdcBlinding(2.0, 4.0, severity=0.3),
        AdcBlinding(3.0, 6.0, severity=0.6),
        AckLossBurst(1.0, 3.0, loss_probability=0.4),
        UplinkOutage(8.0, 9.0),
        AmbientStep(5.0, 0.9),
        AmbientStep(7.0, 0.2),
        NodeDowntime("n1", 2.0, 3.0),
    ))

    def test_ack_loss_is_max_of_active_windows(self):
        assert self.SCHEDULE.ack_loss_at(0.5) == 0.0
        assert self.SCHEDULE.ack_loss_at(2.0) == pytest.approx(0.4)
        assert self.SCHEDULE.ack_loss_at(8.5) == 1.0  # outage dominates

    def test_windows_are_half_open(self):
        assert self.SCHEDULE.ack_loss_at(3.0) == 0.0
        assert not self.SCHEDULE.uplink_outage_at(9.0)
        assert self.SCHEDULE.uplink_outage_at(8.0)

    def test_error_scale_is_max_of_overlaps(self):
        worst = AdcBlinding(0.0, 1.0, severity=0.6).error_scale
        assert self.SCHEDULE.error_scale_at(1.0) == 1.0
        assert self.SCHEDULE.error_scale_at(3.5) == pytest.approx(worst)

    def test_ambient_latest_step_wins_and_clamps(self):
        assert self.SCHEDULE.ambient_at(4.0, 0.5) == 0.5
        assert self.SCHEDULE.ambient_at(6.0, 0.5) == pytest.approx(0.9)
        assert self.SCHEDULE.ambient_at(7.5, 0.5) == pytest.approx(0.2)
        # Blinding never enters the room-ambient query.
        assert self.SCHEDULE.ambient_at(3.5, 0.5) == 0.5

    def test_ambient_boost_only_during_blinding(self):
        assert self.SCHEDULE.ambient_boost_at(1.0) == 0.0
        assert self.SCHEDULE.ambient_boost_at(3.5) == pytest.approx(0.6)

    def test_node_down_at(self):
        assert self.SCHEDULE.node_down_at("n1", 2.5)
        assert not self.SCHEDULE.node_down_at("n1", 3.0)
        assert not self.SCHEDULE.node_down_at("n2", 2.5)

    def test_of_type_and_len_and_end(self):
        assert len(self.SCHEDULE) == 7
        assert len(self.SCHEDULE.of_type(AdcBlinding)) == 2
        assert self.SCHEDULE.end_s == pytest.approx(9.0)
        assert FaultSchedule().end_s == 0.0

    def test_combine_preserves_order(self):
        first = FaultSchedule((AmbientStep(1.0, 0.5),))
        second = FaultSchedule((AmbientStep(2.0, 0.7),))
        combined = first.combine(second)
        assert combined.faults == first.faults + second.faults


class TestRandomSchedules:
    def test_pure_in_its_arguments(self):
        a = FaultSchedule.random(7, 40.0, 0.6, nodes=("n0", "n1"))
        b = FaultSchedule.random(7, 40.0, 0.6, nodes=("n0", "n1"))
        assert a == b

    def test_seeds_diverge(self):
        assert FaultSchedule.random(1, 40.0, 0.6) \
            != FaultSchedule.random(2, 40.0, 0.6)

    def test_zero_intensity_is_empty(self):
        assert len(FaultSchedule.random(3, 40.0, 0.0)) == 0

    def test_windows_fit_the_duration(self):
        schedule = FaultSchedule.random(11, 20.0, 1.0, nodes=("a",))
        assert schedule.end_s <= 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(1, 0.0, 0.5)
        with pytest.raises(ValueError):
            FaultSchedule.random(1, 10.0, 1.5)


class TestShippedSchedules:
    def test_the_curated_set(self):
        shipped = shipped_schedules()
        assert set(shipped) == {"blinding", "ack-burst", "transients",
                                "mixed"}
        for schedule in shipped.values():
            assert len(schedule) > 0

    def test_windows_scale_with_duration(self):
        short = shipped_schedules(20.0)["mixed"]
        long = shipped_schedules(40.0)["mixed"]
        assert short.end_s == pytest.approx(long.end_s / 2.0)
        assert short.end_s <= 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            shipped_schedules(0.0)


class TestInstallFaultEvents:
    def test_boundaries_are_journaled(self):
        schedule = FaultSchedule((AdcBlinding(1.0, 2.0, severity=0.5),
                                  AmbientStep(3.0, 0.7),
                                  UplinkOutage(4.0, 5.0)))
        scheduler = EventScheduler()
        journal = EventJournal()
        install_fault_events(schedule, scheduler, journal)
        scheduler.run(until_s=10.0)
        begins = journal.of_kind("fault-begin")
        ends = journal.of_kind("fault-end")
        steps = journal.of_kind("fault-step")
        assert [e.get("fault") for e in begins] == ["adc-blinding",
                                                    "uplink-outage"]
        assert len(ends) == 2
        assert steps[0].get("level") == pytest.approx(0.7)
        assert steps[0].time == pytest.approx(3.0)
