"""The chaos harness: determinism, graceful degradation, flicker.

Same seed → bit-identical report and journal digest; under *every*
shipped fault schedule the supervised link must beat the unsupervised
baseline; the Type-II flicker bound holds through degradation and
recovery; and the multicell simulator journals a fault schedule the
same whatever order it lists its faults in.  The harness's digests are
pinned by value in ``tests/test_contracts.py``.
"""

import math

import pytest

from repro.core import SlotErrorModel, SystemConfig, shared_designer
from repro.lighting import SmartLightingController
from repro.link.mac import ACK_TIMEOUT_S, MAX_RETRIES
from repro.net import default_network
from repro.resilience import (AckLossBurst, AdcBlinding, AmbientStep,
                              ChaosScenario, FaultSchedule, NodeDowntime,
                              UplinkOutage, fault_windows, shipped_schedules)
from repro.resilience.chaos import (AMBIENT, DEGRADED_ERROR_MARGIN,
                                    DEGRADED_PAYLOAD_BYTES,
                                    PROBE_INTERVAL_S, RECOVER_AFTER,
                                    TARGET_SUM, degraded_designer)
from repro.sim.linkmodel import frame_slot_count

SCHEDULES = shipped_schedules()


def run_pair(name: str, seed: int = 13):
    schedule = SCHEDULES[name]
    supervised = ChaosScenario(schedule=schedule, seed=seed,
                               supervised=True).run()
    baseline = ChaosScenario(schedule=schedule, seed=seed,
                             supervised=False).run()
    return supervised, baseline


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        first = ChaosScenario(schedule=SCHEDULES["mixed"], seed=13).run()
        second = ChaosScenario(schedule=SCHEDULES["mixed"], seed=13).run()
        assert first.report == second.report
        assert first.journal.digest() == second.journal.digest()

    def test_same_instance_reruns_identically(self):
        scenario = ChaosScenario(schedule=SCHEDULES["blinding"], seed=7)
        assert scenario.run().report == scenario.run().report

    def test_seeds_diverge(self):
        first = ChaosScenario(schedule=SCHEDULES["mixed"], seed=1).run()
        second = ChaosScenario(schedule=SCHEDULES["mixed"], seed=2).run()
        assert first.report.digest != second.report.digest

    def test_report_digest_is_the_journal_digest(self):
        result = ChaosScenario(schedule=SCHEDULES["transients"],
                               seed=13).run()
        assert result.report.digest == result.journal.digest()


class TestGracefulDegradation:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_supervision_pays_for_itself(self, name):
        """Under every shipped schedule, supervised goodput wins."""
        supervised, baseline = run_pair(name)
        assert supervised.report.goodput_bps > baseline.report.goodput_bps

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_faults_are_detected_and_recovered(self, name):
        supervised, _ = run_pair(name)
        report = supervised.report
        assert report.n_faults == len(fault_windows(SCHEDULES[name]))
        assert report.mean_time_to_detect_s is not None
        assert report.mean_time_to_detect_s >= 0.0
        assert report.mean_time_to_recover_s is not None
        assert report.mean_time_to_recover_s >= 0.0

    def test_degradation_is_used_when_the_channel_sours(self):
        supervised, _ = run_pair("blinding")
        report = supervised.report
        assert report.time_degraded_s > 0.0
        assert report.degraded_goodput_bps > 0.0
        assert report.transitions >= 2  # down into DEGRADED and back

    def test_baseline_has_no_state_machine(self):
        _, baseline = run_pair("mixed")
        report = baseline.report
        assert not report.supervised
        assert report.transitions == 0
        assert report.probes_sent == 0
        assert report.time_degraded_s == 0.0
        assert report.time_down_s == 0.0

    def test_probing_resumes_data_after_an_outage(self):
        # A full uplink outage (mixed, 13..16 s) must drive the link
        # through DOWN/PROBING and back to carrying data.
        supervised, _ = run_pair("mixed")
        report = supervised.report
        assert report.probes_sent > 0
        assert report.time_down_s > 0.0
        acked = supervised.journal.of_kind("frame-acked")
        assert acked, "link never came back"
        assert max(e.time for e in acked) > 16.0

    def test_dead_link_keeps_the_lights_on(self):
        # While the link is down or probing, the controller keeps
        # holding the target sum.
        result = ChaosScenario(schedule=SCHEDULES["mixed"], seed=13).run()
        dead = [entry for entry in result.journal.of_kind("control")
                if entry.get("state") in ("down", "probing")]
        assert dead
        for entry in dead:
            assert entry.get("led") + entry.get("ambient") \
                == pytest.approx(TARGET_SUM)


def frame_airtime(payload_bytes: int, degraded: bool) -> float:
    """Airtime of one frame at the default scenario's LED level."""
    config = SystemConfig()
    designer = (degraded_designer(config) if degraded
                else shared_designer(config))
    led = SmartLightingController(target_sum=TARGET_SUM,
                                  config=config).required_led(AMBIENT)
    design = designer.design_clamped(led)
    return frame_slot_count(design, config, payload_bytes) * config.t_slot


def gaps(entries) -> list[float]:
    times = [entry.time for entry in entries]
    return [b - a for a, b in zip(times, times[1:])]


class TestDegradedDesigner:
    """The DEGRADED design policy that sits beside the MAC."""

    @pytest.mark.parametrize("ambient", [0.2, 0.4, 0.6, 0.8])
    def test_designs_with_the_error_margin(self, config, ambient):
        led = SmartLightingController(target_sum=TARGET_SUM, config=config
                                      ).tick(0.0, ambient).led
        degraded = degraded_designer(config).design_clamped(led)
        inflated = SlotErrorModel.from_config(config).scaled(
            DEGRADED_ERROR_MARGIN)
        assert degraded == shared_designer(config, inflated).design_clamped(led)
        # The margin admits only shorter, more redundant super-symbols.
        normal = shared_designer(config).design_clamped(led)
        assert (degraded.super_symbol.first.n_slots
                < normal.super_symbol.first.n_slots)

    def test_built_once_per_config(self, config):
        assert degraded_designer(config) is degraded_designer(SystemConfig())

    def test_falls_back_when_the_margin_prunes_every_candidate(self):
        # At this SER bound three patterns survive the measured errors
        # and none survives them inflated by the margin.
        config = SystemConfig(ser_bound=3e-4)
        with pytest.raises(ValueError, match="no symbol pattern"):
            shared_designer(config, SlotErrorModel.from_config(config)
                            .scaled(DEGRADED_ERROR_MARGIN))
        assert degraded_designer(config) is shared_designer(config)


class TestFaultWindows:
    def test_channel_faults_by_kind_sorted_by_start(self):
        # Steps and node downtime have no single-link window.
        schedule = FaultSchedule((UplinkOutage(8.0, 9.0),
                                  AmbientStep(1.0, 0.5),
                                  AckLossBurst(3.0, 4.0),
                                  NodeDowntime("n1", 0.0, 2.0),
                                  AdcBlinding(2.0, 5.0)))
        assert fault_windows(schedule) == (("adc-blinding", 2.0, 5.0),
                                           ("ack-loss-burst", 3.0, 4.0),
                                           ("uplink-outage", 8.0, 9.0))


class TestMacAndSupervisorTuning:
    """The MAC and supervisor constants, seen in the journal."""

    ACK_BLACKOUT = FaultSchedule((AckLossBurst(1.0, 6.0),))

    def test_frame_payload_follows_the_link_state(self):
        result = ChaosScenario(schedule=SCHEDULES["blinding"]).run()
        sizes = {(entry.get("state"), entry.get("bits"))
                 for entry in result.journal.of_kind("frame-acked")}
        assert sizes == {("up", 8 * SystemConfig().payload_bytes),
                         ("degraded", 8 * DEGRADED_PAYLOAD_BYTES)}

    def test_baseline_abandons_after_max_retries_of_flat_timeouts(self):
        result = ChaosScenario(schedule=self.ACK_BLACKOUT, duration_s=6.0,
                               supervised=False).run()
        abandoned = result.journal.of_kind("frame-abandoned")
        assert len(abandoned) == result.report.frames_lost > 10
        # Every abandoned payload is MAX_RETRIES + 1 frames, each
        # followed by the paper's fixed ACK timeout.
        airtime = frame_airtime(SystemConfig().payload_bytes, False)
        for gap in gaps(abandoned):
            assert gap == pytest.approx((MAX_RETRIES + 1)
                                        * (airtime + ACK_TIMEOUT_S))

    def test_probes_are_paced_by_timeout_and_interval(self):
        result = ChaosScenario(schedule=self.ACK_BLACKOUT,
                               duration_s=6.0).run()
        lost = result.journal.of_kind("probe-lost")
        assert len(lost) > 100
        probe = frame_airtime(0, True)
        for gap in gaps(lost):
            assert gap == pytest.approx(probe + ACK_TIMEOUT_S
                                        + PROBE_INTERVAL_S)

    def test_recovery_takes_recover_after_probe_successes(self):
        result = ChaosScenario(
            schedule=FaultSchedule((AckLossBurst(1.0, 3.0),)),
            duration_s=5.0).run()
        (recovered,) = [entry for entry in result.journal.of_kind(
            "link-state") if entry.get("source") == "probing"
            and entry.get("target") != "down"]
        # ACK loss never degrades the design: the link goes straight up.
        assert recovered.get("target") == "up"
        last_loss = max(entry.time for entry
                        in result.journal.of_kind("probe-lost"))
        successes = [entry for entry in result.journal.of_kind("probe-ok")
                     if last_loss < entry.time <= recovered.time]
        assert len(successes) == RECOVER_AFTER
        assert successes[-1].time == recovered.time


class TestFlickerGuarantee:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_perceived_step_bounded_throughout(self, name):
        """Type-II flicker stays bounded during degradation/recovery."""
        tau = SystemConfig().tau_perceived
        supervised, baseline = run_pair(name)
        assert supervised.report.max_perceived_step <= tau + 1e-12
        assert baseline.report.max_perceived_step <= tau + 1e-12


class TestRoomAmbient:
    def test_control_ticks_see_the_schedule_steps(self):
        # Each tick reads the latest step at or before it, else the
        # base ambient, and the LED completes the target under it.
        schedule = SCHEDULES["transients"]
        control = ChaosScenario(schedule=schedule, seed=13
                                ).run().journal.of_kind("control")
        for entry in control:
            expected = AMBIENT
            for at_s, level in schedule.ambient_steps():
                if at_s <= entry.time:
                    expected = level
            assert entry.get("ambient") == expected
            assert entry.get("led") + expected == pytest.approx(TARGET_SUM)
        levels = {level for _, level in schedule.ambient_steps()}
        assert {entry.get("ambient") for entry in control} \
            == levels | {AMBIENT}


class TestScenarioValidation:
    def test_guards(self):
        with pytest.raises(ValueError):
            ChaosScenario(duration_s=0.0)

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed"):
            ChaosScenario(seed=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["duration_s"])
    def test_non_finite_fields_rejected(self, name, bad):
        # Construction only: at duration_s=inf a run would never return.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChaosScenario(**{name: bad})


class TestMulticellRefactorEquivalence:
    FAULTS = FaultSchedule((NodeDowntime("node-01", 5.0, 12.0),
                            UplinkOutage(8.0, 15.0)))

    def test_reversed_schedule_is_bit_identical(self):
        """The same faults in reverse order journal identically."""
        # The second schedule's windows open and close together, so the
        # journal order at those instants is the simulator's, not the
        # tuple's.
        coincident = FaultSchedule((NodeDowntime("node-01", 5.0, 12.0),
                                    UplinkOutage(5.0, 12.0)))
        for faults in (self.FAULTS, coincident):
            direct = default_network(rows=2, cols=2, n_nodes=4, seed=13,
                                     faults=faults).run(30.0)
            reordered = default_network(
                rows=2, cols=2, n_nodes=4, seed=13,
                faults=FaultSchedule(faults.faults[::-1])).run(30.0)
            assert direct.journal.digest() == reordered.journal.digest()
            assert direct.metrics() == reordered.metrics()
