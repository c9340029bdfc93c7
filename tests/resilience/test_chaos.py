"""The chaos harness: determinism, graceful degradation, flicker.

These are the PR's acceptance pins: same seed → bit-identical report
and journal digest; under *every* shipped fault schedule the
supervised link must beat the unsupervised baseline; the Type-II
flicker bound holds through degradation and recovery; and the
multicell simulator's faulted journal stays pinned.
"""

import math

import pytest

from repro.core import SystemConfig, shared_designer
from repro.lighting import SmartLightingController
from repro.net import default_network
from repro.resilience import (AckLossBurst, ChaosScenario, FaultSchedule,
                              NodeDowntime, UplinkOutage, fault_windows,
                              shipped_schedules)
from repro.resilience.chaos import (ACK_TIMEOUT_S, DEGRADED_PAYLOAD_BYTES,
                                    MAX_RETRIES, PROBE_INTERVAL_S,
                                    RECOVER_AFTER)
from repro.schemes import shared_scheme_design
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


class TestGoldenDigests:
    """The harness's own journals pinned by value.

    Control ticks, MAC frames and fault boundaries share one DES clock
    at priorities -1, 0 and 1, so any change in the kernel's dispatch
    order moves these bytes.  Pinned on CPython 3.11 with NumPy 2.4;
    the journals hold only plain ``int``/``float``/``str`` values, so
    the digest does not depend on NumPy's scalar repr.
    """

    @pytest.mark.parametrize("name,supervised,digest", [
        pytest.param("mixed", True, "46ffdcd580fde2b4d2347ad227960045"
                     "cd072fde94a607b14d370bb712b9bfb9", id="mixed-supervised"),
        pytest.param("mixed", False, "593b601cd44ee0e5fe1091e8cb78e4b9"
                     "97c234783193d69d076422d7c71915a5", id="mixed-baseline"),
        pytest.param("blinding", True, "4abe98e3a599ad38bf2865521b6b3cb3"
                     "ff63b9c24926c0007f6fefa295990f15",
                     id="blinding-supervised"),
        pytest.param("blinding", False, "e3e4320bb9ac87e3083a4e65d9747826"
                     "211394c201b673498b91ba57f000cd44",
                     id="blinding-baseline"),
    ])
    def test_shipped_schedule_digest(self, name, supervised, digest):
        result = ChaosScenario(schedule=SCHEDULES[name], seed=13,
                               supervised=supervised).run()
        assert result.journal.digest() == digest


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


def frame_airtime(payload_bytes: int, conservative: bool) -> float:
    """Airtime of one frame at the default scenario's LED level."""
    config = SystemConfig()
    designer = shared_designer(config)
    controller = SmartLightingController(target_sum=1.0, config=config,
                                         designer=designer)
    led = controller.required_led(0.4)  # the default static ambient
    raw = (controller.conservative_design(led) if conservative
           else designer.design_clamped(led))
    design = shared_scheme_design(raw, config)
    return frame_slot_count(design, config, payload_bytes) * config.t_slot


def gaps(entries) -> list[float]:
    times = [entry.time for entry in entries]
    return [b - a for a, b in zip(times, times[1:])]


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


class TestScenarioValidation:
    def test_guards(self):
        with pytest.raises(ValueError):
            ChaosScenario(duration_s=0.0)
        with pytest.raises(ValueError):
            ChaosScenario(tick_s=0.0)
        with pytest.raises(ValueError):
            ChaosScenario(distance_m=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "duration_s", "target_sum", "tick_s", "distance_m"])
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

    def test_golden_seed_digests(self):
        """Pins the multicell journal, with and without faults."""
        plain = default_network(rows=2, cols=2, n_nodes=4, seed=13).run(30.0)
        faulted = default_network(rows=2, cols=2, n_nodes=4, seed=13,
                                  faults=self.FAULTS).run(30.0)
        assert plain.journal.digest() == (
            "980ce7357a220787a5fb8a423263a32ba5e1636b50a84c73f6595a0dcf093afb")
        assert faulted.journal.digest() == (
            "65dddb4527a1d412d4fea84658544b94f290fd186c270bb7107deaf5a8412b0c")
