"""Backoff schedules and the link-state machine.

The backoff properties are the supervision contract: monotone
schedules, a hard cap that holds at every attempt (also past the float
range of ``factor ** attempt``), and a unit factor that stays flat.
The supervisor tests pin the reason-aware semantics: only
channel-quality evidence degrades the design, while failures of any
kind can kill the link.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import EventJournal
from repro.link import BackoffPolicy, LinkState, LinkSupervisor
from repro.resilience.chaos import SUPERVISED_BACKOFF

policies = st.builds(
    BackoffPolicy,
    base_timeout_s=st.floats(min_value=1e-4, max_value=0.05),
    factor=st.floats(min_value=1.0, max_value=4.0),
    cap_s=st.floats(min_value=0.05, max_value=1.0),
)


class TestBackoffProperties:
    @settings(max_examples=80, deadline=None)
    @given(policy=policies)
    def test_schedule_monotone_non_decreasing(self, policy):
        schedule = [policy.timeout_for(a) for a in range(24)]
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))

    @settings(max_examples=80, deadline=None)
    @given(policy=policies)
    def test_cap_enforced(self, policy):
        assert all(policy.timeout_for(a) <= policy.cap_s for a in range(24))

    @settings(max_examples=40, deadline=None)
    @given(base=st.floats(min_value=1e-3, max_value=0.05),
           attempt=st.integers(min_value=0, max_value=12))
    def test_unit_factor_is_flat(self, base, attempt):
        policy = BackoffPolicy(base_timeout_s=base, factor=1.0, cap_s=1.0)
        assert policy.timeout_for(attempt) == base

    def test_first_timeout_is_the_base(self):
        policy = BackoffPolicy(base_timeout_s=5e-3, factor=2.0, cap_s=0.1)
        assert policy.timeout_for(0) == pytest.approx(5e-3)
        assert policy.timeout_for(1) == pytest.approx(10e-3)
        assert policy.timeout_for(6) == pytest.approx(0.1)  # capped

    def test_timeout_past_the_float_range_is_the_cap(self):
        # 2.0 ** 1024 overflows a float: a failure streak that long (the
        # serve daemon's link endpoint keeps one) still reads the cap.
        assert BackoffPolicy().timeout_for(10 ** 6) == 0.16
        assert BackoffPolicy().timeout_for(1024) == 0.16

    def test_saturation_attempt(self):
        policy = BackoffPolicy(base_timeout_s=10e-3, factor=2.0, cap_s=0.16)
        # 10 -> 20 -> 40 -> 80 -> 160 ms: the cap is first reached at 4.
        assert policy.timeout_for(3) < policy.cap_s
        assert policy.timeout_for(4) == policy.cap_s

    @settings(max_examples=60, deadline=None)
    @given(policy=policies, attempt=st.integers(min_value=0, max_value=60))
    def test_timeout_for_is_the_running_maximum(self, policy, attempt):
        # The closed form equals the capped running maximum over every
        # earlier attempt, the schedule's definition.
        assert policy.timeout_for(attempt) == running_maximum(policy,
                                                              attempt)

    @pytest.mark.parametrize("policy", [BackoffPolicy(), SUPERVISED_BACKOFF],
                             ids=["default", "chaos-supervised"])
    def test_policies_in_use_match_the_running_maximum(self, policy):
        # Every attempt whose power is still a float, for the serve
        # daemon's and the chaos harness's policies.
        timeout = 0.0
        for attempt in range(1024):
            timeout = max(timeout, min(policy.base_timeout_s
                                       * policy.factor ** attempt,
                                       policy.cap_s))
            assert policy.timeout_for(attempt) == timeout

    @pytest.mark.parametrize("factor", [1.25, 2.0, 4.0])
    def test_cap_holds_across_the_overflow_boundary(self, factor):
        policy = BackoffPolicy(base_timeout_s=1e-3, factor=factor,
                               cap_s=0.1)
        last_finite = math.floor(math.log(sys.float_info.max)
                                 / math.log(factor))
        assert math.isfinite(factor ** (last_finite - 2))
        with pytest.raises(OverflowError):
            factor ** (last_finite + 2)
        for attempt in range(last_finite - 2, last_finite + 3):
            assert policy.timeout_for(attempt) == policy.cap_s


def running_maximum(policy: BackoffPolicy, attempt: int) -> float:
    """The schedule by definition: the capped running maximum."""
    return max(min(policy.base_timeout_s * policy.factor ** a, policy.cap_s)
               for a in range(attempt + 1))


class TestBackoffValidation:
    def test_bad_base(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_timeout_s=0.0)

    def test_shrinking_factor(self):
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)

    def test_cap_below_base(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_timeout_s=0.2, cap_s=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "base_timeout_s", "factor", "cap_s"])
    def test_non_finite_fields_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BackoffPolicy(**{name: bad})

    def test_negative_attempt(self):
        with pytest.raises(ValueError):
            BackoffPolicy().timeout_for(-1)


def supervisor(**kwargs) -> LinkSupervisor:
    defaults = dict(degraded_after=3, down_after=8, recover_after=2)
    defaults.update(kwargs)
    return LinkSupervisor(**defaults)


class TestSupervisorDegradation:
    def test_starts_up(self):
        assert supervisor().state is LinkState.UP

    def test_crc_streak_degrades(self):
        sup = supervisor()
        for i in range(3):
            sup.on_failure(float(i), reason="crc")
        assert sup.state is LinkState.DEGRADED
        assert sup.transitions[0].reason == "crc"

    def test_ack_loss_streak_does_not_degrade(self):
        # Stepping the design down cannot repair a lossy ACK path, so
        # pure ACK loss must never push the link into DEGRADED.
        sup = supervisor()
        for i in range(7):
            sup.on_failure(float(i), reason="ack-loss")
        assert sup.state is LinkState.UP

    def test_success_resets_both_streaks(self):
        sup = supervisor()
        sup.on_failure(0.0, reason="crc")
        sup.on_failure(1.0, reason="crc")
        sup.on_success(2.0)
        assert sup.crc_streak == 0
        assert sup.fail_streak == 0
        sup.on_failure(3.0, reason="crc")
        sup.on_failure(4.0, reason="crc")
        assert sup.state is LinkState.UP

    def test_recovery_needs_consecutive_successes(self):
        sup = supervisor()
        for i in range(3):
            sup.on_failure(float(i), reason="crc")
        sup.on_success(3.0)
        assert sup.state is LinkState.DEGRADED
        sup.on_success(4.0)
        assert sup.state is LinkState.UP
        assert sup.transitions[-1].reason == "recovered"


class TestSupervisorDownAndProbing:
    def test_any_failure_kind_reaches_down(self):
        sup = supervisor()
        for i in range(8):
            sup.on_failure(float(i), reason="ack-loss")
        assert sup.state is LinkState.DOWN

    def test_mixed_streak_reaches_down_via_degraded(self):
        sup = supervisor()
        for i in range(8):
            sup.on_failure(float(i), reason="crc")
        assert sup.state is LinkState.DOWN
        states = [tr.target for tr in sup.transitions]
        assert states == [LinkState.DEGRADED, LinkState.DOWN]

    def test_probe_recovery_after_channel_outage_is_conservative(self):
        # The outage was CRC-caused: probes prove the link breathes, but
        # full-rate frames are still unproven -> re-enter DEGRADED.
        sup = supervisor()
        for i in range(8):
            sup.on_failure(float(i), reason="crc")
        sup.start_probing(9.0)
        assert sup.state is LinkState.PROBING
        sup.on_probe_success(10.0)
        sup.on_probe_success(11.0)
        assert sup.state is LinkState.DEGRADED
        assert sup.transitions[-1].reason == "probe-recovered"

    def test_probe_recovery_after_ack_outage_restores_up(self):
        # There was never channel evidence against full-rate frames:
        # a recovered ACK path re-enters UP directly.
        sup = supervisor()
        for i in range(8):
            sup.on_failure(float(i), reason="ack-loss")
        sup.start_probing(9.0)
        sup.on_probe_success(10.0)
        sup.on_probe_success(11.0)
        assert sup.state is LinkState.UP

    def test_probe_failure_returns_to_down(self):
        sup = supervisor()
        for i in range(8):
            sup.on_failure(float(i), reason="crc")
        sup.start_probing(9.0)
        sup.on_probe_success(10.0)
        sup.on_probe_failure(11.0)
        assert sup.state is LinkState.DOWN
        sup.start_probing(12.0)
        sup.on_probe_success(13.0)
        sup.on_probe_success(14.0)
        assert sup.state is LinkState.DEGRADED  # streak restarted

    def test_start_probing_only_from_down(self):
        sup = supervisor()
        assert sup.start_probing(0.0) is LinkState.UP
        assert not sup.transitions

    def test_data_suspended(self):
        sup = supervisor()
        assert not sup.data_suspended
        for i in range(8):
            sup.on_failure(float(i), reason="crc")
        assert sup.data_suspended
        sup.start_probing(9.0)
        assert sup.data_suspended


class TestSupervisorBookkeeping:
    def test_journal_records_transitions(self):
        journal = EventJournal()
        sup = supervisor(journal=journal)
        for i in range(3):
            sup.on_failure(float(i), reason="crc")
        events = journal.of_kind("link-state")
        assert len(events) == 1
        assert events[0].actor == "link"
        assert events[0].get("source") == "up"
        assert events[0].get("target") == "degraded"

    def test_time_in_state(self):
        sup = supervisor()
        for i in range(3):
            sup.on_failure(2.0 + float(i), reason="crc")  # DEGRADED at 4.0
        sup.on_success(6.0)
        sup.on_success(7.0)                               # UP at 7.0
        assert sup.time_in_state(LinkState.UP, 10.0) \
            == pytest.approx(4.0 + 3.0)
        assert sup.time_in_state(LinkState.DEGRADED, 10.0) \
            == pytest.approx(3.0)
        assert sup.time_in_state(LinkState.DOWN, 10.0) == 0.0

    def test_time_in_state_window_clamps(self):
        sup = supervisor()
        for i in range(3):
            sup.on_failure(float(i), reason="crc")  # DEGRADED at 2.0
        assert sup.time_in_state(LinkState.DEGRADED, 5.0, since_s=3.0) \
            == pytest.approx(2.0)
        with pytest.raises(ValueError):
            sup.time_in_state(LinkState.UP, 1.0, since_s=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSupervisor(degraded_after=0)
        with pytest.raises(ValueError):
            LinkSupervisor(degraded_after=3, down_after=3)
        with pytest.raises(ValueError):
            LinkSupervisor(recover_after=0)

    @settings(max_examples=60, deadline=None)
    @given(reasons=st.lists(st.sampled_from(["crc", "ack-loss", "ok"]),
                            min_size=1, max_size=60))
    def test_state_is_always_reachable_and_consistent(self, reasons):
        """Any evidence sequence leaves a valid state and sane streaks."""
        sup = supervisor()
        for i, reason in enumerate(reasons):
            if reason == "ok":
                sup.on_success(float(i))
            else:
                sup.on_failure(float(i), reason=reason)
            if sup.state is LinkState.DOWN:
                sup.start_probing(float(i) + 0.5)
        assert sup.state in LinkState
        assert sup.crc_streak <= sup.fail_streak
        # Transitions never repeat a state and are time-ordered.
        times = [tr.time for tr in sup.transitions]
        assert times == sorted(times)
        for tr in sup.transitions:
            assert tr.source is not tr.target


class TestSnapshot:
    def test_initial_snapshot(self):
        snap = supervisor().snapshot()
        assert snap == {"state": "up", "cause": "", "fail_streak": 0,
                        "crc_streak": 0, "ok_streak": 0, "transitions": 0,
                        "data_suspended": False, "backoff_remaining_s": 0.0}

    def test_snapshot_tracks_evidence_and_cause(self):
        sup = supervisor()
        for i in range(3):
            sup.on_failure(float(i), reason="crc")
        snap = sup.snapshot()
        assert snap["state"] == "degraded"
        assert snap["cause"] == "crc"
        assert snap["fail_streak"] == 3
        assert snap["crc_streak"] == 3
        assert snap["transitions"] == 1
        assert snap["data_suspended"] is False

    def test_backoff_remaining_follows_the_schedule(self):
        sup = supervisor()
        policy = BackoffPolicy(base_timeout_s=0.01, factor=2.0, cap_s=0.16)
        assert sup.snapshot(policy)["backoff_remaining_s"] == 0.0
        sup.on_failure(0.0)
        assert sup.snapshot(policy)["backoff_remaining_s"] \
            == pytest.approx(policy.timeout_for(0))
        sup.on_failure(1.0)
        assert sup.snapshot(policy)["backoff_remaining_s"] \
            == pytest.approx(policy.timeout_for(1))
        sup.on_success(2.0)
        assert sup.snapshot(policy)["backoff_remaining_s"] == 0.0

    def test_snapshot_is_json_serializable(self):
        import json

        sup = supervisor()
        for i in range(9):
            sup.on_failure(float(i), reason="crc")
        sup.start_probing(9.0)
        round_tripped = json.loads(json.dumps(sup.snapshot(BackoffPolicy())))
        assert round_tripped["state"] == "probing"
        assert round_tripped["data_suspended"] is True
