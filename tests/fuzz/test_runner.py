"""Campaigns end to end: determinism, isolation, shrinking, self-test.

The defect-armed tests run small parallel campaigns whose workers
genuinely die (``os._exit``) or stall (sleep loop) — the crash
isolation under test is the real mechanism, not a mock.
"""

import json

import pytest

from repro.fuzz import (
    CampaignConfig,
    replay_params,
    run_campaign,
    runner,
    self_test,
)
from repro.fuzz.oracles import DEFECT_ENV
from repro.sim.sweep import SweepRunner


class TestCampaignDeterminism:
    def test_clean_tree_zero_findings(self):
        report = run_campaign(CampaignConfig(seed=0, budget=24))
        assert report.clean
        assert report.executed == 24
        assert report.by_status == {"ok": 24}
        assert sum(report.by_oracle.values()) == 24

    def test_digest_is_jobs_invariant(self, monkeypatch):
        serial = run_campaign(CampaignConfig(seed=1, budget=16,
                                             oracles=("codec", "design",
                                                      "roundtrip")))
        monkeypatch.setattr(runner, "CHUNK", 4)
        parallel = run_campaign(CampaignConfig(seed=1, budget=16, jobs=2,
                                               oracles=("codec", "design",
                                                        "roundtrip")))
        assert serial.digest == parallel.digest

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(budget=-1)
        with pytest.raises(ValueError):
            CampaignConfig(oracles=("bogus",))
        with pytest.raises(ValueError):
            CampaignConfig(oracles=())
        with pytest.raises(ValueError):
            CampaignConfig(timeout_s=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CampaignConfig(seed=-1)
        assert CampaignConfig(seed=0).seed == 0

    def test_parallel_campaign_builds_the_designer_before_forking(self):
        # Workers forked from the parent inherit its designer; a codec
        # campaign never designs in the parent, so only the pre-fork
        # build can fill the cache there.
        from repro.core.ampdesign import _designer_for

        _designer_for.cache_clear()
        report = run_campaign(CampaignConfig(seed=0, budget=2, jobs=2,
                                             oracles=("codec",)))
        assert report.clean
        assert _designer_for.cache_info().currsize == 1


class TestFindingsPipeline:
    def test_fail_finding_is_shrunk_and_journaled(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv(DEFECT_ENV, "codec-misdecode")
        journal = tmp_path / "findings.jsonl"
        report = run_campaign(CampaignConfig(
            seed=0, budget=40, oracles=("codec",),
            findings_path=str(journal)))
        assert not report.clean
        finding = report.findings[0]
        assert finding.status == "fail"
        assert finding.shrunk is not None
        assert finding.minimal_params["n"] == 12
        assert finding.minimal_params["n_symbols"] == 24
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        assert len(lines) == len(report.findings)
        assert lines[0]["case"]["oracle"] == "codec"
        assert lines[0]["shrunk"]["params"] == finding.minimal_params

    def test_crash_is_isolated_not_fatal(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "crash")
        monkeypatch.setattr(runner, "CHUNK", 5)
        report = run_campaign(CampaignConfig(
            seed=0, budget=10, jobs=2, oracles=("codec",),
            timeout_s=10.0))
        assert report.executed == 10
        assert report.by_status.get("crash", 0) >= 1
        assert report.by_status.get("ok", 0) >= 1  # survivors completed
        crash = next(f for f in report.findings if f.status == "crash")
        # Isolated shrinking still reduced toward the n >= 12 trigger.
        assert crash.minimal_params["n"] >= 12

    def test_hang_is_deadlined_not_fatal(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "hang")
        monkeypatch.setattr(runner, "CHUNK", 2)
        report = run_campaign(CampaignConfig(
            seed=0, budget=4, jobs=2, oracles=("codec",),
            timeout_s=1.0))
        assert report.executed == 4
        assert report.by_status.get("hang", 0) >= 1

    def test_replay_of_a_minimal_repro_is_bit_identical(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "codec-misdecode")
        report = run_campaign(CampaignConfig(seed=0, budget=40,
                                             oracles=("codec",)))
        minimal = report.findings[0].minimal_params
        first, digest_a = replay_params("codec", minimal)
        second, digest_b = replay_params("codec", minimal)
        assert first.status == "fail"
        assert first.as_dict() == second.as_dict()
        assert digest_a == digest_b


class TestSelfTest:
    def test_passes_on_the_shipped_tree(self):
        report = self_test(budget=48)
        assert report.passed, report.detail
        assert report.minimal_params["n"] == 12
        assert report.minimal_params["n_symbols"] == 24

    def test_restores_the_environment(self, monkeypatch):
        import os
        monkeypatch.delenv(DEFECT_ENV, raising=False)
        self_test(budget=40)
        assert DEFECT_ENV not in os.environ


def _identity(point):
    return point


def _die_on_negative(point):
    import os
    if point < 0:
        os._exit(13)
    return point * 2


class TestMapGuarded:
    def test_serial_passthrough(self):
        runner = SweepRunner(jobs=None)
        assert runner.map_guarded(_identity, [1, 2, 3]) == \
            [("ok", 1), ("ok", 2), ("ok", 3)]

    def test_healthy_parallel_batch(self):
        runner = SweepRunner(jobs=2)
        assert runner.map_guarded(_die_on_negative, [1, 2, 3, 4]) == \
            [("ok", 2), ("ok", 4), ("ok", 6), ("ok", 8)]

    def test_worker_death_names_the_culprit(self):
        runner = SweepRunner(jobs=2)
        guarded = runner.map_guarded(_die_on_negative, [1, -1, 3])
        assert guarded[0] == ("ok", 2)
        assert guarded[1][0] == "crash"
        assert guarded[2] == ("ok", 6)
