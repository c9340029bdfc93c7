"""Corpus artifacts: pin, persist, replay, detect drift.

The shipped-corpus test,
``TestShippedCorpus::test_every_artifact_replays_bit_identically`` in
tier-1, replays every committed artifact onto its pinned digest, bit
for bit.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz import (
    DEFAULT_CORPUS_DIR,
    Artifact,
    iter_corpus,
    load_artifact,
    pin_artifact,
    replay_artifact,
    replay_corpus,
    write_artifact,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

DESIGN_PARAMS = {"dimming": 0.42}


class TestPinAndPersist:
    def test_round_trip(self, tmp_path):
        artifact = pin_artifact("design", DESIGN_PARAMS, note="mid-range")
        path = tmp_path / "design-x.json"
        write_artifact(path, artifact)
        assert load_artifact(path) == artifact

    def test_pin_records_the_live_digest(self):
        artifact = pin_artifact("design", DESIGN_PARAMS)
        assert artifact.expect_status == "ok"
        assert len(artifact.expect_digest) == 64

    def test_replay_matches_a_fresh_pin(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, pin_artifact("design", DESIGN_PARAMS))
        outcome = replay_artifact(path)
        assert outcome.matched
        assert outcome.oracle == "design"

    def test_drift_is_detected(self, tmp_path):
        artifact = pin_artifact("design", DESIGN_PARAMS)
        tampered = Artifact(oracle=artifact.oracle, params=artifact.params,
                            expect_status=artifact.expect_status,
                            expect_digest="0" * 64, note="tampered")
        path = tmp_path / "drift.json"
        write_artifact(path, tampered)
        outcome = replay_artifact(path)
        assert not outcome.matched
        assert "DRIFT" in outcome.describe()


class TestArtifactValidation:
    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"v": 99}))
        with pytest.raises(ValueError, match="version"):
            load_artifact(path)

    def test_unknown_oracle_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"v": 1, "oracle": "bogus", "case": {},
             "expect": {"status": "ok", "digest": "x"}}))
        with pytest.raises(ValueError, match="unknown oracle"):
            load_artifact(path)

    def test_garbage_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="unreadable"):
            load_artifact(path)

    def test_missing_expectation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"v": 1, "oracle": "design",
                                    "case": {}}))
        with pytest.raises(ValueError, match="expect"):
            load_artifact(path)


class TestShippedCorpus:
    def test_corpus_is_nonempty_and_well_formed(self):
        paths = list(iter_corpus(REPO_ROOT / DEFAULT_CORPUS_DIR))
        assert len(paths) >= 8
        oracles = {load_artifact(path).oracle for path in paths}
        assert oracles == {"codec", "roundtrip", "design", "serve",
                           "journal"}

    def test_every_artifact_replays_bit_identically(self):
        outcomes = replay_corpus(REPO_ROOT / DEFAULT_CORPUS_DIR)
        drifted = [outcome.describe() for outcome in outcomes
                   if not outcome.matched]
        assert not drifted, "\n".join(drifted)
