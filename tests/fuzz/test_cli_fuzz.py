"""The ``repro fuzz`` surface: run, replay, corpus, exit codes."""

import io
import json
from pathlib import Path

from repro.cli import main
from repro.fuzz import DEFAULT_CORPUS_DIR
from repro.fuzz.oracles import DEFECT_ENV

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = str(REPO_ROOT / DEFAULT_CORPUS_DIR)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestFuzzRun:
    def test_clean_campaign_exits_zero(self):
        code, out, err = invoke("fuzz", "run", "--budget", "12",
                                "--seed", "0", "--oracles",
                                "codec,design,roundtrip")
        assert code == 0, err
        assert "no findings" in out
        assert "campaign digest:" in out

    def test_digest_is_printed_and_jobs_invariant(self):
        args = ("fuzz", "run", "--budget", "10", "--seed", "3",
                "--oracles", "codec")
        _, serial, _ = invoke(*args)
        _, parallel, _ = invoke(*args, "--jobs", "2")
        digest = [line for line in serial.splitlines()
                  if line.startswith("campaign digest:")]
        assert digest
        assert digest == [line for line in parallel.splitlines()
                          if line.startswith("campaign digest:")]

    def test_findings_exit_one_and_journal(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DEFECT_ENV, "codec-misdecode")
        journal = tmp_path / "findings.jsonl"
        code, out, err = invoke("fuzz", "run", "--budget", "30",
                                "--oracles", "codec",
                                "--findings", str(journal))
        assert code == 1
        assert "minimal repro" in out
        assert journal.is_file()
        assert json.loads(journal.read_text().splitlines()[0])

    def test_self_test_passes(self):
        code, out, err = invoke("fuzz", "run", "--self-test")
        assert code == 0, out + err
        assert "self-test: PASS" in out

    def test_bad_arguments_exit_two(self):
        code, _, err = invoke("fuzz", "run", "--oracles", "bogus")
        assert code == 2
        assert "unknown oracle" in err
        code, _, _ = invoke("fuzz", "run", "--jobs", "0")
        assert code == 2
        code, _, _ = invoke("fuzz", "run", "--budget", "-3")
        assert code == 2

    def test_negative_seed_exits_two(self):
        code, out, err = invoke("fuzz", "run", "--seed", "-1", "--budget", "1")
        assert code == 2
        assert "seed" in err
        assert out == ""


class TestFuzzReplay:
    def test_replays_the_shipped_corpus(self):
        code, out, err = invoke("fuzz", "replay", CORPUS)
        assert code == 0, err
        assert "0 drifted" in out

    def test_single_artifact(self):
        artifact = sorted(Path(CORPUS).glob("design-*.json"))[0]
        code, out, _ = invoke("fuzz", "replay", str(artifact))
        assert code == 0
        assert "replayed 1 artifacts" in out

    def test_drift_exits_one(self, tmp_path):
        artifact = sorted(Path(CORPUS).glob("design-*.json"))[0]
        obj = json.loads(artifact.read_text())
        obj["expect"]["digest"] = "0" * 64
        bad = tmp_path / "drifted.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = invoke("fuzz", "replay", str(bad))
        assert code == 1
        assert "DRIFT" in out

    def test_missing_path_exits_two(self):
        code, _, err = invoke("fuzz", "replay", "/no/such/file.json")
        assert code == 2
        assert "no such artifact" in err


class TestFuzzCorpus:
    def test_lists_the_shipped_corpus(self):
        code, out, _ = invoke("fuzz", "corpus", "--dir", CORPUS)
        assert code == 0
        assert "artifacts in" in out
        assert "codec" in out and "journal" in out

    def test_add_pins_findings(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DEFECT_ENV, "codec-misdecode")
        journal = tmp_path / "findings.jsonl"
        code, _, _ = invoke("fuzz", "run", "--budget", "30",
                            "--oracles", "codec",
                            "--findings", str(journal))
        assert code == 1
        monkeypatch.delenv(DEFECT_ENV)
        target = tmp_path / "corpus"
        code, out, err = invoke("fuzz", "corpus", "--dir", str(target),
                                "--add", str(journal))
        assert code == 0, err
        added = list(target.glob("codec-*.json"))
        assert added
        # The defect is disarmed now, so the pinned expectation is the
        # healthy digest — the shrunk trigger guards the fixed path.
        assert "status ok" in out

    def test_missing_dir_exits_two(self, tmp_path):
        code, _, err = invoke("fuzz", "corpus", "--dir",
                              str(tmp_path / "nope"))
        assert code == 2
        assert "no corpus directory" in err
