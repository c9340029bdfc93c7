"""The regression corpus: shrunk repros replayed by the test suite.

A corpus artifact is one JSON file pinning a minimal repro and the
digest its replay must reproduce bit-identically:

.. code-block:: json

    {"v": 1, "oracle": "codec", "note": "why this case exists",
     "case": {"...": "oracle params"},
     "expect": {"status": "ok", "digest": "sha256..."}}

``expect.status`` is usually ``"ok"``: a corpus entry is a *fixed*
bug's minimal trigger (or a hand-picked boundary case), and replay
asserts the whole (params → result → digest) pipeline still lands on
the recorded bits.  An entry whose underlying defect has been fixed is
re-pinned to its new healthy digest rather than deleted — the shrunk
trigger keeps guarding the code path that once broke.

``repro fuzz corpus`` writes new artifacts from findings;
:func:`replay_corpus` (also ``repro fuzz replay``) checks a directory
of them, and ``tests/fuzz/test_cli_fuzz.py`` fails on any drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .oracles import ORACLES, execute_params, result_digest

#: Where the shipped regression corpus lives, relative to the repo root.
DEFAULT_CORPUS_DIR = Path("tests") / "fuzz" / "corpus"

ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class Artifact:
    """One corpus entry: oracle params plus the pinned expectation."""

    oracle: str
    params: dict
    expect_status: str
    expect_digest: str
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "v": ARTIFACT_VERSION,
            "oracle": self.oracle,
            "note": self.note,
            "case": dict(self.params),
            "expect": {"status": self.expect_status,
                       "digest": self.expect_digest},
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "Artifact":
        if obj.get("v") != ARTIFACT_VERSION:
            raise ValueError(f"unsupported corpus artifact version "
                             f"{obj.get('v')!r}")
        oracle = obj.get("oracle")
        if oracle not in ORACLES:
            raise ValueError(f"unknown oracle {oracle!r}; "
                             f"known: {sorted(ORACLES)}")
        case = obj.get("case")
        if not isinstance(case, Mapping):
            raise ValueError("corpus artifact needs a 'case' object")
        expect = obj.get("expect")
        if (not isinstance(expect, Mapping) or "status" not in expect
                or "digest" not in expect):
            raise ValueError("corpus artifact needs expect.status "
                             "and expect.digest")
        return cls(oracle=str(oracle), params=dict(case),
                   expect_status=str(expect["status"]),
                   expect_digest=str(expect["digest"]),
                   note=str(obj.get("note", "")))


@dataclass(frozen=True)
class ReplayOutcome:
    """One artifact's replay verdict."""

    path: Path
    oracle: str
    matched: bool
    status: str
    digest: str
    expected_status: str
    expected_digest: str
    note: str = ""
    detail: str = ""

    def describe(self) -> str:
        verdict = "ok" if self.matched else "DRIFT"
        line = f"{verdict:>5}  {self.oracle:<9} {self.path.name}"
        if not self.matched:
            line += (f"  (got {self.status}/{self.digest[:12]}, "
                     f"expected {self.expected_status}/"
                     f"{self.expected_digest[:12]})")
            if self.detail:
                line += f" — {self.detail}"
        return line


def pin_artifact(oracle: str, params: Mapping, note: str = "") -> Artifact:
    """Execute params now and pin the observed status + digest."""
    result = execute_params(oracle, dict(params))
    return Artifact(oracle=oracle, params=dict(params),
                    expect_status=result.status,
                    expect_digest=result_digest(oracle, dict(params),
                                                result),
                    note=note)


def write_artifact(path: Path, artifact: Artifact) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact.as_dict(), indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")


def load_artifact(path: Path) -> Artifact:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable corpus artifact "
                         f"({exc})") from exc
    try:
        return Artifact.from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def iter_corpus(directory: Path) -> Iterator[Path]:
    """Corpus files in name order (deterministic replay order)."""
    yield from sorted(directory.glob("*.json"))


def replay_artifact(path: Path) -> ReplayOutcome:
    """Replay one artifact and compare against its pinned expectation."""
    artifact = load_artifact(path)
    result = execute_params(artifact.oracle, artifact.params)
    digest = result_digest(artifact.oracle, artifact.params, result)
    matched = (result.status == artifact.expect_status
               and digest == artifact.expect_digest)
    return ReplayOutcome(path=path, oracle=artifact.oracle,
                         matched=matched, status=result.status,
                         digest=digest,
                         expected_status=artifact.expect_status,
                         expected_digest=artifact.expect_digest,
                         note=artifact.note, detail=result.detail)


def replay_corpus(directory: Path) -> list[ReplayOutcome]:
    """Replay every artifact under ``directory`` (non-recursive)."""
    return [replay_artifact(path) for path in iter_corpus(directory)]
