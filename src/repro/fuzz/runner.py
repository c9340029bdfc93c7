"""Budgeted fuzz campaigns: execute, isolate, journal, shrink.

A campaign is ``budget`` cases derived from one seed (see
:mod:`.generators`), executed across the :class:`~repro.sim.sweep.
SweepRunner` process pool in chunks.  Three failure channels feed one
findings journal:

* **oracle failures** — the worker returns ``status="fail"``;
* **errors** — the worker catches an unexpected exception and returns
  ``status="error"`` with the traceback head;
* **crashes / hangs** — the worker process dies (journaled by
  :meth:`~repro.sim.sweep.SweepRunner.map_guarded` re-isolation) or
  trips its in-worker deadline (``status="hang"`` via ``SIGALRM``).

None of these stop the campaign.  Every finding is then shrunk with
the delta-debugging reducer — in-process when re-execution is safe
(fail/error), in throwaway single-worker pools when the failure kills
its process (crash/hang) — and the minimal repro ships in the finding
record, ready for ``repro fuzz replay`` or the regression corpus.

The campaign digest is a SHA-256 over the per-case result digests *in
index order*, which makes it independent of ``--jobs``: the
determinism property the CLI and ``tests/test_contracts.py`` assert.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..obs import metrics, span
from ..sim.sweep import SweepRunner
from .generators import DEFAULT_WEIGHTS, FuzzCase, generate_case
from .oracles import (DEFECT_ENV, DEFECT_N_THRESHOLD,
                      DEFECT_SYMBOLS_THRESHOLD, ORACLES, CaseResult,
                      _designer, execute_params, result_digest)
from .shrinker import ShrinkOutcome, ShrinkStats, shrink

#: Per-case wall-clock deadline (seconds) before a case counts as hung.
DEFAULT_TIMEOUT_S = 30.0

#: Cases shipped to the pool per scheduling round.
CHUNK = 128

#: Oracle-execution budget for shrinking one finding.
SHRINK_ATTEMPTS = 400

#: Shrink budget when every probe needs its own process (crash/hang).
ISOLATED_SHRINK_ATTEMPTS = 24


class _CaseDeadline(Exception):
    """Raised inside a worker when a case overruns its deadline."""


def _alarm_handler(signum, frame):  # pragma: no cover - signal context
    raise _CaseDeadline()


def _execute_with_deadline(oracle: str, params: dict,
                           timeout_s: float) -> dict:
    """Run one oracle under a best-effort in-worker deadline.

    Returns a JSON-able record with ``status`` in
    ``ok | fail | error | hang`` plus the result digest for ``ok`` and
    ``fail`` (deterministic outcomes; errors and hangs carry no digest
    because a traceback is not part of the replay contract).
    """
    use_alarm = (hasattr(signal, "SIGALRM") and timeout_s > 0
                 and signal.getsignal(signal.SIGALRM)
                 in (signal.SIG_DFL, signal.SIG_IGN, _alarm_handler))
    if use_alarm:
        signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        result = execute_params(oracle, params)
    except _CaseDeadline:
        return {"status": "hang",
                "detail": f"case exceeded its {timeout_s:g}s deadline"}
    except Exception as exc:
        head = traceback.format_exc().strip().splitlines()[-1]
        return {"status": "error",
                "detail": f"{type(exc).__name__}: {exc}"[:500],
                "traceback_tail": head[:500]}
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    record = result.as_dict()
    record["digest"] = result_digest(oracle, params, result)
    return record


def _run_case(case_dict: dict) -> dict:
    """Module-level pool worker: one case dict in, one record out."""
    case = FuzzCase.from_dict(case_dict)
    timeout_s = float(case_dict.get("timeout_s", DEFAULT_TIMEOUT_S))
    return _execute_with_deadline(case.oracle, dict(case.params), timeout_s)


def _probe_isolated(oracle: str, params: dict, timeout_s: float) -> str:
    """Execute params in a throwaway process; return the status.

    The crash/hang shrinking predicate: a candidate that kills or
    stalls its process still counts as failing, and neither outcome
    can be allowed to touch the campaign's own process or pool.
    """
    job = {"seed": 0, "index": 0, "oracle": oracle, "params": params,
           "timeout_s": timeout_s}
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(_run_case, job)
        try:
            record = future.result(timeout=timeout_s + 5.0)
        except BrokenProcessPool:
            return "crash"
        except FutureTimeout:
            for process in pool._processes.values():  # drain the hang
                process.terminate()
            return "hang"
    return str(record["status"])


@dataclass(frozen=True)
class Finding:
    """One journaled failure with its shrunk minimal repro."""

    case: FuzzCase
    status: str                       # fail | error | crash | hang
    detail: str
    observation: dict
    digest: str | None                # replay digest (fail only)
    shrunk: ShrinkOutcome | None

    def as_dict(self) -> dict:
        return {
            "case": self.case.as_dict(),
            "status": self.status,
            "detail": self.detail,
            "observation": dict(self.observation),
            "digest": self.digest,
            "shrunk": None if self.shrunk is None else self.shrunk.as_dict(),
        }

    @property
    def minimal_params(self) -> dict:
        """The shrunk params (the original ones when shrinking failed)."""
        if self.shrunk is None:
            return dict(self.case.params)
        return dict(self.shrunk.params)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's outcome — and only that.

    ``jobs`` and ``findings_path`` affect scheduling and reporting,
    never results: the campaign digest is pinned to ``(seed, budget,
    oracles)`` alone.
    """

    seed: int = 0
    budget: int = 200
    jobs: int | None = None
    oracles: tuple[str, ...] = tuple(DEFAULT_WEIGHTS)
    timeout_s: float = DEFAULT_TIMEOUT_S
    findings_path: str | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.budget < 0:
            raise ValueError("budget cannot be negative")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        unknown = sorted(set(self.oracles) - set(ORACLES))
        if unknown:
            raise ValueError(f"unknown oracles {unknown}; "
                             f"known: {sorted(ORACLES)}")
        if not self.oracles:
            raise ValueError("need at least one oracle")


@dataclass(frozen=True)
class CampaignReport:
    """The outcome of one campaign run."""

    config: CampaignConfig
    executed: int
    elapsed_s: float
    digest: str
    by_oracle: dict
    by_status: dict
    findings: tuple[Finding, ...]
    shrink: ShrinkStats

    @property
    def execs_per_s(self) -> float:
        return self.executed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "oracles": list(self.config.oracles),
            "executed": self.executed,
            "elapsed_s": round(self.elapsed_s, 3),
            "execs_per_s": round(self.execs_per_s, 2),
            "digest": self.digest,
            "by_oracle": dict(self.by_oracle),
            "by_status": dict(self.by_status),
            "findings": [finding.as_dict() for finding in self.findings],
            "shrink_steps": self.shrink.steps,
            "shrink_attempts": self.shrink.attempts,
        }


def _chunks(cases: Sequence[FuzzCase], size: int):
    for start in range(0, len(cases), size):
        yield cases[start:start + size]


def _shrink_finding(case: FuzzCase, status: str,
                    timeout_s: float) -> ShrinkOutcome | None:
    """Reduce one finding to a minimal repro, isolation as required.

    A ``fail``/``error`` predicate re-executes in this process (cheap,
    full :data:`SHRINK_ATTEMPTS` budget).  A ``crash``/``hang``
    predicate must probe in throwaway processes — expensive, so the
    budget drops to :data:`ISOLATED_SHRINK_ATTEMPTS`.
    """
    oracle = ORACLES[case.oracle]
    if status in ("fail", "error"):
        def still_fails(candidate: dict) -> bool:
            record = _execute_with_deadline(case.oracle, candidate,
                                            timeout_s)
            return record["status"] == status

        attempts = SHRINK_ATTEMPTS
    else:
        def still_fails(candidate: dict) -> bool:
            return _probe_isolated(case.oracle, candidate,
                                   min(timeout_s, 5.0)) == status

        attempts = ISOLATED_SHRINK_ATTEMPTS
    return shrink(dict(case.params), still_fails,
                  oracle.shrink_candidates, max_attempts=attempts)


def run_campaign(config: CampaignConfig,
                 progress: Callable[[str], None] | None = None
                 ) -> CampaignReport:
    """Run one seeded campaign to completion and shrink its findings."""
    emit = progress or (lambda message: None)
    runner = SweepRunner(jobs=config.jobs)
    cases = [generate_case(config.seed, index, config.oracles)
             for index in range(config.budget)]
    by_oracle: dict[str, int] = {}
    for case in cases:
        by_oracle[case.oracle] = by_oracle.get(case.oracle, 0) + 1
    by_status: dict[str, int] = {}
    findings: list[Finding] = []
    stats = ShrinkStats()
    case_digests: list[str] = []
    started = time.monotonic()
    with span("fuzz.campaign", seed=config.seed, budget=config.budget,
              jobs=config.jobs):
        if runner.parallel:
            # Forked workers, re-isolation pools included, inherit the
            # parent's designer instead of each building their own.
            _designer()
        executed = 0
        for chunk in _chunks(cases, CHUNK):
            jobs = [{**case.as_dict(), "timeout_s": config.timeout_s}
                    for case in chunk]
            guarded = runner.map_guarded(_run_case, jobs)
            for case, (channel, value) in zip(chunk, guarded):
                executed += 1
                if channel == "crash":
                    record = {"status": "crash", "detail": str(value)}
                else:
                    record = value
                status = record["status"]
                by_status[status] = by_status.get(status, 0) + 1
                case_digests.append(record.get("digest")
                                    or f"{status}:{case.index}")
                if status == "ok":
                    continue
                emit(f"finding: case {case.index} [{case.oracle}] "
                     f"{status}: {record.get('detail', '')}")
                shrunk = _shrink_finding(case, status, config.timeout_s)
                if shrunk is not None:
                    stats.add(case.oracle, shrunk)
                findings.append(Finding(
                    case=case, status=status,
                    detail=str(record.get("detail", "")),
                    observation=dict(record.get("observation", {})),
                    digest=record.get("digest"), shrunk=shrunk))
            emit(f"{executed}/{config.budget} cases, "
                 f"{len(findings)} findings")
        elapsed = time.monotonic() - started
        registry = metrics()
        for oracle, count in by_oracle.items():
            registry.counter(
                "repro_fuzz_cases_total",
                help="fuzz cases executed").inc(count, oracle=oracle)
        for status, count in by_status.items():
            if status != "ok":
                registry.counter(
                    "repro_fuzz_findings_total",
                    help="fuzz findings journaled").inc(count, status=status)
        if stats.steps:
            registry.counter(
                "repro_fuzz_shrink_steps_total",
                help="adopted shrink reductions").inc(stats.steps)
    digest = hashlib.sha256(
        "\n".join(case_digests).encode()).hexdigest()
    report = CampaignReport(config=config, executed=executed,
                            elapsed_s=elapsed, digest=digest,
                            by_oracle=by_oracle, by_status=by_status,
                            findings=tuple(findings), shrink=stats)
    if config.findings_path and findings:
        write_findings(Path(config.findings_path), report)
    return report


def write_findings(path: Path, report: CampaignReport) -> None:
    """Journal a campaign's findings as one JSONL record per finding."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for finding in report.findings:
            handle.write(json.dumps(finding.as_dict(), sort_keys=True)
                         + "\n")


def replay_params(oracle: str, params: dict) -> tuple[CaseResult, str]:
    """Re-execute a repro and return its result plus replay digest."""
    result = execute_params(oracle, params)
    return result, result_digest(oracle, params, result)


@dataclass(frozen=True)
class SelfTestReport:
    """What ``repro fuzz run --self-test`` observed."""

    found: bool
    shrunk_minimal: bool
    replay_identical: bool
    minimal_params: dict
    shrink_steps: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.found and self.shrunk_minimal and self.replay_identical


def self_test(jobs: int | None = None, budget: int = 64,
              progress: Callable[[str], None] | None = None
              ) -> SelfTestReport:
    """Prove the harness end-to-end by hunting a known synthetic defect.

    Arms the ``codec-misdecode`` defect (an off-by-one decode rank that
    triggers only when ``n >= 12`` and ``n_symbols >= 24``), runs a
    codec-only campaign, and asserts the machinery (a) finds it, (b)
    shrinks it to exactly the trigger thresholds, and (c) replays the
    minimal repro bit-identically.
    """
    previous = os.environ.get(DEFECT_ENV)
    os.environ[DEFECT_ENV] = "codec-misdecode"
    try:
        report = run_campaign(
            CampaignConfig(seed=0, budget=budget, jobs=jobs,
                           oracles=("codec",)),
            progress=progress)
        hits = [finding for finding in report.findings
                if finding.status == "fail"]
        if not hits:
            return SelfTestReport(False, False, False, {}, 0,
                                  "campaign produced no findings — the "
                                  "injected defect went undetected")
        finding = hits[0]
        minimal = finding.minimal_params
        shrunk_ok = (int(minimal["n"]) == DEFECT_N_THRESHOLD
                     and int(minimal["n_symbols"])
                     == DEFECT_SYMBOLS_THRESHOLD)
        result, digest = replay_params("codec", minimal)
        again, digest_again = replay_params("codec", minimal)
        replay_ok = (result.status == "fail"
                     and digest == digest_again
                     and again.as_dict() == result.as_dict())
        steps = finding.shrunk.steps if finding.shrunk else 0
        detail = (f"{len(hits)} findings; minimal repro "
                  f"n={minimal.get('n')} n_symbols="
                  f"{minimal.get('n_symbols')} after {steps} shrink steps")
        return SelfTestReport(True, shrunk_ok, replay_ok,
                              minimal, steps, detail)
    finally:
        if previous is None:
            os.environ.pop(DEFECT_ENV, None)
        else:
            os.environ[DEFECT_ENV] = previous
