"""Delta-debugging reduction of failing fuzz cases to minimal repros.

A failing case is a JSON-able ``params`` dict; an oracle supplies a
*candidate pass* — a deterministic generator of one-step reductions of
those params (smaller integers, rounder floats, shorter lists).  The
greedy loop of :func:`shrink` repeatedly adopts the first candidate
that still fails, restarting the pass from the new current case, and
stops at a *fixed point*: a case none of whose candidates fails.

Two properties the test-suite pins:

* **Idempotence** — shrinking a minimal case is a no-op (zero steps),
  because the greedy loop's stopping condition is exactly minimality
  under the candidate pass.
* **Determinism** — candidates are generated in a fixed order and the
  first still-failing one wins, so the same failing case always
  reduces to the same minimal repro.

The building-block generators (:func:`shrink_int`, :func:`shrink_float`,
:func:`shrink_list`) are shared by every oracle's candidate pass; they
move values toward a declared floor by jumping there first, then
climbing back toward the value in halving steps — the classic
bisection ladder, so a threshold-triggered defect shrinks to its exact
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence


def shrink_int(value: int, lo: int) -> Iterator[int]:
    """Candidate reductions of ``value`` toward the floor ``lo``.

    Yields the floor itself, then the bisection ladder ``value - d/2,
    value - d/4, …, value - 1`` for ``d = value - lo`` — strictly
    increasing, all strictly below ``value``.  The greedy loop adopts
    the smallest candidate that still fails, so a defect guarded by
    ``value >= T`` shrinks to exactly ``T``, each step at least halving
    the distance left to it.
    """
    if value <= lo:
        return
    yield lo
    distance = value - lo
    while distance > 1:
        distance //= 2
        yield value - distance


def shrink_float(value: float, target: float,
                 decimals: Sequence[int] = (1, 2, 3)) -> Iterator[float]:
    """Candidate reductions of a float: the target, then roundings."""
    if value != target:
        yield target
    seen = {target, value}
    for nd in decimals:
        candidate = round(value, nd)
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


def shrink_list(items: Sequence[Any]) -> Iterator[list]:
    """Candidate reductions of a list: halves away, then one element away.

    The ddmin-style coarse-to-fine order: the empty list, then each
    half, then every single-element deletion.  Candidates are always
    strictly shorter than the input.
    """
    n = len(items)
    if n == 0:
        return
    yield []
    if n >= 2:
        half = n // 2
        yield list(items[half:])
        yield list(items[:half])
    if n >= 2:
        for i in range(n):
            yield [item for j, item in enumerate(items) if j != i]


@dataclass(frozen=True)
class ShrinkOutcome:
    """The result of one :func:`shrink` run."""

    params: dict
    steps: int
    attempts: int
    exhausted: bool = False

    def as_dict(self) -> dict:
        return {"params": self.params, "steps": self.steps,
                "attempts": self.attempts, "exhausted": self.exhausted}


@dataclass
class _Budget:
    remaining: int

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def shrink(params: dict,
           still_fails: Callable[[dict], bool],
           candidates: Callable[[dict], Iterable[dict]],
           max_attempts: int = 400) -> ShrinkOutcome:
    """Greedily reduce ``params`` while ``still_fails`` holds.

    ``candidates(current)`` yields one-step reductions in preference
    order; the first that still fails becomes the new current and the
    pass restarts.  Terminates when a full pass finds no failing
    candidate (the fixed point) or when ``max_attempts`` oracle
    executions have been spent (``exhausted=True`` — the repro is
    still failing, just maybe not minimal).

    ``still_fails`` is never called on ``params`` itself: the caller
    asserts the starting case fails.
    """
    if max_attempts < 0:
        raise ValueError("max_attempts cannot be negative")
    current = dict(params)
    steps = 0
    budget = _Budget(max_attempts)
    attempts_total = 0
    progress = True
    while progress:
        progress = False
        for candidate in candidates(current):
            if candidate == current:
                continue
            if not budget.spend():
                return ShrinkOutcome(current, steps,
                                     attempts_total, exhausted=True)
            attempts_total += 1
            if still_fails(candidate):
                current = dict(candidate)
                steps += 1
                progress = True
                break
    return ShrinkOutcome(current, steps, attempts_total)


@dataclass
class ShrinkStats:
    """Mutable tally a campaign folds per-finding shrink work into."""

    findings: int = 0
    steps: int = 0
    attempts: int = 0
    by_oracle: dict = field(default_factory=dict)

    def add(self, oracle: str, outcome: ShrinkOutcome) -> None:
        self.findings += 1
        self.steps += outcome.steps
        self.attempts += outcome.attempts
        self.by_oracle[oracle] = self.by_oracle.get(oracle, 0) + 1
