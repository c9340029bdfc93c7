"""Perf-floor fixtures and the one timing helper.

Every test here asserts a speed floor or a determinism contract and
writes no file: the end-to-end performance record is perfbench
(``python3 perfbench/run.py``).  Timings go through the ``best_of``
fixture: warmup calls first, then the best of ``k`` timed calls, so a
single cold run can never pass or fail a floor on its own.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.core import SystemConfig


@pytest.fixture(scope="session")
def config() -> SystemConfig:
    return SystemConfig()


@pytest.fixture(scope="session")
def best_of():
    """Best-of-``k`` wall time of ``func`` after ``warmup`` untimed calls.

    ``setup``, when given, builds ``func``'s one argument afresh before
    every call, outside the timed section.  Returns ``(best_s, result)``
    with the result of the last call.
    """
    def run(func, *, k=3, warmup=1, setup=None):
        best, result = math.inf, None
        for i in range(warmup + k):
            args = () if setup is None else (setup(),)
            t0 = time.perf_counter()
            result = func(*args)
            elapsed = time.perf_counter() - t0
            if i >= warmup:
                best = min(best, elapsed)
        return best, result

    return run
