"""Bench: telemetry overhead on the batched Monte-Carlo hot path.

The permanent instrumentation in :mod:`repro.sim.batch` is only
acceptable if it is effectively free.  This bench times the batched
SER validator with telemetry off (the default null path) and under an
active session in interleaved off/on pairs, flipping which side runs
first each pair, so a slow spell on the host lands on both sides
instead of on one block.  It asserts the identical estimate both ways
and guards the median per-pair on/off ratio at < 5% overhead.  The
overhead is clamped at zero: timing jitter can make the instrumented
run measure *faster* than the null path, and a negative "overhead" is
noise, not a speedup.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core.errormodel import SlotErrorModel
from repro.core.symbols import SymbolPattern
from repro.obs import render_prometheus, telemetry_session
from repro.sim.batch import BatchMonteCarloValidator

N_SYMBOLS = 50_000
PATTERN = SymbolPattern(30, 15)
ERRORS = SlotErrorModel(2e-3, 2e-3)
PAIRS = 15


def _run_ser(validator):
    return validator.symbol_error_rate(PATTERN, ERRORS,
                                       np.random.default_rng(7),
                                       n_symbols=N_SYMBOLS)


def _timed(func):
    t0 = time.perf_counter()
    result = func()
    return time.perf_counter() - t0, result


@pytest.mark.perf
def test_bench_obs_overhead(config):
    validator = BatchMonteCarloValidator(config=config)

    def off():
        return _run_ser(validator)

    def on():
        with telemetry_session() as session:
            estimate = _run_ser(validator)
        return estimate, session

    off(), on()  # warm up each side once
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            t_on, (traced_estimate, session) = _timed(on)
            t_off, baseline = _timed(off)
        else:
            t_off, baseline = _timed(off)
            t_on, (traced_estimate, session) = _timed(on)
        ratios.append(t_on / t_off)

    # Telemetry observes — the estimate must be bit-identical either way.
    assert traced_estimate == baseline
    registry = session.registry
    assert (registry.counter("repro_batch_symbols_total").value()
            == N_SYMBOLS)
    assert "repro_batch_symbols_total" in render_prometheus(registry)

    # Clamp at zero: pair jitter can dip below the null path.
    overhead = max(0.0, statistics.median(ratios) - 1.0)
    print(f"\nobs: batched SER {N_SYMBOLS} symbols — median on/off ratio "
          f"over {PAIRS} pairs {statistics.median(ratios):.3f} "
          f"({overhead * 100:+.1f}%)")

    # The guard: an enabled session must cost < 5% on the hot path.
    assert overhead < 0.05, (
        f"telemetry overhead {overhead * 100:.1f}% exceeds the 5% budget")
