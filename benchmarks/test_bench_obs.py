"""Bench: telemetry overhead on the batched Monte-Carlo hot path.

The permanent instrumentation in :mod:`repro.sim.batch` is only
acceptable if it is effectively free.  This bench times the batched
SER validator with telemetry off (the default null path) and again
under an active session, both best-of-k after a warmup, asserts the
identical estimate both ways, and guards the overhead ratio at < 5%.
The ratio is clamped at zero: timing jitter can make the instrumented
run measure *faster* than the null path, and a negative "overhead" is
noise, not a speedup.
"""

import numpy as np
import pytest

from repro.core.errormodel import SlotErrorModel
from repro.core.symbols import SymbolPattern
from repro.obs import render_prometheus, telemetry_session
from repro.sim.batch import BatchMonteCarloValidator

N_SYMBOLS = 50_000
PATTERN = SymbolPattern(30, 15)
ERRORS = SlotErrorModel(2e-3, 2e-3)
REPEATS = 5


def _run_ser(validator):
    return validator.symbol_error_rate(PATTERN, ERRORS,
                                       np.random.default_rng(7),
                                       n_symbols=N_SYMBOLS)


@pytest.mark.perf
def test_bench_obs_overhead(best_of, config):
    validator = BatchMonteCarloValidator(config=config)

    def traced():
        with telemetry_session() as session:
            estimate = _run_ser(validator)
        return estimate, session

    t_off, baseline = best_of(lambda: _run_ser(validator), k=REPEATS)
    t_on, (traced_estimate, session) = best_of(traced, k=REPEATS)

    # Telemetry observes — the estimate must be bit-identical either way.
    assert traced_estimate == baseline
    registry = session.registry
    assert (registry.counter("repro_batch_symbols_total").value()
            == N_SYMBOLS)
    assert "repro_batch_symbols_total" in render_prometheus(registry)

    # Clamp at zero: min-of-k jitter can dip below the null path.
    overhead = max(0.0, t_on / t_off - 1.0)
    print(f"\nobs: batched SER {N_SYMBOLS} symbols — off {t_off * 1e3:.1f} ms,"
          f" on {t_on * 1e3:.1f} ms ({overhead * 100:+.1f}%)")

    # The guard: an enabled session must cost < 5% on the hot path.
    assert overhead < 0.05, (
        f"telemetry overhead {overhead * 100:.1f}% exceeds the 5% budget")
