"""Bench: the vectorized Monte-Carlo engine vs the scalar reference.

Pins the acceptance criterion of the batch engine: a 50k-symbol SER run
must be at least an order of magnitude faster through
:class:`repro.sim.BatchMonteCarloValidator` than through the scalar
:class:`repro.sim.MonteCarloValidator`, while producing bit-identical
counts under the same seed.
"""

import numpy as np
import pytest

from repro.core import SlotErrorModel, SymbolPattern
from repro.sim import BatchMonteCarloValidator, MonteCarloValidator

N_SYMBOLS = 50_000
PATTERN = SymbolPattern(30, 15)
ERRORS = SlotErrorModel(2e-3, 2e-3)
SEED = 21


@pytest.mark.perf
def test_bench_batch_ser_speedup(best_of, config):
    scalar = MonteCarloValidator(config)
    batch = BatchMonteCarloValidator(config)

    def run(validator, n_symbols=N_SYMBOLS, seed=SEED):
        return validator.symbol_error_rate(PATTERN, ERRORS,
                                           np.random.default_rng(seed),
                                           n_symbols=n_symbols)

    # Warm the scalar path on a short run: the first NumPy dispatch
    # pays one-off setup costs that would otherwise masquerade as
    # engine time, and a full-length warmup would double the slowest
    # call of the suite.
    run(scalar, n_symbols=500, seed=0)
    t_scalar, scalar_estimate = best_of(lambda: run(scalar), k=1, warmup=0)
    t_batch, batch_estimate = best_of(lambda: run(batch))
    print(f"\n{N_SYMBOLS} symbols S({PATTERN.n_slots},{PATTERN.n_on}): "
          f"scalar {t_scalar * 1e3:.0f} ms, batch {t_batch * 1e3:.1f} ms "
          f"({t_scalar / t_batch:.1f}x)")

    # Bit-identical, not merely statistically compatible.
    assert batch_estimate == scalar_estimate
    assert batch_estimate.consistent_with_analytic()
    # The acceptance floor: at least 10x on the 50k-symbol run.
    assert t_scalar >= 10.0 * t_batch
