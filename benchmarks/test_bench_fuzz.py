"""Bench: fuzz-campaign throughput.

Times a seeded in-process campaign over the four cheap oracles against
its execs/s floor, and re-checks the determinism contract (two
same-seed campaigns, identical digests, zero findings).  Tier-1 runs
the full six-oracle mix as the ``fuzz-300`` row of
``tests/test_contracts.py``.
"""

import pytest

from repro.fuzz import CampaignConfig, run_campaign

ORACLES = ("codec", "roundtrip", "design", "serve")
BUDGET = 120


@pytest.mark.perf
def test_bench_fuzz():
    config = CampaignConfig(seed=0, budget=BUDGET, oracles=ORACLES)
    first = run_campaign(config)
    assert first.clean, [f.detail for f in first.findings]
    assert first.executed == BUDGET

    second = run_campaign(config)
    assert second.clean
    assert second.digest == first.digest
    print(f"\nfuzz: {BUDGET}-case campaign at "
          f"{first.execs_per_s:.0f} execs/s")

    # The floor: the cheap-oracle mix must stay fast enough that a
    # campaign of hundreds of cases, like tier-1's ``fuzz-300`` row,
    # finishes in seconds.
    assert first.execs_per_s > 10.0
