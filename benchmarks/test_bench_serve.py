"""Bench: the serving control plane.

Races the memoised adapt path (a designer composes each dimming
bucket's design once, then answers from its memo) against the
one-composition-per-request baseline a stateless handler would pay,
and pins the speedup floor the designer's memo gives (>= 3x): the
daemon answers each request on arrival, so this memo is all the
dedup it does.  A second bench runs the real daemon end to end under
the seeded synthetic fleet and checks that every request is answered.
"""

import asyncio

import pytest

from repro.core import AmppmDesigner
from repro.serve import ControlPlane, LoadProfile, ServeConfig, run_loadgen

#: Eight distinct dimming buckets, each asked for many times — the
#: shape a fleet of lighting controllers produces (few setpoints, many
#: luminaires).
LEVELS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
REQUESTS = LEVELS * 30


@pytest.mark.perf
def test_bench_serve_memo(best_of, config):
    """Memoised designs vs one composition per request: >= 3x.

    Every call starts from a freshly built designer, built outside the
    timed section, so the memoised path pays one composition per
    unique bucket and the baseline one per request.
    """
    tau = config.tau_perceived

    def per_request(designer):
        # The stateless-handler baseline: every request composes its
        # bucket's design from scratch.
        return [designer._compose_at(designer.clamp(
                    designer.memo_key(d) * tau)) for d in REQUESTS]

    def memoised(designer):
        return [designer.design(d).super_symbol for d in REQUESTS]

    def fresh():
        return AmppmDesigner(config)

    t_per_request, direct = best_of(per_request, setup=fresh)
    t_memoised, designs = best_of(memoised, setup=fresh)

    # Same designs either way (the parity half of the contract).
    assert len(designs) == len(direct) == len(REQUESTS)
    assert designs == direct

    speedup = t_per_request / t_memoised if t_memoised > 0 else float("inf")
    print(f"\nserve memo: {len(REQUESTS)} requests over {len(LEVELS)} "
          f"buckets, one composition per request "
          f"{t_per_request * 1e3:.0f} ms, memoised "
          f"{t_memoised * 1e3:.0f} ms -> {speedup:.1f}x")

    # The acceptance floor for the memo's dedup.
    assert speedup >= 3.0


@pytest.mark.perf
def test_bench_serve_adapt(config):
    """The daemon end to end under the synthetic fleet."""
    profile = LoadProfile(clients=40, requests_per_client=5, seed=17)

    async def fleet():
        plane = ControlPlane(ServeConfig(), config=config)
        await plane.start()
        try:
            return await run_loadgen(plane.host, plane.port, profile)
        finally:
            await plane.stop()

    report = asyncio.run(fleet())

    assert report.sent == profile.total_requests
    assert report.dropped_connections == 0
    assert report.errors == 0
    print(f"\nserve fleet: {report.ok}/{report.sent} ok at "
          f"{report.throughput_rps:.0f} adapt/s, "
          f"p95 {report.latency_percentile(95) * 1e3:.1f} ms")
