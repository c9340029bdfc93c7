"""Bench: the serving control plane.

Races the memoised adapt path (a designer composes each dimming
bucket's design once, then answers from its memo) against the
one-composition-per-request baseline a stateless handler would pay,
and pins the speedup floor the designer's memo gives (>= 3x): the
daemon answers each request on arrival, so this memo is all the
dedup it does.  A second bench runs the real daemon end to end under
the seeded synthetic fleet and records throughput and tail latency.  Everything lands in
``BENCH_serve.json`` at the repository root, and the timed sections
flow into ``BENCH_HISTORY.jsonl`` through the shared bench fixture.
"""

import asyncio
import json
import time
from pathlib import Path

import pytest

from repro.core import AmppmDesigner
from repro.serve import ControlPlane, LoadProfile, ServeConfig, run_loadgen

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Eight distinct dimming buckets, each asked for many times — the
#: shape a fleet of lighting controllers produces (few setpoints, many
#: luminaires).
LEVELS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
REQUESTS = LEVELS * 30


@pytest.mark.perf
def test_bench_serve_coalescing(bench, config):
    """Memoised designs vs one composition per request: >= 3x.

    Both paths start from a freshly built designer, built outside the
    timed section, so the memoised path pays one composition per
    unique bucket and the baseline one per request.
    """
    tau = config.tau_perceived

    def uncoalesced(designer):
        # The stateless-handler baseline: every request composes its
        # bucket's design from scratch.
        return [designer._compose_at(designer.clamp(
                    designer.memo_key(d) * tau)) for d in REQUESTS]

    def coalesced(designer):
        return [designer.design(d).super_symbol for d in REQUESTS]

    def best_of(func, k=3):
        times, result = [], None
        for _ in range(k):
            designer = AmppmDesigner(config)
            t0 = time.perf_counter()
            result = func(designer)
            times.append(time.perf_counter() - t0)
        return min(times), result

    t_uncoalesced, direct = best_of(uncoalesced)
    t_coalesced, batched = best_of(coalesced)
    # One freshly built designer per timed call (1 warmup + 3 repeats).
    fresh = [AmppmDesigner(config) for _ in range(4)]
    bench(lambda: coalesced(fresh.pop()), name="suite.serve.coalesce",
          repeats=3, warmup=1)

    # Same designs either way (the parity half of the contract).
    assert len(batched) == len(direct) == len(REQUESTS)
    assert batched == direct

    speedup = t_uncoalesced / t_coalesced if t_coalesced > 0 else float("inf")
    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    payload["coalescing"] = {
        "requests": len(REQUESTS),
        "unique_buckets": len(LEVELS),
        "uncoalesced_s": round(t_uncoalesced, 4),
        "coalesced_s": round(t_coalesced, 4),
        "speedup": round(speedup, 2),
        "floor": 3.0,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nserve coalescing: {len(REQUESTS)} requests, "
          f"uncoalesced {t_uncoalesced * 1e3:.0f} ms, "
          f"coalesced {t_coalesced * 1e3:.0f} ms -> {speedup:.1f}x")

    # The acceptance floor for the memo's dedup.
    assert speedup >= 3.0


@pytest.mark.perf
def test_bench_serve_adapt(bench, config):
    """The daemon end to end under the synthetic fleet."""
    profile = LoadProfile(clients=40, requests_per_client=5, seed=17)

    def fleet():
        async def run():
            plane = ControlPlane(ServeConfig(), config=config)
            await plane.start()
            try:
                return await run_loadgen(plane.host, plane.port, profile)
            finally:
                await plane.stop()

        return asyncio.run(run())

    report = bench(fleet)

    assert report.sent == profile.total_requests
    assert report.dropped_connections == 0
    assert report.errors == 0

    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    payload["fleet"] = {
        "clients": profile.clients,
        "requests_per_client": profile.requests_per_client,
        **{k: (round(v, 3) if isinstance(v, float) else v)
           for k, v in report.summary().items()},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nserve fleet: {report.ok}/{report.sent} ok at "
          f"{report.throughput_rps:.0f} adapt/s, "
          f"p95 {report.latency_percentile(95) * 1e3:.1f} ms")
