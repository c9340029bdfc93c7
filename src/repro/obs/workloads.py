"""The built-in workload set behind ``repro bench run``.

Each workload is a zero-argument callable exercising one hot path of
the reproduction — the AMPPM designer, the symbol codec, the framing
path, the batched Monte-Carlo engine and the DES multicell simulator —
sized to finish in well under a second so a full gated run stays
interactive.  Expensive setup that is not the thing being measured
(scheme designs, transmitter construction) happens once while the
registry is built, outside the timed region.

Workload names are the keys of ``BENCH_HISTORY.jsonl``: renaming one
orphans its history, so treat them as a stable public surface.

Imports are deliberately local to :func:`bench_workloads` — this
module lives in ``repro.obs``, which the simulation layers themselves
import, and module-level imports of ``repro.sim``/``repro.net`` would
be circular.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..core.params import SystemConfig


def bench_workloads(config: SystemConfig | None = None
                    ) -> Dict[str, Callable[[], Any]]:
    """Name -> zero-arg callable, in the order ``bench run`` executes."""
    import numpy as np

    from ..core import (
        AmppmDesigner,
        SlotErrorModel,
        SymbolPattern,
        decode_symbol,
        encode_symbol,
        slope_walk_envelope,
    )
    from ..link import Transmitter
    from ..net.multicell import default_network
    from ..schemes import AmppmScheme
    from ..sim.batch import BatchMonteCarloValidator

    config = config if config is not None else SystemConfig()
    design = AmppmScheme(config).design(0.5)
    transmitter = Transmitter(config)
    payload = bytes(range(256)) * 2
    validator = BatchMonteCarloValidator(config=config)
    pattern = SymbolPattern(30, 15)
    errors = SlotErrorModel(2e-3, 2e-3)

    def design_envelope():
        designer = AmppmDesigner(config)
        return slope_walk_envelope(designer.candidates,
                                   SlotErrorModel(9e-5, 8e-5))

    def codec_roundtrip():
        value = 0
        for i in range(400):
            codeword = encode_symbol(2**40 + i, 50, 25)
            value ^= decode_symbol(codeword, 25)
        return value

    def frame_encode():
        return transmitter.encode_frame(payload, design)

    def batch_ser():
        return validator.symbol_error_rate(
            pattern, errors, np.random.default_rng(7), n_symbols=20_000)

    def des_multicell():
        return default_network(config, rows=2, cols=2, n_nodes=3,
                               seed=29).run(5.0)

    def des_fleet():
        return default_network(config, rows=8, cols=8, n_nodes=32,
                               seed=11, regions=4).run(2.0)

    def serve_adapt():
        import asyncio

        from ..serve import ControlPlane, LoadProfile, ServeConfig, \
            run_loadgen

        async def fleet():
            plane = ControlPlane(ServeConfig(), config=config)
            await plane.start()
            try:
                return await run_loadgen(
                    plane.host, plane.port,
                    LoadProfile(clients=16, requests_per_client=4, seed=3))
            finally:
                await plane.stop()

        return asyncio.run(fleet())

    def scenario_smoke():
        from ..scenarios import SMOKE_SCENARIO, ScenarioRunner, \
            shipped_scenarios

        run = ScenarioRunner(shipped_scenarios()[SMOKE_SCENARIO],
                             config=config).run()
        assert run.report.passed, run.report.violations
        return run.report.journal_digest

    def fuzz_smoke():
        from ..fuzz import CampaignConfig, run_campaign

        report = run_campaign(CampaignConfig(
            seed=0, budget=24, oracles=("codec", "roundtrip", "design")))
        assert report.clean, [f.detail for f in report.findings]
        return report.digest

    return {
        "design.envelope": design_envelope,
        "codec.roundtrip": codec_roundtrip,
        "frame.encode": frame_encode,
        "batch.ser": batch_ser,
        "des.multicell": des_multicell,
        "des.fleet": des_fleet,
        "serve.adapt": serve_adapt,
        "scenario.smoke": scenario_smoke,
        "fuzz.smoke": fuzz_smoke,
    }
