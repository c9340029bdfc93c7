"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scenario --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the program under test is imported from ``src/``
beside this directory, never from an installed copy.  With ``--trace
0`` the run measures the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it runs one unit of work untraced and one traced
and reports the per-layer metrics instead.  Human-readable tables come
first; the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--workload all`` runs each workload in its own process, one after the
other.  The exit code is 0 only when every correctness gate passed.
Workloads, metrics and seeds are documented in ``README.md`` beside
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Not used while the benchmark was tuned: confirm a claimed gain on it.
HELD_OUT_SEED = 90017
#: The ``PYTHONHASHSEED`` every measured process runs under.
HASH_SEED = "0"

#: Which end-to-end metric, on which workload, each layer metric should
#: move (longest matching name prefix wins).
MOVES = {
    "core.designer.build": "throughput on fuzz and fleet, setup_s on serve",
    "core.designer.design": "throughput on scenario, p50_ms on serve",
    "core.designer.miss_frac": "throughput on scenario, p50_ms on serve",
    "des.kernel": "throughput on fleet and scenario",
    "des.journal.events": "nothing: a speed-only change keeps it identical",
    "net.": "throughput on fleet",
    "lighting.": "throughput on scenario",
    "sim.linkmodel.": "throughput on scenario",
    "sim.sweep.": "throughput on fuzz",
    "scenarios.": "throughput on scenario",
    "fuzz.": "throughput on fuzz",
    "serve.": "p50_ms and throughput on serve",
    "serve.loadgen.": "nothing: how far the driver fell behind schedule",
    "trace.": "nothing: the cost of tracing itself",
}


def moves(name: str) -> str:
    """The end-to-end metric a layer metric is expected to move."""
    prefix = max((p for p in MOVES if name.startswith(p)), key=len,
                 default=None)
    return MOVES[prefix] if prefix is not None else ""


def load_spec(root: Path = ROOT) -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((root / "BENCHMARK.json").read_text())


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  " + "  ".join(cell.ljust(w)
                                      for cell, w in zip(row, widths))
                     for row in rows)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"held-out seed for confirming a claim: {HELD_OUT_SEED}")
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {package}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload: each measures its own peak RSS, and
        # a traced run installs its wrappers once per process.
        codes = [subprocess.call([sys.executable, __file__, "--workload",
                                  name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)])
                 for name in names]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {package}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds:g} s measured'}")
    if args.trace:
        wanted = spec["per_layer"]
        unknown = sorted(set(outcome.layers) - {m["name"] for m in wanted})
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: "
                           f"{unknown}")
        values = {m["name"]: outcome.layers.get(m["name"], 0.0)
                  for m in wanted}
        print(_table([("layer metric", "value", "unit", "should move")]
                     + [(m["name"], f"{values[m['name']]:.6g}", m["unit"],
                         moves(m["name"])) for m in wanted]))
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: outcome.metrics[m["name"]] for m in wanted}
        print(_table([("metric", "value", "unit")]
                     + [(m["name"], f"{values[m['name']]:.6g}", m["unit"])
                        for m in wanted]
                     + [(name, f"{value:.6g}", unit)
                        for name, (value, unit) in outcome.figures.items()]))
    print(_table([("gate", "result")]
                 + [(gate, "pass" if ok else "FAIL")
                    for gate, ok in outcome.gates.items()]))
    for label, digest in outcome.digests.items():
        print(f"  digest {label}: {digest}")
    for note in outcome.notes:
        print(note)
    correct = all(outcome.gates.values())
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart with string hashing pinned, for this process and every
        # child: each hash seed lays out str-keyed dicts differently,
        # and that alone moved the fleet's median time by about ±10%
        # between otherwise identical runs.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
