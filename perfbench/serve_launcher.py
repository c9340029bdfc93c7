"""Run the ``repro serve`` daemon with the benchmark's layer wrappers.

The traced serve run starts this script instead of ``python -m repro
serve``: it installs the span wrappers from ``layers.py``, serves with
the default :class:`~repro.serve.ServeConfig` on an ephemeral port
under a telemetry session, and after the SIGTERM drain writes the
daemon-side layer figures (JSON) and a validated Chrome trace.

    PYTHONPATH=src python3 perfbench/serve_launcher.py \
        --layers .perfbench/serve-layers.json \
        --trace .perfbench/trace-serve.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers", required=True,
                        help="where to write the daemon's layer figures")
    parser.add_argument("--trace", required=True,
                        help="where to write the Chrome trace")
    args = parser.parse_args(argv)

    from repro.obs import telemetry_session
    from repro.serve import ServeConfig
    from repro.serve.server import run_daemon

    layers.install()
    with telemetry_session() as session:
        asyncio.run(run_daemon(ServeConfig(), registry=session.registry))
    events = layers.write_trace(session, args.trace)
    Path(args.layers).write_text(json.dumps({
        "layers": layers.serve_layer_metrics(session),
        "table": layers.self_time_table(session),
        "events": events,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
