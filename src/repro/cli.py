"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show every registered experiment id.
* ``run <id> [...]`` — regenerate experiments and render them as text;
  ``--csv DIR`` / ``--json DIR`` additionally export machine-readable
  files (plus a ``<id>.manifest.json`` provenance sidecar per result),
  ``--jobs N`` fans sweep grids across worker processes,
  ``--telemetry FILE`` records the whole invocation — metrics, spans,
  manifests — as JSON lines for ``repro stats``, ``--trace FILE``
  exports the span tree as Chrome trace-event JSON (open it in
  ``chrome://tracing`` or https://ui.perfetto.dev), and ``--profile``
  prints the inclusive/exclusive hot-path table afterwards.
* ``design <dimming>`` — ask the AMPPM designer for the best
  super-symbol at a dimming level and print its properties.
* ``journal`` — run a multicell network scenario and show its event
  journal (counters + tail); ``--jsonl FILE`` exports the full trace.
* ``chaos`` — run one fault schedule against the supervised link and
  print its resilience report (and the determinism digest).
* ``scenario list|show|run`` — the trace-driven scenario engine:
  enumerate the shipped scenarios, print one as its versioned JSON
  document, or compile/run/judge one (``--regions`` shards the DES,
  ``--report FILE`` writes the ScenarioReport + RunManifest JSON
  artifact, ``--file`` reads a scenario document instead of a shipped
  name; exit code 1 when the run misses its SLOs).
* ``fuzz run`` — a seeded, budgeted differential-fuzzing campaign over
  the modulation/scenario/fault space with crash isolation and
  automatic failure shrinking (``--self-test`` hunts a known injected
  defect instead); ``fuzz replay`` re-executes repro artifacts and
  checks bit-identical digests; ``fuzz corpus`` lists or extends the
  regression corpus under ``tests/fuzz/corpus/``.
* ``stats <file>`` — render a ``--telemetry`` JSONL dump: counters,
  gauges, histograms (with p50/p95/p99), the span tree and run
  manifests (``--prometheus`` emits the metrics in Prometheus text
  format, ``--profile`` the hot-path table aggregated from the spans).
* ``info`` — the active configuration and derived constants.

Error contract: every subcommand reports bad arguments on ``stderr``
and returns exit code 2; ``stdout`` carries results only.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from .core import AmppmDesigner, SystemConfig
from .experiments import experiment_ids, run_experiment
from .obs import (
    ProfileSession,
    read_telemetry_jsonl,
    render_prometheus,
    render_text,
    telemetry_session,
    write_chrome_trace,
    write_manifest,
    write_telemetry_jsonl,
)
from .sim.export import write_figure_csv, write_json, write_table_csv
from .sim.results import FigureResult


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartVLC (CoNEXT 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_cmd = sub.add_parser("run", help="regenerate experiments")
    run_cmd.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (default: all)")
    run_cmd.add_argument("--csv", metavar="DIR", default=None,
                         help="also export CSV files into DIR")
    run_cmd.add_argument("--json", metavar="DIR", default=None,
                         help="also export JSON files into DIR")
    run_cmd.add_argument("--jobs", metavar="N", type=int, default=None,
                         help="fan sweep grids across up to N worker "
                              "processes (default: in-process)")
    run_cmd.add_argument("--telemetry", metavar="FILE", default=None,
                         help="record metrics/spans/manifests for the whole "
                              "invocation as JSON lines into FILE")
    run_cmd.add_argument("--trace", metavar="FILE", default=None,
                         help="export the invocation's span tree as Chrome "
                              "trace-event JSON into FILE (open in "
                              "chrome://tracing or Perfetto)")
    run_cmd.add_argument("--profile", action="store_true",
                         help="print the inclusive/exclusive hot-path table "
                              "after the run")

    design_cmd = sub.add_parser("design",
                                help="design a super-symbol for a dimming level")
    design_cmd.add_argument("dimming", type=float,
                            help="required dimming level in (0, 1)")

    journal_cmd = sub.add_parser(
        "journal", help="trace a multicell run's event journal")
    journal_cmd.add_argument("--grid", default="2x2", metavar="RxC",
                             help="luminaire grid, e.g. 2x3 (default 2x2)")
    journal_cmd.add_argument("--nodes", type=int, default=4, metavar="N",
                             help="mobile receivers (default 4)")
    journal_cmd.add_argument("--duration", type=float, default=30.0,
                             metavar="S", help="simulated seconds (default 30)")
    journal_cmd.add_argument("--regions", type=int, default=1, metavar="R",
                             help="spatial shards for the DES kernel "
                                  "(default 1: unsharded)")
    journal_cmd.add_argument("--seed", type=int, default=13,
                             help="scenario seed (default 13)")
    journal_cmd.add_argument("--tail", type=int, default=12, metavar="K",
                             help="journal entries to print (default 12)")
    journal_cmd.add_argument("--jsonl", metavar="FILE", default=None,
                             help="also export the full trace as JSON lines")

    chaos_cmd = sub.add_parser(
        "chaos", help="run a fault schedule against the supervised link")
    chaos_cmd.add_argument("--schedule", default="mixed", metavar="NAME",
                           help="shipped fault schedule name, or 'random' "
                                "(default mixed)")
    chaos_cmd.add_argument("--duration", type=float, default=40.0,
                           metavar="S", help="simulated seconds (default 40)")
    chaos_cmd.add_argument("--seed", type=int, default=13,
                           help="scenario seed (default 13)")
    chaos_cmd.add_argument("--intensity", type=float, default=0.6,
                           metavar="X",
                           help="fault intensity in [0, 1] for "
                                "--schedule random (default 0.6)")
    chaos_cmd.add_argument("--unsupervised", action="store_true",
                           help="run the no-supervision baseline instead")

    fuzz_cmd = sub.add_parser(
        "fuzz", help="differential fuzzing: campaigns, replay, corpus")
    fuzz_sub = fuzz_cmd.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded, budgeted fuzz campaign")
    fuzz_run.add_argument("--budget", type=int, default=200, metavar="N",
                          help="cases to execute (default 200)")
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default 0)")
    fuzz_run.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes (default: in-process)")
    fuzz_run.add_argument("--oracles", default=None, metavar="CSV",
                          help="comma-separated oracle subset "
                               "(default: all, weighted)")
    fuzz_run.add_argument("--timeout", type=float, default=30.0,
                          metavar="S",
                          help="per-case deadline in seconds before a "
                               "case counts as hung (default 30)")
    fuzz_run.add_argument("--chunk", type=int, default=128, metavar="K",
                          help="cases per scheduling round (default 128)")
    fuzz_run.add_argument("--findings", metavar="FILE", default=None,
                          help="journal findings as JSON lines into FILE")
    fuzz_run.add_argument("--self-test", action="store_true",
                          help="inject a known synthetic defect and assert "
                               "the harness finds, shrinks, and replays it")
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-execute repro artifacts, check digests")
    fuzz_replay.add_argument("paths", nargs="*", metavar="FILE",
                             help="artifact files (default: the shipped "
                                  "corpus directory)")
    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="list the regression corpus, or pin new entries")
    fuzz_corpus.add_argument("--dir", default=None, metavar="DIR",
                             help="corpus directory "
                                  "(default tests/fuzz/corpus)")
    fuzz_corpus.add_argument("--add", metavar="FINDINGS", default=None,
                             help="pin every finding in a findings JSONL "
                                  "journal as a new corpus artifact")

    scenario_cmd = sub.add_parser(
        "scenario", help="trace-driven scenarios: list, show, run")
    scenario_sub = scenario_cmd.add_subparsers(dest="scenario_command",
                                               required=True)
    scenario_sub.add_parser("list", help="list the shipped scenarios")
    scenario_show = scenario_sub.add_parser(
        "show", help="print one scenario as its JSON document")
    scenario_show.add_argument("name", metavar="NAME",
                               help="shipped scenario name")
    scenario_show.add_argument("--file", action="store_true",
                               help="treat NAME as a scenario JSON file "
                                    "path instead")
    scenario_run = scenario_sub.add_parser(
        "run", help="compile, run, and judge one scenario")
    scenario_run.add_argument("name", metavar="NAME",
                              help="shipped scenario name")
    scenario_run.add_argument("--file", action="store_true",
                              help="treat NAME as a scenario JSON file "
                                   "path instead")
    scenario_run.add_argument("--regions", type=int, default=1, metavar="R",
                              help="spatial shards for the DES kernel "
                                   "(default 1: unsharded)")
    scenario_run.add_argument("--report", metavar="FILE", default=None,
                              help="write the ScenarioReport (with its "
                                   "RunManifest) as JSON into FILE")

    serve_cmd = sub.add_parser(
        "serve", help="run the always-on adaptation control plane")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=0,
                           help="TCP port (default 0: ephemeral)")
    serve_cmd.add_argument("--max-connections", type=int, default=1024,
                           metavar="N",
                           help="connection cap (default 1024)")
    serve_cmd.add_argument("--queue-limit", type=int, default=64, metavar="N",
                           help="per-connection in-flight adapt cap "
                                "(default 64)")
    serve_cmd.add_argument("--max-inflight", type=int, default=4096,
                           metavar="N",
                           help="global in-flight adapt cap (default 4096)")
    serve_cmd.add_argument("--drain-grace", type=float, default=5.0,
                           metavar="S",
                           help="seconds to let in-flight work finish on "
                                "SIGTERM (default 5)")
    serve_cmd.add_argument("--load", action="store_true",
                           help="run the seeded synthetic client fleet "
                                "against the daemon, print its report and "
                                "exit (nonzero if any connection dropped)")
    serve_cmd.add_argument("--clients", type=int, default=50, metavar="N",
                           help="fleet size for --load (default 50)")
    serve_cmd.add_argument("--requests", type=int, default=10, metavar="K",
                           help="requests per client for --load (default 10)")
    serve_cmd.add_argument("--seed", type=int, default=0,
                           help="fleet seed for --load (default 0)")
    serve_cmd.add_argument("--telemetry", metavar="FILE", default=None,
                           help="dump the server's metrics as telemetry "
                                "JSON lines into FILE at shutdown "
                                "(render with repro stats)")

    stats_cmd = sub.add_parser(
        "stats", help="render a telemetry JSONL dump")
    stats_cmd.add_argument("file", metavar="FILE",
                           help="JSONL file written by run --telemetry")
    stats_cmd.add_argument("--prometheus", action="store_true",
                           help="emit the metrics in Prometheus text "
                                "exposition format instead of aligned text")
    stats_cmd.add_argument("--profile", action="store_true",
                           help="print the hot-path table aggregated from "
                                "the recorded spans instead of aligned text")

    sub.add_parser("info", help="show the active configuration")
    return parser


def _fail(err, message: str) -> int:
    """The uniform bad-argument path: message on ``err``, exit code 2."""
    print(message, file=err)
    return 2


def _cmd_list(out) -> int:
    for experiment_id in experiment_ids():
        print(experiment_id, file=out)
    return 0


def _write_exports(result, experiment_id: str, csv_dir: str | None,
                   json_dir: str | None, out) -> None:
    """CSV/JSON exports plus the manifest sidecar for one result."""
    manifest = getattr(result, "manifest", None)
    target_dirs: list[str] = []
    for target_dir in (csv_dir, json_dir):
        if target_dir is not None and target_dir not in target_dirs:
            target_dirs.append(target_dir)
    if manifest is not None:
        for target_dir in target_dirs:
            path = write_manifest(
                manifest, Path(target_dir) / f"{experiment_id}.manifest.json")
            print(f"[manifest] {path}", file=out)
    if csv_dir is not None:
        target = Path(csv_dir)
        path = target / f"{experiment_id}.csv"
        if isinstance(result, FigureResult):
            write_figure_csv(result, path)
        else:
            write_table_csv(result, path)
        print(f"[csv] {path}", file=out)
    if json_dir is not None:
        path = write_json(result, Path(json_dir) / f"{experiment_id}.json")
        print(f"[json] {path}", file=out)


def _cmd_run(ids: Sequence[str], csv_dir: str | None, json_dir: str | None,
             out, err, jobs: int | None = None,
             telemetry: str | None = None, trace: str | None = None,
             profile: bool = False) -> int:
    requested = list(ids) or experiment_ids()
    unknown = sorted(set(requested) - set(experiment_ids()))
    if unknown:
        return _fail(err, f"unknown experiment ids: {unknown}")
    if jobs is not None and jobs < 1:
        return _fail(err, f"--jobs must be a positive integer, got {jobs}")
    for target_dir in (csv_dir, json_dir):
        if target_dir is not None:
            Path(target_dir).mkdir(parents=True, exist_ok=True)

    def run_all() -> None:
        for experiment_id in requested:
            result = run_experiment(experiment_id, jobs=jobs)
            print("=" * 72, file=out)
            print(result.render(), file=out)
            _write_exports(result, experiment_id, csv_dir, json_dir, out)

    if telemetry is None and trace is None and not profile:
        run_all()
        return 0
    with telemetry_session() as session:
        run_all()
    if telemetry is not None:
        path = write_telemetry_jsonl(session, telemetry)
        print(f"[telemetry] {path}", file=out)
    if trace is not None:
        path = write_chrome_trace(session, trace)
        print(f"[trace] {path}", file=out)
    if profile:
        print(ProfileSession.from_session(session).render(), file=out)
    return 0


def _cmd_design(dimming: float, out, err) -> int:
    config = SystemConfig()
    designer = AmppmDesigner(config)
    lo, hi = designer.supported_range
    if not lo <= dimming <= hi:
        return _fail(err, f"dimming {dimming} outside supported range "
                          f"[{lo:.3f}, {hi:.3f}]")
    design = designer.design(dimming)
    print(f"target dimming   : {dimming:.4f}", file=out)
    print(f"super-symbol     : {design.super_symbol}", file=out)
    print(f"achieved dimming : {design.achieved_dimming:.4f}", file=out)
    print(f"slots / bits     : {design.super_symbol.n_slots} / "
          f"{design.super_symbol.bits}", file=out)
    print(f"PHY data rate    : {design.data_rate(config) / 1e3:.1f} kbps",
          file=out)
    return 0


def _cmd_journal(grid: str, nodes: int, duration: float, seed: int,
                 regions: int, tail: int, jsonl: str | None, out, err) -> int:
    from .des import write_journal_jsonl
    from .net.multicell import default_network

    try:
        rows_str, _, cols_str = grid.lower().partition("x")
        rows, cols = int(rows_str), int(cols_str)
    except ValueError:
        return _fail(err, f"--grid expects RxC (e.g. 2x3), got {grid!r}")
    if rows < 1 or cols < 1 or nodes < 1 or not 0 < duration < math.inf:
        return _fail(err, "grid dimensions and --nodes must be positive, "
                          "--duration finite and > 0")
    if tail < 0:
        return _fail(err, f"--tail must be non-negative, got {tail}")
    if regions < 1 or regions > rows * cols:
        return _fail(err, f"--regions must lie in [1, {rows * cols}] for a "
                          f"{rows}x{cols} grid, got {regions}")
    simulation = default_network(rows=rows, cols=cols, n_nodes=nodes,
                                 seed=seed, regions=regions)
    result = simulation.run(duration)
    shards = (f", {regions} regions ({len(result.shards)} shards)"
              if regions > 1 else "")
    print(f"multicell {rows}x{cols}, {nodes} nodes, {duration:g} s, "
          f"seed {seed}{shards}", file=out)
    print(f"  aggregate goodput : "
          f"{result.aggregate_throughput_bps / 1e3:.1f} Kbps", file=out)
    print(f"  handovers         : {result.total_handovers}", file=out)
    print(f"  adjustments       : {result.total_adjustments}", file=out)
    print(f"  journal digest    : {result.journal.digest()[:16]}", file=out)
    print(result.journal.render(n_tail=tail), file=out)
    if jsonl is not None:
        path = write_journal_jsonl(result.journal, jsonl)
        print(f"[jsonl] {path}", file=out)
    return 0


def _cmd_chaos(schedule: str, duration: float, seed: int, intensity: float,
               unsupervised: bool, out, err) -> int:
    from .resilience import ChaosScenario, FaultSchedule, shipped_schedules

    if not 0 < duration < math.inf:
        return _fail(err, "--duration must be finite and > 0")
    if schedule == "random":
        if not 0.0 <= intensity <= 1.0:
            return _fail(err,
                         f"--intensity must lie in [0, 1], got {intensity}")
        plan = FaultSchedule.random(seed, duration, intensity)
    else:
        shipped = shipped_schedules(duration)
        if schedule not in shipped:
            known = sorted(shipped) + ["random"]
            return _fail(err, f"unknown schedule {schedule!r}; known: {known}")
        plan = shipped[schedule]
    scenario = ChaosScenario(schedule=plan, duration_s=duration, seed=seed,
                             supervised=not unsupervised)
    result = scenario.run()
    print(f"chaos schedule {schedule!r}, seed {seed}, "
          f"{len(plan)} faults", file=out)
    print(result.report.render(), file=out)
    return 0


def _cmd_fuzz_run(budget: int, seed: int, jobs: int | None,
                  oracles: str | None, timeout: float, chunk: int,
                  findings: str | None, selftest: bool, out, err) -> int:
    from .fuzz import CampaignConfig, run_campaign, self_test
    from .fuzz.generators import DEFAULT_WEIGHTS

    if jobs is not None and jobs < 1:
        return _fail(err, f"--jobs must be a positive integer, got {jobs}")
    if selftest:
        report = self_test(jobs=jobs,
                           progress=lambda line: print(f"  {line}",
                                                       file=out))
        print(f"self-test: {'PASS' if report.passed else 'FAIL'} — "
              f"{report.detail}", file=out)
        if not report.found:
            print("  the injected defect went undetected", file=out)
        elif not report.shrunk_minimal:
            print(f"  shrinking missed the minimal trigger "
                  f"(got {report.minimal_params})", file=out)
        elif not report.replay_identical:
            print("  replay of the minimal repro was not bit-identical",
                  file=out)
        return 0 if report.passed else 1
    names = (tuple(part.strip() for part in oracles.split(",") if
                   part.strip()) if oracles is not None
             else tuple(DEFAULT_WEIGHTS))
    try:
        config = CampaignConfig(seed=seed, budget=budget, jobs=jobs,
                                oracles=names, timeout_s=timeout,
                                chunk=chunk, findings_path=findings)
    except ValueError as exc:
        return _fail(err, str(exc))
    print(f"fuzz campaign: seed {seed}, budget {budget}, "
          f"oracles {','.join(names)}"
          + (f", {jobs} jobs" if jobs else ""), file=out)
    report = run_campaign(config,
                          progress=lambda line: print(f"  {line}", file=out))
    mix = ", ".join(f"{oracle}:{count}"
                    for oracle, count in sorted(report.by_oracle.items()))
    print(f"executed {report.executed} cases in {report.elapsed_s:.1f} s "
          f"({report.execs_per_s:.0f}/s) — {mix}", file=out)
    print(f"campaign digest: {report.digest}", file=out)
    if report.clean:
        print("no findings", file=out)
        return 0
    print(f"{len(report.findings)} findings:", file=out)
    for finding in report.findings:
        steps = finding.shrunk.steps if finding.shrunk else 0
        print(f"  [{finding.status}] case {finding.case.index} "
              f"({finding.case.oracle}): {finding.detail}", file=out)
        print(f"    minimal repro ({steps} shrink steps): "
              f"{finding.minimal_params}", file=out)
    if findings:
        print(f"[findings] {findings}", file=out)
    return 1


def _cmd_fuzz_replay(paths: Sequence[str], out, err) -> int:
    from .fuzz import DEFAULT_CORPUS_DIR, replay_artifact, replay_corpus

    try:
        if paths:
            outcomes = []
            for raw in paths:
                path = Path(raw)
                if path.is_dir():
                    outcomes.extend(replay_corpus(path))
                elif path.is_file():
                    outcomes.append(replay_artifact(path))
                else:
                    return _fail(err, f"no such artifact: {path}")
        else:
            directory = DEFAULT_CORPUS_DIR
            if not directory.is_dir():
                return _fail(err, f"no corpus directory at {directory} "
                                  f"(run from the repo root, or pass "
                                  f"artifact paths)")
            outcomes = replay_corpus(directory)
    except ValueError as exc:
        return _fail(err, str(exc))
    if not outcomes:
        return _fail(err, "nothing to replay")
    drift = [outcome for outcome in outcomes if not outcome.matched]
    for outcome in outcomes:
        print(outcome.describe(), file=out)
    print(f"replayed {len(outcomes)} artifacts, "
          f"{len(drift)} drifted", file=out)
    return 1 if drift else 0


def _cmd_fuzz_corpus(directory: str | None, add: str | None,
                     out, err) -> int:
    import json as json_module

    from .fuzz import (DEFAULT_CORPUS_DIR, iter_corpus, load_artifact,
                       pin_artifact, write_artifact)

    corpus_dir = Path(directory) if directory else DEFAULT_CORPUS_DIR
    if add is not None:
        journal = Path(add)
        if not journal.is_file():
            return _fail(err, f"no findings journal at {journal}")
        added = 0
        for line in journal.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                record = json_module.loads(line)
                oracle = record["case"]["oracle"]
                shrunk = record.get("shrunk") or {}
                params = shrunk.get("params") or record["case"]["params"]
                detail = str(record.get("detail", ""))
            except (json_module.JSONDecodeError, KeyError, TypeError) as exc:
                return _fail(err, f"malformed findings journal line: {exc}")
            artifact = pin_artifact(str(oracle), params, note=detail)
            name = f"{artifact.oracle}-{artifact.expect_digest[:12]}.json"
            write_artifact(corpus_dir / name, artifact)
            print(f"pinned {name} (status {artifact.expect_status})",
                  file=out)
            added += 1
        print(f"added {added} artifacts to {corpus_dir}", file=out)
        return 0
    if not corpus_dir.is_dir():
        return _fail(err, f"no corpus directory at {corpus_dir}")
    count = 0
    for path in iter_corpus(corpus_dir):
        try:
            artifact = load_artifact(path)
        except ValueError as exc:
            return _fail(err, str(exc))
        note = f" — {artifact.note}" if artifact.note else ""
        print(f"  {artifact.oracle:<9} {path.name}  "
              f"expect {artifact.expect_status}/"
              f"{artifact.expect_digest[:12]}{note}", file=out)
        count += 1
    print(f"{count} artifacts in {corpus_dir}", file=out)
    return 0


def _load_cli_scenario(name: str, from_file: bool, err):
    """Resolve a CLI scenario argument to a Scenario, or an exit code."""
    from .scenarios import load_scenario, shipped_scenarios

    if from_file:
        path = Path(name)
        if not path.is_file():
            return None, _fail(err, f"no such scenario file: {path}")
        try:
            return load_scenario(path), 0
        except (ValueError, KeyError, TypeError) as exc:
            return None, _fail(err, f"invalid scenario file {path}: {exc}")
    shipped = shipped_scenarios()
    if name not in shipped:
        return None, _fail(err, f"unknown scenario {name!r}; known: "
                                f"{sorted(shipped)} (or pass --file)")
    return shipped[name], 0


def _cmd_scenario_list(out) -> int:
    from .scenarios import shipped_scenarios

    for name, scenario in shipped_scenarios().items():
        chaos = (f", chaos {scenario.chaos.schedule}"
                 if scenario.chaos is not None else "")
        print(f"  {name:<24} {len(scenario.rooms)} room(s), "
              f"{scenario.n_luminaires} luminaires, "
              f"{scenario.population} occupants, "
              f"{scenario.duration_s:g} s{chaos}", file=out)
        print(f"    {scenario.description}", file=out)
    return 0


def _cmd_scenario_show(name: str, from_file: bool, out, err) -> int:
    scenario, code = _load_cli_scenario(name, from_file, err)
    if scenario is None:
        return code
    print(scenario.to_json(), file=out)
    return 0


def _cmd_scenario_run(name: str, from_file: bool, regions: int,
                      report_path: str | None, out, err) -> int:
    import json as json_module

    from .scenarios import ScenarioRunner

    scenario, code = _load_cli_scenario(name, from_file, err)
    if scenario is None:
        return code
    if regions < 1 or regions > scenario.n_luminaires:
        return _fail(err, f"--regions must lie in "
                          f"[1, {scenario.n_luminaires}] for scenario "
                          f"{scenario.name!r}, got {regions}")
    run = ScenarioRunner(scenario, regions=regions).run()
    print(run.report.render(), file=out)
    if report_path is not None:
        payload = run.report.as_dict()
        payload["manifest"] = run.manifest.as_dict()
        path = Path(report_path)
        path.write_text(json_module.dumps(payload, indent=2,
                                          sort_keys=True) + "\n")
        print(f"[report] {path}", file=out)
    return 0 if run.report.passed else 1


def _cmd_serve(host: str, port: int, max_connections: int,
               queue_limit: int, max_inflight: int, drain_grace: float,
               load: bool, clients: int, requests: int, seed: int,
               telemetry: str | None, out, err) -> int:
    import asyncio

    from .serve import ControlPlane, LoadProfile, ServeConfig, run_loadgen
    from .serve.server import run_daemon

    try:
        serve_config = ServeConfig(
            host=host, port=port, max_connections=max_connections,
            queue_limit=queue_limit, max_inflight=max_inflight,
            drain_grace_s=drain_grace)
        profile = (LoadProfile(clients=clients, requests_per_client=requests,
                               seed=seed) if load else None)
    except ValueError as exc:
        return _fail(err, str(exc))

    async def serve_and_load(registry) -> tuple[int, "ControlPlane"]:
        plane = ControlPlane(serve_config, registry=registry)
        await plane.start()
        print(f"repro serve: listening on {plane.host}:{plane.port} "
              f"(--load fleet: {profile.clients} clients x "
              f"{profile.requests_per_client} requests)", file=out, flush=True)
        try:
            report = await run_loadgen(plane.host, plane.port, profile)
        finally:
            await plane.stop()
        print(report.render(), file=out)
        return (0 if report.dropped_connections == 0 else 1), plane

    with telemetry_session() as session:
        try:
            if load:
                code, plane = asyncio.run(serve_and_load(session.registry))
            else:
                plane = asyncio.run(run_daemon(
                    serve_config, registry=session.registry, out=out))
                code = 0
        except OSError as exc:
            return _fail(err, f"cannot serve on {host}:{port}: {exc}")
        print(f"serve: {plane.coalescer.requests} adapt requests, "
              f"{plane.shed_count} shed", file=out)
    if telemetry is not None:
        path = write_telemetry_jsonl(session, telemetry)
        print(f"[telemetry] {path}", file=out)
    return code


def _cmd_stats(file: str, prometheus: bool, profile: bool, out, err) -> int:
    path = Path(file)
    if not path.is_file():
        return _fail(err, f"no such telemetry file: {path}")
    try:
        session = read_telemetry_jsonl(path)
    except ValueError as exc:
        return _fail(err, f"not a telemetry JSONL file: {exc}")
    if prometheus:
        out.write(render_prometheus(session.registry))
    elif profile:
        print(ProfileSession.from_session(session).render(), file=out)
    else:
        print(render_text(session), file=out)
    return 0


def _cmd_info(out) -> int:
    config = SystemConfig()
    print("SmartVLC reproduction — active configuration", file=out)
    print(f"  t_slot        : {config.t_slot * 1e6:.1f} us "
          f"(f_tx {config.f_tx / 1e3:.0f} kHz)", file=out)
    print(f"  f_flicker     : {config.f_flicker:.0f} Hz "
          f"(N_max {config.n_max_super} slots)", file=out)
    print(f"  P1 / P2       : {config.p_off_error:g} / "
          f"{config.p_on_error:g}", file=out)
    print(f"  SER bound     : {config.ser_bound:g}", file=out)
    print(f"  N range       : {config.n_min}..{config.n_cap}", file=out)
    print(f"  tau_perceived : {config.tau_perceived:g}", file=out)
    print(f"  payload       : {config.payload_bytes} bytes", file=out)
    designer = AmppmDesigner(config)
    lo, hi = designer.supported_range
    print(f"  candidates    : {len(designer.candidates)} patterns, "
          f"dimming {lo:.3f}..{hi:.3f}", file=out)
    return 0


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """Entry point; returns a process exit code.

    ``out`` carries results, ``err`` carries error messages (defaults:
    ``sys.stdout`` / ``sys.stderr``); bad arguments return exit code 2.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(args.ids, args.csv, args.json, out, err,
                        jobs=args.jobs, telemetry=args.telemetry,
                        trace=args.trace, profile=args.profile)
    if args.command == "design":
        return _cmd_design(args.dimming, out, err)
    if args.command == "journal":
        return _cmd_journal(args.grid, args.nodes, args.duration, args.seed,
                            args.regions, args.tail, args.jsonl, out, err)
    if args.command == "chaos":
        return _cmd_chaos(args.schedule, args.duration, args.seed,
                          args.intensity, args.unsupervised, out, err)
    if args.command == "fuzz":
        if args.fuzz_command == "run":
            return _cmd_fuzz_run(args.budget, args.seed, args.jobs,
                                 args.oracles, args.timeout, args.chunk,
                                 args.findings, args.self_test, out, err)
        if args.fuzz_command == "replay":
            return _cmd_fuzz_replay(args.paths, out, err)
        if args.fuzz_command == "corpus":
            return _cmd_fuzz_corpus(args.dir, args.add, out, err)
        raise AssertionError(f"unhandled fuzz command {args.fuzz_command!r}")
    if args.command == "scenario":
        if args.scenario_command == "list":
            return _cmd_scenario_list(out)
        if args.scenario_command == "show":
            return _cmd_scenario_show(args.name, args.file, out, err)
        if args.scenario_command == "run":
            return _cmd_scenario_run(args.name, args.file, args.regions,
                                     args.report, out, err)
        raise AssertionError(
            f"unhandled scenario command {args.scenario_command!r}")
    if args.command == "serve":
        return _cmd_serve(args.host, args.port, args.max_connections,
                          args.queue_limit, args.max_inflight,
                          args.drain_grace, args.load, args.clients,
                          args.requests, args.seed, args.telemetry, out, err)
    if args.command == "stats":
        return _cmd_stats(args.file, args.prometheus, args.profile, out, err)
    if args.command == "info":
        return _cmd_info(out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
