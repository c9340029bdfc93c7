"""The four benchmark workloads: scenario, fleet, serve and fuzz.

Each workload takes the benchmark seed and derives every input from
it; the programs under test receive only those generated inputs.  A
workload measures for about ``seconds`` host seconds, checks its
outputs against the correctness gates, and returns an :class:`Outcome`.
With ``trace`` set it instead runs one unit of work untraced and one
traced, and fills in the per-layer numbers (see ``layers.py``).

Why these four, and how each was sized, is in ``README.md`` beside
this file.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hostspeed
import layers
import loadgen
from stats import histogram_percentile, median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artefacts (Chrome traces, layer tables); ignored by git.
OUT = ROOT / ".perfbench"

#: Fresh interpreters timed per run for ``setup_s``; the median counts.
SETUP_SAMPLES = 7
#: Worker processes or connections the load may use.
NPROC = min(2, os.cpu_count() or 1)

SCENARIO = "office-day"
SCENARIO_SEEDS = 3

FLEET = {"rows": 8, "cols": 8, "n_nodes": 32, "regions": 4}
FLEET_SIM_S = 120.0
FLEET_SEEDS = 3

FUZZ_BUDGET = 150
FUZZ_SEEDS = 6

#: Offered adapt rates (requests/s), lowest first; ``high`` sits below
#: the rate where the per-connection queue limit starts shedding.
SERVE_RATES = (("low", 250.0), ("mid", 500.0), ("high", 1000.0))
#: p99 limit a rate must meet to count towards ``max_rate_rps``: above
#: the 50-100 ms stalls of the shared host, far below a backlog.
LATENCY_LIMIT_MS = 100.0
#: Share of requests that are ``link`` reports instead of ``adapt``.
LINK_SHARE = 0.01
#: Longest a traced serve phase runs: every request leaves ~6 spans.
TRACED_PHASE_S = 2.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metrics under their ``BENCHMARK.json`` names
    metrics: dict[str, float]
    #: the workload's own figures for the printed table: name -> (value, unit)
    figures: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    #: correctness gate -> passed
    gates: dict[str, bool]
    digests: dict[str, str] = field(default_factory=dict)
    #: per-layer metrics (traced runs only)
    layers: dict[str, float] = field(default_factory=dict)
    #: extra text for the printed report (self-time table, trace path)
    notes: list[str] = field(default_factory=list)


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` input seeds derived from the benchmark seed."""
    import numpy as np

    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) for value in state]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: import ``repro`` from SRC only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb(children: bool = False) -> float:
    """High-water RSS of this process (plus the largest waited child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_seconds(code: str) -> float:
    """Median time for a fresh interpreter to run ``code`` to "ready",
    at the reference host speed.

    Each interpreter runs on one core, taking turns, and the meter's
    probes run on the same core: a start-up is too short for a probe on
    another core to see the speed it ran at (over eight half-minutes,
    their medians varied by 5%, against 14% with free probes).
    """
    home = os.sched_getaffinity(0)
    cpus = sorted(home)
    samples = []
    for i in range(SETUP_SAMPLES):
        cpu = cpus[i % len(cpus)]
        started = time.perf_counter()
        os.sched_setaffinity(0, {cpu})  # the child inherits it
        try:
            proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                    env=child_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
        finally:
            os.sched_setaffinity(0, home)
        try:
            with hostspeed.Meter(cpus=(cpu,)) as meter:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - started
            samples.append(elapsed * meter.scale())
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err[-2000:]}")
    return median(samples)


@dataclass(frozen=True)
class Rep:
    """One repetition of a unit of work."""

    index: int
    wall_s: float
    result: object
    #: factor to the reference host speed, metered during this repetition
    scale: float = 1.0


def _repeat(units: list, run: Callable, seconds: float, passes: int = 2,
            meter_cpus: tuple[int, ...] = ()) -> list[Rep]:
    """Run ``units`` round-robin for ``seconds``, each ``passes`` times
    at least.

    The repeats are what the determinism gates compare, and the median
    over them is robust to a neighbour stealing one repetition.  Each
    repetition runs beside a host-speed meter (see ``hostspeed.py``)
    whose probes take turns on ``meter_cpus``, when given.
    """
    done: list[Rep] = []
    started = time.perf_counter()
    i = 0
    while i < passes * len(units) or time.perf_counter() - started < seconds:
        index = i % len(units)
        with hostspeed.Meter(cpus=meter_cpus) as meter:
            t0 = time.perf_counter()
            result = run(units[index])
            wall_s = time.perf_counter() - t0
        done.append(Rep(index, wall_s, result, meter.scale()))
        i += 1
    return done


def _speed_metrics(unit_work: float, reps: list[Rep], setup_s: float,
                   rss_mb: float, outcome: Outcome, name: str) -> None:
    """Fill in the end-to-end metrics of a batch workload, whose units
    of work are all the same size: the median time of one unit at the
    reference host speed, and the work of one unit over it.  The
    measured throughput (under the workload's own ``name``) and the
    median host speed go to the printed figures."""
    p50_s = median([r.wall_s * r.scale for r in reps])
    measured_s = median([r.wall_s for r in reps])
    outcome.metrics = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
                       "throughput": unit_work / p50_s, "p50_ms": p50_s * 1e3}
    outcome.figures[name] = (unit_work / measured_s, "1/s")
    outcome.figures["host_speed"] = (median([r.scale for r in reps]),
                                     "ratio")


def _repeats_agree(reps: list[Rep], key: Callable) -> bool:
    seen: dict[int, object] = {}
    for rep in reps:
        value = key(rep.result)
        if seen.setdefault(rep.index, value) != value:
            return False
    return True


def _traced(run: Callable, unit) -> tuple:
    """Run ``unit`` untraced (twice: warm, then timed) and traced once.

    Returns ``(traced result, session, overhead share)``.  Installs the
    layer wrappers, so everything after this call is traced.
    """
    from repro.obs import telemetry_session

    run(unit)
    started = time.perf_counter()
    run(unit)
    untraced = time.perf_counter() - started
    layers.install()
    with telemetry_session() as session:
        started = time.perf_counter()
        result = run(unit)
        traced = time.perf_counter() - started
    return result, session, traced / untraced - 1.0


def _finish_trace(name: str, session, outcome: Outcome, overhead: float,
                  extra: dict[str, float]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    events = layers.write_trace(session, path)
    outcome.layers = {**layers.layer_metrics(session), **extra,
                      "trace.overhead_frac": overhead}
    outcome.notes.append(layers.self_time_table(session))
    outcome.notes.append(f"chrome trace: {path.relative_to(ROOT)} "
                         f"({events} events, validated)")


# -- scenario ------------------------------------------------------------


def scenario(seed: int, seconds: float, trace: bool) -> Outcome:
    """The shipped office day, compiled, simulated and graded."""
    from repro import scenarios
    from repro.obs import span

    shipped = scenarios.shipped_scenarios()[SCENARIO]
    days = [dataclasses.replace(shipped, seed=s)
            for s in derive_seeds(seed, SCENARIO_SEEDS)]

    def run(day):
        # Module attributes, not local names: the traced run wraps them.
        compiled = scenarios.compile_scenario(day, regions=1)
        with span("scenarios.run"):
            result = compiled.simulation.run(day.duration_s)
        report = scenarios.build_report(compiled, result)
        return (report, len(result.journal),
                result.journal.count("process-error"))

    if trace:
        result, session, overhead = _traced(run, days[0])
        reps = [Rep(0, 0.0, result)]
    else:
        reps = _repeat(days, run, seconds)
    reports = [rep.result[0] for rep in reps]
    errors = sum(rep.result[2] for rep in reps)
    shipped_report = run(shipped)[0]
    windows = sum(len(r.windows) for r in reports)
    missed = sum(len(r.violations) for r in reports)
    outcome = Outcome(
        metrics={}, figures={"slo_missed_frac": (missed / windows, "frac")},
        attempted=sum(rep.result[1] for rep in reps), failed=errors,
        gates={
            "zero flicker violations": all(
                r.metrics()["flicker_violations"] == 0 for r in reports),
            "SLO passes on the shipped seed": shipped_report.passed,
            "journal digest repeats per seed": _repeats_agree(
                reps, lambda r: r[0].journal_digest),
            "no process errors": errors == 0,
        },
        digests={f"seed {days[rep.index].seed}": rep.result[0].journal_digest
                 for rep in reps})
    if trace:
        _finish_trace("scenario", session, outcome, overhead,
                      {"net.handovers": reports[0].metrics()["handovers"],
                       "des.journal.events": float(reps[0].result[1])})
        return outcome
    setup = setup_seconds(
        "import dataclasses\n"
        "from repro.scenarios import compile_scenario, shipped_scenarios\n"
        f"day = shipped_scenarios()[{SCENARIO!r}]\n"
        f"compile_scenario(dataclasses.replace(day, seed={days[0].seed}))\n"
        "print('ready', flush=True)\n")
    room_hours = shipped.duration_s * len(shipped.rooms) / 3600.0
    _speed_metrics(room_hours, reps, setup, peak_rss_mb(), outcome,
                   "room_hours_per_s")
    return outcome


# -- fleet ---------------------------------------------------------------


def fleet(seed: int, seconds: float, trace: bool) -> Outcome:
    """The sharded 8x8 fleet with 32 mobile nodes."""
    from repro.net.multicell import default_network

    seeds = derive_seeds(seed, FLEET_SEEDS)

    def run(net_seed):
        result = default_network(seed=net_seed, **FLEET).run(FLEET_SIM_S)
        return (result.journal.digest(), len(result.journal),
                result.journal.count("process-error"),
                result.total_handovers)

    if trace:
        result, session, overhead = _traced(run, seeds[0])
        reps = [Rep(0, 0.0, result)]
    else:
        reps = _repeat(seeds, run, seconds)
    events = sum(rep.result[1] for rep in reps)
    errors = sum(rep.result[2] for rep in reps)
    outcome = Outcome(
        metrics={}, figures={}, attempted=events, failed=errors,
        gates={
            "journal digest repeats per seed": _repeats_agree(
                reps, lambda r: r[0]),
            "des.journal.events repeats per seed": _repeats_agree(
                reps, lambda r: r[1]),
            "no process errors": errors == 0,
        },
        digests={f"seed {seeds[rep.index]}": rep.result[0] for rep in reps})
    if trace:
        _finish_trace("fleet", session, outcome, overhead,
                      {"net.handovers": float(reps[0].result[3]),
                       "des.journal.events": float(reps[0].result[1])})
        return outcome
    setup = setup_seconds(
        "from repro.net.multicell import default_network\n"
        f"default_network(seed={seeds[0]}, **{FLEET!r})\n"
        "print('ready', flush=True)\n")
    _speed_metrics(FLEET_SIM_S, reps, setup, peak_rss_mb(), outcome,
                   "sim_s_per_s")
    return outcome


# -- fuzz ----------------------------------------------------------------


def fuzz_budgets() -> dict[str, int]:
    """Cases per oracle in one campaign set: FUZZ_BUDGET split by the
    campaign runner's own oracle weights."""
    from repro.fuzz.generators import DEFAULT_WEIGHTS

    total = sum(DEFAULT_WEIGHTS.values())
    return {oracle: round(FUZZ_BUDGET * weight / total)
            for oracle, weight in DEFAULT_WEIGHTS.items()}


def fuzz(seed: int, seconds: float, trace: bool) -> Outcome:
    """Campaign sets over all six oracles on a worker pool.

    One unit is a *campaign set*: one campaign per oracle, with the
    budget split by the default oracle weights.  A single mixed
    campaign draws its oracle mix at random, and the two DES oracles
    cost ~100x the others, so its cost would swing with the seed far
    more than with the code; fixing the mix keeps the seed from
    deciding the result.
    """
    import hashlib

    from repro.fuzz import CampaignConfig, run_campaign

    seeds = derive_seeds(seed, FUZZ_SEEDS)
    budgets = fuzz_budgets()

    def run(campaign_seed, jobs=NPROC):
        return [run_campaign(CampaignConfig(seed=campaign_seed, budget=n,
                                            oracles=(oracle,), jobs=jobs))
                for oracle, n in budgets.items()]

    def digest(reports) -> str:
        joined = "\n".join(r.digest for r in reports)
        return hashlib.sha256(joined.encode()).hexdigest()

    if trace:
        reports, session, overhead = _traced(run, seeds[0])
        reps = [Rep(0, sum(r.elapsed_s for r in reports), reports)]
    else:
        # Distinct sets rather than repeats: more of the case space.
        # The pool's workers run on every core, so the meter's probes
        # take turns on them.
        reps = _repeat(seeds, run, seconds, passes=1,
                       meter_cpus=tuple(sorted(os.sched_getaffinity(0))))
    serial = digest(run(seeds[0], jobs=1))
    reports = [r for rep in reps for r in rep.result]
    cases = sum(r.executed for r in reports)
    failed = sum(n for r in reports
                 for status, n in r.by_status.items() if status != "ok")
    outcome = Outcome(
        metrics={}, figures={}, attempted=cases, failed=failed,
        gates={
            "every campaign is clean": all(r.clean for r in reports),
            "digest equals the jobs=1 digest": all(
                digest(rep.result) == serial
                for rep in reps if rep.index == 0),
            "digest repeats per seed": _repeats_agree(reps, digest),
        },
        digests={f"seed {seeds[rep.index]}": digest(rep.result)
                 for rep in reps})
    if trace:
        busy = sum(value for key, value in
                   layers.layer_metrics(session).items()
                   if key.startswith("fuzz.oracle.") and key.endswith(".s"))
        idle = 1.0 - busy / (NPROC * reps[0].wall_s)
        _finish_trace("fuzz", session, outcome, overhead,
                      {"sim.sweep.idle_frac": idle})
        return outcome
    setup = setup_seconds(
        "from repro.fuzz.generators import generate_cases\n"
        f"for oracle, n in {budgets!r}.items():\n"
        f"    generate_cases({seeds[0]}, n, (oracle,))\n"
        "print('ready', flush=True)\n")
    _speed_metrics(float(sum(budgets.values())), reps, setup,
                   peak_rss_mb(children=True), outcome, "cases_per_s")
    return outcome


# -- serve ---------------------------------------------------------------


_LISTENING = re.compile(rb"listening on ([\d.]+):(\d+)")
_SAMPLE = re.compile(r'^([A-Za-z_:][\w:]*)(?:\{(.*)\})? (\S+)$')


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    """``(name, labels, value)`` for every sample line of an exposition."""
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if line.startswith("#") or match is None:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def _scrape(samples, name: str, **labels) -> float:
    return sum(value for n, l, value in samples
               if n == name and all(l.get(k) == v for k, v in labels.items()))


def _server_latency_ms(samples, q: float) -> float:
    rows = sorted(((float(l["le"]), v) for n, l, v in samples
                   if n == "repro_serve_request_latency_s_bucket"
                   and l.get("op") == "adapt" and l["le"] != "+Inf"))
    total = _scrape(samples, "repro_serve_request_latency_s_count",
                    op="adapt")
    return histogram_percentile([b for b, _ in rows],
                                [int(c) for _, c in rows] + [int(total)],
                                q) * 1e3


class Daemon:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc: asyncio.subprocess.Process | None = None
        self.host = ""
        self.port = 0

    async def start(self) -> float:
        """Spawn, wait for the first ``ok`` health reply; returns seconds."""
        started = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv, cwd=ROOT, env=child_env(),
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        match = _LISTENING.search(line)
        if match is None:
            await self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))
        connection = (await loadgen.open_connections(self.host, self.port,
                                                      1))
        try:
            reply = await loadgen.call(connection[0],
                                       {"op": "health", "id": "health"})
        finally:
            await loadgen.close_connections(connection)
        if not (reply.get("ok") and reply["result"]["status"] == "ok"):
            raise RuntimeError(f"unhealthy daemon: {reply}")
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """The daemon's high-water RSS, read from /proc."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    async def stop(self) -> tuple[int, str]:
        """SIGTERM, wait for the drain; returns (exit code, stderr tail)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _out, err = await asyncio.wait_for(self.proc.communicate(), 30)
        except asyncio.TimeoutError:
            self.proc.kill()
            _out, err = await self.proc.communicate()
        return self.proc.returncode, err.decode(errors="replace")[-2000:]


async def _metered_start(daemon: Daemon) -> float:
    """Start ``daemon``; its start-up time at the reference host speed."""
    with hostspeed.Meter() as meter:
        elapsed = await daemon.start()
    return elapsed * meter.scale()


def serve_requests(rng: random.Random, phase: str, rate: float,
                   duration_s: float, supported: tuple[float, float]
                   ) -> tuple[list[loadgen.Request], dict[str, float]]:
    """One phase's open-loop schedule and each adapt request's dimming."""
    lo, hi = supported
    requests, dimming = [], {}
    for i in range(int(rate * duration_s)):
        request_id = f"{phase}-{i}"
        if rng.random() < LINK_SHARE:
            obj = {"op": "link", "id": request_id,
                   "report": {"outcome": "success"}}
        else:
            level = rng.uniform(lo, hi)
            dimming[request_id] = level
            obj = {"op": "adapt", "id": request_id, "dimming": level,
                   "ambient": rng.uniform(0.0, 1.0),
                   "distance_m": rng.uniform(1.0, 4.0),
                   "angle_deg": rng.uniform(0.0, 60.0)}
        requests.append(loadgen.Request(i / rate, request_id,
                                        (json.dumps(obj) + "\n").encode()))
    return requests, dimming


@dataclass
class _Phase:
    """The judged outcome of one fixed-rate phase."""

    name: str
    latencies_ms: list[float]
    late_ms: list[float]
    answered: int
    sent: int
    shed: int
    bad: int
    backlog_growing: bool
    #: replies per second from the phase start to its last reply
    achieved_rps: float

    @property
    def passes(self) -> bool:
        return (self.shed == 0 and self.bad == 0
                and self.answered == self.sent and not self.backlog_growing
                and percentile(self.latencies_ms, 99.0) <= LATENCY_LIMIT_MS)


def _judge(name, exchanges, dimming, supported, tolerance) -> _Phase:
    lo, hi = supported
    latencies, late, shed, bad, answered = [], [], 0, 0, 0
    for exchange in exchanges:
        if exchange.late_s is not None:
            late.append(exchange.late_s * 1e3)
        reply = exchange.reply
        if reply is None:
            continue
        answered += 1
        if not reply.get("ok"):
            code = reply.get("error", {}).get("code")
            shed += code in ("overloaded", "draining")
            bad += code not in ("overloaded", "draining")
            continue
        request_id = exchange.request.id
        if request_id in dimming:
            latencies.append(exchange.latency_s * 1e3)
            wanted = min(max(dimming[request_id], lo), hi)
            achieved = reply["result"]["achieved_dimming"]
            bad += abs(achieved - wanted) > tolerance
    quarter = max(1, len(latencies) // 4)
    growing = (median(latencies[-quarter:])
               > 2.0 * median(latencies[:quarter]) + 1.0)
    start = exchanges[0].due - exchanges[0].request.due_s
    last = max(e.received for e in exchanges if e.received is not None)
    return _Phase(name, latencies, late, answered, len(exchanges), shed,
                  bad, growing, answered / (last - start))


async def _serve_session(seed: int, seconds: float, trace: bool,
                         supported, tolerance) -> dict:
    rng = random.Random(seed)
    repro_serve = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    phase_s = seconds / len(SERVE_RATES)
    if trace:
        phase_s = min(phase_s, TRACED_PHASE_S)
    schedules = [(name, rate, *serve_requests(rng, name, rate, phase_s,
                                              supported))
                 for name, rate in SERVE_RATES]

    async def drive(daemon: Daemon) -> tuple[list[_Phase], list, float]:
        """The phases against ``daemon``, its last scrape and peak RSS."""
        connections = await loadgen.open_connections(
            daemon.host, daemon.port, NPROC)
        phases = []
        try:
            for name, _rate, requests, dimming in schedules:
                exchanges = await loadgen.run_phase(connections, requests)
                phases.append(_judge(name, exchanges, dimming, supported,
                                     tolerance))
                reply = await loadgen.call(connections[0],
                                           {"op": "metrics", "id": name})
                scrape = parse_prometheus(reply["result"]["prometheus"])
            rss = daemon.peak_rss_mb()
        finally:
            # Close the sockets before SIGTERM: the daemon's drain then
            # has no open connection to cancel.
            await loadgen.close_connections(connections)
        return phases, scrape, rss

    setups, result = [], {}
    if trace:
        OUT.mkdir(exist_ok=True)
        plain = Daemon(repro_serve)
        await plain.start()
        try:
            untraced, _scrape, _rss = await drive(plain)
        finally:
            await plain.stop()
        layer_file = OUT / "serve-layers.json"
        trace_file = OUT / "trace-serve.json"
        daemon = Daemon([sys.executable,
                         str(Path(__file__).with_name("serve_launcher.py")),
                         "--layers", str(layer_file),
                         "--trace", str(trace_file)])
        result["files"] = (layer_file, trace_file)
        result["untraced"] = untraced
    else:
        for _ in range(SETUP_SAMPLES - 1):
            spare = Daemon(repro_serve)
            setups.append(await _metered_start(spare))
            await spare.stop()
        daemon = Daemon(repro_serve)
    setups.append(await _metered_start(daemon))
    try:
        result["phases"], result["scrape"], result["rss"] = \
            await drive(daemon)
    finally:
        result["exit"], result["stderr"] = await daemon.stop()
    result["setup"] = median(setups)
    return result


def serve(seed: int, seconds: float, trace: bool) -> Outcome:
    """Open-loop adapt traffic at three fixed rates against a fresh daemon."""
    from repro.core import AmppmDesigner
    from repro.core.params import SystemConfig

    config = SystemConfig()
    supported = AmppmDesigner(config).supported_range
    tolerance = 2.0 * config.tau_perceived
    session = asyncio.run(_serve_session(seed, seconds, trace, supported,
                                         tolerance))
    phases: list[_Phase] = session["phases"]
    last = session["scrape"]
    sent = sum(p.sent for p in phases)
    broken = sum(p.sent - p.answered + p.bad for p in phases)
    # A shed is a structured refusal the protocol allows under load: it
    # fails the request and the rate, not the correctness gate.
    outcome = Outcome(
        metrics={}, figures={}, attempted=sent,
        failed=broken + sum(p.shed for p in phases),
        gates={
            "every reply ok or shed, id matched, dimming within 2 tau":
                broken == 0,
            "daemon drained and exited 0": session["exit"] == 0,
        })
    if session["exit"] != 0:
        outcome.notes.append(f"daemon stderr: {session['stderr']}")
    all_latencies = [x for p in phases for x in p.latencies_ms]
    client_p50 = median(all_latencies)
    server_p50 = _server_latency_ms(last, 50.0)
    late = [x for p in phases for x in p.late_ms]
    serving = {
        "serve.coalescer.ratio": (
            _scrape(last, "repro_serve_adapt_requests_total")
            / _scrape(last, "repro_serve_designer_calls_total")),
        "serve.coalescer.flushes": _scrape(
            last, "repro_serve_coalesce_batch_count"),
        "serve.server.p50_ms": server_p50,
        "serve.server.p99_ms": _server_latency_ms(last, 99.0),
        "serve.transport_ms": client_p50 - server_p50,
        "serve.shed": _scrape(last, "repro_serve_shed_total"),
        "serve.loadgen.late_ms_p99": percentile(late, 99.0),
        "serve.loadgen.late_ms_max": max(late),
    }
    for p in phases:
        for q in (50, 90, 99):
            outcome.figures[f"p{q}_ms.{p.name}"] = (
                percentile(p.latencies_ms, q), "ms")
    if trace:
        layer_file, trace_file = session["files"]
        daemon_layers = json.loads(layer_file.read_text())
        untraced = median([x for p in session["untraced"]
                           for x in p.latencies_ms])
        outcome.layers = {**daemon_layers.pop("layers"), **serving,
                          "trace.overhead_frac": client_p50 / untraced - 1.0}
        outcome.notes.append(daemon_layers["table"])
        outcome.notes.append(
            f"chrome trace: {trace_file.relative_to(ROOT)} "
            f"({daemon_layers['events']} events, validated)")
        return outcome
    # Open loop: replies per second of the highest passing rate equal
    # its offered rate unless the daemon fell behind or dropped some.
    passing = [p for p in phases if p.passes]
    best = passing[-1] if passing else None
    # Latency at the lowest rate: service time without queueing, which
    # is what a change to the daemon moves; at higher rates the shared
    # host's contention swamps it.
    outcome.metrics = {
        "setup_s": session["setup"], "peak_rss_mb": session["rss"],
        "throughput": best.achieved_rps if best else 0.0,
        "p50_ms": median(phases[0].latencies_ms)}
    outcome.figures["max_rate_rps"] = (outcome.metrics["throughput"], "1/s")
    outcome.figures.update({k: (v, "ms" if "_ms" in k else "count")
                            for k, v in serving.items()})
    return outcome


WORKLOADS = {"scenario": scenario, "fleet": fleet, "serve": serve,
             "fuzz": fuzz}
