"""Per-layer tracing from the outside: span wrappers and the layer table.

The traced run installs thin wrappers around the public calls of each
layer and records them as ``repro.obs`` spans in the active telemetry
session.  Nothing in ``src/`` changes: the wrappers replace attributes
on the imported modules and classes, including names other modules
bound with ``from x import f``, so every call site goes through them.
Pool workers started by fork inherit the wrappers, and the sweep runner
already ships their spans back to the parent session.

Span names are ``<layer>.<what>``, with the layer named after its
module.  :func:`layer_metrics` folds a session's spans into the
per-layer numbers, reporting 0 for layers the workload never crossed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from typing import Callable, Iterable

#: Spans opened around each wrapped call: (module, attribute, span name).
#: ``Class.method`` attributes patch the class; plain names patch the
#: function wherever it was imported.
SPANNED = (
    ("repro.core.ampdesign", "AmppmDesigner.__init__", "core.designer.build"),
    ("repro.core.ampdesign", "AmppmDesigner.design", "core.designer.design"),
    ("repro.core.supersymbol", "compose", "core.supersymbol.compose"),
    ("repro.des.kernel", "EventScheduler.run", "des.kernel.run"),
    ("repro.net.sharded", "run_sharded", "net.sharded.run"),
    ("repro.lighting.controller", "SmartLightingController.tick",
     "lighting.controller.tick"),
    ("repro.sim.linkmodel", "expected_goodput", "sim.linkmodel.goodput"),
    ("repro.scenarios.compiler", "compile_scenario", "scenarios.compile"),
    ("repro.scenarios.report", "build_report", "scenarios.grade"),
    ("repro.serve.protocol", "parse_request", "serve.protocol.parse"),
    ("repro.serve.protocol", "encode", "serve.protocol.encode"),
    ("repro.serve.coalescer", "AdaptCoalescer.submit",
     "serve.coalescer.submit"),
    ("repro.serve.server", "AdaptEngine.design", "serve.engine.design"),
    ("repro.serve.server", "AdaptEngine.result", "serve.engine.result"),
)

#: Calls too frequent or too small for a span: counted in the registry.
COUNTED = (
    ("repro.net.spatial", "LuminaireIndex.within", "net.spatial.within"),
)

#: Counter carrying the :data:`COUNTED` calls, labelled by layer name.
CALLS_COUNTER = "perfbench_layer_calls_total"

ORACLES = ("codec", "roundtrip", "design", "serve", "journal", "scenario")

#: Spans whose time is charged to the simulation model, not the kernel:
#: the kernel's self time is its run time minus these.
_MODEL_SPANS = frozenset({"core.designer.build", "core.designer.design",
                          "lighting.controller.tick",
                          "sim.linkmodel.goodput"})


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, member, getattr(owner, member)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at the
    replacement (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _spanned(original: Callable, name: str) -> Callable:
    from repro.obs import span

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            with span(name):
                return await original(*args, **kwargs)
        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with span(name):
            return original(*args, **kwargs)
    return wrapper


def _oracle_spanned(original: Callable) -> Callable:
    from repro.obs import span

    @functools.wraps(original)
    def wrapper(oracle, params):
        with span(f"fuzz.oracle.{oracle}"):
            return original(oracle, params)
    return wrapper


def _counted(original: Callable, name: str) -> Callable:
    from repro.obs import metrics

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        metrics().counter(CALLS_COUNTER).inc(layer=name)
        return original(*args, **kwargs)
    return wrapper


def install() -> None:
    """Wrap every layer boundary listed above.

    Call once per process: a second call would wrap the wrappers.
    """
    # Import every consumer first, so _rebind sees their name bindings.
    for module_name in ("repro.scenarios", "repro.net", "repro.serve",
                        "repro.fuzz", "repro.sim.sweep"):
        importlib.import_module(module_name)
    plan = [(m, a, _spanned, n) for m, a, n in SPANNED]
    plan += [(m, a, _counted, n) for m, a, n in COUNTED]
    for module_name, attribute, make, name in plan:
        owner, member, original = _resolve(module_name, attribute)
        replacement = make(original, name)
        setattr(owner, member, replacement)
        if inspect.ismodule(owner):
            _rebind(original, replacement)
    original = importlib.import_module("repro.fuzz.oracles").execute_params
    _rebind(original, _oracle_spanned(original))


# -- folding spans into layer metrics ------------------------------------


class _Tree:
    """Parent/child index over one session's span records."""

    def __init__(self, records: Iterable):
        self.records = list(records)
        self.by_id = {r.span_id: r for r in self.records}
        self.children: dict[int, list] = {}
        for record in self.records:
            if record.parent_id in self.by_id:
                self.children.setdefault(record.parent_id, []).append(record)

    def named(self, name: str) -> list:
        return [r for r in self.records if r.name == name]

    def topmost(self, root, names: frozenset) -> list:
        """Descendants of ``root`` named in ``names`` with no such
        ancestor between them and ``root``."""
        found, stack = [], list(self.children.get(root.span_id, ()))
        while stack:
            record = stack.pop()
            if record.name in names:
                found.append(record)
            else:
                stack.extend(self.children.get(record.span_id, ()))
        return found

    def covered_s(self, root, names: frozenset) -> float:
        return sum(r.duration_s for r in self.topmost(root, names))


def _total_s(spans: list) -> float:
    return sum(r.duration_s for r in spans)


def layer_metrics(session) -> dict[str, float]:
    """The span- and counter-derived per-layer numbers of one session.

    Keys are ``per_layer`` names of ``BENCHMARK.json``, minus the ones
    the workloads measure themselves (serve figures, handovers, events).
    """
    tree = _Tree(session.spans.records)
    calls = session.registry.get(CALLS_COUNTER)

    def counted(name: str) -> float:
        return float(calls.value(layer=name)) if calls is not None else 0.0

    out: dict[str, float] = {}
    builds = tree.named("core.designer.build")
    designs = tree.named("core.designer.design")
    misses = sum(1 for d in designs
                 if tree.topmost(d, frozenset({"core.supersymbol.compose"})))
    out["core.designer.builds"] = float(len(builds))
    out["core.designer.build_s"] = _total_s(builds)
    out["core.designer.design_calls"] = float(len(designs))
    out["core.designer.design_s"] = _total_s(designs)
    out["core.designer.miss_frac"] = misses / len(designs) if designs else 0.0

    runs = tree.named("des.kernel.run")
    out["des.kernel.run_calls"] = float(len(runs))
    out["des.kernel.run_s"] = _total_s(runs)
    out["des.kernel.self_s"] = sum(r.duration_s - tree.covered_s(r, _MODEL_SPANS)
                                   for r in runs)

    sharded = tree.named("net.sharded.run")
    rounds = session.registry.get("repro_multicell_rounds_total")
    out["net.sharded.rounds"] = float(rounds.value()) if rounds else 0.0
    out["net.sharded.overhead_s"] = sum(
        r.duration_s - tree.covered_s(
            r, frozenset({"des.kernel.run", "core.designer.build"}))
        for r in sharded)
    out["net.spatial.within_calls"] = counted("net.spatial.within")

    ticks = tree.named("lighting.controller.tick")
    out["lighting.controller.ticks"] = float(len(ticks))
    out["lighting.controller.tick_s"] = _total_s(ticks)
    goodput = tree.named("sim.linkmodel.goodput")
    out["sim.linkmodel.goodput_calls"] = float(len(goodput))
    out["sim.linkmodel.goodput_s"] = _total_s(goodput)

    for phase in ("compile", "run", "grade"):
        out[f"scenarios.{phase}_s"] = _total_s(tree.named(f"scenarios.{phase}"))
    for oracle in ORACLES:
        cases = tree.named(f"fuzz.oracle.{oracle}")
        out[f"fuzz.oracle.{oracle}.cases"] = float(len(cases))
        out[f"fuzz.oracle.{oracle}.s"] = _total_s(cases)
    return out


def serve_layer_metrics(session) -> dict[str, float]:
    """The daemon-side span figures of a traced ``repro serve`` process."""
    tree = _Tree(session.spans.records)
    submits = tree.named("serve.coalescer.submit")
    designs = frozenset({"serve.engine.design"})
    wait_s = sum(r.duration_s - tree.covered_s(r, designs) for r in submits)
    return {
        "serve.protocol.parse_s": _total_s(tree.named("serve.protocol.parse")),
        "serve.protocol.encode_s": _total_s(
            tree.named("serve.protocol.encode")),
        "serve.coalescer.wait_ms": (wait_s / len(submits) * 1e3
                                    if submits else 0.0),
        "serve.engine.design_s": _total_s(tree.named("serve.engine.design")),
        "serve.engine.result_s": _total_s(tree.named("serve.engine.result")),
        **{key: value for key, value in layer_metrics(session).items()
           if key.startswith("core.")},
    }


def write_trace(session, path) -> int:
    """Write the session as a validated Chrome trace; returns the event count."""
    import json

    from repro.obs import chrome_trace, validate_trace

    payload = chrome_trace(session)
    validate_trace(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])


def self_time_table(session, top: int = 25) -> str:
    """The per-label exclusive-time table of a session's spans."""
    from repro.obs import ProfileSession

    return ProfileSession.from_session(session).render(top=top)
