"""Differential and invariant oracles over the SmartVLC stack.

Each oracle owns one slice of the correctness surface and three
operations: ``generate`` (draw JSON-able params from a seeded
generator), ``execute`` (run the checks, fully deterministic in the
params), and ``shrink_candidates`` (one-step reductions for the
delta-debugging shrinker).  Executing the same params twice — in any
process, at any parallelism — produces the same :class:`CaseResult`
and therefore the same :func:`result_digest`; that is the bit-identical
replay contract behind ``repro fuzz replay``.

The oracles:

* ``codec`` — differential: the production codec
  (:func:`repro.core.encode_symbol` / :func:`~repro.core.decode_symbol`)
  against the combinadic order itself
  (:func:`repro.core.combinatorics.rank_of_codeword`).  Every codeword
  has weight k and ranks as its value; after
  :func:`repro.link.mac.corrupt_slots`, every received word of weight k
  decodes to its rank, and any other weight counts as a symbol error.
* ``roundtrip`` — invariant: CRC-16 round-trips, every single-bit
  corruption is detected, and a designed AMPPM frame decodes back to
  its payload through the real transmitter/receiver pair.
* ``design`` — invariant: every designed super-symbol satisfies the
  Type-I flicker bound, lands inside the illumination envelope
  (|achieved − request| ≤ τ_perceived), and is the one design of its
  memo bucket (the request and the bucket's canonical level get the
  same object).
* ``serve`` — differential: the real :class:`~repro.serve.coalescer.
  AdaptCoalescer` over an :class:`AdaptEngine`, fed in generated and
  in reversed order, against the direct per-request path, canonical
  response bytes compared per request.
* ``journal`` — differential, over the multicell DES kernel: the
  sharded kernel at ``regions=1`` is bit-identical to the reference
  kernel, the spatial index agrees with a brute-force scan over every
  luminaire at every position the run sensed, and ``regions=R`` runs
  are replay-deterministic with shard merge as identity, under
  randomized grids, mobility, ambient profiles, and fault schedules.
* ``scenario`` — differential, over the scenario engine: a random
  small :class:`~repro.scenarios.dsl.Scenario` document round-trips
  the strict loader, replays digest-identically at ``regions=1`` with
  equal reports, matches the sharded machinery at one region
  bit-for-bit, and a ``regions=R`` run is replay-deterministic with
  handovers conserved against the reference — all without a single
  flicker violation.

A synthetic defect can be armed through the ``REPRO_FUZZ_DEFECT``
environment variable (``codec-misdecode``, ``crash``, ``hang``) — the
``--self-test`` harness and the crash-isolation tests use it to prove
the campaign machinery finds, survives, and shrinks real failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol

import numpy as np

from .shrinker import shrink_float, shrink_int, shrink_list

#: Environment variable arming a synthetic defect (self-test / tests).
DEFECT_ENV = "REPRO_FUZZ_DEFECT"

#: The ``codec-misdecode`` defect triggers at exactly these thresholds;
#: the self-test asserts the shrinker recovers them.
DEFECT_N_THRESHOLD = 12
DEFECT_SYMBOLS_THRESHOLD = 24


def active_defect() -> str:
    """The armed synthetic defect ('' when none)."""
    return os.environ.get(DEFECT_ENV, "")


@dataclass(frozen=True)
class CaseResult:
    """The outcome of executing one fuzz case."""

    status: str                      # "ok" | "fail"
    detail: str = ""
    observation: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail,
                "observation": dict(self.observation)}


def _ok(**observation) -> CaseResult:
    return CaseResult("ok", observation=observation)


def _fail(detail: str, **observation) -> CaseResult:
    return CaseResult("fail", detail=detail, observation=observation)


def result_digest(oracle: str, params: Mapping, result: CaseResult) -> str:
    """SHA-256 over the canonical (oracle, params, result) encoding.

    Two executions reproduce bit-identically exactly when their digests
    agree — the identity ``repro fuzz replay`` checks.
    """
    payload = json.dumps(
        {"oracle": oracle, "params": dict(params),
         "result": result.as_dict()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class Oracle(Protocol):  # pragma: no cover - typing only
    name: str

    def generate(self, rng: np.random.Generator) -> dict: ...

    def execute(self, params: Mapping) -> CaseResult: ...

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]: ...


# -- shared per-process state ------------------------------------------


def _config():
    from ..core.params import DEFAULT_CONFIG

    return DEFAULT_CONFIG


def _designer():
    """The process's designer for the default config (pure per bucket)."""
    from ..core.ampdesign import shared_designer

    return shared_designer(_config())


def _sub_rng(rngseed: int, stream: int) -> np.random.Generator:
    """An execution stream derived purely from the params' seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(rngseed), spawn_key=(stream,)))


def _maybe_injected_crash(n: int) -> None:
    defect = active_defect()
    if defect == "crash" and n >= DEFECT_N_THRESHOLD:
        os._exit(17)  # a hard worker death, not an exception
    if defect == "hang" and n >= DEFECT_N_THRESHOLD:
        import time

        while True:  # pragma: no cover - interrupted by the case deadline
            time.sleep(0.05)


# -- codec: the production codec against the combinadic order ----------


class CodecOracle:
    """The production codec against the combinadic order it walks."""

    name = "codec"

    def generate(self, rng: np.random.Generator) -> dict:
        n = int(rng.integers(4, 33))
        return {
            "n": n,
            "k": int(rng.integers(1, n)),
            "n_symbols": int(rng.integers(4, 97)),
            "p_off": round(float(rng.uniform(0.0, 0.25)), 6),
            "p_on": round(float(rng.uniform(0.0, 0.25)), 6),
            "rngseed": int(rng.integers(0, 2**31 - 1)),
        }

    def execute(self, params: Mapping) -> CaseResult:
        from ..core.coding import decode_symbol, encode_symbol
        from ..core.combinatorics import rank_of_codeword, symbol_capacity
        from ..core.errormodel import SlotErrorModel
        from ..link.mac import corrupt_slots

        n, k = int(params["n"]), int(params["k"])
        n_symbols = int(params["n_symbols"])
        _maybe_injected_crash(n)
        errors = SlotErrorModel(float(params["p_off"]), float(params["p_on"]))
        rngseed = int(params["rngseed"])
        values = _sub_rng(rngseed, 0).integers(
            0, symbol_capacity(n, k), size=n_symbols).tolist()
        corrupt_rng = _sub_rng(rngseed, 1)
        misdecode = (active_defect() == "codec-misdecode"
                     and n >= DEFECT_N_THRESHOLD
                     and n_symbols >= DEFECT_SYMBOLS_THRESHOLD)

        ranks = []  # the decoded value of each symbol, -1 for a bad weight
        for i, value in enumerate(values):
            sent = encode_symbol(value, n, k)
            if sum(sent) != k or rank_of_codeword(sent) != value:
                return _fail(f"encode order: the codeword of symbol {i} "
                             f"does not rank as its value")
            received = corrupt_slots(sent, errors, corrupt_rng)
            if sum(received) != k:
                ranks.append(-1)  # the receiver's CodewordWeightError
                continue
            decoded = decode_symbol(received, k)
            if misdecode and i == 0:
                decoded += 1  # the injected defect: an off-by-one rank
            if decoded != rank_of_codeword(received):
                return _fail(f"decode parity: decode_symbol and the "
                             f"combinadic rank diverge at symbol {i}")
            ranks.append(decoded)
        wrong = sum(1 for rank, value in zip(ranks, values) if rank != value)
        checksum = hashlib.sha256(
            ",".join(map(str, ranks)).encode()).hexdigest()[:16]
        return _ok(symbol_errors=wrong, decode_checksum=checksum)

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]:
        base = dict(params)
        for n_symbols in shrink_int(int(base["n_symbols"]), 1):
            yield {**base, "n_symbols": n_symbols}
        for n in shrink_int(int(base["n"]), 2):
            yield {**base, "n": n, "k": min(int(base["k"]), n - 1)}
        for k in shrink_int(int(base["k"]), 1):
            yield {**base, "k": k}
        for p in shrink_float(float(base["p_off"]), 0.0):
            yield {**base, "p_off": p}
        for p in shrink_float(float(base["p_on"]), 0.0):
            yield {**base, "p_on": p}
        for seed in shrink_int(int(base["rngseed"]), 0):
            yield {**base, "rngseed": seed}


# -- roundtrip: CRC + framed codec round-trips -------------------------


class RoundtripOracle:
    """CRC and frame round-trip invariants on arbitrary payloads."""

    name = "roundtrip"

    def generate(self, rng: np.random.Generator) -> dict:
        length = int(rng.integers(1, 49))
        payload = bytes(int(b) for b in rng.integers(0, 256, size=length))
        return {
            "payload_hex": payload.hex(),
            "flip_bit": int(rng.integers(0, (length + 2) * 8)),
            "dimming": round(float(rng.uniform(0.05, 0.95)), 4),
        }

    def execute(self, params: Mapping) -> CaseResult:
        from ..link.crc import append_crc, check_crc, crc16
        from ..link.frame import FrameError
        from ..link.receiver import Receiver
        from ..link.transmitter import Transmitter

        data = bytes.fromhex(str(params["payload_hex"]))
        if not data:
            return _fail("empty payload is not a valid case")
        tagged = append_crc(data)
        if not check_crc(tagged):
            return _fail("CRC round-trip: freshly tagged payload "
                         "fails its own check")
        flip = int(params["flip_bit"]) % (len(tagged) * 8)
        corrupted = bytearray(tagged)
        corrupted[flip // 8] ^= 1 << (flip % 8)
        if check_crc(bytes(corrupted)):
            return _fail(f"CRC blind spot: single-bit flip at bit {flip} "
                         f"goes undetected")

        from ..schemes import shared_scheme_design

        design = shared_scheme_design(
            _designer().design_clamped(float(params["dimming"])), _config())
        slots = Transmitter(_config()).encode_frame(data, design)
        try:
            frame = Receiver(_config()).decode_frame(list(slots))
        except FrameError as exc:
            return _fail(f"frame round-trip: clean frame rejected ({exc})")
        if frame.payload != data:
            return _fail("frame round-trip: decoded payload differs")
        return _ok(crc=crc16(data), frame_slots=len(slots))

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]:
        base = dict(params)
        data = bytes.fromhex(str(base["payload_hex"]))
        for shorter in shrink_list(list(data)):
            if shorter:
                yield {**base, "payload_hex": bytes(shorter).hex()}
        if data:
            zeroed = bytes(len(data))
            if zeroed != data:
                yield {**base, "payload_hex": zeroed.hex()}
        for flip in shrink_int(int(base["flip_bit"]), 0):
            yield {**base, "flip_bit": flip}
        for dimming in shrink_float(float(base["dimming"]), 0.5):
            yield {**base, "dimming": dimming}


# -- design: flicker / envelope / memo-purity invariants ---------------


class DesignOracle:
    """Designer invariants at a randomized dimming request."""

    name = "design"

    def generate(self, rng: np.random.Generator) -> dict:
        return {"dimming": round(float(rng.uniform(0.001, 0.999)), 6)}

    def execute(self, params: Mapping) -> CaseResult:
        designer = _designer()
        config = _config()
        target = designer.clamp(float(params["dimming"]))
        design = designer.design(target)
        ss = design.super_symbol
        if not ss.flicker_free(config):
            return _fail(f"flicker bound violated by {ss} "
                         f"at dimming {target:.6f}")
        error = abs(design.achieved_dimming - target)
        if error > config.tau_perceived + 1e-9:
            return _fail(f"illumination envelope: |achieved-target| = "
                         f"{error:.6f} exceeds "
                         f"tau_perceived {config.tau_perceived:g}")
        canonical = designer.clamp(designer.memo_key(target)
                                   * config.tau_perceived)
        if designer.design(canonical) is not design:
            return _fail(f"bucket purity: the canonical level "
                         f"{canonical:.6f} of the request's bucket has a "
                         f"different design")
        return _ok(n1=ss.first.n_slots, k1=ss.first.n_on, m1=ss.m1,
                   n2=ss.second.n_slots, k2=ss.second.n_on, m2=ss.m2,
                   achieved=round(design.achieved_dimming, 9))

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]:
        base = dict(params)
        for dimming in shrink_float(float(base["dimming"]), 0.5,
                                    decimals=(1, 2, 3, 4)):
            yield {**base, "dimming": dimming}


# -- serve: the daemon's adapt path vs the direct designer -------------


async def _served(engine, dimmings: list[float]) -> list:
    """Designs for ``dimmings`` through the daemon's adapt seam, in order."""
    from ..serve.coalescer import AdaptCoalescer

    coalescer = AdaptCoalescer(engine.design)
    return [await coalescer.submit(d) for d in dimmings]


class ServeOracle:
    """Served-vs-direct byte equality over randomized request mixes."""

    name = "serve"

    def generate(self, rng: np.random.Generator) -> dict:
        tau = _config().tau_perceived
        count = int(rng.integers(1, 10))
        requests: list[dict] = []
        for i in range(count):
            if requests and rng.random() < 0.35:
                # Stress duplicate memo buckets: jitter a prior request
                # within the perceived resolution (the PR 6 leak shape).
                donor = requests[int(rng.integers(0, len(requests)))]
                dimming = donor["dimming"] + float(
                    rng.uniform(-tau / 4, tau / 4))
            else:
                dimming = float(rng.uniform(0.02, 0.98))
            requests.append({
                "dimming": round(min(max(dimming, 0.001), 0.999), 6),
                "ambient": round(float(rng.uniform(0.0, 1.0)), 4),
                "distance_m": round(float(rng.uniform(0.5, 6.0)), 3),
                "angle_deg": round(float(rng.uniform(0.0, 75.0)), 2),
                "id": f"c{i}",
            })
        return {"requests": requests}

    def execute(self, params: Mapping) -> CaseResult:
        import asyncio

        from ..serve.protocol import encode, ok_response, parse_request
        from ..serve.server import AdaptEngine

        raw = list(params["requests"])
        if not raw:
            return _fail("empty request list is not a valid case")
        requests = [parse_request({"v": 1, "op": "adapt", **r}) for r in raw]
        engine = AdaptEngine(_config())
        direct = [encode(ok_response("adapt", engine.adapt_direct(r), r.id))
                  for r in requests]
        forward = list(range(len(requests)))
        for order, indices in (("generated", forward),
                               ("reversed", forward[::-1])):
            designs = asyncio.run(_served(
                engine, [requests[i].dimming for i in indices]))
            for i, design in zip(indices, designs):
                r = requests[i]
                if encode(ok_response("adapt", engine.result(r, design),
                                      r.id)) != direct[i]:
                    return _fail(f"served-vs-direct divergence at request "
                                 f"{i} ({order} order): the served "
                                 f"reply differs from the direct designer "
                                 f"answer")
        buckets = {engine.bucket(r.dimming) for r in requests}
        replies_sha = hashlib.sha256(b"".join(direct)).hexdigest()[:16]
        return _ok(requests=len(requests), unique_buckets=len(buckets),
                   replies_sha=replies_sha)

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]:
        base = dict(params)
        requests = list(base["requests"])
        for fewer in shrink_list(requests):
            if fewer:
                yield {**base, "requests": fewer}
        rounded = [{**r, "dimming": round(float(r["dimming"]), 2)}
                   for r in requests]
        if rounded != requests:
            yield {**base, "requests": rounded}
        neutral = [{**r, "ambient": 1.0, "distance_m": 3.0, "angle_deg": 0.0}
                   for r in requests]
        if neutral != requests:
            yield {**base, "requests": neutral}


# -- journal: sharded DES kernel parity and determinism ----------------


class JournalOracle:
    """Multicell kernel differentials under randomized scenarios.

    Checks the invariants the sharded kernel actually guarantees:
    ``run_sharded`` at ``regions=1`` is bit-identical to the reference
    kernel; at every ``sense`` position of the reference run the
    :class:`~repro.net.spatial.LuminaireIndex` agrees with a
    brute-force scan over every luminaire (see :meth:`_index_miss`);
    ``regions=R`` runs are same-seed deterministic with
    ``merge_journals`` as the identity on their shards and aggregate
    handovers matching the unsharded run.
    (``regions=R`` journals legitimately differ from ``regions=1`` in
    event interleaving — the conservative-lookahead rounds re-time
    boundary reports — so raw digest equality across R is *not* an
    invariant and is deliberately not asserted.)
    """

    name = "journal"

    def generate(self, rng: np.random.Generator) -> dict:
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        if rows * cols < 2:
            cols = 2
        nodes = int(rng.integers(1, 4))
        duration = round(float(rng.uniform(2.0, 5.0)), 1)
        outages: list[list[float]] = []
        downtime: list[list] = []
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(1, 3))):
                start = round(float(rng.uniform(0.0, 0.6)) * duration, 2)
                end = round(start + float(rng.uniform(0.2, 0.4)) * duration, 2)
                outages.append([start, end])
        if rng.random() < 0.4:
            for _ in range(int(rng.integers(1, 3))):
                node = f"node-{int(rng.integers(0, nodes)):02d}"
                start = round(float(rng.uniform(0.0, 0.6)) * duration, 2)
                end = round(start + float(rng.uniform(0.2, 0.4)) * duration, 2)
                downtime.append([node, start, end])
        return {
            "rows": rows,
            "cols": cols,
            "nodes": nodes,
            "duration": duration,
            "seed": int(rng.integers(0, 2**31 - 1)),
            "regions": int(rng.integers(2, min(4, rows * cols) + 1)),
            "ambient_kind": ("ramp" if rng.random() < 0.3 else "static"),
            "ambient_level": round(float(rng.uniform(0.05, 0.9)), 2),
        }| ({"outages": outages} if outages else {}) \
          | ({"downtime": downtime} if downtime else {})

    def _build(self, params: Mapping, **overrides):
        from ..lighting.ambient import BlindRampAmbient, StaticAmbient
        from ..net.multicell import default_network
        from ..resilience.faults import (FaultSchedule, NodeDowntime,
                                         UplinkOutage)

        nodes = int(params["nodes"])
        known = {f"node-{i:02d}" for i in range(nodes)}
        duration = float(params["duration"])
        profile = (BlindRampAmbient(duration_s=duration)
                   if params.get("ambient_kind") == "ramp"
                   else StaticAmbient(float(params.get("ambient_level",
                                                       0.4))))
        faults = FaultSchedule(tuple(
            NodeDowntime(str(name), float(s), float(e))
            for name, s, e in params.get("downtime", ())
            if str(name) in known) + tuple(
            UplinkOutage(float(s), float(e))
            for s, e in params.get("outages", ())))
        return default_network(rows=int(params["rows"]),
                               cols=int(params["cols"]),
                               n_nodes=nodes, seed=int(params["seed"]),
                               profile=profile, faults=faults, **overrides)

    def execute(self, params: Mapping) -> CaseResult:
        from ..net.sharded import merge_journals, run_sharded

        duration = float(params["duration"])
        simulation = self._build(params)
        reference = simulation.run(duration)
        degenerate = run_sharded(self._build(params), duration)
        if degenerate.journal.digest() != reference.journal.digest():
            return _fail("regions=1 degeneracy: the sharded machinery "
                         "at one region diverges from the reference "
                         "kernel")
        miss = self._index_miss(simulation, reference.journal)
        if miss is not None:
            return _fail(f"spatial-index exactness: {miss}")
        observation = {
            "digest": reference.journal.digest()[:16],
            "events": len(reference.journal),
            "handovers": reference.total_handovers,
        }
        regions = min(int(params["regions"]),
                      int(params["rows"]) * int(params["cols"]))
        if regions > 1:
            first = self._build(params, regions=regions).run(duration)
            second = self._build(params, regions=regions).run(duration)
            if first.journal.digest() != second.journal.digest():
                return _fail(f"sharded determinism: two regions={regions} "
                             f"replays disagree")
            merged = merge_journals(first.shards)
            if merged.digest() != first.journal.digest():
                return _fail("shard merge identity: merge_journals over "
                             "the shards is not the run's journal")
            if first.total_handovers != reference.total_handovers:
                return _fail(f"handover divergence: regions={regions} saw "
                             f"{first.total_handovers} handovers, the "
                             f"reference kernel {reference.total_handovers}")
            observation["sharded_digest"] = first.journal.digest()[:16]
        return _ok(**observation)

    @staticmethod
    def _index_miss(simulation, journal) -> str | None:
        """The first sensed position where the index disagrees with a
        brute-force scan, or ``None``.

        ``within`` must list, in luminaire order, every luminaire whose
        channel gain is positive (a zero-gain extra changes no float
        sum), and ``nearest`` must be the minimum by ``(distance,
        name)``.  These are the two facts that make the indexed loops
        journal what a scan over every luminaire would.
        """
        from ..phy.optics import LinkGeometry

        index, optics = simulation._index, simulation.channel.optics
        for entry in journal.of_kind("sense"):
            position = (entry.get("x"), entry.get("y"))
            offsets = [(math.hypot(position[0] - lum.x_m,
                                   position[1] - lum.y_m), lum.name)
                       for lum in simulation.luminaires]
            lit = [name for offset, name in offsets
                   if optics.channel_gain(LinkGeometry.from_offsets(
                       offset, simulation.drop_m)) > 0.0]
            found = [lum.name for lum in index.within(position)]
            if [name for name in found if name in lit] != lit:
                return f"within() at {position}"
            if index.nearest(position).name != min(offsets)[1]:
                return f"nearest() at {position}"
        return None

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]:
        base = dict(params)
        for duration in shrink_float(float(base["duration"]), 2.0,
                                     decimals=(0, 1)):
            if duration >= 1.0:
                yield {**base, "duration": duration}
        for nodes in shrink_int(int(base["nodes"]), 1):
            yield {**base, "nodes": nodes}
        for rows in shrink_int(int(base["rows"]), 1):
            yield {**base, "rows": rows,
                   "regions": min(int(base["regions"]),
                                  rows * int(base["cols"]))}
        for cols in shrink_int(int(base["cols"]), 1):
            yield {**base, "cols": cols,
                   "regions": min(int(base["regions"]),
                                  int(base["rows"]) * cols)}
        for key in ("outages", "downtime"):
            if base.get(key):
                for fewer in shrink_list(list(base[key])):
                    candidate = dict(base)
                    if fewer:
                        candidate[key] = fewer
                    else:
                        candidate.pop(key)
                    yield candidate
        if base.get("ambient_kind") == "ramp":
            yield {**base, "ambient_kind": "static"}
        for seed in shrink_int(int(base["seed"]), 0):
            yield {**base, "seed": seed}


# -- scenario: trace-driven scenario engine parity and invariants ------


class ScenarioOracle:
    """Scenario-engine differentials over randomized tiny buildings.

    The params carry a complete ``Scenario.to_dict`` document, so every
    case also exercises the strict loader: ``from_dict`` must accept it
    and ``to_dict`` must reproduce it exactly.  On top of that, the
    engine's replay contract: two ``regions=1`` runs journal
    bit-identically and fold to equal reports, the sharded machinery at
    one region matches the reference kernel digest-for-digest, and a
    ``regions=R`` run is replay-deterministic with handovers and report
    delivery conserved against the reference.  The adaptation planner's
    own guarantee — never a perceptible lighting step — is asserted as
    an invariant of every run.
    """

    name = "scenario"

    def generate(self, rng: np.random.Generator) -> dict:
        from ..scenarios.dsl import (
            ChaosSpec,
            DaylightSpec,
            OccupancySpec,
            RoomSpec,
            Scenario,
        )

        duration = round(float(rng.uniform(40.0, 90.0)), 1)
        tick = float(rng.choice((2.0, 3.0, 5.0)))
        rooms = []
        for index in range(int(rng.integers(1, 3))):
            daylight = DaylightSpec(
                sunrise_s=0.0,
                sunset_s=round(duration * float(rng.uniform(1.2, 2.5)), 1),
                peak_level=round(float(rng.uniform(0.3, 0.9)), 3),
                night_level=round(float(rng.uniform(0.0, 0.1)), 3),
                cloud_depth=round(float(rng.uniform(0.0, 0.6)), 3),
                cloud_time_scale_s=round(float(rng.uniform(10.0, 60.0)), 1),
                window_gain=round(float(rng.uniform(0.5, 1.0)), 3))
            occupancy = OccupancySpec(
                population=int(rng.integers(1, 3)),
                arrive_lo_s=0.0,
                arrive_hi_s=round(duration * 0.2, 1),
                depart_lo_s=round(duration * 0.6, 1),
                depart_hi_s=round(duration * 0.9, 1),
                pause_s=round(float(rng.uniform(0.0, 10.0)), 1))
            rooms.append(RoomSpec(
                id=f"room-{index}", rows=1,
                cols=int(rng.integers(1, 3)),
                spacing_m=round(float(rng.uniform(1.5, 3.5)), 2),
                daylight=daylight, occupancy=occupancy))
        chaos = (ChaosSpec(schedule="random",
                           intensity=round(float(rng.uniform(0.2, 0.8)), 3))
                 if rng.random() < 0.35 else None)
        scenario = Scenario(
            name="fuzz", rooms=tuple(rooms),
            seed=int(rng.integers(0, 2**31 - 1)),
            duration_s=duration, tick_s=tick,
            report_window_s=round(duration / 2.0, 1),
            chaos=chaos)
        limit = min(2, scenario.n_luminaires)
        return {"scenario": scenario.to_dict(),
                "regions": int(rng.integers(1, limit + 1))}

    def execute(self, params: Mapping) -> CaseResult:
        from ..net.sharded import run_sharded
        from ..scenarios.compiler import compile_scenario
        from ..scenarios.dsl import Scenario
        from ..scenarios.runner import ScenarioRunner

        document = dict(params["scenario"])
        scenario = Scenario.from_dict(document)
        if scenario.to_dict() != document:
            return _fail("DSL round-trip: from_dict(to_dict) is not "
                         "the identity on this document")
        first = ScenarioRunner(scenario).run()
        second = ScenarioRunner(scenario).run()
        if first.report.journal_digest != second.report.journal_digest:
            return _fail("scenario replay: two regions=1 runs journal "
                         "differently")
        if first.report.as_dict() != second.report.as_dict():
            return _fail("report determinism: equal journals folded to "
                         "different reports")
        sharded = run_sharded(compile_scenario(scenario).simulation,
                              scenario.duration_s)
        if sharded.journal.digest() != first.report.journal_digest:
            return _fail("regions=1 degeneracy: the sharded machinery "
                         "at one region diverges from the scenario run")
        flicker = sum(room.flicker_violations for room in first.report.rooms)
        if flicker:
            return _fail(f"flicker invariant: {flicker} perceptible "
                         f"lighting step(s) journalled at regions=1")
        observation = {
            "digest": first.report.journal_digest[:16],
            "events": len(first.result.journal),
            "handovers": first.result.total_handovers,
            "rooms": len(scenario.rooms),
            "population": scenario.population,
        }
        regions = min(int(params.get("regions", 1)), scenario.n_luminaires)
        if regions > 1:
            r_first = ScenarioRunner(scenario, regions=regions).run()
            r_second = ScenarioRunner(scenario, regions=regions).run()
            if (r_first.report.journal_digest
                    != r_second.report.journal_digest):
                return _fail(f"sharded determinism: two regions={regions} "
                             f"scenario replays disagree")
            if (r_first.result.total_handovers
                    != first.result.total_handovers):
                return _fail(f"handover divergence: regions={regions} saw "
                             f"{r_first.result.total_handovers} handovers, "
                             f"regions=1 {first.result.total_handovers}")
            r_metrics, metrics = r_first.result.metrics(), \
                first.result.metrics()
            for key in ("reports_delivered", "reports_lost"):
                if r_metrics[key] != metrics[key]:
                    return _fail(f"report-plane divergence: {key} differs "
                                 f"at regions={regions}")
            r_flicker = sum(room.flicker_violations
                            for room in r_first.report.rooms)
            if r_flicker:
                return _fail(f"flicker invariant: {r_flicker} perceptible "
                             f"lighting step(s) at regions={regions}")
            observation["sharded_digest"] = \
                r_first.report.journal_digest[:16]
        return _ok(**observation)

    def shrink_candidates(self, params: Mapping) -> Iterator[dict]:
        base = dict(params)
        document = dict(base["scenario"])
        rooms = list(document["rooms"])
        if len(rooms) > 1:
            for fewer in shrink_list(rooms):
                if fewer:
                    yield {**base,
                           "scenario": {**document, "rooms": fewer}}
        if document.get("chaos") is not None:
            yield {**base, "scenario": {**document, "chaos": None}}
        if int(base.get("regions", 1)) > 1:
            yield {**base, "regions": 1}
        for index, room in enumerate(rooms):
            occupancy = dict(room["occupancy"])
            if occupancy["population"] > 1:
                smaller = [dict(other) for other in rooms]
                smaller[index] = {**room, "occupancy":
                                  {**occupancy, "population": 1}}
                yield {**base,
                       "scenario": {**document, "rooms": smaller}}
            if int(room["cols"]) > 1:
                smaller = [dict(other) for other in rooms]
                smaller[index] = {**room, "cols": int(room["cols"]) - 1}
                yield {**base,
                       "scenario": {**document, "rooms": smaller}}
        for seed in shrink_int(int(document["seed"]), 0):
            yield {**base, "scenario": {**document, "seed": seed}}


#: The oracle registry, in presentation order.
ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (CodecOracle(), RoundtripOracle(), DesignOracle(),
                   ServeOracle(), JournalOracle(), ScenarioOracle())
}


def execute_params(oracle: str, params: Mapping) -> CaseResult:
    """Run one oracle on concrete params (the replay entry point)."""
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; "
                         f"known: {sorted(ORACLES)}")
    return ORACLES[oracle].execute(params)
