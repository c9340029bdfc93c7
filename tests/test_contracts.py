"""Determinism contracts: every pinned digest, declared once.

Each result this reproduction reports is a pure function of (config,
seed).  A row below names one such result, the runs that must all
print its digest, the digest itself and why it is pinned.  Each run
is a fresh interpreter (``python`` plus the row's arguments) that must
exit 0 and print the pin as one whitespace-separated token.  A
``repro`` run exits 0 only when a scenario passes its SLOs and a fuzz
campaign comes back clean, so those verdicts are part of the contract.

A fresh interpreter per run means a digest cannot lean on what an
earlier test left in a process-wide cache (the shared designer, the
scheme-design and frame caches).  The child inherits the environment,
``PYTHONHASHSEED`` included.  Journals hold only plain ``int``,
``float``, ``str`` and ``bool`` values, so no pin depends on NumPy's
scalar repr or on the hash seed.  Pinned on CPython 3.11 with NumPy
2.4.  A change that means to move a digest re-pins its row on purpose
and says so in CHANGES.md.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Contract:
    """One pinned digest: every run in ``runs`` must print ``pin``."""

    id: str
    runs: tuple[tuple[str, ...], ...]
    pin: str
    why: str


def cli(*args: str) -> tuple[str, ...]:
    """A ``python -m repro`` run."""
    return ("-m", "repro", *args)


def script(source: str) -> tuple[str, ...]:
    """A ``python -c`` run whose source prints the digest."""
    return ("-c", textwrap.dedent(source))


def journal_of(run: str) -> tuple[str, ...]:
    """A ``python -c`` run printing the journal digest of ``run``."""
    return script(f"""
        from repro.lighting import BlindRampAmbient
        from repro.link import WifiUplink
        from repro.net import default_network, desk_room
        from repro.resilience import FaultSchedule, NodeDowntime, UplinkOutage
        print({run}.journal.digest())
        """)


CONTRACTS = (
    Contract(
        "fleet-4x4-regions-1",
        (journal_of("default_network(rows=4, cols=4, n_nodes=8, seed=11)"
                    ".run(20.0)"),),
        "1fbf3c740ed2899f8d42e06fde16d7cd7644d9b340bafafab970ba09daf9eff1",
        "any change to a result anywhere in the stack (designer, link "
        "model, DES kernel, sharding) shows here"),
    Contract(
        "fleet-4x4-regions-4",
        (journal_of("default_network(rows=4, cols=4, n_nodes=8, seed=11, "
                    "regions=4).run(20.0)"),),
        "6b87048417bb9bd8ad66fa4bc5fef32dcb2e9736905bbe02bb47138cb13f6073",
        "the same fleet sharded: a given (seed, regions) pair gives the "
        "same bytes on every run"),
    Contract(
        "fleet-8x8-regions-4",
        (journal_of("default_network(rows=8, cols=8, n_nodes=32, seed=11, "
                    "regions=4).run(10.0)"),),
        "bf74b8383a9d233acb921e41f93e3cfa9cb2186bb4579956c6c9db21a71c869c",
        "a city-block fleet (8x8 luminaires, 32 receivers) sharded "
        "across 4 regions must be deterministic"),
    Contract(
        "fleet-2x2",
        (journal_of("default_network(rows=2, cols=2, n_nodes=4, seed=13)"
                    ".run(30.0)"),),
        "980ce7357a220787a5fb8a423263a32ba5e1636b50a84c73f6595a0dcf093afb",
        "pins the multicell journal without faults"),
    Contract(
        "fleet-2x2-faulted",
        (journal_of("default_network(rows=2, cols=2, n_nodes=4, seed=13, "
                    "faults=FaultSchedule((NodeDowntime('node-01', 5.0, "
                    "12.0), UplinkOutage(8.0, 15.0)))).run(30.0)"),),
        "65dddb4527a1d412d4fea84658544b94f290fd186c270bb7107deaf5a8412b0c",
        "pins the multicell journal with a node down and an uplink "
        "outage"),
    Contract(
        "huddle-smoke", (cli("scenario", "run", "huddle-smoke"),),
        "bd4fc52d3423b91501c4937b408d6d78720bdf95e13b44baee6ea9f9318a17ba",
        "the smallest shipped scenario passes its SLOs, byte for byte, "
        "through the whole scenario compiler"),
    Contract(
        "huddle-smoke-regions-2",
        (cli("scenario", "run", "huddle-smoke", "--regions", "2"),),
        "4132a6fbfed2fd44c3a0be8549a7e6fd3d29a613625b6bbbe01c37d72f552202",
        "regions=2 must keep the scenario deterministic and passing"),
    Contract(
        "office-day", (script("""
            from repro.scenarios import ScenarioRunner
            from repro.scenarios.shipped import shipped_scenarios
            run = ScenarioRunner(shipped_scenarios()["office-day"]).run()
            assert len(run.result.journal) == 22226, len(run.result.journal)
            print(run.report.journal_digest)
            """),),
        "b5f112a297955742687bf6fe3d03c8127210865acfbbf34a24dbbd07fc1237d1",
        "occupants arrive, take breaks and leave, so their traces are "
        "queried again after hours of absence"),
    Contract(
        "chaos-mixed-supervised", (cli("chaos", "--seed", "13"),),
        "46ffdcd580fde2b4d2347ad227960045cd072fde94a607b14d370bb712b9bfb9",
        "control ticks, MAC frames and fault boundaries share one DES "
        "clock, so any change in the kernel's dispatch order moves it"),
    Contract(
        "chaos-mixed-baseline",
        (cli("chaos", "--seed", "13", "--unsupervised"),),
        "593b601cd44ee0e5fe1091e8cb78e4b997c234783193d69d076422d7c71915a5",
        "the paper-faithful arm: fixed timeout, fixed payload, no state "
        "machine"),
    Contract(
        "chaos-blinding-supervised",
        (cli("chaos", "--schedule", "blinding", "--seed", "13"),),
        "4abe98e3a599ad38bf2865521b6b3cb3ff63b9c24926c0007f6fefa295990f15",
        "ADC blinding drives the supervised link through DEGRADED and "
        "back"),
    Contract(
        "chaos-blinding-baseline",
        (cli("chaos", "--schedule", "blinding", "--seed", "13",
             "--unsupervised"),),
        "e3e4320bb9ac87e3083a4e65d9747826211394c201b673498b91ba57f000cd44",
        "the baseline under ADC blinding"),
    Contract(
        "desk-room", (journal_of("desk_room().run(30.0)"),),
        "afed42ea3eb1a12ffd397d224e199dc3cb46fc828a8ae10824f38cf2aea27413",
        "the one network where three desks' reports meet one fusion "
        "every tick, so any change to the feedback plane moves it"),
    Contract(
        "desk-room-lossy-blind-pull",
        (journal_of("desk_room(profile=BlindRampAmbient(duration_s=67.0), "
                    "uplink=WifiUplink(latency_s=2e-3, jitter_s=0.5e-3, "
                    "loss_probability=0.05)).run(67.0)"),),
        "a52ac28eb6f2d1e04d914711bd945f72025762a4766941c08d8ec9e6c2054057",
        "the multi-receiver example's run: a 67 s blind pull over a "
        "jittery uplink that loses one report in twenty"),
    Contract(
        "fuzz-300",
        (cli("fuzz", "run", "--budget", "300", "--seed", "0"),
         cli("fuzz", "run", "--budget", "300", "--seed", "0",
             "--jobs", "2")),
        "3991d751a8b4fbfe50137bf82e586ce605eb188fcba9afeb3f0ff19d887979fb",
        "a short campaign on the shipped tree comes back clean, and no "
        "oracle's results drift with the worker count"),
)


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda row: row.id)
def test_contract_holds(contract, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for run in contract.runs:
        done = subprocess.run([sys.executable, *run], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert contract.pin in done.stdout.split(), (
            f"{contract.id} moved ({contract.why}):\n{done.stdout}")
