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
``float``, ``str`` and ``bool`` values, so no pin depends on how
NumPy encodes its scalars or on the hash seed.  Pinned on CPython 3.11
with NumPy 2.4.  A change that means to move a digest re-pins its row
on purpose and says so in CHANGES.md.
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
        "32be6f5339597a7ec5918e1fd0f275a0b4735019bd21fae4f294096b3b181694",
        "any change to a result anywhere in the stack (designer, link "
        "model, DES kernel, sharding) shows here"),
    Contract(
        "fleet-4x4-regions-4",
        (journal_of("default_network(rows=4, cols=4, n_nodes=8, seed=11, "
                    "regions=4).run(20.0)"),),
        "187184915f1fab0106d748f1213c1de3d3f2f8900d5411b654a80b5f37de75f8",
        "the same fleet sharded: a given (seed, regions) pair gives the "
        "same bytes on every run"),
    Contract(
        "fleet-8x8-regions-4",
        (journal_of("default_network(rows=8, cols=8, n_nodes=32, seed=11, "
                    "regions=4).run(10.0)"),),
        "106fecce1f01c1742fd2a8923ae447a962c4fe241c53fe0e6985877f5681a3bd",
        "a city-block fleet (8x8 luminaires, 32 receivers) sharded "
        "across 4 regions must be deterministic"),
    Contract(
        "fleet-2x2",
        (journal_of("default_network(rows=2, cols=2, n_nodes=4, seed=13)"
                    ".run(30.0)"),),
        "39d474f75fd133164b92fd4a0f0476dd5259c03c6cd579ea1121327051393cfb",
        "pins the multicell journal without faults"),
    Contract(
        "fleet-2x2-faulted",
        (journal_of("default_network(rows=2, cols=2, n_nodes=4, seed=13, "
                    "faults=FaultSchedule((NodeDowntime('node-01', 5.0, "
                    "12.0), UplinkOutage(8.0, 15.0)))).run(30.0)"),),
        "518e4d3fdd8bd0d09eaccd0613896070df9bfeb8442b9a64719e5c57a5cc101a",
        "pins the multicell journal with a node down and an uplink "
        "outage"),
    Contract(
        "huddle-smoke", (cli("scenario", "run", "huddle-smoke"),),
        "532e60cfb6a5bf45d699c09bd113e99bc43068f1a0a326c916a29fcdccf4c62e",
        "the smallest shipped scenario passes its SLOs, byte for byte, "
        "through the whole scenario compiler"),
    Contract(
        "huddle-smoke-regions-2",
        (cli("scenario", "run", "huddle-smoke", "--regions", "2"),),
        "e1ec932f6f06638547229463afd6106ea36979d3f7c87ce5d9b3dfd06754b361",
        "regions=2 must keep the scenario deterministic and passing"),
    Contract(
        "office-day", (script("""
            from repro.scenarios import ScenarioRunner
            from repro.scenarios.shipped import shipped_scenarios
            run = ScenarioRunner(shipped_scenarios()["office-day"]).run()
            assert len(run.result.journal) == 22226, len(run.result.journal)
            print(run.report.journal_digest)
            """),),
        "37e744ada2a3561594de241b37821766c006cf5739b02bc214bac35ef3146957",
        "occupants arrive, take breaks and leave, so their traces are "
        "queried again after hours of absence"),
    Contract(
        "chaos-mixed-supervised", (cli("chaos", "--seed", "13"),),
        "e898261a545535834a799cc99f5ee3b7a80c9917b2ea503044e9ce3b6b3c633b",
        "control ticks, MAC frames and fault boundaries share one DES "
        "clock, so any change in the kernel's dispatch order moves it"),
    Contract(
        "chaos-mixed-baseline",
        (cli("chaos", "--seed", "13", "--unsupervised"),),
        "bcad4a24b650fbe301d2f953b1ee8766eb361ed9148db4992d56e88b857b2676",
        "the paper-faithful arm: fixed timeout, fixed payload, no state "
        "machine"),
    Contract(
        "chaos-blinding-supervised",
        (cli("chaos", "--schedule", "blinding", "--seed", "13"),),
        "aa9138fb32b7b8bcb43781507cc6c29ab7a15ad57f06e5658af6ce2d9f698174",
        "ADC blinding drives the supervised link through DEGRADED and "
        "back"),
    Contract(
        "chaos-blinding-baseline",
        (cli("chaos", "--schedule", "blinding", "--seed", "13",
             "--unsupervised"),),
        "45c88b92efdb82caada5b8d4255f9070abbd62b6cbe0c3bfb2060d0485ee3f45",
        "the baseline under ADC blinding"),
    Contract(
        "desk-room", (journal_of("desk_room().run(30.0)"),),
        "84b36734ad7b0543164dd13348c43e2dcb4168d0b7cb74b5afa0e9cc5a7fa5b3",
        "the one network where three desks' reports meet one fusion "
        "every tick, so any change to the feedback plane moves it"),
    Contract(
        "desk-room-lossy-blind-pull",
        (journal_of("desk_room(profile=BlindRampAmbient(duration_s=67.0), "
                    "uplink=WifiUplink(latency_s=2e-3, jitter_s=0.5e-3, "
                    "loss_probability=0.05)).run(67.0)"),),
        "a253571c178685c24a3af12e7ae5dd8ca320b22f7c0aaa7b0c8513fb2d1b81de",
        "the multi-receiver example's run: a 67 s blind pull over a "
        "jittery uplink that loses one report in twenty"),
    Contract(
        "fuzz-300",
        (cli("fuzz", "run", "--budget", "300", "--seed", "0"),
         cli("fuzz", "run", "--budget", "300", "--seed", "0",
             "--jobs", "2")),
        "7191ba0f8105a45aabd39b616c0d52368fe50f835f53a8a129ad1005818ff7fb",
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
