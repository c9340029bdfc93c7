"""Every script under ``examples/`` runs to completion.

Each one runs in a fresh interpreter from an empty directory, importing
the package from ``src`` — the way the scripts' docstrings tell a
reader to run them.  A lint pass cannot see an example importing a
name the package no longer has; this can.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: arguments per script; reproduce_paper.py would otherwise run every
#: experiment, so it runs the room extension alone
ARGS = {"reproduce_paper.py": ["ext-room"]}


def test_examples_are_found():
    # An empty glob would parametrize nothing and pass silently.
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
