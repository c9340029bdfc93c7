"""Package layering: lighting depends on no link or simulator package.

The paper's controller only lights and designs; link supervision, fault
injection and the simulators build on it, never the other way round.
Other tests import those packages first, so the check runs in a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: packages that sit above lighting
ABOVE_LIGHTING = ("repro.link", "repro.resilience", "repro.net", "repro.des")


def test_lighting_imports_nothing_above_it(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, repro.lighting; "
             "print('\\n'.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.lighting.controller" in loaded
    above = [name for name in loaded
             if any(name == package or name.startswith(package + ".")
                    for package in ABOVE_LIGHTING)]
    assert above == []
