"""Package layering: core imports no other repro package, and lighting
depends on no link or simulator package.

The paper's controller only lights and designs; link supervision, fault
injection and the simulators build on it, never the other way round.
Other tests import those packages first, so the lighting check runs in
a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: packages that sit above lighting
ABOVE_LIGHTING = ("repro.link", "repro.resilience", "repro.net", "repro.des")


def imported_modules(path: Path):
    """Each absolute module name ``path`` imports, relative ones resolved."""
    package = list(path.relative_to(ROOT / "src").parent.parts)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            yield ".".join(base + ([node.module] if node.module else []))


def test_core_imports_no_other_repro_package():
    # A fresh interpreter cannot show this: importing repro.core runs
    # repro/__init__, which loads the schemes and the baselines.
    offending = [
        (path.name, name)
        for path in sorted((ROOT / "src" / "repro" / "core").rglob("*.py"))
        for name in imported_modules(path)
        if name.split(".")[0] == "repro" and name.split(".")[:2] != ["repro", "core"]]
    assert offending == []


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
