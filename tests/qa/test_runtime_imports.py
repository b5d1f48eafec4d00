"""Declared-dependency guard, dynamic half: what importing ``repro`` loads.

QA504 checks the import statements under ``src/``; this test checks what
actually lands in ``sys.modules`` when a fresh interpreter imports every
``repro`` module.  Each new module must be standard library, ``numpy``,
``repro`` itself, or a module with no ``__file__`` (numpy's Cython
runtime helpers are such modules).
"""

import json
import os
import subprocess
import sys

import pytest

#: Third-party top-level packages the program may load at run time.
DECLARED = frozenset({"numpy", "repro"})

_PROBE = """
import sys
before = set(sys.modules)
import importlib
import json
import pkgutil

import repro


def fail(name):
    raise ImportError(f"cannot walk {name}")


for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    if info.name.rsplit(".", 1)[-1] != "__main__":
        importlib.import_module(info.name)
print(json.dumps([
    [name, getattr(sys.modules[name], "__file__", None) is not None]
    for name in sorted(set(sys.modules) - before)
]))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="sys.stdlib_module_names needs Python 3.10",
)
def test_importing_every_module_loads_only_declared_packages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert any(name == "repro.replication.planner" for name, _ in loaded)
    undeclared = [
        name
        for name, has_file in loaded
        if has_file
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] not in DECLARED
    ]
    assert undeclared == []
