"""Smoke test: every shipped example runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "optimal",
    "scheme_comparison.py": "No clear winner",
    "gridfile_demo.py": "equi-depth",
    "impossibility_demo.py": "IMPOSSIBLE",
    "growth_demo.py": "re-placement cost",
    "replication_demo.py": "disk failure",
}


def example_names():
    names = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert len(names) >= 3, "the repo promises at least three examples"
    return names


@pytest.mark.parametrize("name", example_names())
def test_example_runs(name):
    process = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    assert process.stdout.strip(), f"{name} printed nothing"
    marker = EXPECTED_MARKERS.get(name)
    if marker is not None:
        assert marker in process.stdout, (
            f"{name} output missing expected marker {marker!r}"
        )


def test_every_example_has_a_marker():
    # Adding an example without extending the marker table would leave
    # it semantically untested; fail loudly instead.
    assert set(EXPECTED_MARKERS) == set(example_names())
