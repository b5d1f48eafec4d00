"""The committed ``BENCH_native.json`` holds only what the code writes.

A section no function writes any more, or a backend that is no longer
registered, is a stale record: it reads as a current measurement of code
that is gone.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.backends import all_backends

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
NATIVE_RECORD = BENCHMARKS / "results" / "BENCH_native.json"


@pytest.fixture(scope="module")
def bench_kernels():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels_under_test", BENCHMARKS / "bench_kernels.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record():
    return json.loads(NATIVE_RECORD.read_text())


def test_sections_are_the_ones_the_report_writes(bench_kernels, record):
    assert list(record) == list(bench_kernels.NATIVE_SECTIONS)


def test_every_listed_backend_is_registered(record):
    registered = {backend.name for backend in all_backends()}
    listed = {
        entry["backend"] for entry in record["backend_kernels"]["backends"]
    }
    assert listed <= registered


def test_backend_record_names_its_host(record):
    section = record["backend_kernels"]
    assert {"cpu_count", "python", "numpy"} <= set(section)
