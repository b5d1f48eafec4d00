"""The committed benchmark records hold only what the code writes.

A section no function writes any more, or a backend that is no longer
registered, is a stale record: it reads as a current measurement of code
that is gone.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.backends import all_backends
from repro.serve.bench import BenchConfig, run_bench

from tests.serve.conftest import DIMS, NUM_DISKS, SCHEME, ServerHarness

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
NATIVE_RECORD = BENCHMARKS / "results" / "BENCH_native.json"
SERVE_RECORD = BENCHMARKS / "results" / "BENCH_serve.json"


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


def _key_tree(document):
    """Every key path of a JSON object, nested objects included."""
    return {
        key: _key_tree(value) if isinstance(value, dict) else None
        for key, value in document.items()
    }


def test_serve_record_has_the_keys_run_bench_writes(tmp_path):
    harness = ServerHarness(tmp_path).start()
    try:
        emitted = run_bench(BenchConfig(
            scheme=SCHEME, dims=DIMS, num_disks=NUM_DISKS, batch=16,
            duration=0.2, concurrency=1, burst_duration=0.1,
            unix_path=harness.socket_path,
        ))
    finally:
        harness.stop()
    committed = json.loads(SERVE_RECORD.read_text())
    assert _key_tree(committed) == _key_tree(emitted)
    assert {"cpu_count", "python", "numpy"} <= set(committed["host"])


BATCH_RECORD = BENCHMARKS / "results" / "BENCH_batch.json"


def test_batch_record_has_the_keys_run_batch_bench_writes(bench_kernels):
    emitted = bench_kernels.run_batch_bench(
        num_queries=40, grids=((8, 8),), repetitions=2
    )
    committed = json.loads(BATCH_RECORD.read_text())
    assert _key_tree(committed) == _key_tree(emitted)
    assert [_key_tree(grid) for grid in committed["grids"]] == [
        _key_tree(emitted["grids"][0])
    ] * len(committed["grids"])


def test_batch_record_names_its_host():
    committed = json.loads(BATCH_RECORD.read_text())
    assert {"cpu_count", "python", "numpy"} <= set(committed)
