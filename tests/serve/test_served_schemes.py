"""Every registered scheme, served: the daemon's answers equal local ones.

One in-process daemon preloads a 2-D spec for every registered scheme
and a 3-D spec for every scheme that supports three attributes.  For
each spec a batch (clipped and empty queries included), a ``disk_of``
sweep of the whole grid and a degraded plan are checked against an
allocation and engine built locally from the registry, independent of
the daemon's cache entries.
"""

import numpy as np
import pytest

from repro.core.engine import ResponseTimeEngine
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.core.registry import available_schemes, get_scheme
from repro.faults.models import FailStop, FaultScenario
from repro.replication.allocation import chained_replication
from repro.replication.planner import plan_query
from repro.serve.server import parse_spec

from tests.serve.conftest import ServerHarness

#: Schemes defined for two attributes only.
_TWO_D_ONLY = ("cyclic", "cyclic-exh", "cyclic-gfib")

SPECS = [f"{name}:16x16:8" for name in available_schemes()] + [
    f"{name}:8x8x4:4"
    for name in available_schemes()
    if name not in _TWO_D_ONLY
]


def _key(text):
    spec = parse_spec(text)
    return spec.scheme, spec.dims, spec.num_disks


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    harness = ServerHarness(
        tmp_path_factory.mktemp("served-schemes"),
        specs=[parse_spec(text) for text in SPECS],
    ).start()
    try:
        yield harness
    finally:
        harness.stop()


def _bounds(dims, seed, count=64):
    """Random inclusive bounds, some past the grid's far edge."""
    rng = np.random.default_rng(seed)
    dims_arr = np.asarray(dims, dtype=np.int64)
    lower = rng.integers(0, dims_arr + 2, size=(count, len(dims)))
    upper = lower + rng.integers(0, dims_arr // 2 + 2, size=lower.shape)
    return lower.astype(np.int64), upper.astype(np.int64)


@pytest.mark.parametrize("spec", SPECS)
def test_batch_matches_a_locally_built_engine(daemon, spec):
    scheme, dims, num_disks = _key(spec)
    grid = Grid(dims)
    lower, upper = _bounds(dims, seed=len(spec))
    engine = ResponseTimeEngine(get_scheme(scheme).allocate(grid, num_disks))
    queries = [
        RangeQuery(tuple(int(c) for c in lo), tuple(int(c) for c in up))
        for lo, up in zip(lower, upper)
    ]
    expected = engine.batch_response_times(
        QueryBatch.from_queries(queries, grid)
    )
    with daemon.client() as client:
        served, shed = client.batch_response_times(
            scheme, dims, num_disks, lower, upper
        )
    assert shed is False
    assert served.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", SPECS)
def test_disk_of_covers_the_whole_grid(daemon, spec):
    scheme, dims, num_disks = _key(spec)
    table = get_scheme(scheme).allocate(Grid(dims), num_disks).table
    coords = np.indices(dims).reshape(len(dims), -1).T.astype(np.int64)
    with daemon.client() as client:
        disks = client.disk_of(scheme, dims, num_disks, coords)
    assert np.array_equal(disks, table.reshape(-1).astype(np.int64))


@pytest.mark.parametrize("spec", SPECS)
def test_degraded_plan_matches_the_local_planner(daemon, spec):
    scheme, dims, num_disks = _key(spec)
    allocation = get_scheme(scheme).allocate(Grid(dims), num_disks)
    lower = (0,) * len(dims)
    upper = tuple(d // 2 for d in dims)
    local = plan_query(
        chained_replication(allocation, offset=-1),
        RangeQuery(lower, upper),
        method="flow",
        scenario=FaultScenario(num_disks, [FailStop((1,))]),
    )
    with daemon.client() as client:
        served = client.degraded_plan(
            scheme, dims, num_disks, lower, upper, failed=(1,), offset=-1
        )
    assert served["response_time"] == local.response_time
    assert served["num_lost"] == local.num_lost == 0
    assert served["loads"] == [int(v) for v in local.loads]
    assert served["loads"][1] == 0
