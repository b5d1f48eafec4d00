"""The SAT tile kernel: every backend's ``fill_tile`` equals numpy's.

The tile kernel writes one tile of summed-area-table rows, carry
included, into a destination whose prior contents it ignores.  The
numpy backend is the reference; ``cnative``'s one-pass C sweep must
match it bit for bit on 1-d to 4-d tiles, any disk count, both SAT
dtypes, a non-zero carry and a destination full of garbage (what a
killed build leaves in a mapped file).  Chunked builds must give the
same file and manifest on every backend, and a ``cnative`` build killed
at a tile boundary must resume to the same bytes.

A chunked build hashes tile ``i`` on a helper thread while the kernel
fills tile ``i+1``; the pipeline tests below hold it to the serial
build's file and manifest, and check that every failed build waits for
a digest in flight before it cleans up.
"""

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import DiskAllocation
from repro.core.backends import available_backends, use_backend
from repro.core.backends.native import _MAX_NDIM, CNativeBackend
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.grid import Grid
from repro.core.integrity import (
    SatManifest,
    file_sha256,
    manifest_path,
    sha256_hex,
)
from repro.core.registry import get_scheme
from repro.core import sat as sat_module
from repro.core.sat import SummedAreaTable, build_partial_path, sat_dtype
from repro.faults.io import (
    IO_EXIT_STATUS,
    IO_FAULTS_ENV,
    IO_FAULTS_STATE_ENV,
    InjectedIOFault,
)

REFERENCE = NumpyBackend()
NATIVE = CNativeBackend()
needs_native = pytest.mark.skipif(
    not NATIVE.available(), reason="cnative needs a C compiler"
)
BACKEND_NAMES = [backend.name for backend in available_backends()]


def _tile_case(rng, dims, num_disks, dtype, block_dtype=np.int64):
    """A block, a valid carry plane and a garbage-filled destination."""
    block = rng.integers(0, num_disks, size=dims).astype(block_dtype)
    shape = dims[:1] + tuple(d + 1 for d in dims[1:]) + (num_disks,)
    # A carry is a SAT row: zero pad planes, counts past them.
    carry = np.zeros(shape[1:], dtype=dtype)
    interior = (slice(1, None),) * (len(dims) - 1)
    carry[interior] = rng.integers(
        0, 1000, size=dims[1:] + (num_disks,)
    )
    garbage = rng.integers(-(2**30), 2**30, size=shape).astype(dtype)
    return block, carry, garbage


def _filled(backend, block, num_disks, carry, garbage):
    out = garbage.copy()
    backend.fill_tile(out, block, num_disks, carry)
    return out


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
    num_disks=st.sampled_from([1, 2, 7, 16, 33]),
    dtype=st.sampled_from([np.int32, np.int64]),
    block_dtype=st.sampled_from([np.uint8, np.int64, np.uint16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_native_tile_equals_reference(
    dims, num_disks, dtype, block_dtype, seed
):
    rng = np.random.default_rng(seed)
    block, carry, garbage = _tile_case(
        rng, dims, num_disks, dtype, block_dtype
    )
    want = _filled(REFERENCE, block, num_disks, carry, garbage)
    got = _filled(NATIVE, block, num_disks, carry, garbage)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_reference_writes_every_element():
    """Garbage in ``out`` never leaks: two garbage fills agree."""
    rng = np.random.default_rng(3)
    block, carry, garbage = _tile_case(rng, (3, 4, 5), 4, np.int32)
    first = _filled(REFERENCE, block, 4, carry, garbage)
    second = _filled(REFERENCE, block, 4, carry, np.zeros_like(garbage))
    np.testing.assert_array_equal(first, second)
    assert not first[:, 0].any() and not first[:, :, 0].any()


@needs_native
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_native_ignores_out_of_range_ids(dtype):
    """An id outside ``[0, M)`` counts on no disk, as in numpy."""
    rng = np.random.default_rng(5)
    block, carry, garbage = _tile_case(rng, (4, 3, 5), 3, dtype)
    block[0, 0, 0] = -1
    block[1, 2, 4] = 3
    block[3, 1, 2] = 2**40
    np.testing.assert_array_equal(
        _filled(NATIVE, block, 3, carry, garbage),
        _filled(REFERENCE, block, 3, carry, garbage),
    )


@needs_native
def test_native_beyond_max_ndim_falls_back():
    dims = (2,) + (1,) * _MAX_NDIM
    rng = np.random.default_rng(7)
    block, carry, garbage = _tile_case(rng, dims, 2, np.int32)
    np.testing.assert_array_equal(
        _filled(NATIVE, block, 2, carry, garbage),
        _filled(REFERENCE, block, 2, carry, garbage),
    )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize(
    "scheme, dims, num_disks",
    [
        ("dm", (9,), 3),
        ("fx", (11, 6), 5),
        ("hcam", (8, 7, 5), 7),
        ("dm", (5, 3, 4, 3), 33),
    ],
)
def test_build_matches_reference(backend, scheme, dims, num_disks):
    """In-RAM build on ``backend`` == numpy in-RAM build."""
    grid = Grid(dims)
    allocation = get_scheme(scheme).allocate(grid, num_disks)
    with use_backend("numpy"):
        want = SummedAreaTable.build(allocation).array
    with use_backend(backend):
        got = SummedAreaTable.build(allocation).array
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize(
    "scheme, dims, num_disks, budget",
    [
        ("fx", (13, 6, 5), 8, 2048),
        ("dm", (17, 9), 3, 2048),
        ("hcam", (21,), 4, 256),
    ],
)
def test_chunked_build_matches_in_ram_bytes(
    backend, scheme, dims, num_disks, budget, tmp_path
):
    """Chunked file bytes and tile digests == the numpy in-RAM build."""
    grid = Grid(dims)
    scheme_obj = get_scheme(scheme)
    with use_backend("numpy"):
        reference = SummedAreaTable.build(
            DiskAllocation(
                grid, num_disks, scheme_obj.disk_array(grid, num_disks)
            )
        ).array
    path = str(tmp_path / "sat.npy")
    with use_backend(backend):
        built = SummedAreaTable.build_chunked(
            scheme_obj, grid, num_disks, byte_budget=budget, path=path
        )
    built.close()
    manifest = SatManifest.load(path)
    assert len(manifest.tile_starts) > 1
    np.testing.assert_array_equal(np.load(path), reference)
    want_digests = [
        sha256_hex(
            np.ascontiguousarray(
                reference[start + 1 : start + 1 + manifest.tile_rows]
            ).data
        )
        for start in manifest.tile_starts
    ]
    assert manifest.tile_digests == want_digests


@needs_native
def test_native_resume_overwrites_torn_tile(monkeypatch, tmp_path):
    """A fault between tiles, garbage past the last commit, then resume."""
    grid, num_disks, scheme = Grid((12, 5, 4)), 3, get_scheme("fx")
    reference_path = str(tmp_path / "ref.npy")
    with use_backend("numpy"):
        SummedAreaTable.build_chunked(
            scheme, grid, num_disks, byte_budget=600, path=reference_path
        ).close()
    path = str(tmp_path / "sat.npy")
    monkeypatch.setenv(IO_FAULTS_ENV, "sat.write:2")
    monkeypatch.setenv(IO_FAULTS_STATE_ENV, str(tmp_path / "state"))
    with use_backend("cnative"):
        with pytest.raises(InjectedIOFault):
            SummedAreaTable.build_chunked(
                scheme, grid, num_disks, byte_budget=600, path=path
            )
        # What a kill mid-tile leaves behind: the rows past the last
        # committed tile hold garbage.
        partial = np.lib.format.open_memmap(
            build_partial_path(path), mode="r+"
        )
        partial[3:] = -12345
        partial.flush()
        del partial
        monkeypatch.delenv(IO_FAULTS_ENV)
        SummedAreaTable.build_chunked(
            scheme, grid, num_disks, byte_budget=600, path=path
        ).close()
    assert file_sha256(path) == file_sha256(reference_path)
    assert (
        SatManifest.load(path).tile_digests
        == SatManifest.load(reference_path).tile_digests
    )


def _digest_threads():
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-sat-digest")
    ]


#: The ``spill`` benchmark's build: fx 160³ over 8 disks at a quarter
#: of the table's bytes (nine tiles).
SPILL_GRID, SPILL_DISKS = Grid((160, 160, 160)), 8
SPILL_BUDGET = (
    SPILL_DISKS
    * math.prod(d + 1 for d in SPILL_GRID.dims)
    * sat_dtype(SPILL_GRID.num_buckets).itemsize
    // 4
)


def test_pipelined_build_equals_serial_rehash_and_in_ram(tmp_path):
    """The spill-sized build's file and manifest on numpy and cnative."""
    scheme = get_scheme("fx")
    with use_backend("numpy"):
        reference = SummedAreaTable.build(
            scheme.allocate(SPILL_GRID, SPILL_DISKS)
        ).array
    files = {}
    for backend in BACKEND_NAMES:
        path = str(tmp_path / f"{backend}.npy")
        with use_backend(backend):
            SummedAreaTable.build_chunked(
                scheme, SPILL_GRID, SPILL_DISKS,
                byte_budget=SPILL_BUDGET, path=path,
            ).close()
        manifest = SatManifest.load(path)
        rows = SummedAreaTable.tile_rows(
            SPILL_GRID, SPILL_DISKS, SPILL_BUDGET
        )
        assert manifest.tile_rows == rows
        assert manifest.tile_starts == list(range(0, 160, rows))
        assert len(manifest.tile_starts) == 9
        table = np.load(path, mmap_mode="r")
        try:
            np.testing.assert_array_equal(table, reference)
            # Every digest, recomputed serially from the published slab
            # and from the in-RAM table.
            for start, digest in zip(
                manifest.tile_starts, manifest.tile_digests
            ):
                rows_of = slice(start + 1, start + 1 + rows)
                assert sha256_hex(table[rows_of].data) == digest
                assert sha256_hex(reference[rows_of].data) == digest
        finally:
            del table
        SummedAreaTable.open_mmap(path, verify="full").close()
        files[backend] = (
            file_sha256(path), file_sha256(manifest_path(path))
        )
    assert len(set(files.values())) == 1, files


class TestPipelineFailurePaths:
    """Every exit of a pipelined build joins the digest in flight."""

    GRID, DISKS, BUDGET = Grid((12, 5, 4)), 3, 600

    def _slow_digests(self, monkeypatch):
        """Digests that take long enough to be in flight at a failure."""
        real = sat_module.sha256_hex
        done = []

        def slow(data):
            time.sleep(0.2)
            done.append(real(data))
            return done[-1]

        monkeypatch.setattr(sat_module, "sha256_hex", slow)
        return done

    def _fail_fill(self, monkeypatch, error, on_call):
        real = NumpyBackend.fill_tile
        calls = []

        def failing(self, *args):
            calls.append(1)
            if len(calls) == on_call:
                raise error
            return real(self, *args)

        monkeypatch.setattr(NumpyBackend, "fill_tile", failing)

    def _build(self, path=None):
        return SummedAreaTable.build_chunked(
            get_scheme("fx"), self.GRID, self.DISKS,
            byte_budget=self.BUDGET, path=path,
        )

    def _reference(self, tmp_path):
        path = str(tmp_path / "ref.npy")
        self._build(path).close()
        return path

    @pytest.mark.parametrize(
        "error", [OSError("disk full"), KeyboardInterrupt()],
        ids=["oserror", "interrupt"],
    )
    def test_raising_fill_waits_for_the_digest_in_flight(
        self, monkeypatch, tmp_path, error
    ):
        monkeypatch.setenv("REPRO_SAT_DIR", str(tmp_path))
        with use_backend("numpy"):
            done = self._slow_digests(monkeypatch)
            self._fail_fill(monkeypatch, error, on_call=2)
            with pytest.raises(type(error)):
                self._build()
        # Tile 0's digest was running when tile 1's fill raised; the
        # build returned only after it, and left no helper behind.
        assert len(done) == 1
        assert _digest_threads() == []
        # The temp-file build removed the placeholder, the partial and
        # the partial's manifest.
        assert os.listdir(str(tmp_path)) == []

    def test_explicit_path_failure_keeps_a_resumable_partial(
        self, monkeypatch, tmp_path
    ):
        reference = self._reference(tmp_path)
        path = str(tmp_path / "t.npy")
        with use_backend("numpy"):
            with monkeypatch.context() as patch:
                done = self._slow_digests(patch)
                self._fail_fill(patch, OSError("disk full"), on_call=4)
                with pytest.raises(OSError, match="disk full"):
                    self._build(path)
            assert len(done) == 3 and _digest_threads() == []
            # Tiles 0 and 1 were committed; tile 2, filled and hashed
            # but not yet committed, is refilled by the resume.
            staged = SatManifest.load(build_partial_path(path))
            assert len(staged.tile_starts) == 2
            assert not os.path.exists(path)
            self._build(path).close()
        assert file_sha256(path) == file_sha256(reference)
        assert SatManifest.load(path) == SatManifest.load(reference)

    def test_raising_digest_fails_the_build_not_the_thread(
        self, monkeypatch, tmp_path
    ):
        real = sat_module.sha256_hex
        calls, hook_calls = [], []
        monkeypatch.setattr(threading, "excepthook", hook_calls.append)

        def digest(data):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("digest failed")
            return real(data)

        monkeypatch.setattr(sat_module, "sha256_hex", digest)
        path = str(tmp_path / "t.npy")
        with pytest.raises(MemoryError, match="digest failed"):
            self._build(path)
        assert hook_calls == []
        assert _digest_threads() == []
        # Only tile 0 was committed: tile 1's digest never arrived.
        staged = SatManifest.load(build_partial_path(path))
        assert len(staged.tile_starts) == 1

    def test_injected_sat_write_error_leaves_no_helper(
        self, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "t.npy")
        monkeypatch.setenv(IO_FAULTS_ENV, "sat.write:1")
        monkeypatch.setenv(IO_FAULTS_STATE_ENV, str(tmp_path / "state"))
        with pytest.raises(InjectedIOFault):
            self._build(path)
        assert _digest_threads() == []
        staged = SatManifest.load(build_partial_path(path))
        assert len(staged.tile_starts) == 1


_KILLED_BUILD = """
import sys
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable
SummedAreaTable.build_chunked(
    get_scheme("fx"), Grid((12, 5, 4)), 3, byte_budget=600,
    path=sys.argv[1],
).close()
print("BUILD-OK")
"""


def _run_killed_build(path, **extra):
    """Run ``_KILLED_BUILD`` on ``path`` in a fresh interpreter."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in (IO_FAULTS_ENV, IO_FAULTS_STATE_ENV)
    }
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", _KILLED_BUILD, path],
        env={**env, **extra},
        capture_output=True,
        text=True,
    )


def _killed_build_reference(tmp_path):
    reference_path = str(tmp_path / "ref.npy")
    with use_backend("numpy"):
        SummedAreaTable.build_chunked(
            get_scheme("fx"), Grid((12, 5, 4)), 3, byte_budget=600,
            path=reference_path,
        ).close()
    return reference_path


@needs_native
def test_native_build_killed_at_tile_boundary_resumes(tmp_path):
    """``sat.write:exit`` kills a cnative build; the rerun matches numpy."""
    reference_path = _killed_build_reference(tmp_path)
    path = str(tmp_path / "killed.npy")
    killed = _run_killed_build(
        path,
        REPRO_BACKEND="cnative",
        **{
            IO_FAULTS_ENV: "sat.write:exit:2",
            IO_FAULTS_STATE_ENV: str(tmp_path / "state"),
        },
    )
    assert killed.returncode == IO_EXIT_STATUS, killed.stderr
    assert os.path.exists(manifest_path(build_partial_path(path)))
    assert not os.path.exists(path)
    resumed = _run_killed_build(path, REPRO_BACKEND="cnative")
    assert resumed.returncode == 0, resumed.stderr
    assert "BUILD-OK" in resumed.stdout
    assert file_sha256(path) == file_sha256(reference_path)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_each_exit_run_commits_one_more_tile(backend, tmp_path):
    """``sat.write:exit:3``: three killed runs, three committed tiles."""
    reference_path = _killed_build_reference(tmp_path)
    path = str(tmp_path / "killed.npy")
    plan = {
        IO_FAULTS_ENV: "sat.write:exit:3",
        IO_FAULTS_STATE_ENV: str(tmp_path / "state"),
    }
    for committed in (1, 2, 3):
        killed = _run_killed_build(path, REPRO_BACKEND=backend, **plan)
        assert killed.returncode == IO_EXIT_STATUS, killed.stderr
        staged = SatManifest.load(build_partial_path(path))
        assert len(staged.tile_starts) == committed
    # The plan's three hits are spent: the fourth run completes.
    finished = _run_killed_build(path, REPRO_BACKEND=backend, **plan)
    assert finished.returncode == 0, finished.stderr
    assert file_sha256(path) == file_sha256(reference_path)
