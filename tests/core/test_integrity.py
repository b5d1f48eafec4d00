"""Artifact integrity: manifests, verified opens, resumable builds.

Every corruption fixture the ISSUE names is exercised here — truncated
``.npy``, bit-flipped tile, wrong-dtype manifest, zero-byte ``.so`` —
plus the crash/resume round-trip: a chunked build killed at a tile
boundary (the deterministic ``exit``-mode I/O fault, run in a
subprocess) must resume to a **byte-identical** table.  The invariant
throughout: a corrupt artifact is *never* silently loaded — it raises
:class:`IntegrityError` or is rebuilt, and either way the obs counters
show it.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.cache import AllocationCache
from repro.core.exceptions import IntegrityError
from repro.core.grid import Grid
from repro.core.integrity import (
    SatManifest,
    file_sha256,
    library_digest_path,
    manifest_path,
    verify_level,
    verify_library,
    verify_sat,
    write_library_digest,
)
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable, build_partial_path
from repro.faults.io import (
    IO_EXIT_STATUS,
    IO_FAULTS_ENV,
    IO_FAULTS_STATE_ENV,
    InjectedIOFault,
)
from repro.schemes.baselines import RandomScheme
from repro.obs.metrics import global_registry

GRID = Grid((12, 6))
DISKS = 3
#: Small enough to force one-row tiles (12 of them) on the 12x6 grid.
TINY_BUDGET = 400
#: Resume regressions: four-row tiles (six of them) on 24x24, M=7.
RESUME_GRID = Grid((24, 24))
RESUME_BUDGET = 6000


def _build(path, budget=TINY_BUDGET, resume=True):
    sat = SummedAreaTable.build_chunked(
        get_scheme("dm"), GRID, DISKS,
        byte_budget=budget, path=path, resume=resume,
    )
    sat.close()
    return path


def _counter(name):
    return global_registry().counter(name)


def _staged_manifest(path):
    """The partial's own manifest: a chunked build's only resume record."""
    return manifest_path(build_partial_path(path))


class TestVerifyLevel:
    def test_default_is_header(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert verify_level() == "header"

    def test_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "full")
        assert verify_level() == "full"
        assert verify_level("off") == "off"

    def test_unknown_level_rejected(self):
        with pytest.raises(IntegrityError, match="unknown verification"):
            verify_level("ful")

    def test_unknown_env_level_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "sometimes")
        with pytest.raises(IntegrityError):
            verify_level()


class TestManifest:
    def test_written_by_chunked_build(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        manifest = SatManifest.load(path)
        assert manifest.num_disks == DISKS
        assert manifest.shape == (13, 7, DISKS)  # disks last
        assert len(manifest.tile_digests) == len(manifest.tile_starts)
        assert len(manifest.tile_digests) > 1  # budget forced tiling
        assert manifest.file_bytes == os.path.getsize(path)
        assert manifest.params["scheme"] == "dm"

    def test_verifies_header_and_full(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        assert verify_sat(path, "header") is not None
        assert verify_sat(path, "full") is not None

    def test_off_checks_nothing(self, tmp_path):
        path = str(tmp_path / "absent.npy")
        assert verify_sat(path, "off") is None

    def test_malformed_manifest_rejected(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        with open(manifest_path(path), "w") as handle:
            handle.write("{not json")
        with pytest.raises(IntegrityError, match="unreadable"):
            verify_sat(path, "header")


class TestCorruptionDetection:
    def test_truncated_npy(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 64)
        with pytest.raises(IntegrityError, match="truncated|bytes"):
            SummedAreaTable.open_mmap(path)

    def test_bit_flipped_tile_caught_at_full(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        # Flip one payload bit far from the header.
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) - 37)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x10]))
        # Size and header still agree: header-level check passes...
        assert verify_sat(path, "header") is not None
        # ...and the full digest sweep does not.
        before = _counter("integrity.sat_failures")
        with pytest.raises(IntegrityError, match="digest mismatch"):
            verify_sat(path, "full")
        assert _counter("integrity.sat_failures") == before + 1

    def test_wrong_dtype_manifest(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        with open(manifest_path(path)) as handle:
            document = json.load(handle)
        document["dtype"] = "<i8"  # table is int32
        with open(manifest_path(path), "w") as handle:
            json.dump(document, handle)
        with pytest.raises(IntegrityError, match="dtype"):
            SummedAreaTable.open_mmap(path)

    def test_swapped_shape_manifest(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        with open(manifest_path(path)) as handle:
            document = json.load(handle)
        document["shape"] = [DISKS, 7, 13]
        with open(manifest_path(path), "w") as handle:
            json.dump(document, handle)
        with pytest.raises(IntegrityError, match="shape"):
            verify_sat(path, "header")

    def test_missing_manifest_refused_at_header(self, tmp_path):
        # The header alone cannot tell disk-last from the retired
        # disk-first layout, so a manifestless table is never opened.
        path = _build(str(tmp_path / "t.npy"))
        os.unlink(manifest_path(path))
        before = _counter("integrity.sat_failures")
        with pytest.raises(IntegrityError, match="no sidecar"):
            SummedAreaTable.open_mmap(path, verify="header")
        assert _counter("integrity.sat_failures") == before + 1

    def test_missing_manifest_rejected_at_full(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        os.unlink(manifest_path(path))
        with pytest.raises(IntegrityError, match="no sidecar"):
            SummedAreaTable.open_mmap(path, verify="full")

    def test_verify_off_still_loads(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        os.unlink(manifest_path(path))
        sat = SummedAreaTable.open_mmap(path, verify="off")
        assert sat.num_disks == DISKS
        sat.close()


class TestLibraryDigests:
    def _fake_so(self, tmp_path, payload=b"\x7fELF fake kernels"):
        lib = str(tmp_path / "reprokern-deadbeef.so")
        with open(lib, "wb") as handle:
            handle.write(payload)
        return lib

    def test_round_trip(self, tmp_path):
        lib = self._fake_so(tmp_path)
        digest = write_library_digest(lib)
        assert digest == file_sha256(lib)
        verify_library(lib, "header")
        verify_library(lib, "full")

    def test_zero_byte_so_rejected(self, tmp_path):
        lib = self._fake_so(tmp_path)
        write_library_digest(lib)
        with open(lib, "wb"):
            pass  # truncate to zero bytes
        with pytest.raises(IntegrityError, match="digest mismatch"):
            verify_library(lib, "header")

    def test_modified_so_rejected(self, tmp_path):
        lib = self._fake_so(tmp_path)
        write_library_digest(lib)
        with open(lib, "ab") as handle:
            handle.write(b"!")
        before = _counter("integrity.so_failures")
        with pytest.raises(IntegrityError):
            verify_library(lib, "header")
        assert _counter("integrity.so_failures") == before + 1

    def test_missing_sidecar_policy(self, tmp_path):
        lib = self._fake_so(tmp_path)
        verify_library(lib, "header")  # tolerated, counted
        with pytest.raises(IntegrityError, match="no digest sidecar"):
            verify_library(lib, "full")

    def test_malformed_sidecar_rejected(self, tmp_path):
        lib = self._fake_so(tmp_path)
        with open(library_digest_path(lib), "w") as handle:
            handle.write("[]")
        with pytest.raises(IntegrityError, match="malformed"):
            verify_library(lib, "header")


class TestResumableBuild:
    def test_mid_build_failure_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        reference = _build(str(tmp_path / "ref.npy"))
        scheme = get_scheme("dm")
        path = str(tmp_path / "crashy.npy")
        calls = {"n": 0}
        true_block = type(scheme).disk_array_block

        def failing_block(self, grid, num_disks, start, stop):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("injected mid-build failure")
            return true_block(self, grid, num_disks, start, stop)

        monkeypatch.setattr(
            type(scheme), "disk_array_block", failing_block
        )
        with pytest.raises(OSError, match="mid-build"):
            SummedAreaTable.build_chunked(
                scheme, GRID, DISKS,
                byte_budget=TINY_BUDGET, path=path,
            )
        # Explicit-path failure keeps the resumable staging set.
        assert os.path.exists(build_partial_path(path))
        assert os.path.exists(_staged_manifest(path))
        assert not os.path.exists(path)
        monkeypatch.undo()

        before = _counter("sat.build_resumes")
        sat = _build(path)
        assert _counter("sat.build_resumes") == before + 1
        assert file_sha256(path) == file_sha256(reference)
        # The staging pair was published: only the table and its
        # manifest are left.
        assert sorted(os.listdir(str(tmp_path))) == sorted(
            os.path.basename(p)
            for p in (path, manifest_path(path),
                      reference, manifest_path(reference))
        )
        assert sat  # appease linters; handle closed in _build

    def test_resume_false_starts_fresh(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.npy")
        scheme = get_scheme("dm")
        calls = {"n": 0}
        true_block = type(scheme).disk_array_block

        def failing_block(self, grid, num_disks, start, stop):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("boom")
            return true_block(self, grid, num_disks, start, stop)

        monkeypatch.setattr(
            type(scheme), "disk_array_block", failing_block
        )
        with pytest.raises(OSError):
            SummedAreaTable.build_chunked(
                scheme, GRID, DISKS,
                byte_budget=TINY_BUDGET, path=path,
            )
        monkeypatch.undo()
        before = _counter("sat.build_resumes")
        _build(path, resume=False)
        assert _counter("sat.build_resumes") == before
        assert verify_sat(path, "full") is not None

    def test_temp_path_failure_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SAT_DIR", str(tmp_path))
        scheme = get_scheme("dm")

        def exploding_block(self, grid, num_disks, start, stop):
            raise OSError("disk full")

        monkeypatch.setattr(
            type(scheme), "disk_array_block", exploding_block
        )
        with pytest.raises(OSError, match="disk full"):
            SummedAreaTable.build_chunked(
                scheme, GRID, DISKS, byte_budget=TINY_BUDGET
            )
        # The mkstemp file, the partial, and the partial's manifest are
        # all gone.
        assert os.listdir(str(tmp_path)) == []

    def test_foreign_partial_manifest_discarded(self, tmp_path):
        path = str(tmp_path / "t.npy")
        reference = _build(str(tmp_path / "ref.npy"))
        # Plant a partial whose manifest names a different scheme; the
        # build must not resume it and still produce the right table.
        with open(build_partial_path(path), "wb") as handle:
            np.save(handle, np.zeros((13, 7, 3), np.int32))
        SatManifest(
            dtype="<i4", shape=(13, 7, 3), num_disks=3, tile_rows=1,
            tile_starts=[0], tile_digests=["x"],
            file_bytes=os.path.getsize(build_partial_path(path)),
            params={"scheme": "fx", "dims": [12, 6]},
        ).write(build_partial_path(path))
        before = _counter("sat.build_resumes")
        _build(path)
        assert _counter("sat.build_resumes") == before
        assert file_sha256(path) == file_sha256(reference)
        assert not os.path.exists(_staged_manifest(path))

    @staticmethod
    def _kill(monkeypatch, tmp_path, scheme, path, tiles=1):
        """Leave a RESUME_GRID build killed after ``tiles`` four-row tiles."""
        monkeypatch.setenv(IO_FAULTS_ENV, f"sat.write:{tiles}")
        monkeypatch.setenv(IO_FAULTS_STATE_ENV, str(tmp_path / "state"))
        for _ in range(tiles):  # each run commits one more tile
            with pytest.raises(InjectedIOFault):
                SummedAreaTable.build_chunked(
                    scheme, RESUME_GRID, 7, byte_budget=RESUME_BUDGET,
                    path=path,
                )
        monkeypatch.delenv(IO_FAULTS_ENV)
        assert os.path.exists(build_partial_path(path))

    @pytest.mark.parametrize(
        "first, second",
        [
            (lambda: get_scheme("cyclic"), lambda: get_scheme("cyclic-exh")),
            (lambda: get_scheme("lattice"),
             lambda: get_scheme("lattice-exh")),
            (lambda: RandomScheme(0), lambda: RandomScheme(1)),
        ],
        ids=["cyclic>cyclic-exh", "lattice>lattice-exh", "random0>random1"],
    )
    def test_resume_needs_the_same_allocation_not_name(
        self, tmp_path, monkeypatch, first, second
    ):
        first, second = first(), second()
        assert first.name == second.name
        path = str(tmp_path / "t.npy")
        self._kill(monkeypatch, tmp_path, first, path)
        before = _counter("sat.build_resumes")
        sat = SummedAreaTable.build_chunked(
            second, RESUME_GRID, 7, byte_budget=RESUME_BUDGET, path=path
        )
        try:
            fresh = SummedAreaTable.build(second.allocate(RESUME_GRID, 7))
            assert np.array_equal(sat.array, fresh.array)
        finally:
            sat.close()
        assert _counter("sat.build_resumes") == before
        assert verify_sat(path, "full") is not None

    @pytest.mark.parametrize(
        "tiles, row, resumes",
        # Padded rows 1-4 are tile 0, 5-8 tile 1; neither flip touches a
        # tile's last row, the carry of the next tile.
        [(1, 2, 0), (3, 6, 1)],
        ids=["only-tile", "middle-tile"],
    )
    def test_resume_rehashes_committed_tiles(
        self, tmp_path, monkeypatch, tiles, row, resumes
    ):
        scheme = get_scheme("fx")
        reference = str(tmp_path / "ref.npy")
        SummedAreaTable.build_chunked(
            scheme, RESUME_GRID, 7, byte_budget=RESUME_BUDGET,
            path=reference,
        ).close()
        path = str(tmp_path / "t.npy")
        self._kill(monkeypatch, tmp_path, scheme, path, tiles)
        partial = np.lib.format.open_memmap(
            build_partial_path(path), mode="r+"
        )
        partial[row, 5, 3] += 1
        partial.flush()
        del partial
        # The build keeps the tiles before the flipped one: it resumes
        # after them, or starts fresh when none is left.
        before = _counter("sat.build_resumes")
        SummedAreaTable.build_chunked(
            scheme, RESUME_GRID, 7, byte_budget=RESUME_BUDGET, path=path
        ).close()
        assert file_sha256(path) == file_sha256(reference)
        assert SatManifest.load(path) == SatManifest.load(reference)
        assert _counter("sat.build_resumes") == before + resumes


class TestKillAndResumeSubprocess:
    """The flagship harness: hard death at a tile boundary, then resume."""

    SCRIPT = """
import sys
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable
sat = SummedAreaTable.build_chunked(
    get_scheme("dm"), Grid((12, 6)), 3,
    byte_budget=400, path=sys.argv[1],
)
sat.close()
print("BUILD-OK")
"""

    def _run(self, path, faults=None, state=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        env.pop("REPRO_IO_FAULTS", None)
        env.pop("REPRO_IO_FAULTS_STATE", None)
        if faults:
            env["REPRO_IO_FAULTS"] = faults
        if state:
            env["REPRO_IO_FAULTS_STATE"] = state
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT, path],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.path.dirname(
                os.path.dirname(os.path.dirname(__file__))
            ),
        )

    def test_exit_at_tile_boundary_then_resume(self, tmp_path):
        reference = _build(str(tmp_path / "ref.npy"))
        path = str(tmp_path / "killed.npy")
        state = str(tmp_path / "fault-state")

        first = self._run(
            path, faults="sat.write:exit:1", state=state
        )
        assert first.returncode == IO_EXIT_STATUS
        assert os.path.exists(build_partial_path(path))
        assert os.path.exists(_staged_manifest(path))
        assert not os.path.exists(path)

        second = self._run(path, faults=None)
        assert second.returncode == 0, second.stderr
        assert "BUILD-OK" in second.stdout
        assert file_sha256(path) == file_sha256(reference)
        assert verify_sat(path, "full") is not None
        assert not os.path.exists(_staged_manifest(path))

    def test_every_boundary_resumes_identical(self, tmp_path):
        """Kill at each successive boundary until the build completes."""
        reference = _build(str(tmp_path / "ref.npy"))
        path = str(tmp_path / "relay.npy")
        # 12 one-row tiles + one final run that only finalizes: the
        # kill also fires after the *last* tile commit, so completion
        # takes a 13th resume.
        for attempt in range(14):
            state = str(tmp_path / f"state-{attempt}")
            result = self._run(
                path, faults="sat.write:exit:1", state=state
            )
            if result.returncode == 0:
                break
            assert result.returncode == IO_EXIT_STATUS
        else:
            pytest.fail("build never completed under repeated kills")
        assert file_sha256(path) == file_sha256(reference)


class TestCacheRebuild:
    def test_mmap_engine_rebuilds_corrupt_table(self, tmp_path):
        path = _build(str(tmp_path / "t.npy"))
        reference_digest = file_sha256(path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 128)
        cache = AllocationCache(maxsize=4)
        before = _counter("integrity.sat_rebuilds")
        engine = cache.mmap_engine(
            "dm", GRID, DISKS, path, byte_budget=TINY_BUDGET
        )
        assert _counter("integrity.sat_rebuilds") == before + 1
        assert cache.stats().rebuilds == 1
        assert file_sha256(path) == reference_digest
        in_ram = SummedAreaTable.build(
            get_scheme("dm").allocate(GRID, DISKS)
        )
        np.testing.assert_array_equal(
            np.asarray(engine.sat.array), in_ram.array
        )

    def test_mmap_engine_serves_intact_table_without_rebuild(
        self, tmp_path
    ):
        path = _build(str(tmp_path / "t.npy"))
        cache = AllocationCache(maxsize=4)
        engine = cache.mmap_engine("dm", GRID, DISKS, path)
        assert cache.stats().rebuilds == 0
        assert engine.sat.is_mmap
