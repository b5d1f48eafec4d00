"""``repro doctor``: artifact scans, classifications, gc, exit codes."""

import json
import os

import numpy as np
import pytest

from repro.core.exceptions import IntegrityError
from repro.core.grid import Grid
from repro.core.integrity import (
    SatManifest,
    library_digest_path,
    manifest_path,
    write_library_digest,
)
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable, build_partial_path
from repro.doctor import (
    ArtifactIssue,
    run_doctor,
    scan_native_cache,
    scan_sat_artifacts,
)

GRID = Grid((8, 5))
DISKS = 2


def _build_sat(directory, name="repro-sat-t.npy"):
    path = os.path.join(str(directory), name)
    sat = SummedAreaTable.build_chunked(
        get_scheme("dm"), GRID, DISKS, path=path
    )
    sat.close()
    return path


def _states(issues):
    return {issue.path: issue.state for issue in issues}


class TestSatScan:
    def test_verified_table_is_ok(self, tmp_path):
        path = _build_sat(tmp_path)
        issues = scan_sat_artifacts(str(tmp_path))
        assert _states(issues) == {path: "ok"}

    def test_missing_directory_is_empty(self, tmp_path):
        assert scan_sat_artifacts(str(tmp_path / "nope")) == []

    def test_corrupt_table_lists_its_removals(self, tmp_path):
        path = _build_sat(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 64)
        (issue,) = scan_sat_artifacts(str(tmp_path))
        assert issue.state == "corrupt"
        assert set(issue.removals) == {path, manifest_path(path)}

    def test_bitflip_found_at_full_depth_only(self, tmp_path):
        path = _build_sat(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) - 11)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x20]))
        (header,) = scan_sat_artifacts(str(tmp_path), level="header")
        assert header.state == "ok"  # size/shape still agree
        (full,) = scan_sat_artifacts(str(tmp_path), level="full")
        assert full.state == "corrupt"

    def test_off_level_is_floored_to_header(self, tmp_path):
        # An 'off' doctor would scan nothing; truncation must still show.
        path = _build_sat(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(128)
        (issue,) = scan_sat_artifacts(str(tmp_path), level="off")
        assert issue.state == "corrupt"

    def test_manifestless_spill_is_stale_and_removed(self, tmp_path):
        # Its layout cannot be read from the header: never opened, so gc
        # removes it.
        path = _build_sat(tmp_path)
        os.unlink(manifest_path(path))
        (issue,) = scan_sat_artifacts(str(tmp_path))
        assert issue.state == "stale"
        assert issue.removals == [path]
        report = run_doctor(
            gc=True,
            scanners=[lambda: scan_sat_artifacts(str(tmp_path))],
        )
        assert report.exit_code() == 0
        assert not os.path.exists(path)

    def test_orphan_manifest_is_stale(self, tmp_path):
        path = _build_sat(tmp_path)
        os.unlink(path)
        (issue,) = scan_sat_artifacts(str(tmp_path))
        assert issue.state == "stale"
        assert issue.removals == [manifest_path(path)]

    def test_interrupted_build_is_resumable(self, tmp_path, monkeypatch):
        path = os.path.join(str(tmp_path), "repro-sat-k.npy")
        monkeypatch.setenv("REPRO_IO_FAULTS", "sat.write:1")
        monkeypatch.setenv(
            "REPRO_IO_FAULTS_STATE", str(tmp_path / "state")
        )
        with pytest.raises(OSError):
            SummedAreaTable.build_chunked(
                get_scheme("dm"), Grid((12, 6)), 3,
                byte_budget=400, path=path,
            )
        monkeypatch.delenv("REPRO_IO_FAULTS")
        (issue,) = scan_sat_artifacts(str(tmp_path))
        assert issue.kind == "sat-build"
        assert issue.state == "resumable"
        partial = build_partial_path(path)
        assert set(issue.removals) == {partial, manifest_path(partial)}

    def test_dead_staging_files_are_stale(self, tmp_path):
        base = os.path.join(str(tmp_path), "repro-sat-d.npy")
        partial = build_partial_path(base)
        with open(partial, "wb") as handle:
            handle.write(b"torn")
        with open(manifest_path(partial), "w") as handle:
            handle.write("{not json")
        (issue,) = scan_sat_artifacts(str(tmp_path))
        assert issue.state == "stale"
        assert set(issue.removals) == {partial, manifest_path(partial)}

    def test_older_build_sidecars_are_stale_and_collected(self, tmp_path):
        leftovers = [
            os.path.join(str(tmp_path), name)
            for name in (
                "t.npy.journal.json",
                "t.npy.carry.npy",
                "repro-sat-o.npy.journal.json",
                "repro-sat-o.npy.carry.npy",
            )
        ]
        for leftover in leftovers:
            with open(leftover, "wb") as handle:
                handle.write(b"x")
        issues = scan_sat_artifacts(str(tmp_path))
        # One finding per file: the repro-sat-* carry is a table without
        # a manifest, the rest are sidecars of an older build format.
        assert _states(issues) == dict.fromkeys(leftovers, "stale")
        assert sorted(r for i in issues for r in i.removals) == sorted(
            leftovers
        )
        report = run_doctor(
            gc=True,
            scanners=[lambda: scan_sat_artifacts(str(tmp_path))],
        )
        assert report.exit_code() == 0
        assert os.listdir(str(tmp_path)) == []


class TestLegacyDiskFirstSpill:
    """A schema-1 spill stored the SAT disk-first; it is refused, not read."""

    def _write_disk_first_spill(self, directory):
        from repro.core.integrity import SatManifest, sha256_hex

        path = os.path.join(str(directory), "repro-sat-legacy.npy")
        in_ram = SummedAreaTable.build(get_scheme("dm").allocate(GRID, DISKS))
        disk_first = np.ascontiguousarray(np.moveaxis(in_ram.array, -1, 0))
        np.save(path, disk_first)
        SatManifest(
            dtype=disk_first.dtype.str,
            shape=disk_first.shape,
            num_disks=DISKS,
            tile_rows=GRID.dims[0],
            tile_starts=[0],
            tile_digests=[
                sha256_hex(np.ascontiguousarray(disk_first[:, 1:]).data)
            ],
            file_bytes=os.path.getsize(path),
            params={"scheme": "dm", "dims": list(GRID.dims)},
            schema=1,
        ).write(path)
        return path

    def test_refused_reported_stale_and_collected(self, tmp_path):
        path = self._write_disk_first_spill(tmp_path)
        for level in ("header", "full"):
            with pytest.raises(IntegrityError, match="disk-first"):
                SummedAreaTable.open_mmap(path, verify=level)
        (issue,) = scan_sat_artifacts(str(tmp_path))
        assert issue.state == "stale"
        assert "disk-first" in issue.detail
        assert set(issue.removals) == {path, manifest_path(path)}
        report = run_doctor(
            gc=True,
            scanners=[lambda: scan_sat_artifacts(str(tmp_path))],
        )
        assert report.exit_code() == 0
        assert os.listdir(str(tmp_path)) == []


class TestStagingResumable:
    """Resumable exactly when the partial exists and its manifest loads."""

    @staticmethod
    def _state(directory):
        issues = scan_sat_artifacts(str(directory))
        return [issue.state for issue in issues]

    def test_requires_partial_and_loadable_manifest(self, tmp_path):
        base = os.path.join(str(tmp_path), "t.npy")
        partial = build_partial_path(base)
        assert self._state(tmp_path) == []  # no staging set at all
        manifest = SatManifest(
            dtype="<i4", shape=(9, 6, 2), num_disks=2, tile_rows=4,
            tile_starts=[0], tile_digests=["0" * 64], file_bytes=1,
            params={"scheme": "dm", "dims": [8, 5]},
        )
        manifest.write(partial)
        assert self._state(tmp_path) == ["stale"]  # partial missing
        with open(partial, "wb") as handle:
            handle.write(b"x")
        assert self._state(tmp_path) == ["resumable"]
        manifest.schema = 1
        manifest.write(partial)
        assert self._state(tmp_path) == ["stale"]  # does not load
        os.unlink(manifest_path(partial))
        assert self._state(tmp_path) == ["stale"]  # manifest missing


class TestNativeScan:
    def test_verified_library_is_ok(self, tmp_path):
        lib = str(tmp_path / "reprokern-abc.so")
        with open(lib, "wb") as handle:
            handle.write(b"\x7fELF fake")
        write_library_digest(lib)
        (issue,) = scan_native_cache(str(tmp_path))
        assert issue.state == "ok"

    def test_zero_byte_library_is_corrupt(self, tmp_path):
        lib = str(tmp_path / "reprokern-abc.so")
        open(lib, "wb").close()
        (issue,) = scan_native_cache(str(tmp_path))
        assert issue.state == "corrupt"
        assert issue.removals == [lib]

    def test_modified_library_is_corrupt(self, tmp_path):
        lib = str(tmp_path / "reprokern-abc.so")
        with open(lib, "wb") as handle:
            handle.write(b"\x7fELF fake")
        write_library_digest(lib)
        with open(lib, "ab") as handle:
            handle.write(b"!")
        (issue,) = scan_native_cache(str(tmp_path))
        assert issue.state == "corrupt"
        assert set(issue.removals) == {lib, library_digest_path(lib)}

    def test_sidecarless_library_is_unverified(self, tmp_path):
        lib = str(tmp_path / "reprokern-abc.so")
        with open(lib, "wb") as handle:
            handle.write(b"\x7fELF fake")
        (issue,) = scan_native_cache(str(tmp_path))
        assert issue.state == "unverified"
        assert issue.removals == []

    def test_compile_leftovers_are_stale(self, tmp_path):
        tmp = str(tmp_path / "reprokern-abc.so.123.tmp")
        src = str(tmp_path / "reprokern-abc.c")
        orphan = str(tmp_path / "reprokern-def.so.sha256")
        for leftover in (tmp, src):
            with open(leftover, "wb") as handle:
                handle.write(b"x")
        with open(orphan, "w") as handle:
            json.dump({"schema": 1, "kind": "library",
                       "sha256": "0" * 64}, handle)
        states = _states(scan_native_cache(str(tmp_path)))
        assert states == {tmp: "stale", src: "stale", orphan: "stale"}

    def test_source_with_library_is_kept(self, tmp_path):
        lib = str(tmp_path / "reprokern-abc.so")
        with open(lib, "wb") as handle:
            handle.write(b"\x7fELF fake")
        write_library_digest(lib)
        with open(str(tmp_path / "reprokern-abc.c"), "w") as handle:
            handle.write("int x;")
        states = set(_states(scan_native_cache(str(tmp_path))).values())
        assert states == {"ok"}


class TestRunDoctor:
    def test_clean_report_exits_zero(self, tmp_path):
        _build_sat(tmp_path)
        report = run_doctor(scanners=[
            lambda: scan_sat_artifacts(str(tmp_path)),
        ])
        assert report.clean
        assert report.exit_code() == 0
        assert "clean" in report.render()

    def test_findings_without_gc_exit_one(self, tmp_path):
        path = _build_sat(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(128)
        report = run_doctor(scanners=[
            lambda: scan_sat_artifacts(str(tmp_path)),
        ])
        assert not report.clean
        assert report.removed == []
        assert report.exit_code() == 1

    def test_gc_removes_and_exits_zero(self, tmp_path):
        path = _build_sat(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(128)
        report = run_doctor(
            gc=True,
            scanners=[lambda: scan_sat_artifacts(str(tmp_path))],
        )
        assert set(report.removed) == {path, manifest_path(path)}
        assert not os.path.exists(path)
        assert report.exit_code() == 0
        # Unverified artifacts are never gc targets.
        assert all(i.state != "unverified" for i in report.actionable)

    def test_gc_failure_keeps_nonzero_exit(self, tmp_path):
        # Simulate EPERM-style gc failure: the removal target still
        # exists when exit_code() re-checks, so the doctor stays loud.
        survivor = str(tmp_path / "keep.bin")
        stubborn = ArtifactIssue(
            kind="sat",
            state="corrupt",
            path=survivor,
            detail="test double whose target outlives gc",
            removals=[survivor],
        )
        report = run_doctor(gc=True, scanners=[lambda: [stubborn]])
        with open(survivor, "wb") as handle:
            handle.write(b"x")
        assert report.exit_code() == 1

    def test_json_payload_shape(self, tmp_path):
        path = _build_sat(tmp_path)
        os.unlink(manifest_path(path))
        report = run_doctor(scanners=[
            lambda: scan_sat_artifacts(str(tmp_path)),
        ])
        payload = report.to_json()
        assert payload["clean"] is False  # stale is actionable
        (issue,) = payload["issues"]
        assert issue["state"] == "stale"
        assert issue["removals"] == [path]


class TestDoctorCli:
    def test_cli_scan_and_gc(self, tmp_path, capsys):
        from repro.cli import main

        path = _build_sat(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(128)
        code = main([
            "doctor", "--sat-dir", str(tmp_path),
            "--native-cache", str(tmp_path / "no-cache"), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["clean"] is False

        code = main([
            "doctor", "--sat-dir", str(tmp_path),
            "--native-cache", str(tmp_path / "no-cache"), "--gc",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "removed" in out
        assert not os.path.exists(path)
