"""The contract checker must catch deliberately broken schemes."""

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import SchemeNotApplicableError
from repro.core.registry import temporary_scheme
from repro.qa.contracts import ContractConfig, check_registry, check_scheme
from repro.qa.diagnostics import Severity
from repro.schemes.base import DeclusteringScheme

#: Tiny matrix so each check stays fast.
CONFIG = ContractConfig(grids=((3, 3), (2, 4)), disks=(2, 3))


def codes(findings):
    return {finding.rule for finding in findings}


class GoodScheme(DeclusteringScheme):
    name = "qa-good"

    def disk_of(self, coords, grid, num_disks):
        return sum(coords) % num_disks


class OutOfRangeScheme(DeclusteringScheme):
    """Vectorized allocate is valid; the per-bucket rule is out of range."""

    name = "qa-oor"

    def disk_of(self, coords, grid, num_disks):
        return num_disks  # always illegal

    def allocate(self, grid, num_disks):
        table = np.zeros(grid.dims, dtype=np.int64)
        return DiskAllocation(grid, num_disks, table)


class BaseAllocateOutOfRangeScheme(DeclusteringScheme):
    """No allocate override: the base class materializes the bad rule."""

    name = "qa-oor-base"

    def disk_of(self, coords, grid, num_disks):
        return num_disks


class NondeterministicScheme(DeclusteringScheme):
    """allocate is stable but disk_of flips on every call."""

    name = "qa-flaky"

    def __init__(self):
        self._calls = 0

    def disk_of(self, coords, grid, num_disks):
        self._calls += 1
        return self._calls % num_disks

    def allocate(self, grid, num_disks):
        table = np.zeros(grid.dims, dtype=np.int64)
        return DiskAllocation(grid, num_disks, table)


class NondeterministicAllocateScheme(DeclusteringScheme):
    name = "qa-flaky-alloc"

    def __init__(self):
        self._calls = 0

    def disk_of(self, coords, grid, num_disks):
        return 0

    def allocate(self, grid, num_disks):
        self._calls += 1
        table = np.full(grid.dims, self._calls % num_disks, dtype=np.int64)
        return DiskAllocation(grid, num_disks, table)


class DisagreeingScheme(DeclusteringScheme):
    """allocate and disk_of are both valid but inconsistent."""

    name = "qa-split-brain"

    def disk_of(self, coords, grid, num_disks):
        return grid.linear_index(coords) % num_disks

    def allocate(self, grid, num_disks):
        table = (
            (np.arange(grid.num_buckets, dtype=np.int64) + 1) % num_disks
        ).reshape(grid.dims)
        return DiskAllocation(grid, num_disks, table)


class CrashingApplicabilityScheme(DeclusteringScheme):
    name = "qa-crash"

    def check_applicable(self, grid, num_disks):
        raise ZeroDivisionError("oops")

    def disk_of(self, coords, grid, num_disks):
        return 0


class NeverApplicableScheme(DeclusteringScheme):
    name = "qa-never"

    def check_applicable(self, grid, num_disks):
        raise SchemeNotApplicableError("never applicable")

    def disk_of(self, coords, grid, num_disks):
        return 0


class PartialScheme(DeclusteringScheme):
    """Valid vectorized allocate, but the per-bucket rule is not total."""

    name = "qa-partial"

    def disk_of(self, coords, grid, num_disks):
        if tuple(coords) == (1, 1):
            raise KeyError(coords)
        return sum(coords) % num_disks

    def allocate(self, grid, num_disks):
        table = np.indices(grid.dims).sum(axis=0) % num_disks
        return DiskAllocation(grid, num_disks, table.astype(np.int64))


class RaisingBlockScheme(GoodScheme):
    """A sound rule whose chunked-build slab kernel crashes."""

    name = "qa-block-raises"

    def disk_array_block(self, grid, num_disks, start, stop):
        raise RuntimeError("no slabs")


class FullTableBlockScheme(GoodScheme):
    """Slabs ignore their bounds and return the whole table."""

    name = "qa-block-shape"

    def disk_array_block(self, grid, num_disks, start, stop):
        return self.disk_array(grid, num_disks)


class RestartingBlockScheme(GoodScheme):
    """Slabs are well-shaped but always start at row 0."""

    name = "qa-block-restarts"

    def disk_array_block(self, grid, num_disks, start, stop):
        return self.disk_array(grid, num_disks)[: stop - start]


class TestBrokenSchemes:
    def test_good_scheme_is_clean(self):
        assert check_scheme("qa-good", GoodScheme, CONFIG) == []

    def test_out_of_range_disk_of(self):
        findings = check_scheme("qa-oor", OutOfRangeScheme, CONFIG)
        assert "QA406" in codes(findings)

    def test_out_of_range_via_base_allocate(self):
        findings = check_scheme(
            "qa-oor-base", BaseAllocateOutOfRangeScheme, CONFIG
        )
        assert "QA404" in codes(findings)

    def test_nondeterministic_disk_of(self):
        findings = check_scheme("qa-flaky", NondeterministicScheme, CONFIG)
        assert "QA407" in codes(findings)

    def test_nondeterministic_allocate(self):
        findings = check_scheme(
            "qa-flaky-alloc", NondeterministicAllocateScheme, CONFIG
        )
        assert "QA405" in codes(findings)

    def test_allocate_disk_of_disagreement(self):
        findings = check_scheme(
            "qa-split-brain", DisagreeingScheme, CONFIG
        )
        assert "QA409" in codes(findings)

    def test_raising_block(self):
        findings = check_scheme("qa-block-raises", RaisingBlockScheme, CONFIG)
        assert codes(findings) == {"QA430"}
        assert "raised RuntimeError" in findings[0].message

    def test_wrong_shaped_block(self):
        findings = check_scheme(
            "qa-block-shape", FullTableBlockScheme, CONFIG
        )
        assert codes(findings) == {"QA430"}
        assert "returned shape" in findings[0].message

    def test_wrong_block_contents(self):
        findings = check_scheme(
            "qa-block-restarts", RestartingBlockScheme, CONFIG
        )
        assert codes(findings) == {"QA431"}

    def test_check_applicable_crash(self):
        findings = check_scheme(
            "qa-crash", CrashingApplicabilityScheme, CONFIG
        )
        assert "QA403" in codes(findings)

    def test_never_applicable_warns(self):
        findings = check_scheme("qa-never", NeverApplicableScheme, CONFIG)
        assert codes(findings) == {"QA410"}
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_partial_rule(self):
        findings = check_scheme("qa-partial", PartialScheme, CONFIG)
        assert "QA408" in codes(findings)

    def test_factory_crash(self):
        def factory():
            raise RuntimeError("cannot build")

        findings = check_scheme("qa-broken-factory", factory, CONFIG)
        assert codes(findings) == {"QA401"}

    def test_factory_returning_wrong_type(self):
        findings = check_scheme("qa-not-a-scheme", lambda: object(), CONFIG)
        assert codes(findings) == {"QA401"}

    def test_empty_name(self):
        class Nameless(DeclusteringScheme):
            def disk_of(self, coords, grid, num_disks):
                return 0

        findings = check_scheme("qa-nameless", Nameless, CONFIG)
        assert "QA402" in codes(findings)


class TestRegistryIntegration:
    def test_shipped_registry_is_clean(self):
        findings = check_registry(ContractConfig().scaled_down())
        assert findings == []

    def test_seeded_violation_is_caught(self):
        with temporary_scheme("qa-oor", OutOfRangeScheme):
            findings = check_registry(CONFIG, names=["qa-oor"])
        assert "QA406" in codes(findings)

    def test_unknown_name_reported(self):
        findings = check_registry(CONFIG, names=["no-such-scheme"])
        assert codes(findings) == {"QA401"}


class TestConfig:
    def test_scaled_down_is_smaller(self):
        config = ContractConfig()
        quick = config.scaled_down()
        assert len(quick.grids) <= len(config.grids)
        assert len(quick.disks) <= len(config.disks)

    def test_pseudo_file_location(self):
        findings = check_scheme("qa-oor", OutOfRangeScheme, CONFIG)
        assert all(f.file == "registry:qa-oor" for f in findings)
        assert all(f.line == 0 for f in findings)


class TestEngineContract:
    def test_shipped_engine_is_clean(self):
        from repro.qa.contracts import check_engine

        assert check_engine(CONFIG) == []

    def test_broken_engine_is_caught(self, monkeypatch):
        import repro.core.engine as engine_mod
        from repro.qa.contracts import check_engine

        original = engine_mod.ResponseTimeEngine.sliding_response_times

        def corrupted(self, shape):
            times = original(self, shape).copy()
            if times.size:
                times.flat[0] += 1
            return times

        monkeypatch.setattr(
            engine_mod.ResponseTimeEngine,
            "sliding_response_times",
            corrupted,
        )
        findings = check_engine(CONFIG)
        assert "QA421" in codes(findings)
        assert all(f.file == "registry:response-time-engine"
                   for f in findings)

    def test_findings_are_deterministic(self):
        from repro.qa.contracts import check_engine

        assert check_engine(CONFIG) == check_engine(CONFIG)


class TestBackendContract:
    def test_shipped_backends_are_clean(self):
        from repro.qa.contracts import check_backends

        assert check_backends(CONFIG) == []

    def test_broken_tile_kernel_is_caught(self, monkeypatch):
        from repro.core import backends as backend_registry
        from repro.core.backends.numpy_backend import NumpyBackend
        from repro.qa.contracts import check_backends

        class BrokenTile(NumpyBackend):
            name = "qa-broken-tile"

            def fill_tile(self, out, block, num_disks, carry):
                super().fill_tile(out, block, num_disks, carry)
                out[-1, ..., 0] += 1

        monkeypatch.setitem(
            backend_registry._REGISTRY, BrokenTile.name, BrokenTile()
        )
        findings = check_backends(CONFIG)
        assert findings
        assert {f.rule for f in findings} == {"QA423"}
        assert {f.file for f in findings} == {
            "registry:backend:qa-broken-tile"
        }
        assert any("tile kernel" in f.message for f in findings)

    def test_broken_wire_call_is_caught(self, monkeypatch):
        # A wire call that clips with upper + 1 (wrapping at 2**63 - 1)
        # answers the contract's whole-grid int64-max row with 0.
        from repro.core import backends as backend_registry
        from repro.core.backends.numpy_backend import NumpyBackend
        from repro.qa.contracts import check_backends

        class WrappingWire(NumpyBackend):
            name = "qa-wrapping-wire"

            def wire_response_times(self, sat, bounds, out):
                extents = np.asarray(sat.dims, dtype=np.int64)
                lower, upper = bounds
                lo = np.minimum(lower, extents)
                hi = np.maximum(np.minimum(upper + 1, extents), lo)
                out[...] = self.batch_response_times(sat, lo, hi)

        monkeypatch.setitem(
            backend_registry._REGISTRY, WrappingWire.name, WrappingWire()
        )
        findings = check_backends(CONFIG)
        assert findings
        assert {f.file for f in findings} == {
            "registry:backend:qa-wrapping-wire"
        }
        assert all("batch" in f.message for f in findings)
