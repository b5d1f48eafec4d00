"""Runtime contract checker for registered declustering schemes.

The paper's comparisons — and every experiment in this repository — assume
each scheme's ``disk_of`` rule is a *function*: defined on every bucket,
deterministic, returning an integer in ``[0, M)``, and agreeing bucket-for-
bucket with any vectorized ``allocate`` override.  Third-party schemes added
through :func:`~repro.core.registry.register_scheme` get no such guarantee
from the type system, so this module verifies it empirically over small
grids and emits the same :class:`~repro.qa.diagnostics.Finding` records as
the linter.

A second pass (:func:`check_engine`, QA42x) certifies the integral-image
response-time engine: on seeded-random allocations over the same small
grids, :class:`~repro.core.engine.ResponseTimeEngine` must agree with
brute-force per-placement ``response_time`` for every fitting shape
(QA421), and its batched path (QA422) with the scalar per-query
functions on mixed in-grid/clipped/outside batches.  (QA420, which
compared the engine sweep with ``cost.sliding_response_times``, is
retired: both are now the same summed-area-table kernel.)

The scheme pass also certifies the chunked build's slab kernel
(QA430/QA431): every scheme's ``disk_array_block`` must be callable on
each applicable combo, return slabs of the right shape, and concatenate
to the ``allocate`` table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import DeclusteringError
from repro.core.grid import Grid
from repro.qa.diagnostics import Finding, Severity
from repro.schemes.base import DeclusteringScheme

__all__ = [
    "ContractConfig",
    "check_backends",
    "check_engine",
    "check_registry",
    "check_scheme",
]

#: Fixed seed for the engine-contract pass (QA2xx: all randomness seeded).
ENGINE_CONTRACT_SEED = 19940206


@dataclass(frozen=True)
class ContractConfig:
    """Knobs for the contract checker.

    ``grids``/``disks`` span the combo matrix; every applicable combo is
    checked.  ``repeats`` is the number of times each call is replayed for
    the determinism checks.
    """

    grids: Tuple[Tuple[int, ...], ...] = ((4, 4), (3, 5), (2, 2, 2))
    disks: Tuple[int, ...] = (2, 3, 4, 5)
    repeats: int = 2

    def scaled_down(self) -> "ContractConfig":
        """A cheaper variant used by ``--quick`` runs."""
        return ContractConfig(
            grids=self.grids[:2],
            disks=self.disks[:2],
            repeats=self.repeats,
        )


def _finding(
    name: str, rule: str, message: str, severity: Severity = Severity.ERROR
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        file=f"registry:{name}",
        line=0,
        message=message,
    )


def _is_disk_id(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool
    )


def check_scheme(
    name: str,
    scheme_or_factory: Union[
        DeclusteringScheme, Callable[[], DeclusteringScheme]
    ],
    config: Optional[ContractConfig] = None,
) -> List[Finding]:
    """Verify one scheme's ``disk_of``/``allocate`` contract.

    ``scheme_or_factory`` may be a scheme instance or a zero-argument
    factory (the registry's currency).  Returns findings; an empty list
    means the scheme honored the contract on every applicable combo.
    """
    config = config or ContractConfig()
    findings: List[Finding] = []

    if isinstance(scheme_or_factory, DeclusteringScheme):
        scheme = scheme_or_factory
    else:
        try:
            scheme = scheme_or_factory()
        except Exception as exc:
            return [
                _finding(
                    name,
                    "QA401",
                    f"factory raised {type(exc).__name__}: {exc}",
                )
            ]
        if not isinstance(scheme, DeclusteringScheme):
            return [
                _finding(
                    name,
                    "QA401",
                    f"factory returned {type(scheme).__name__}, not a "
                    f"DeclusteringScheme",
                )
            ]

    if not isinstance(getattr(scheme, "name", None), str) or not scheme.name:
        findings.append(
            _finding(
                name,
                "QA402",
                f"scheme {type(scheme).__name__} has empty or non-string "
                f"`name`",
            )
        )

    applicable_any = False

    for dims in config.grids:
        grid = Grid(dims)
        for num_disks in config.disks:
            try:
                scheme.check_applicable(grid, num_disks)
            except DeclusteringError:
                # Declining a configuration is the documented, contractual
                # way to say "not applicable" — not a violation.
                continue
            except Exception as exc:
                findings.append(
                    _finding(
                        name,
                        "QA403",
                        f"check_applicable(grid={dims}, M={num_disks}) "
                        f"crashed with {type(exc).__name__}: {exc} — raise "
                        f"SchemeNotApplicableError instead",
                    )
                )
                continue
            applicable_any = True
            findings.extend(
                _check_combo(name, scheme, grid, num_disks, config)
            )

    if not applicable_any and not findings:
        findings.append(
            _finding(
                name,
                "QA410",
                f"scheme was applicable to none of the checked combos "
                f"(grids {list(config.grids)}, disks {list(config.disks)})",
                severity=Severity.WARNING,
            )
        )
    return findings


def _check_combo(
    name: str,
    scheme: DeclusteringScheme,
    grid: Grid,
    num_disks: int,
    config: ContractConfig,
) -> List[Finding]:
    findings: List[Finding] = []
    where = f"grid={grid.dims}, M={num_disks}"

    tables = []
    for _ in range(max(2, config.repeats)):
        try:
            tables.append(scheme.allocate(grid, num_disks).table)
        except Exception as exc:
            findings.append(
                _finding(
                    name,
                    "QA404",
                    f"allocate({where}) raised {type(exc).__name__} after "
                    f"check_applicable accepted the configuration: {exc}",
                )
            )
            return findings
    base_table = tables[0]
    if any(not np.array_equal(base_table, other) for other in tables[1:]):
        findings.append(
            _finding(
                name,
                "QA405",
                f"allocate({where}) is nondeterministic: repeated calls "
                f"returned different tables",
            )
        )
        return findings

    for coords in grid.iter_buckets():
        values = []
        for _ in range(max(2, config.repeats)):
            try:
                values.append(scheme.disk_of(coords, grid, num_disks))
            except Exception as exc:
                findings.append(
                    _finding(
                        name,
                        "QA408",
                        f"disk_of({coords}, {where}) raised "
                        f"{type(exc).__name__}: {exc} — the rule must be "
                        "total on the grid",
                    )
                )
                return findings
        value = values[0]
        if not _is_disk_id(value) or not 0 <= int(value) < num_disks:
            findings.append(
                _finding(
                    name,
                    "QA406",
                    f"disk_of({coords}, {where}) returned {value!r}, not "
                    f"an integer in [0, {num_disks})",
                )
            )
            return findings
        if any(int(v) != int(value) for v in values[1:]):
            findings.append(
                _finding(
                    name,
                    "QA407",
                    f"disk_of({coords}, {where}) is nondeterministic: "
                    f"repeated calls returned "
                    f"{sorted(set(map(int, values)))}",
                )
            )
            return findings
        if int(base_table[tuple(coords)]) != int(value):
            findings.append(
                _finding(
                    name,
                    "QA409",
                    f"allocate({where}) assigns bucket {coords} to disk "
                    f"{int(base_table[tuple(coords)])} but disk_of returns "
                    f"{int(value)} — vectorized override disagrees with "
                    "the per-bucket rule",
                )
            )
            return findings
    # The scalar rule held on every bucket, and QA409 tied allocate's
    # table to it; now certify the chunked build's slab kernel against
    # that table (QA430: every slab callable and well-shaped, QA431:
    # the slabs concatenate to the allocate table).
    rows = grid.dims[0]
    bounds = sorted({0, rows // 2, rows})
    slabs = []
    for start, stop in zip(bounds, bounds[1:]):
        block = f"disk_array_block({where}, rows [{start}, {stop}))"
        try:
            slab = scheme.disk_array_block(grid, num_disks, start, stop)
        except Exception as exc:
            findings.append(
                _finding(
                    name,
                    "QA430",
                    f"{block} raised {type(exc).__name__} after "
                    f"check_applicable accepted the configuration: {exc}",
                )
            )
            return findings
        want_shape = (stop - start,) + grid.dims[1:]
        if tuple(np.shape(slab)) != want_shape:
            findings.append(
                _finding(
                    name,
                    "QA430",
                    f"{block} returned shape {tuple(np.shape(slab))}, "
                    f"expected {want_shape}",
                )
            )
            return findings
        slabs.append(slab)
    table = np.concatenate(slabs)
    mismatch = np.argwhere(table != base_table)
    if mismatch.size:
        coords = tuple(int(c) for c in mismatch[0])
        findings.append(
            _finding(
                name,
                "QA431",
                f"disk_array_block({where}) slabs assign bucket {coords} "
                f"to disk {int(table[coords])} but allocate assigns "
                f"{int(base_table[coords])} — the chunked build's slab "
                f"kernel disagrees with the full table",
            )
        )
    return findings


def check_engine(config: Optional[ContractConfig] = None) -> List[Finding]:
    """Certify the integral-image engine against its reference oracles.

    For every grid/disk combo in ``config`` a seeded-random allocation is
    drawn and every fitting query shape is checked:

    * **QA421** — engine result differs from brute-force
      :func:`repro.core.cost.response_time` evaluated placement by
      placement (the definitional oracle);
    * **QA422** — the batched path (``batch_response_times`` /
      ``batch_deviations``) differs from the scalar per-query functions
      on a mixed batch of in-grid, boundary-clipped, and fully-outside
      queries.

    The combos are small (a few hundred placements each), so the check is
    exhaustive over shapes rather than sampled.
    """
    from repro.core.allocation import DiskAllocation
    from repro.core.cost import relative_deviation, response_time
    from repro.core.engine import ResponseTimeEngine
    from repro.core.query import RangeQuery, all_placements

    config = config or ContractConfig()
    findings: List[Finding] = []
    rng = np.random.default_rng(ENGINE_CONTRACT_SEED)
    for dims in config.grids:
        grid = Grid(dims)
        for num_disks in config.disks:
            table = rng.integers(0, num_disks, size=dims)
            allocation = DiskAllocation(grid, num_disks, table)
            engine = ResponseTimeEngine(allocation)
            where = f"grid={dims}, M={num_disks}"
            for shape in itertools.product(
                *(range(1, d + 1) for d in dims)
            ):
                computed = engine.sliding_response_times(shape)
                brute_ok = all(
                    computed[tuple(query.lower)]
                    == response_time(allocation, query)
                    for query in all_placements(grid, shape)
                )
                if not brute_ok:
                    findings.append(
                        _finding(
                            "response-time-engine",
                            "QA421",
                            f"engine disagrees with brute-force "
                            f"response_time for shape {shape} on a random "
                            f"allocation ({where}, seed "
                            f"{ENGINE_CONTRACT_SEED})",
                        )
                    )
                    break
            findings.extend(
                _check_batch_engine(engine, allocation, grid, where)
            )
    return findings


def _mixed_queries(grid: Grid):
    """The standard mixed batch: in-grid, boundary-clipped, and outside.

    All placements of three shapes, plus rectangles that clip at the
    boundary, clip partially, and clip to nothing — the full range of
    zero-bucket semantics the batched paths must preserve.
    """
    from repro.core.query import RangeQuery, all_placements

    dims = grid.dims
    ndim = grid.ndim
    queries = []
    shapes = {
        (1,) * ndim,
        tuple(max(1, d // 2) for d in dims),
        dims,
    }
    for shape in sorted(shapes):
        queries.extend(all_placements(grid, shape))
    # Boundary-clipped and fully-outside rectangles exercise the
    # zero-bucket clipping semantics (_effective_optimal).
    queries.append(
        RangeQuery((0,) * ndim, tuple(2 * d for d in dims))
    )
    queries.append(
        RangeQuery(
            tuple(d // 2 for d in dims), tuple(d + 2 for d in dims)
        )
    )
    queries.append(
        RangeQuery(tuple(dims), tuple(d + 1 for d in dims))
    )
    return queries


def _mixed_wire_bounds(grid: Grid) -> np.ndarray:
    """The mixed batch as a served request's inclusive ``(2, N, k)``
    bounds, plus a whole-grid row whose upper bounds are ``2**63 - 1``."""
    queries = _mixed_queries(grid)
    lower = [query.lower for query in queries] + [(0,) * grid.ndim]
    upper = [query.upper for query in queries]
    upper.append((np.iinfo(np.int64).max,) * grid.ndim)
    return np.array([lower, upper], dtype=np.int64)


def _wire_answers(backend, sat, bounds: np.ndarray) -> np.ndarray:
    """``backend.wire_response_times`` of ``bounds`` as a fresh array."""
    out = np.empty(bounds.shape[1], dtype=np.int64)
    backend.wire_response_times(sat, bounds, out)
    return out


def _check_batch_engine(engine, allocation, grid: Grid, where: str):
    """QA422: the batched engine path vs the scalar per-query oracles."""
    from repro.core.cost import relative_deviation, response_time

    queries = _mixed_queries(grid)
    batch_rts = engine.batch_response_times(queries)
    batch_devs = engine.batch_deviations(queries)
    for index, query in enumerate(queries):
        scalar_rt = response_time(allocation, query)
        scalar_dev = relative_deviation(allocation, query)
        # Bit-identity is the contract, so the deviations are compared
        # by their float64 byte patterns, not approximately.
        if (
            int(batch_rts[index]) != int(scalar_rt)
            or np.float64(batch_devs[index]).tobytes()
            != np.float64(scalar_dev).tobytes()
        ):
            return [
                _finding(
                    "response-time-engine",
                    "QA422",
                    f"batched engine path disagrees with the scalar "
                    f"per-query oracle on {query!r} ({where}, seed "
                    f"{ENGINE_CONTRACT_SEED}): batch RT/dev "
                    f"{int(batch_rts[index])}/{float(batch_devs[index])!r}"
                    f" vs scalar {int(scalar_rt)}/{float(scalar_dev)!r}",
                )
            ]
    return []


def check_backends(
    config: Optional[ContractConfig] = None,
) -> List[Finding]:
    """QA423: certify every available kernel backend against numpy.

    The numpy backend is the bit-identical reference; for each *other*
    available backend (``cnative``) and every grid/disk combo
    in ``config``, a seeded-random allocation is drawn and the backend
    must reproduce the reference **exactly** on:

    * the batched rectangle paths (``batch_disk_counts`` /
      ``batch_response_times``, and ``wire_response_times`` on the same
      batch as served inclusive bounds) over the standard mixed batch —
      in-grid, boundary-clipped, and zero-bucket (fully outside)
      queries included;
    * the sliding-window sweep (``window_response_times``) for every
      fitting shape.

    Memory-mapped tables are certified too: a multi-tile chunked table
    built under each backend's tile kernel must equal the numpy in-RAM
    table, and every backend's batch kernels over it must match the
    in-RAM reference.  Unavailable backends are skipped, not failed —
    availability is a property of the machine, not of the code.
    """
    from repro.core import backends as backend_registry
    from repro.core.allocation import DiskAllocation
    from repro.core.query import QueryBatch
    from repro.core.sat import SummedAreaTable

    config = config or ContractConfig()
    findings: List[Finding] = []
    reference = backend_registry.get_backend("numpy")
    others = [
        backend
        for backend in backend_registry.available_backends()
        if backend.name != reference.name
    ]
    rng = np.random.default_rng(ENGINE_CONTRACT_SEED)
    for dims in config.grids:
        grid = Grid(dims)
        for num_disks in config.disks:
            where = f"grid={dims}, M={num_disks}"
            table = rng.integers(0, num_disks, size=dims)
            allocation = DiskAllocation(grid, num_disks, table)
            sat = SummedAreaTable.build(allocation)
            batch = QueryBatch.from_queries(_mixed_queries(grid), grid)
            want_counts = reference.batch_disk_counts(
                sat, batch.lo, batch.hi
            )
            want_rts = reference.batch_response_times(
                sat, batch.lo, batch.hi
            )
            wire = _mixed_wire_bounds(grid)
            want_wire = _wire_answers(reference, sat, wire)
            fitting_shapes = list(
                itertools.product(*(range(1, d + 1) for d in dims))
            )
            want_windows = {
                shape: reference.window_response_times(sat, shape)
                for shape in fitting_shapes
            }
            for backend in others:
                if not np.array_equal(
                    want_counts,
                    backend.batch_disk_counts(sat, batch.lo, batch.hi),
                ) or not np.array_equal(
                    want_rts,
                    backend.batch_response_times(
                        sat, batch.lo, batch.hi
                    ),
                ) or not np.array_equal(
                    want_wire, _wire_answers(backend, sat, wire)
                ):
                    findings.append(
                        _finding(
                            f"backend:{backend.name}",
                            "QA423",
                            f"batched query kernel disagrees with the "
                            f"numpy reference on the mixed batch "
                            f"(clipped and zero-bucket queries "
                            f"included, {where}, seed "
                            f"{ENGINE_CONTRACT_SEED})",
                        )
                    )
                    continue
                bad_shape = next(
                    (
                        shape
                        for shape in fitting_shapes
                        if not np.array_equal(
                            want_windows[shape],
                            backend.window_response_times(sat, shape),
                        )
                    ),
                    None,
                )
                if bad_shape is not None:
                    findings.append(
                        _finding(
                            f"backend:{backend.name}",
                            "QA423",
                            f"sliding-window kernel disagrees with the "
                            f"numpy reference for shape {bad_shape} "
                            f"({where}, seed {ENGINE_CONTRACT_SEED})",
                        )
                    )
    findings.extend(_check_mmap_layout(config))
    return findings


def _check_mmap_layout(config: ContractConfig) -> List[Finding]:
    """QA423 for the chunked/memory-mapped SAT: mapped == in-RAM.

    One multi-tile chunked table is built under **every** available
    backend's tile kernel; each must equal the numpy in-RAM table
    element for element, and every backend's batch kernels over each
    mapped table must be bit-identical to the numpy reference over the
    in-RAM table on the mixed batch (clipped and zero-bucket queries
    included).
    """
    import os
    import tempfile

    from repro.core import backends as backend_registry
    from repro.core.allocation import DiskAllocation
    from repro.core.query import QueryBatch
    from repro.core.registry import get_scheme
    from repro.core.sat import SummedAreaTable

    findings: List[Finding] = []
    scheme = get_scheme("dm")
    dims = max(config.grids, key=len)
    grid = Grid(dims)
    num_disks = config.disks[-1]
    where = f"grid={dims}, M={num_disks}, scheme=dm"
    available = backend_registry.available_backends()
    numpy_backend = backend_registry.get_backend("numpy")
    with backend_registry.use_backend("numpy"):
        reference = SummedAreaTable.build(
            DiskAllocation(
                grid, num_disks, scheme.disk_array(grid, num_disks)
            )
        )
    batch = QueryBatch.from_queries(_mixed_queries(grid), grid)
    want_counts = numpy_backend.batch_disk_counts(
        reference, batch.lo, batch.hi
    )
    want_rts = numpy_backend.batch_response_times(
        reference, batch.lo, batch.hi
    )
    wire = _mixed_wire_bounds(grid)
    want_wire = _wire_answers(numpy_backend, reference, wire)
    with tempfile.TemporaryDirectory(prefix="repro-qa423-") as tmp:
        for builder in available:
            with backend_registry.use_backend(builder.name):
                chunked = SummedAreaTable.build_chunked(
                    scheme,
                    grid,
                    num_disks,
                    byte_budget=1024,  # several tiles even on tiny grids
                    path=os.path.join(tmp, f"sat-{builder.name}.npy"),
                )
            try:
                if not np.array_equal(chunked.array, reference.array):
                    findings.append(
                        _finding(
                            f"backend:{builder.name}",
                            "QA423",
                            f"chunked SAT built by the tile kernel "
                            f"differs from the numpy in-RAM table "
                            f"({where})",
                        )
                    )
                    continue
                for backend in available:
                    if not np.array_equal(
                        want_counts,
                        backend.batch_disk_counts(
                            chunked, batch.lo, batch.hi
                        ),
                    ) or not np.array_equal(
                        want_rts,
                        backend.batch_response_times(
                            chunked, batch.lo, batch.hi
                        ),
                    ) or not np.array_equal(
                        want_wire, _wire_answers(backend, chunked, wire)
                    ):
                        findings.append(
                            _finding(
                                f"backend:{backend.name}",
                                "QA423",
                                f"batch kernel over the memory-mapped "
                                f"SAT built on {builder.name} disagrees "
                                f"with the in-RAM reference on the "
                                f"mixed batch (clipped and zero-bucket "
                                f"queries included, {where})",
                            )
                        )
            finally:
                chunked.close()
    return findings


def check_registry(
    config: Optional[ContractConfig] = None,
    names: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run :func:`check_scheme` for every (or the named) registered scheme."""
    from repro.core.exceptions import UnknownSchemeError
    from repro.core.registry import available_schemes, scheme_factory

    config = config or ContractConfig()
    findings: List[Finding] = []
    for name in names if names is not None else available_schemes():
        try:
            factory = scheme_factory(name)
        except UnknownSchemeError:
            findings.append(
                _finding(name, "QA401", "scheme name is not registered")
            )
            continue
        findings.extend(check_scheme(name, factory, config))
    return sorted(findings)
