"""A multi-relation declustered database over one shared disk pool.

The paper's closing recommendation is system-level: "parallel database
systems must support a number of declustering methods" and pick per
relation using its query profile.  This module is that system layer: a
:class:`DeclusteredDatabase` holds named relations (each a
:class:`~repro.gridfile.file.DeclusteredGridFile` with its *own* scheme)
on one pool of ``M`` disks, routes value-range queries by relation name,
and reports pool-wide storage and heat balance.

:meth:`DeclusteredDatabase.auto_place` runs the advisor per relation on a
supplied workload sample — the end-to-end realization of the paper's
conclusion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import GridFileError, WorkloadError
from repro.core.query import RangeQuery
from repro.gridfile.file import DeclusteredGridFile, QueryExecution
from repro.workloads.datasets import Dataset

__all__ = ["DeclusteredDatabase"]


class DeclusteredDatabase:
    """Named relations declustered over one shared pool of disks."""

    def __init__(self, num_disks: int):
        if num_disks <= 0:
            raise GridFileError(
                f"disk-pool size must be positive, got {num_disks}"
            )
        self._num_disks = int(num_disks)
        self._relations: Dict[str, DeclusteredGridFile] = {}

    @property
    def num_disks(self) -> int:
        """Size of the shared disk pool."""
        return self._num_disks

    @property
    def relation_names(self) -> List[str]:
        """Registered relation names, insertion order."""
        return list(self._relations)

    def relation(self, name: str) -> DeclusteredGridFile:
        """The named relation's grid file."""
        try:
            return self._relations[name]
        except KeyError:
            raise GridFileError(
                f"unknown relation {name!r}; have {self.relation_names}"
            ) from None

    def create_relation(
        self,
        name: str,
        dataset: Dataset,
        dims: Sequence[int],
        scheme: str = "hcam",
        partitioning: str = "equi-width",
    ) -> DeclusteredGridFile:
        """Load a dataset as a new relation under the given scheme."""
        if not name:
            raise GridFileError("relation name must be non-empty")
        if name in self._relations:
            raise GridFileError(f"relation {name!r} already exists")
        gridfile = DeclusteredGridFile.from_dataset(
            dataset,
            dims=dims,
            num_disks=self._num_disks,
            scheme=scheme,
            partitioning=partitioning,
        )
        self._relations[name] = gridfile
        return gridfile

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog."""
        if name not in self._relations:
            raise GridFileError(f"unknown relation {name!r}")
        del self._relations[name]

    def replace_scheme(self, name: str, scheme: str) -> None:
        """Re-decluster one relation under a different method.

        Rebuilds the relation's allocation in place (same partitioning,
        same records) — the repartition a real system would perform as a
        background reorganization.
        """
        from repro.core.registry import get_scheme

        old = self.relation(name)
        allocation = get_scheme(scheme).allocate(
            old.grid, self._num_disks
        )
        self._relations[name] = DeclusteredGridFile(
            old.partitioners, allocation, old.dataset
        )

    def execute(
        self,
        name: str,
        value_ranges: Sequence[Tuple[float, float]],
    ) -> QueryExecution:
        """Run a value-range query against one relation."""
        gridfile = self.relation(name)
        return gridfile.execute(gridfile.range_query(value_ranges))

    # -- pool-wide views ------------------------------------------------

    def storage_per_disk(self) -> np.ndarray:
        """Total records per disk across every relation."""
        loads = np.zeros(self._num_disks, dtype=np.int64)
        for gridfile in self._relations.values():
            loads += gridfile.records_per_disk()
        return loads

    def pool_heat(
        self,
        workload: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    ) -> np.ndarray:
        """Bucket reads per disk for a mixed multi-relation workload.

        ``workload`` entries are ``(relation_name, value_ranges)``.
        """
        if not workload:
            raise WorkloadError("pool workload contains no queries")
        from repro.core.cost import batch_disk_counts

        queries: Dict[str, List[RangeQuery]] = {}
        for name, value_ranges in workload:
            query = self.relation(name).range_query(value_ranges)
            queries.setdefault(name, []).append(query)
        heat = np.zeros(self._num_disks, dtype=np.int64)
        for name, relation_queries in queries.items():
            allocation = self.relation(name).allocation
            heat += batch_disk_counts(allocation, relation_queries).sum(axis=0)
        return heat

    def auto_place(
        self,
        workloads: Dict[str, Sequence[RangeQuery]],
        candidates: Optional[Sequence[str]] = None,
        include_workload_aware: bool = False,
    ) -> Dict[str, str]:
        """Advise and apply the best scheme per relation.

        ``workloads`` maps relation name to a bucket-coordinate query
        sample for that relation.  Each relation is re-declustered under
        its advisor winner (with ``include_workload_aware`` the winner
        may be an annealed relation-specific allocation, installed
        directly); returns ``{relation: chosen_scheme}``.
        """
        from repro.analysis.advisor import advise

        chosen: Dict[str, str] = {}
        for name, queries in workloads.items():
            gridfile = self.relation(name)
            recommendations = advise(
                gridfile.grid,
                self._num_disks,
                list(queries),
                candidates=candidates,
                include_workload_aware=include_workload_aware,
            )
            best = recommendations[0]
            if best.scheme == "workload-aware":
                # Install the already-annealed allocation directly —
                # re-deriving by name would anneal the default workload.
                self._relations[name] = DeclusteredGridFile(
                    gridfile.partitioners,
                    best.allocation,
                    gridfile.dataset,
                )
            else:
                self.replace_scheme(name, best.scheme)
            chosen[name] = best.scheme
        return chosen

    def describe(self) -> str:
        """One line per relation plus the pool storage balance."""
        lines = [
            f"database over {self._num_disks} disks, "
            f"{len(self._relations)} relation(s):"
        ]
        for name, gridfile in self._relations.items():
            lines.append(
                f"  {name:16s} grid {gridfile.grid.dims} "
                f"({gridfile.num_records} records)"
            )
        loads = self.storage_per_disk()
        if loads.sum():
            lines.append(
                f"  pool records/disk min..max = "
                f"{loads.min()}..{loads.max()}"
            )
        return "\n".join(lines)
