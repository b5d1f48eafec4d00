"""Exception hierarchy for the declustering library.

All library-raised errors derive from :class:`DeclusteringError`, so callers
can catch one type to handle any failure originating here while letting
genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "AllocationError",
    "BackendError",
    "CodeConstructionError",
    "DeclusteringError",
    "FaultError",
    "GridError",
    "IntegrityError",
    "GridFileError",
    "ProtocolError",
    "QueryError",
    "RunnerError",
    "ServeError",
    "SchemeError",
    "SchemeNotApplicableError",
    "SearchBudgetExceeded",
    "SimulationError",
    "UnknownSchemeError",
    "WorkloadError",
]


class DeclusteringError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GridError(DeclusteringError):
    """Invalid grid specification (non-positive extents, bad dimensionality)."""


class QueryError(DeclusteringError):
    """Invalid query specification (bounds out of order, wrong arity)."""


class AllocationError(DeclusteringError):
    """Invalid bucket-to-disk allocation (bad shape, disk id out of range)."""


class SchemeError(DeclusteringError):
    """A declustering scheme cannot be applied to the given grid/disk count."""


class SchemeNotApplicableError(SchemeError):
    """The scheme's preconditions (e.g. M a power of two) are not met."""


class UnknownSchemeError(SchemeError, KeyError):
    """Requested scheme name is not present in the registry."""


class CodeConstructionError(DeclusteringError):
    """A GF(2) parity-check code with the requested parameters cannot be built."""


class SearchBudgetExceeded(DeclusteringError):
    """The exhaustive optimality search exceeded its node budget.

    Raised instead of returning a wrong existence verdict: the search is only
    allowed to answer "exists"/"does not exist" when it ran to completion.
    """


class BackendError(DeclusteringError):
    """A kernel backend is unknown, unavailable, or failed to initialize.

    Raised when ``REPRO_BACKEND`` (or ``--backend``) names a backend that
    is not registered or whose runtime dependency (a C compiler)
    is missing — selecting a backend must fail loudly, never silently
    fall back to a different implementation than the one asked for.
    """


class IntegrityError(DeclusteringError):
    """A persisted artifact failed its integrity check.

    Raised when a spilled summed-area table, its sidecar manifest, or a
    cached compiled kernel library does not match its recorded digests —
    a truncated file, a torn write, or bit rot.  Loading such an
    artifact silently would produce wrong answers with no error, so the
    integrity layer (:mod:`repro.core.integrity`) raises this instead;
    callers with a rebuild path (the allocation cache, the native
    backend) may catch it, rebuild, and count the recovery.
    """


class SimulationError(DeclusteringError):
    """Invalid physical-disk simulation parameters."""


class WorkloadError(DeclusteringError):
    """Invalid workload-generator parameters."""


class GridFileError(DeclusteringError):
    """Invalid grid-file operation (bad record arity, unknown attribute)."""


class FaultError(DeclusteringError):
    """Invalid fault-model specification (bad disk id, factor, scenario)."""


class RunnerError(DeclusteringError):
    """The experiment runner could not complete the suite.

    Raised when an experiment fails (the run stops at the first failure),
    or a checkpoint file cannot be used for the requested run.
    """


class ServeError(DeclusteringError):
    """The serving daemon could not start or answer a request.

    Raised for configuration problems (no preloaded scheme matches a
    request, a dead endpoint) and wrapped into typed error responses on
    the wire; request handlers never let it tear the connection down.
    """


class ProtocolError(ServeError):
    """A wire frame violates the serve protocol.

    Raised for truncated frames, length prefixes beyond the hard frame
    cap, unknown request kinds, or malformed headers/bodies.  The server
    answers with a typed error response where the stream is still
    parseable and closes the connection only when framing itself is
    unrecoverable (a half-received length, an oversized prefix).
    """
