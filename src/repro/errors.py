"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.

The hierarchy mirrors the subsystem layout:

* graph construction / validation errors (:class:`GraphError`),
* mesh generation errors (:class:`MeshError`),
* LP solver outcomes that are *exceptional* for the caller
  (:class:`LPError` and friends — note that ordinary infeasibility is
  normally reported through :class:`repro.lp.result.LPResult` rather than
  raised; the exceptions exist for APIs that demand a solution),
* virtual-machine misuse (:class:`ParallelError`),
* incremental-partitioning failures (:class:`PartitioningError`), most
  importantly :class:`RepartitionInfeasibleError`, which signals the
  paper's "better to start partitioning from scratch" condition (§2.3).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument carried an invalid *value* (bad shape, out-of-range
    threshold, unknown registry name...).

    Dual-inherits :class:`ValueError` so call sites that predate the
    typed taxonomy — and external callers using idiomatic
    ``except ValueError`` — keep working, while the service wire
    protocol can map the failure to a typed code instead of
    ``"internal"``.
    """


class APIUsageError(ReproError, TypeError):
    """An API was called with a structurally wrong argument pattern
    (e.g. both a config object *and* keyword overrides).

    Dual-inherits :class:`TypeError` for backward compatibility, like
    :class:`ValidationError` does for :class:`ValueError`.
    """


class GraphError(ReproError):
    """Invalid graph construction or an operation on an unsuitable graph."""


class EdgeNotFoundError(GraphError, KeyError):
    """An edge lookup (``edge_weight``) named an edge that is absent.

    Dual-inherits :class:`KeyError` — the mapping-style lookup protocol
    the graph containers document — so ``except KeyError`` callers keep
    working.
    """


class GraphValidationError(GraphError):
    """A structural invariant of a graph container was violated."""


class DisconnectedGraphError(GraphError):
    """An algorithm that requires a connected graph received one that is not.

    The paper assumes ``G'`` is connected for the distance-based initial
    assignment (§2.1) and the BFS layering (§2.2); callers can catch this
    and fall back to the clustering strategy described there.
    """


class MeshError(ReproError):
    """Mesh generation or refinement failed."""


class LPError(ReproError):
    """Base class for linear-programming solver errors."""


class LPInfeasibleError(LPError):
    """The LP has no feasible point (raised only by ``solve_or_raise``)."""


class LPUnboundedError(LPError):
    """The LP objective is unbounded (raised only by ``solve_or_raise``)."""


class LPNumericalError(LPError):
    """The solver detected numerical breakdown (singular basis, NaNs...)."""


class LPIterationLimit(LPError):
    """The simplex method exceeded its iteration budget."""


class UnknownBackendError(LPError, KeyError):
    """An LP backend name was not found in the registry.

    Dual-inherits :class:`KeyError` (registry lookup protocol).
    """


class ParallelError(ReproError):
    """Misuse of the virtual parallel machine (bad rank, dead runtime...)."""


class CommunicatorError(ParallelError):
    """Invalid point-to-point or collective communication request."""


class RankIndexError(ParallelError, IndexError):
    """A global index fell outside a block distribution's range.

    Dual-inherits :class:`IndexError` (sequence-style indexing protocol).
    """


class AnalysisError(ReproError):
    """The static-analysis tooling could not run (unreadable baseline,
    unknown checker/rule selection, unparsable target...)."""


class PartitioningError(ReproError):
    """An (incremental) partitioning algorithm could not complete."""


class SnapshotError(ReproError):
    """A session snapshot could not be written or read back.

    Raised by :meth:`repro.session.PartitionSession.save` / ``load`` for
    corrupted archives, manifests that are not session snapshots, and
    snapshot format versions newer than this library understands.
    """


class ServiceError(ReproError):
    """A partition-service request failed.

    Raised by :class:`repro.service.client.Client` (over either
    transport) for server-reported failures, malformed responses, and
    connection problems, and by the service layer itself for requests it rejects
    (unknown session, bad arguments...).  ``code`` carries the wire
    protocol's typed error code (see :mod:`repro.service.protocol`) so
    callers can discriminate failure modes without string matching.
    """

    def __init__(self, message: str, *, code: str = "service") -> None:
        super().__init__(message)
        self.code = code


class RepartitionInfeasibleError(PartitioningError):
    """Incremental repartitioning cannot restore balance within the gamma cap.

    Mirrors §2.3 of the paper: when no feasible flow exists for any relaxed
    balance factor ``gamma <= C`` the right response is to repartition from
    scratch or to insert the new vertices in smaller chunks.  The exception
    carries the relaxation that was attempted so drivers can decide.
    """

    def __init__(self, message: str, *, gamma_tried: float | None = None) -> None:
        super().__init__(message)
        self.gamma_tried = gamma_tried
