"""Exception types raised by the cone-surface library.

Every error carries enough context in its message to identify the offending
element (chart id, edge index, vertex class, ...).
"""


class ConeSurfaceError(Exception):
    """Base class for all library errors."""


# -- surface assembly ---------------------------------------------------------

class InvalidSurfaceSpec(ConeSurfaceError):
    """Malformed surface description (bad reference, bad marked entry, ...)."""


class NonSimplePolygon(ConeSurfaceError):
    """A chart polygon self-intersects or has degenerate vertices."""


class OrientationError(ConeSurfaceError):
    """A chart polygon is not counterclockwise."""


class EdgeLengthMismatch(ConeSurfaceError):
    """Two glued edges differ in length beyond tolerance."""


class UnmatchedEdge(ConeSurfaceError):
    """An edge is missing from the gluing list, or appears more than once."""


class DisconnectedSurface(ConeSurfaceError):
    """The chart adjacency graph is not connected."""


class UnknownVertexClass(ConeSurfaceError):
    """A vertex-class id does not exist on the surface."""


# -- tracing ------------------------------------------------------------------

class StartOutsideSurface(ConeSurfaceError):
    """Trace start point is not inside (or on) its chart polygon."""


class ZeroDirection(ConeSurfaceError):
    """Trace direction has zero (or non-finite) length."""


class TraceNumericalError(ConeSurfaceError):
    """The stepper could not find a chart exit; degenerate geometry."""


class IncomparableTraces(ConeSurfaceError):
    """No common chart alignment between two paths at time 0."""


class InsufficientPath(ConeSurfaceError):
    """A path does not cover the requested parameter window."""


# -- closed-form helpers ------------------------------------------------------

class DomainError(ConeSurfaceError):
    """Input outside a closed-form formula's domain of validity."""


class AngleOutOfRange(DomainError):
    """Cone angle outside the admissible interval for this formula."""


# -- saddle connections -------------------------------------------------------

class UnfoldingBudgetExceeded(ConeSurfaceError):
    """A window sweep visited more chart copies than the configured budget."""


class EndpointMismatch(ConeSurfaceError):
    """Chained connections do not share endpoint classes."""


# -- cylinders ----------------------------------------------------------------

class NotClosed(ConeSurfaceError):
    """A core trajectory lacks a verified recurrence."""


# -- covers -------------------------------------------------------------------

class InvalidPermutation(ConeSurfaceError):
    """An edge permutation is not a bijection on {1..d}."""


class NoSmallSingularities(ConeSurfaceError):
    """default_odd_degree needs at least one small singular class."""


class BranchPointOnPath(ConeSurfaceError):
    """A base trace meets a branched class, so its lift is ambiguous."""


class SearchBudgetExceeded(ConeSurfaceError):
    """Monodromy backtracking search exhausted its node budget."""
