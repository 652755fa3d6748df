"""Exception hierarchy shared across the toolkit.

Every error carries a human-readable message, the offending chart point
(``.point``) and a witness value (``.witness``); both are None where the
error has none.
"""


class GeoequivError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message, point=None, witness=None):
        super().__init__(message)
        self.point = point
        self.witness = witness


class DimensionCap(GeoequivError):
    """Matrix or chart dimension exceeds the supported cap (8)."""


# ---------------------------------------------------------------------------
# dense linear algebra


class NoConvergence(GeoequivError):
    """Eigenvalue iteration exceeded its budget."""


class SpectraOverlap(GeoequivError):
    """Two spectra that must be disjoint come closer than the gap tolerance."""


class DomainViolation(GeoequivError):
    """An eigenvalue lies outside the domain of a scalar function."""


class SymmetryViolation(GeoequivError):
    """A scalar function breaks conjugation symmetry at a spectrum point."""


class ResidueTooLarge(GeoequivError):
    """A matrix that must be real retains a large imaginary part."""


class GroupsNotDisjoint(GeoequivError):
    """Eigenvalue groups of an indicator function are not disjoint."""


class NotConjugationClosed(GeoequivError):
    """An eigenvalue group is not closed under complex conjugation."""


# ---------------------------------------------------------------------------
# expression DSL


class ExprError(GeoequivError):
    """Base class for expression parsing/evaluation errors; ``.offset``
    is the byte offset and ``.expr`` the offending subtree, when known."""

    def __init__(self, message, offset=None, expr=None):
        super().__init__(message)
        self.offset = offset
        self.expr = expr


class ExprSyntaxError(ExprError):
    """Malformed expression text; ``.offset`` is the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})", offset)


class UnknownSymbol(ExprError):
    """Identifier is neither a coordinate nor a known function."""


class IndexOutOfRange(ExprError):
    """Coordinate index is not smaller than the chart dimension."""


class DomainError(ExprError):
    """Evaluation hit a singularity; ``.expr`` is the offending subtree."""


# ---------------------------------------------------------------------------
# fields and constructions


class DegenerateMetric(GeoequivError):
    """Metric determinant below the degeneracy threshold at a point."""


class SingularL(GeoequivError):
    """Operator must be invertible at the given point but is not."""


class AdmissibilityViolation(GeoequivError):
    """Eigenvalue groups collide somewhere on the sampled chart."""


class ConjugationViolation(GeoequivError):
    """A tracked eigenvalue group split a complex-conjugate pair."""


class ZeroChiAtZero(GeoequivError):
    """A factor polynomial vanishes at zero (operator block is singular)."""


class NonSymmetricResult(GeoequivError):
    """Internal consistency failure: a constructed metric is not symmetric."""


class ZeroInImage(GeoequivError):
    """A scalar function maps some eigenvalue to (numerically) zero."""


class EigenvalueCollision(GeoequivError):
    """Eigenvalue functions of a normal-form spec collide on the box."""


class NonPositiveWeight(GeoequivError):
    """A normal-form weight cannot be kept positive on the box."""


class NotAdapted(GeoequivError):
    """Inputs are not block-adapted to the chart coordinates."""


# ---------------------------------------------------------------------------
# geodesic integration


class StepFailure(GeoequivError):
    """Adaptive integrator could not reach the requested accuracy."""


class LeftChart(GeoequivError):
    """Initial point of a trajectory lies outside the chart box."""


class ZeroVelocity(GeoequivError):
    """Collinearity defect is undefined for a zero velocity sample."""
