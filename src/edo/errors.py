"""Typed exceptions raised across the toolkit.

Every failure mode that a caller can act on gets its own class; plain
``ValueError`` is reserved for outright API misuse (wrong argument shapes
and the like).
"""


class EdoError(Exception):
    """Base class for all toolkit errors."""


class NonSquare(EdoError):
    """A square matrix was required."""


class IterationDivergence(EdoError):
    """The eigenvalue iteration failed to converge."""


class Overflow(EdoError):
    """A result exceeded the representable floating-point range."""


class EmptyCoefficients(EdoError):
    """A plant needs at least one characteristic coefficient."""


class SpectraOverlap(EdoError):
    """Two spectra that must be disjoint share an eigenvalue."""


class NotControllable(EdoError):
    """The controllability matrix is rank deficient."""


class NotConjugateClosed(EdoError):
    """A requested spectrum is not closed under complex conjugation."""


class RightHalfPlaneViolation(EdoError):
    """A requested exosystem eigenvalue has negative real part."""


class UnboundedDerivative(EdoError):
    """The signal's derivative is unbounded on the horizon."""


class UnsupportedVariant(EdoError):
    """The signal variant cannot be routed by the decomposition."""


class DimensionMismatch(EdoError):
    """Matrix or vector dimensions are inconsistent."""


class NonHurwitzBase(EdoError):
    """A base gain vector does not yield a Hurwitz companion matrix."""


class SingularSystem(EdoError):
    """The joint regulator system is singular (spectra not disjoint)."""


class NotDiagonalizable(EdoError):
    """The exosystem matrix has a repeated eigenvalue."""


class NotObservablePair(EdoError):
    """A required (matrix, row) pair is not observable."""


class NonHurwitz(EdoError):
    """A matrix that must be Hurwitz is not."""


class NonFinite(EdoError):
    """Simulation diverged (a state component exceeded the guard)."""


class EmptyTrajectory(EdoError):
    """Metrics were requested for a trajectory with no records."""


class ConfigError(EdoError):
    """A run configuration failed to parse or validate."""
