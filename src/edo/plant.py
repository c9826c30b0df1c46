"""Plant models in observability canonical form and observability tests.

The canonical structure has ones on the sub-diagonal, the characteristic
coefficients ``a`` in the last column, and measures the last state:

    A = [[0, 0, ..., 0, a_1],          C = [0, 0, ..., 0, 1]
         [1, 0, ..., 0, a_2],
         ...
         [0, 0, ..., 1, a_n]]

Observability here is the disturbance-corrupted notion: from a zero input
and zero output one must be able to conclude that both the initial state
and the unknown input vanish.  For the full admissible signal class that
holds exactly when the input enters only through the first state; for an
exosystem-generated class it reduces to classical observability plus a
transmission-zero condition over the exosystem spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EmptyCoefficients, NotControllable, SpectraOverlap

__all__ = [
    "Plant",
    "GeneralPlant",
    "canonical_plant",
    "is_observable_for_S",
    "transmission_zero_holds",
    "is_observable_for_omega",
    "controllability_canonical_transform",
]

#: Relative singular-value threshold for all rank decisions in this module.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class Plant:
    """Canonical-form SISO plant defined by coefficient sequences.

    ``a`` holds the last-column characteristic coefficients and ``b`` the
    input vector.  Matrices are materialized on demand so the stored
    coefficients stay the single source of truth.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.a) == 0:
            raise EmptyCoefficients("plant needs at least one coefficient")
        if len(self.b) != len(self.a):
            raise ValueError("a and b must have equal length")
        if not any(self.b):
            raise ValueError("input vector b must not be identically zero")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def A(self) -> np.ndarray:
        return linalg.companion_from_last_row(self.a).T.copy()

    @property
    def B(self) -> np.ndarray:
        return np.array(self.b)

    @property
    def C(self) -> np.ndarray:
        C = np.zeros(self.n)
        C[-1] = 1.0
        return C


@dataclass(frozen=True, eq=False)
class GeneralPlant:
    """Arbitrary (A, B, C) triple for non-canonical examples."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float).reshape(-1)
        C = np.asarray(self.C, dtype=float).reshape(-1)
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.size != A.shape[0] or C.size != A.shape[0]:
            raise ValueError("B and C must match the order of A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def canonical_plant(a) -> Plant:
    """Canonical plant with the input entering only the first state."""
    a = tuple(a)
    return Plant(a=a, b=(1.0,) + (0.0,) * (len(a) - 1))


def is_observable_for_S(p: Plant) -> bool:
    """Observability for the full admissible signal class.

    Decided exactly on the stored coefficients: the input must enter only
    through the first state.  This classifies the model, so no numeric
    tolerance is applied.
    """
    return p.b[0] != 0.0 and all(v == 0.0 for v in p.b[1:])


def observability_matrix(A, C) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float).reshape(-1)
    rows = [C]
    for _ in range(A.shape[0] - 1):
        rows.append(rows[-1] @ A)
    return np.array(rows)


def controllability_matrix(A, B) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(-1)
    cols = [B]
    for _ in range(A.shape[0] - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def _full_rank(M, rtol: float = RANK_RTOL) -> bool:
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv[0] > 0.0 and sv[-1] > rtol * sv[0])


def transmission_zero_holds(p: GeneralPlant, lam: complex) -> bool:
    """True iff the input-to-output map does not vanish at ``lam``.

    Implemented as a full-rank test on ``[[A - lam, B], [C, 0]]`` which,
    unlike the transfer-function form, stays valid when ``lam`` is an
    eigenvalue of A.
    """
    n = p.n
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[:n, :n] = p.A - complex(lam) * np.eye(n)
    M[:n, n] = p.B
    M[n, :n] = p.C
    return _full_rank(M)


def is_observable_for_omega(p: GeneralPlant, spectrum_of_G) -> bool:
    """Observability for the signal class generated by an exosystem.

    Requires classical observability of (A, C) plus the transmission-zero
    condition at every exosystem eigenvalue.  The hypothesis that the
    plant and exosystem spectra are disjoint is checked first.
    """
    spectrum = [complex(lam) for lam in spectrum_of_G]
    eigs_A = linalg.eigenvalues(p.A)
    for lam in spectrum:
        if np.abs(eigs_A - lam).min() < 1e-9:
            raise SpectraOverlap(f"exosystem eigenvalue {lam} lies in the plant spectrum")
    if not _full_rank(observability_matrix(p.A, p.C)):
        return False
    return all(transmission_zero_holds(p, lam) for lam in spectrum)


def controllability_canonical_transform(p: Plant) -> np.ndarray:
    """Invertible U with ``U A U^-1 = A^T`` and ``U B = C^T``.

    Maps the canonical pair (A, B) onto its controllability-form twin so
    a row gain designed there can be pulled back to the original
    coordinates.  U is assembled by matching Krylov bases, which pins it
    uniquely.
    """
    K_src = controllability_matrix(p.A, p.B)
    if not _full_rank(K_src):
        raise NotControllable("controllability matrix is rank deficient")
    K_dst = controllability_matrix(p.A.T, p.C)
    return np.linalg.solve(K_src.T, K_dst.T).T
