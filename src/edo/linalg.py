"""Dense real linear-algebra kernel used by every other module.

Thin, contract-enforcing wrappers around LAPACK-backed routines.  All
functions are pure and operate on plain ``numpy`` arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as _expm_pade

from .errors import IterationDivergence, NonSquare, Overflow

__all__ = [
    "eigenvalues",
    "is_hurwitz",
    "expm",
    "companion_from_last_row",
    "read_only",
]

#: Margin on the real axis for Hurwitz classification.
HURWITZ_TOL = 1e-9


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    return M


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a square matrix, with algebraic multiplicity.

    Returned sorted by (real part, imaginary part) ascending so that
    downstream output is deterministic.
    """
    M = _as_square(M)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise IterationDivergence(str(exc)) from exc
    return w[np.lexsort((w.imag, w.real))]


def is_hurwitz(M) -> bool:
    """True iff every eigenvalue of ``M`` has real part below ``-HURWITZ_TOL``."""
    return bool(eigenvalues(M).real.max() < -HURWITZ_TOL)


def expm(M) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring (degree-13 Pade core)."""
    M = _as_square(M)
    E = _expm_pade(M)
    if not np.all(np.isfinite(E)):
        raise Overflow("matrix exponential overflowed the double range")
    return E


def companion_from_last_row(row) -> np.ndarray:
    """Companion matrix with ones on the superdiagonal and ``row`` last.

    Its characteristic polynomial is
    ``lambda^s - row[-1] lambda^(s-1) - ... - row[0]``.
    """
    row = np.asarray(row, dtype=float)
    M = np.eye(row.size, k=1)
    M[-1, :] = row
    return M


def read_only(M) -> np.ndarray:
    """``M`` itself, marked read-only so a cached matrix cannot be edited in place."""
    M.flags.writeable = False
    return M
