"""Dense real linear-algebra kernel used by every other module.

Thin, contract-enforcing wrappers around LAPACK-backed routines.  All
functions are pure and operate on plain ``numpy`` arrays.
"""

from __future__ import annotations

import cmath
import math
import reprlib

import numpy as np
from scipy.linalg import expm as _expm_pade

from .errors import IterationDivergence, NonSquare, Overflow

__all__ = [
    "eigenvalues",
    "is_hurwitz",
    "expm",
    "companion_from_last_row",
    "read_only",
    "as_float",
    "finite_floats",
    "finite_complexes",
    "finite_array",
    "cut",
    "echo",
    "quiet",
    "fits",
    "plus_outer",
]

#: Margin on the real axis for Hurwitz classification.
HURWITZ_TOL = 1e-9

#: Two eigenvalues meet when closer than this; absolute until ROADMAP item 5 audits it.
MEET_TOL = 1e-9

#: The error state of every builder, as a decorator (one instance nests as that, not in ``with``):
#: a result beyond the double range is refused by ``fits``, not warned about on the way.
quiet = np.errstate(over="ignore", invalid="ignore")


def _as_square(M, stack=False) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or (M.ndim > 2 and not stack) or M.shape[-1] != M.shape[-2]:
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


@quiet
def expm(M) -> np.ndarray:
    """Matrix exponential of a square matrix or of each in a stack ``(..., n, n)``
    via scaling-and-squaring (degree-13 Pade core)."""
    return fits(_expm_pade(_as_square(M, stack=True)), "matrix exponential overflowed the double range")


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


def as_float(v) -> float:
    """``float(v)``, with an int beyond the double range read as inf of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def cut(text: str, limit: int = 200) -> str:
    """``text`` for an error message, of at most ``limit`` characters: a
    longer one keeps its start and ends in "...".  Paths are cut at the
    default, so ordinary ones print whole."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def echo(value) -> str:
    """``repr(value)`` for an error message, of at most 80 characters:
    ``reprlib`` shortens long strings and sequences and deep nesting, and
    ``cut`` the rest."""
    return cut(reprlib.repr(value), 80)


def fits(value, message: str, *args):
    """``value`` if every entry is finite; otherwise refuses it (Overflow) with
    ``message.format(*args)``, a list shown by ``echo``, formatted only then."""
    if np.isfinite(value).all():
        return value
    raise Overflow(message.format(*(echo(a) if isinstance(a, list) else a for a in args)))


@quiet
def plus_outer(M, col, row, name: str) -> np.ndarray:
    """``M + col row``, a designed drift such as ``A + K_omega C``; refuses one
    beyond the double range (Overflow) as "``name`` overflows the double range"."""
    return fits(M + np.outer(col, row), "{} overflows the double range", name)


def _finite(values, convert, what: str) -> tuple:
    """``values`` converted one by one; refuses (ValueError) any that is not
    finite, bounded: the shortened values and the first entry that is not
    finite, which the shortening may have left out."""
    values = tuple(map(convert, values))
    finite = list(map(cmath.isfinite, values))
    if not all(finite):
        first = finite.index(False)
        raise ValueError(f"{what} must be finite, got {echo(values)}; entry {first} is {echo(values[first])}")
    return values


def finite_floats(values, what: str) -> tuple:
    """``values`` as a tuple of floats; refuses (ValueError) any that is not finite."""
    return _finite(values, as_float, what)


def _as_complex(v) -> complex:
    try:
        return complex(v)
    except OverflowError:  # an int beyond the double range
        return complex(as_float(v))


def finite_complexes(values, what: str) -> tuple:
    """``values`` as a tuple of complex numbers, an int beyond the double range
    read as inf of its sign; refuses (ValueError) any that is not finite."""
    return _finite(values, _as_complex, what)


def finite_array(values, what: str) -> np.ndarray:
    """``values`` as a float array of their own shape, each entry converted and
    refused (ValueError) as by ``finite_floats``."""
    values = np.asarray(values, dtype=object)
    return np.array(finite_floats(values.ravel(), what)).reshape(values.shape)
