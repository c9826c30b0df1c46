"""Disturbance signals, exosystem construction, and structured splitting.

Signals live in the class of bounded functions with bounded (weak)
derivative.  An exosystem is the autonomous companion system whose output
space spans exactly the disturbance dynamics assumed known; its state
dimension is one more than the number of requested nonzero eigenvalues
because a zero eigenvalue is always built in.  ``decompose`` splits a
structured signal into the part the exosystem can generate and the
residual the observer must absorb by high gain.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    NotConjugateClosed,
    Overflow,
    RightHalfPlaneViolation,
    UnboundedDerivative,
    UnsupportedVariant,
)

__all__ = [
    "Signal",
    "Constant",
    "Harmonic",
    "Polynomial",
    "ExpThenHold",
    "Sum",
    "evaluate",
    "derivative",
    "s_norm",
    "Exosystem",
    "exosystem_from_spectrum",
    "Decomposition",
    "decompose",
]

#: Absolute tolerance when matching term frequencies to exosystem eigenvalues.
FREQ_ATOL = 1e-9


class Signal:
    """Base class of the tagged signal union."""

    def value(self, t):
        raise NotImplementedError

    def slope(self, t):
        raise NotImplementedError


class _NumberFields(Signal):
    """A signal whose fields are all numbers, each refused unless finite."""

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        what = f"{type(self).__name__} {'/'.join(names)}"
        for name, value in zip(names, linalg.finite_floats([getattr(self, name) for name in names], what)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Constant(_NumberFields):
    level: float

    def value(self, t):
        return t * 0.0 + self.level

    def slope(self, t):
        return t * 0.0


@dataclass(frozen=True)
class Harmonic(_NumberFields):
    """amplitude * sin(frequency * t + phase), frequency in rad/s."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def value(self, t):
        return self.amplitude * np.sin(self.frequency * t + self.phase)

    def slope(self, t):
        return self.amplitude * self.frequency * np.cos(self.frequency * t + self.phase)


@dataclass(frozen=True)
class Polynomial(Signal):
    """Coefficients in ascending powers of t."""

    coefficients: tuple

    def __post_init__(self):
        coefficients = linalg.finite_floats(self.coefficients, "polynomial coefficients")
        object.__setattr__(self, "coefficients", coefficients)
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, t):
        acc = t * 0.0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def slope(self, t):
        acc = t * 0.0
        for k in range(self.degree, 0, -1):
            acc = acc * t + k * self.coefficients[k]
        return acc


@dataclass(frozen=True)
class ExpThenHold(_NumberFields):
    """exp(t) until the switch time, frozen at exp(T) afterwards."""

    switch_time: float

    def value(self, t):
        return np.exp(np.minimum(t, self.switch_time))

    def slope(self, t):
        return np.where(np.asarray(t) < self.switch_time, np.exp(np.minimum(t, self.switch_time)), 0.0)


@dataclass(frozen=True)
class Sum(Signal):
    terms: tuple

    def __post_init__(self):
        flat = []
        for term in self.terms:
            if isinstance(term, Sum):
                flat.extend(term.terms)
            elif isinstance(term, Signal):
                flat.append(term)
            else:
                raise TypeError(f"not a Signal: {term!r}")
        object.__setattr__(self, "terms", tuple(flat))

    def value(self, t):
        acc = t * 0.0
        for term in self.terms:
            acc = acc + term.value(t)
        return acc

    def slope(self, t):
        acc = t * 0.0
        for term in self.terms:
            acc = acc + term.slope(t)
        return acc


def evaluate(s: Signal, t):
    """Pointwise value; accepts scalars or numpy arrays of times."""
    return s.value(t)


def derivative(s: Signal, t):
    """Pointwise derivative (weak derivative for the piecewise variant)."""
    return s.slope(t)


def _terms(s: Signal):
    return s.terms if isinstance(s, Sum) else (s,)


def _sup_abs_slope(s: Signal) -> float:
    """Sum over the terms of each term's supremum of |ds/dt| on t >= 0.

    Exact for a single varying term, and whenever the terms' slope peaks
    can line up; an upper bound in general.
    """
    total = 0.0
    for term in _terms(s):
        if isinstance(term, Constant):
            continue
        if isinstance(term, Polynomial):
            if term.degree >= 2:
                raise UnboundedDerivative("polynomial of degree >= 2 has unbounded derivative")
            if term.degree == 1:
                total += abs(term.coefficients[1])
        elif isinstance(term, Harmonic):
            total += abs(term.amplitude * term.frequency)
        elif isinstance(term, ExpThenHold):
            total += float(np.exp(max(term.switch_time, 0.0)))  # left limit at the switch
        else:
            raise UnsupportedVariant(f"cannot bound derivative of {type(term).__name__}")
    return total


def s_norm(s: Signal) -> float:
    """Signal-class norm: |s(0)| plus the supremum of |ds/dt|.

    The supremum is taken term by term, so for a sum of several varying
    terms the result is an upper bound on the norm.
    """
    return float(abs(s.value(0.0))) + _sup_abs_slope(s)


@dataclass(frozen=True)
class Exosystem:
    """Companion disturbance dynamics with a built-in zero eigenvalue.

    ``g`` holds the m free last-row entries; the full last row is
    ``[0, g_1, ..., g_m]`` so the first column vanishes, the first
    coordinate vector is an eigenvector for 0, and the characteristic
    polynomial is ``l^(m+1) - g_m l^m - ... - g_1 l``.  ``spectrum``
    records the requested eigenvalues (the built-in zero first) exactly
    as given, which keeps later frequency matching free of eigensolver
    noise.  The matrices are built once per instance and are read-only;
    the fields are frozen.
    """

    g: tuple
    spectrum: tuple

    def __post_init__(self):
        object.__setattr__(self, "g", linalg.finite_floats(self.g, "exosystem g"))
        object.__setattr__(self, "spectrum", linalg.finite_complexes(self.spectrum, "exosystem spectrum"))

    @property
    def m(self) -> int:
        return len(self.g)

    @property
    def dim(self) -> int:
        return self.m + 1

    @cached_property
    def G(self) -> np.ndarray:
        return linalg.read_only(linalg.companion_from_last_row((0.0,) + self.g))

    @cached_property
    def E(self) -> np.ndarray:
        E = np.zeros(self.dim)
        E[-1] = 1.0
        return linalg.read_only(E)

    @cached_property
    def B_d(self) -> np.ndarray:
        B_d = np.zeros(self.dim)
        B_d[0] = 1.0
        return linalg.read_only(B_d)

    @property
    def zero_multiplicity(self) -> int:
        mult = 1
        for v in self.g:
            if v != 0.0:
                break
            mult += 1
        return mult


def exosystem_from_spectrum(nonzero_eigs) -> Exosystem:
    """Build the companion exosystem whose spectrum is {0} plus the request.

    The requested eigenvalues must be closed under conjugation and must
    not lie in the open left half-plane; an additional zero eigenvalue is
    always prepended.  Repeated eigenvalues are accepted and expand the
    characteristic polynomial accordingly.
    """
    requested = list(linalg.finite_complexes(nonzero_eigs, "exosystem spectrum"))
    for lam in requested:
        if lam.real < -1e-9:
            raise RightHalfPlaneViolation(f"eigenvalue {lam} has negative real part")
    unmatched = [lam for lam in requested if lam.imag != 0.0]
    while unmatched:
        lam = unmatched.pop()
        try:
            unmatched.remove(lam.conjugate())
        except ValueError:
            raise NotConjugateClosed(f"no conjugate partner for {lam}") from None
    coeffs = np.array([1.0 + 0.0j])
    for lam in requested:
        coeffs = np.convolve(coeffs, np.array([1.0, -lam]))
    coeffs = np.convolve(coeffs, np.array([1.0, 0.0]))  # built-in zero eigenvalue
    if not np.isfinite(coeffs).all():
        raise Overflow(f"spectrum {requested} overflows the exosystem polynomial")
    scale = max(1.0, np.abs(coeffs).max())
    if np.abs(coeffs.imag).max() > 1e-9 * scale:
        raise NotConjugateClosed("expansion left a complex residue")
    real = coeffs.real
    # real = [1, c_m, ..., c_1, 0]; last row entries are g_j = -c_j
    g = tuple(-v + 0.0 for v in real[1:-1][::-1])  # +0.0 kills negative zeros
    return Exosystem(g=g, spectrum=(0.0 + 0.0j,) + tuple(requested))


@dataclass(frozen=True)
class Decomposition:
    """Split of a signal into exosystem-generated and residual parts."""

    modeled: Signal
    residual: Signal
    residual_s_norm: float


def _matches(term: Signal, exo: Exosystem) -> bool:
    if isinstance(term, Constant):
        return True
    if isinstance(term, Polynomial):
        return exo.zero_multiplicity >= term.degree + 1
    if isinstance(term, Harmonic):
        for lam in exo.spectrum:
            if abs(lam.real) <= FREQ_ATOL and abs(abs(lam.imag) - abs(term.frequency)) <= FREQ_ATOL:
                return True
        return False
    if isinstance(term, ExpThenHold):
        return False  # piecewise signals are residual-only
    raise UnsupportedVariant(f"cannot route {type(term).__name__}")


def decompose(d: Signal, exo: Exosystem) -> Decomposition:
    """Term-match a structured signal against the exosystem spectrum.

    Terms whose generating frequency is an exosystem eigenvalue go to the
    modeled part, everything else to the residual.  The residual is then
    shifted by a constant so it vanishes at t = 0 (legitimate because the
    exosystem always contains the zero eigenvalue), which makes its norm
    exactly the supremum of its derivative.
    """
    modeled, residual = [], []
    for term in _terms(d):
        (modeled if _matches(term, exo) else residual).append(term)
    shift = float(Sum(tuple(residual)).value(0.0)) if residual else 0.0
    if shift != 0.0:
        residual.append(Constant(-shift))
        modeled.append(Constant(shift))
    modeled_sig = Sum(tuple(modeled))
    residual_sig = Sum(tuple(residual))
    return Decomposition(
        modeled=modeled_sig,
        residual=residual_sig,
        residual_s_norm=s_norm(residual_sig),
    )
