"""Disturbance signals, exosystem construction, and structured splitting.

Signals live in the class of bounded functions with bounded (weak)
derivative.  An exosystem is the autonomous companion system whose output
space spans exactly the disturbance dynamics assumed known; it is built
from its spectrum alone (a zero eigenvalue always built in), so its G and
the frequencies and zero count ``decompose`` routes by cannot disagree.
``decompose`` splits a structured signal into the part the exosystem can
generate and the residual the observer must absorb by high gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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

class Signal:
    """Base class of the tagged signal union; each kind owns its slope bound and exosystem match."""

    def value(self, t):
        raise NotImplementedError

    def slope(self, t):
        raise NotImplementedError

    def sup_slope(self) -> float:
        raise UnsupportedVariant(f"cannot bound derivative of {type(self).__name__}")

    def generated_by(self, exo: Exosystem) -> bool:
        raise UnsupportedVariant(f"cannot route {type(self).__name__}")


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

    def sup_slope(self) -> float:
        return 0.0

    def generated_by(self, exo: Exosystem) -> bool:
        return True


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

    def sup_slope(self) -> float:
        return abs(self.amplitude * self.frequency)

    def generated_by(self, exo: Exosystem) -> bool:
        return complex(0.0, abs(self.frequency)) in exo.spectrum


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
        """Index of the last nonzero coefficient; 0 for the zero polynomial."""
        return max((k for k, c in enumerate(self.coefficients) if c != 0.0), default=0)

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

    def sup_slope(self) -> float:
        if self.degree >= 2:
            raise UnboundedDerivative("polynomial of degree >= 2 has unbounded derivative")
        return abs(self.coefficients[1]) if self.degree == 1 else 0.0

    def generated_by(self, exo: Exosystem) -> bool:
        return exo.zero_multiplicity >= self.degree + 1


@dataclass(frozen=True)
class ExpThenHold(_NumberFields):
    """exp(t) until the switch time, frozen at exp(T) afterwards."""

    switch_time: float

    def value(self, t):
        return np.exp(np.minimum(t, self.switch_time))

    def slope(self, t):
        return np.where(np.asarray(t) < self.switch_time, np.exp(np.minimum(t, self.switch_time)), 0.0)

    def sup_slope(self) -> float:
        return float(np.exp(self.switch_time)) if self.switch_time > 0.0 else 0.0  # constant on t >= 0 if T <= 0

    def generated_by(self, exo: Exosystem) -> bool:
        return False  # piecewise signals are residual-only


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


def s_norm(s: Signal) -> float:
    """Signal-class norm: |s(0)| plus the supremum of |ds/dt|.

    The supremum is taken term by term, so for a sum of several varying
    terms the result is an upper bound on the norm, refused (Overflow)
    beyond the double range.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for term in _terms(s):  # in term order, without sum()'s compensated addition
            total += term.sup_slope()
        total = float(abs(s.value(0.0))) + total
    if not np.isfinite(total):
        raise Overflow("signal-class norm overflows the double range")
    return total


@dataclass(frozen=True)
class Exosystem:
    """Companion disturbance dynamics with a built-in zero eigenvalue.

    ``spectrum``, the one input, is the built-in zero followed by the
    requested eigenvalues exactly as given (``decompose`` matches a term
    frequency only if it equals one exactly): closed under conjugation,
    none in the open left half-plane, repeats allowed.  ``g``, derived
    from it, holds the m free entries of the last row ``[0, g_1, ...,
    g_m]``: the first column vanishes, the first coordinate vector is an
    eigenvector for 0, and the characteristic polynomial is ``l^(m+1) -
    g_m l^m - ... - g_1 l``; a spectrum whose f64 polynomial has more
    zero roots than it names (an underflow) is refused (Overflow).
    Matrices are built once, read-only.
    """

    spectrum: tuple
    g: tuple = field(init=False)

    def __post_init__(self):
        spectrum = linalg.finite_complexes(self.spectrum, "exosystem spectrum")
        if not spectrum or spectrum[0] != 0:
            raise ValueError(f"exosystem spectrum must start with its built-in zero, got {linalg.echo(spectrum)}")
        object.__setattr__(self, "spectrum", spectrum)
        requested = list(spectrum[1:])
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
            raise Overflow(f"spectrum {linalg.echo(requested)} overflows the exosystem polynomial")
        scale = max(1.0, np.abs(coeffs).max())
        if np.abs(coeffs.imag).max() > 1e-9 * scale:
            raise NotConjugateClosed("expansion left a complex residue")
        # each zero eigenvalue leaves an exact trailing zero; one more is a product that underflowed
        if coeffs.real[-1 - spectrum.count(0)] == 0.0:
            raise Overflow(f"spectrum {linalg.echo(requested)} underflows the exosystem polynomial")
        # coeffs.real = [1, c_m, ..., c_1, 0]; last row entries are g_j = -c_j
        g = tuple((-coeffs.real[-2:0:-1] + 0.0).tolist())  # +0.0 kills negative zeros
        object.__setattr__(self, "g", g)

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
        return self.spectrum.count(0)


def exosystem_from_spectrum(nonzero_eigs) -> Exosystem:
    """The exosystem whose spectrum is the built-in zero followed by ``nonzero_eigs``."""
    return Exosystem((0j,) + linalg.finite_complexes(nonzero_eigs, "exosystem spectrum"))


@dataclass(frozen=True)
class Decomposition:
    """Split of a signal into exosystem-generated and residual parts."""

    modeled: Signal
    residual: Signal
    residual_s_norm: float


def decompose(d: Signal, exo: Exosystem) -> Decomposition:
    """Term-match a structured signal against the exosystem spectrum.

    Terms whose generating frequency is exactly an exosystem eigenvalue go
    to the modeled part, everything else, however close, to the residual.
    The residual is then shifted by a constant so it vanishes at t = 0
    (legitimate because the exosystem always contains the zero
    eigenvalue), which makes its norm exactly the supremum of its
    derivative.  A shift or norm beyond the double range is refused
    (Overflow).
    """
    modeled, residual = [], []
    for term in _terms(d):
        (modeled if term.generated_by(exo) else residual).append(term)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = float(Sum(tuple(residual)).value(0.0)) if residual else 0.0
    if not np.isfinite(shift):
        raise Overflow("residual value at t = 0 overflows the double range")
    if shift != 0.0:
        residual.append(Constant(-shift))
        modeled.append(Constant(shift))
    residual_sig = Sum(tuple(residual))
    return Decomposition(modeled=Sum(tuple(modeled)), residual=residual_sig, residual_s_norm=s_norm(residual_sig))
