import numpy as np
import pytest

from edo import (
    Constant,
    Exosystem,
    ExpThenHold,
    Harmonic,
    Polynomial,
    Sum,
    decompose,
    evaluate,
    exosystem_from_spectrum,
    s_norm,
)
from edo.disturbance import Signal, derivative
from edo.errors import NotConjugateClosed, Overflow, RightHalfPlaneViolation, UnboundedDerivative, UnsupportedVariant
from edo.linalg import companion_from_last_row, eigenvalues


def sine_plus_offset():
    return Sum((Harmonic(1.0, 10.0, 0.0), Constant(10.0)))


class Ramp(Signal):
    """A signal outside the tagged union: neither norm nor routing knows it."""

    def value(self, t):
        return t

    def slope(self, t):
        return t * 0.0 + 1.0


class TestEvaluate:
    def test_constant(self):
        assert evaluate(Constant(10.0), 3.7) == 10.0

    def test_harmonic_quarter_period(self):
        assert evaluate(Harmonic(1.0, 10.0, 0.0), np.pi / 20.0) == pytest.approx(1.0, abs=1e-15)

    def test_sum_at_zero(self):
        assert evaluate(sine_plus_offset(), 0.0) == 10.0

    def test_vectorized(self):
        t = np.linspace(0.0, 1.0, 11)
        vals = evaluate(sine_plus_offset(), t)
        assert vals.shape == t.shape
        assert vals[0] == 10.0

    def test_polynomial_horner(self):
        poly = Polynomial((1.0, -2.0, 0.5))
        assert evaluate(poly, 2.0) == 1.0 - 4.0 + 2.0

    def test_exp_then_hold(self):
        s = ExpThenHold(1.0)
        assert evaluate(s, 0.5) == pytest.approx(np.exp(0.5))
        assert evaluate(s, 3.0) == pytest.approx(np.e)

    def test_derivative_matches_difference_quotient(self):
        s = Sum((Harmonic(0.7, 3.0, 0.4), Polynomial((1.0, 2.0))))
        for t in (0.0, 0.3, 2.2):
            fd = (evaluate(s, t + 1e-7) - evaluate(s, t - 1e-7)) / 2e-7
            assert derivative(s, t) == pytest.approx(fd, abs=1e-6)


class TestSum:
    def test_nested_sums_are_flattened(self):
        inner = Sum((Constant(1.0), Harmonic(1.0, 2.0, 0.0)))
        assert Sum((inner, Constant(3.0))).terms == (Constant(1.0), Harmonic(1.0, 2.0, 0.0), Constant(3.0))

    def test_non_signal_term_rejected(self):
        with pytest.raises(TypeError, match="not a Signal: 2.0"):
            Sum((Constant(1.0), 2.0))


class TestSNorm:
    def test_constant(self):
        assert s_norm(Constant(-3.0)) == 3.0

    def test_harmonic(self):
        assert s_norm(Harmonic(1.0, 7.0, 0.0)) == pytest.approx(7.0)

    def test_harmonic_with_phase(self):
        assert s_norm(Harmonic(2.0, 3.0, np.pi / 2)) == pytest.approx(2.0 + 6.0)

    def test_exp_then_hold(self):
        assert s_norm(ExpThenHold(1.0)) == pytest.approx(1.0 + np.e)

    def test_linear_polynomial(self):
        assert s_norm(Polynomial((1.0, -4.0))) == pytest.approx(5.0)

    def test_quadratic_rejected(self):
        with pytest.raises(UnboundedDerivative):
            s_norm(Polynomial((0.0, 0.0, 1.0)))

    def test_unknown_variant_rejected(self):
        with pytest.raises(UnsupportedVariant, match="cannot bound derivative of Ramp"):
            s_norm(Sum((Constant(1.0), Ramp())))

    def test_sum_with_offset(self):
        assert s_norm(sine_plus_offset()) == pytest.approx(20.0)

    def test_two_harmonics_peak_off_the_longest_period(self):
        # |d(0)| = 1 and the slope cos t - 1.5 sin 1.5t reaches -2.5 at
        # t = 3 pi, past the longer single period 2 pi
        assert s_norm(Sum((Harmonic(1.0, 1.0, 0.0), Harmonic(1.0, 1.5, np.pi / 2)))) == pytest.approx(3.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_below_a_dense_sample(self, seed):
        rng = np.random.default_rng(seed)
        terms = [Harmonic(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0 * np.pi)) for _ in range(3)]
        terms += [Constant(rng.uniform(-1.0, 1.0)), Polynomial((0.0, rng.uniform(-0.5, 0.5)))]
        if seed % 2:
            terms.append(ExpThenHold(rng.uniform(0.0, 2.0)))
        s = Sum(tuple(terms))
        t = np.linspace(0.0, 400.0 * np.pi, 2_000_001)
        sampled = abs(evaluate(s, 0.0)) + np.abs(derivative(s, t)).max()
        assert s_norm(s) >= sampled * (1.0 - 1e-12)


class TestExosystem:
    def test_empty_spectrum_gives_scalar_zero(self):
        exo = exosystem_from_spectrum([])
        assert exo.m == 0 and exo.G.shape == (1, 1) and exo.G[0, 0] == 0.0

    def test_harmonic_pair_at_ten(self):
        exo = exosystem_from_spectrum([10j, -10j])
        assert exo.m == 2
        assert np.array_equal(exo.G[-1], [0.0, -100.0, 0.0])

    def test_harmonic_pair_at_nine_point_five(self):
        exo = exosystem_from_spectrum([9.5j, -9.5j])
        assert np.array_equal(exo.G[-1], [0.0, -90.25, 0.0])

    def test_unpaired_rejected(self):
        with pytest.raises(NotConjugateClosed):
            exosystem_from_spectrum([10j])

    def test_left_half_plane_rejected(self):
        with pytest.raises(RightHalfPlaneViolation):
            exosystem_from_spectrum([-1.0])

    def test_zero_column_exact(self, rng):
        for _ in range(10):
            count = int(rng.integers(0, 3))
            requested = []
            for _ in range(count):
                f = float(rng.uniform(0.5, 12.0))
                requested += [complex(0, f), complex(0, -f)]
            exo = exosystem_from_spectrum(requested)
            assert np.array_equal(exo.G @ exo.B_d, np.zeros(exo.dim))

    def test_spectrum_realized(self, rng):
        from conftest import multiset_gap

        for _ in range(10):
            f1, f2 = sorted(rng.uniform(0.5, 12.0, 2))
            if f2 - f1 < 0.3:
                continue
            requested = [1j * f1, -1j * f1, 1j * f2, -1j * f2, 0.0]
            exo = exosystem_from_spectrum(requested)
            assert multiset_gap(eigenvalues(exo.G), [0.0, 0.0] + requested[:-1]) < 1e-8

    def test_repeated_zero_for_polynomials(self):
        exo = exosystem_from_spectrum([0.0, 0.0])
        assert exo.g == (0.0, 0.0)
        assert exo.zero_multiplicity == 3

    @pytest.mark.parametrize(
        "spectrum",
        [[], [0.0], [0.0, 0.0, 0.0], [3j, -3j, 3j, -3j], [0.0, 2.5j, -2.5j], [0.5, 1 + 4j, 1 - 4j], [7.0, 7.0]],
        ids=["empty", "zero", "triple_zero", "repeated_pair", "odd_m", "odd_m_growing", "repeated_real"],
    )
    def test_coefficients_match_polymul(self, spectrum):
        g = exosystem_from_spectrum(spectrum).g
        assert np.array_equal(np.array(g), polymul_g(spectrum))
        assert np.array_equal(np.signbit(g), np.signbit(polymul_g(spectrum)))

    def test_random_coefficients_match_polymul(self, rng):
        for _ in range(50):
            freqs = rng.uniform(0.1, 50.0, int(rng.integers(0, 4)))
            spectrum = [s * 1j * f for f in freqs for s in (1, -1)] + [0.0] * int(rng.integers(0, 3))
            spectrum = [spectrum[i] for i in rng.permutation(len(spectrum))]
            assert np.array_equal(exosystem_from_spectrum(spectrum).g, polymul_g(spectrum))

    def test_overflowing_spectrum_raises(self):
        with pytest.raises(Overflow, match=r"spectrum \[1e\+160j, -1e\+160j\]"):
            exosystem_from_spectrum([1e160j, complex(0.0, -1e160)])


def polymul_g(spectrum):
    """Last-row entries expanded with ``np.polymul``, as a reference."""
    coeffs = np.array([1.0 + 0.0j])
    for lam in spectrum:
        coeffs = np.polymul(coeffs, np.array([1.0, -complex(lam)]))
    coeffs = np.polymul(coeffs, np.array([1.0, 0.0]))
    return np.array([-v + 0.0 for v in coeffs.real[1:-1][::-1]])


class TestCachedMatrices:
    @pytest.mark.parametrize("spectrum", [[], [0.0, 3j, -3j]])
    def test_built_once_and_read_only(self, spectrum):
        exo = exosystem_from_spectrum(spectrum)
        for name in ("G", "E", "B_d"):
            M = getattr(exo, name)
            assert getattr(exo, name) is M
            with pytest.raises(ValueError):
                M[0] = 1.0
        assert np.array_equal(exo.G, companion_from_last_row((0.0,) + exo.g))
        assert np.array_equal(exo.E, np.eye(exo.dim)[-1]) and np.array_equal(exo.B_d, np.eye(exo.dim)[0])


class TestPolynomial:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="polynomial needs at least one coefficient"):
            Polynomial(())


NAN, INF = float("nan"), float("inf")

REFUSALS = {
    # one finiteness rule, an int beyond the double range read as inf of its sign
    "constant_nan": (lambda: Constant(NAN), r"Constant level must be finite, got \(nan,\)"),
    "constant_huge_int": (lambda: Constant(10**400), r"Constant level must be finite, got \(inf,\)"),
    "harmonic_nan_frequency": (lambda: Harmonic(1.0, NAN),
                               r"Harmonic amplitude/frequency/phase must be finite, got \(1.0, nan, 0.0\)"),
    "harmonic_inf_phase": (lambda: Harmonic(1.0, 2.0, -INF), r"Harmonic .* got \(1.0, 2.0, -inf\)"),
    "harmonic_huge_int": (lambda: Harmonic(10**400, 2.0), r"Harmonic .* got \(inf, 2.0, 0.0\)"),
    "polynomial_nan": (lambda: Polynomial((0.0, NAN)), r"polynomial coefficients must be finite, got \(0.0, nan\)"),
    "polynomial_huge_negative_int": (lambda: Polynomial((-(10**400),)), r"polynomial coefficients .* got \(-inf,\)"),
    "exp_then_hold_inf": (lambda: ExpThenHold(INF), r"ExpThenHold switch_time must be finite, got \(inf,\)"),
    "exosystem_g_nan": (lambda: Exosystem(g=(NAN,), spectrum=(0.0, 0.0)), r"exosystem g must be finite, got \(nan,\)"),
    "exosystem_spectrum_nan": (lambda: Exosystem(g=(0.0,), spectrum=(0.0, NAN)), "exosystem spectrum must be finite"),
    # G of g = (-1, 0) has eigenvalues 0 and +-1j: a spectrum of 0 alone would route a unit harmonic to the residual
    "exosystem_spectrum_short": (lambda: Exosystem(g=(-1.0, 0.0), spectrum=(0j,)),
                                 "exosystem spectrum must have 3 entries, got 1"),
    "spectrum_huge_int": (lambda: exosystem_from_spectrum([10**400]),
                          r"exosystem spectrum must be finite, got \(\(inf\+0j\),\)"),
    "spectrum_nan": (lambda: exosystem_from_spectrum([NAN]), r"exosystem spectrum must be finite, got \(\(nan\+0j\),\)"),
    "spectrum_long_nan": (lambda: exosystem_from_spectrum([0.0] * 100_000 + [NAN]),
                          r"\A(?=exosystem spectrum must be finite, got .*\(nan\+0j\)).{1,200}\Z"),
    "spectrum_infinite_carrier": (lambda: exosystem_from_spectrum([complex(0.0, INF), complex(0.0, -INF)]),
                                  "exosystem spectrum must be finite"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


class TestDecompose:
    def test_exact_dynamics_full_match(self):
        exo = exosystem_from_spectrum([10j, -10j])
        dec = decompose(sine_plus_offset(), exo)
        assert dec.residual_s_norm == 0.0
        assert evaluate(dec.residual, 1.234) == 0.0

    def test_constant_dynamics_leaves_sine(self):
        dec = decompose(sine_plus_offset(), exosystem_from_spectrum([]))
        assert dec.residual_s_norm == pytest.approx(10.0)
        assert evaluate(dec.modeled, 17.3) == 10.0

    def test_frequency_mismatch(self):
        dec = decompose(sine_plus_offset(), exosystem_from_spectrum([9.5j, -9.5j]))
        assert dec.residual_s_norm == pytest.approx(10.0)

    def test_pointwise_identity(self, rng):
        # the second and third signals have residual terms that are non-zero
        # at t = 0, so the identity needs the constant shift on both sides
        signals = [
            Sum((Harmonic(0.8, 4.0, 0.3), Harmonic(1.5, 10.0, 0.0), Constant(-2.0))),
            Sum((Harmonic(0.8, 4.0, 0.3), Harmonic(1.0, 3.0, 0.7), Constant(-2.0))),
            Sum((Harmonic(0.8, 4.0, 0.3), ExpThenHold(1.0))),
        ]
        exo = exosystem_from_spectrum([4j, -4j])
        t = rng.uniform(0.0, 10.0, 1000)
        for d in signals:
            dec = decompose(d, exo)
            total = evaluate(dec.modeled, t) + evaluate(dec.residual, t)
            assert np.abs(total - evaluate(d, t)).max() < 1e-12

    def test_residual_starts_at_zero_exactly(self):
        # phase-shifted sine has nonzero value at t = 0; the split moves
        # that value into the modeled constant
        d = Sum((Harmonic(2.0, 3.0, 1.0), Constant(1.0)))
        dec = decompose(d, exosystem_from_spectrum([]))
        assert evaluate(dec.residual, 0.0) == 0.0

    def test_polynomial_needs_zero_multiplicity(self):
        ramp = Polynomial((0.0, 1.0))
        with_mult = decompose(Sum((ramp,)), exosystem_from_spectrum([0.0]))
        assert with_mult.residual_s_norm == 0.0
        without = decompose(Sum((ramp,)), exosystem_from_spectrum([]))
        assert without.residual_s_norm == pytest.approx(1.0)

    def test_ramp_is_residual_beside_a_harmonic_carrier(self):
        # spectrum {0, +-1j}: g_1 = -1, so zero is a simple eigenvalue and a
        # ramp is not modelled, while the matching harmonic is
        exo = exosystem_from_spectrum([1j, -1j])
        assert exo.g[0] != 0.0 and exo.zero_multiplicity == 1
        dec = decompose(Sum((Polynomial((0.0, 1.0)), Harmonic(1.0, 1.0, 0.0))), exo)
        assert dec.residual.terms == (Polynomial((0.0, 1.0)),) and dec.residual.terms[0].degree == 1
        assert dec.modeled.terms == (Harmonic(1.0, 1.0, 0.0),)
        assert dec.residual_s_norm == pytest.approx(1.0)

    def test_unmatched_quadratic_rejected(self):
        with pytest.raises(UnboundedDerivative):
            decompose(Sum((Polynomial((0.0, 0.0, 1.0)),)), exosystem_from_spectrum([]))

    def test_unknown_variant_rejected(self):
        with pytest.raises(UnsupportedVariant, match="cannot route Ramp"):
            decompose(Sum((Constant(1.0), Ramp())), exosystem_from_spectrum([]))

    def test_exp_then_hold_goes_residual(self):
        dec = decompose(Sum((ExpThenHold(1.0), Constant(2.0))), exosystem_from_spectrum([]))
        # hold value e^1, slope sup e^1, shifted start: norm is sup|de/dt|
        assert dec.residual_s_norm == pytest.approx(np.e)
        assert evaluate(dec.residual, 0.0) == 0.0
