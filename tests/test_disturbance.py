import numpy as np
import pytest

from edo import (
    Constant,
    ExpThenHold,
    Harmonic,
    Polynomial,
    Sum,
    decompose,
    evaluate,
    exosystem_from_spectrum,
    s_norm,
)
from edo.disturbance import derivative
from edo.errors import NotConjugateClosed, Overflow, RightHalfPlaneViolation, UnboundedDerivative
from edo.linalg import companion_from_last_row, eigenvalues


def sine_plus_offset():
    return Sum((Harmonic(1.0, 10.0, 0.0), Constant(10.0)))


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
        d = Sum((Harmonic(0.8, 4.0, 0.3), Harmonic(1.5, 10.0, 0.0), Constant(-2.0)))
        exo = exosystem_from_spectrum([4j, -4j])
        dec = decompose(d, exo)
        t = rng.uniform(0.0, 10.0, 1000)
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

    def test_unmatched_quadratic_rejected(self):
        with pytest.raises(UnboundedDerivative):
            decompose(Sum((Polynomial((0.0, 0.0, 1.0)),)), exosystem_from_spectrum([]))

    def test_exp_then_hold_goes_residual(self):
        dec = decompose(Sum((ExpThenHold(1.0), Constant(2.0))), exosystem_from_spectrum([]))
        # hold value e^1, slope sup e^1, shifted start: norm is sup|de/dt|
        assert dec.residual_s_norm == pytest.approx(np.e)
        assert evaluate(dec.residual, 0.0) == 0.0
