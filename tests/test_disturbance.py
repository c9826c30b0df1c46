import warnings

import hypothesis
import hypothesis.strategies as st
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
from edo import cli
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

    @pytest.mark.parametrize("switch_time", [-1.0, -0.5, 0.0])
    def test_exp_then_hold_switched_before_start_is_constant(self, switch_time):
        # on t >= 0 the signal is the constant exp(T), and its slope is 0
        assert s_norm(ExpThenHold(switch_time)) == np.exp(switch_time)
        assert decompose(ExpThenHold(switch_time), exosystem_from_spectrum([])).residual_s_norm == 0.0

    @pytest.mark.parametrize("coefficients", [(1.0, 0.0, 0.0), (-2.0, 0.5, 0.0, 0.0)], ids=["constant", "linear"])
    def test_trailing_zero_coefficients_are_not_degree(self, coefficients):
        assert s_norm(Polynomial(coefficients)) == abs(coefficients[0]) + abs(coefficients[1])

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

    def test_smallest_surviving_pair_keeps_its_zero_count(self):
        # kept boundary: the constant coefficient 1e-320 is subnormal, not zero
        exo = exosystem_from_spectrum([0.0, 1e-160j, -1e-160j])
        assert exo.zero_multiplicity == 2 and exo.g[1] != 0.0

    def test_g_holds_python_floats(self):
        exo = exosystem_from_spectrum([2j, -2j])
        assert all(type(v) is float for v in exo.g)
        assert repr(exo) == "Exosystem(spectrum=(0j, 2j, (-0-2j)), g=(-4.0, 0.0))"

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(
        magnitudes=st.lists(st.floats(-200.0, 200.0), max_size=3),
        real_parts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        zeros=st.integers(0, 2),
    )
    def test_zero_count_is_the_polynomial_zero_count(self, magnitudes, real_parts, zeros):
        # conjugate pairs with magnitudes log-uniform in 1e-200..1e200: an
        # accepted exosystem's polynomial has exactly the zero roots its spectrum names
        spectrum = [0.0] * zeros
        for e, a in zip(magnitudes, real_parts):
            lam = 10.0**e * complex(a, 1.0 - a)
            spectrum += [lam, lam.conjugate()]
        try:
            exo = exosystem_from_spectrum(spectrum)
        except Overflow:
            return
        coefficients = (1.0,) + tuple(-v for v in reversed(exo.g)) + (0.0,)
        trailing = len(coefficients) - len(np.trim_zeros(np.array(coefficients), "b"))
        assert exo.zero_multiplicity == exo.spectrum.count(0) == trailing

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

    def test_spectrum_alone_fixes_G_and_routing(self):
        # the matrix the observer is built from and the frequencies decompose routes by come from one input
        from conftest import multiset_gap

        exo = Exosystem((0j, 5j, -5j))
        assert multiset_gap(eigenvalues(exo.G), [0.0, 5j, -5j]) < 1e-12
        dec = decompose(Sum((Harmonic(1.0, 5.0), Harmonic(2.0, 1.0))), exo)
        assert dec.modeled.terms == (Harmonic(1.0, 5.0),)
        assert dec.residual.terms == (Harmonic(2.0, 1.0),) and dec.residual_s_norm == 2.0

    def test_rebuilt_from_its_spectrum(self, rng):
        spectra = [cli.parse_config(cfg).spectrum for cfg in cli.SCENARIOS.values()]
        for _ in range(50):
            freqs = rng.uniform(0.1, 50.0, int(rng.integers(0, 3)))
            spectrum = [s * 1j * f for f in freqs for s in (1, -1)]
            spectrum += list(rng.uniform(0.0, 5.0, int(rng.integers(0, 2)))) + [0.0] * int(rng.integers(0, 3))
            spectra.append([spectrum[i] for i in rng.permutation(len(spectrum))])
        for requested in spectra:
            exo = exosystem_from_spectrum(requested)
            again = Exosystem(exo.spectrum)
            assert again == exo and np.array_equal(again.G, exo.G)
            assert np.array_equal(np.signbit(again.g), np.signbit(exo.g))


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

    @pytest.mark.parametrize(
        "coefficients, degree",
        [((0.0, 0.0, 0.0), 0), ((1.0, 0.0, 0.0), 0), ((0.0, 1.0, 0.0), 1), ((0.0, 0.0, 1.0, 0.0), 2)],
        ids=["zero", "constant", "ramp", "quadratic"],
    )
    def test_degree_is_the_last_nonzero_coefficient(self, coefficients, degree):
        assert Polynomial(coefficients).degree == degree

    def test_ramp_with_a_trailing_zero_is_modelled(self):
        ramp = Polynomial((0.0, 1.0, 0.0))
        dec = decompose(ramp, exosystem_from_spectrum([0.0]))
        assert dec.modeled.terms == (ramp,) and dec.residual_s_norm == 0.0


NAN, INF = float("nan"), float("inf")
NORM_OVERFLOWS = "signal-class norm overflows the double range"

REFUSALS = {
    # one finiteness rule, an int beyond the double range read as inf of its sign
    "constant_nan": (lambda: Constant(NAN), ValueError, r"Constant level must be finite, got \(nan,\)"),
    "constant_huge_int": (lambda: Constant(10**400), ValueError, r"Constant level must be finite, got \(inf,\)"),
    "harmonic_nan_frequency": (lambda: Harmonic(1.0, NAN), ValueError,
                               r"Harmonic amplitude/frequency/phase must be finite, got \(1.0, nan, 0.0\)"),
    "harmonic_inf_phase": (lambda: Harmonic(1.0, 2.0, -INF), ValueError, r"Harmonic .* got \(1.0, 2.0, -inf\)"),
    "harmonic_huge_int": (lambda: Harmonic(10**400, 2.0), ValueError, r"Harmonic .* got \(inf, 2.0, 0.0\)"),
    "polynomial_nan": (lambda: Polynomial((0.0, NAN)), ValueError,
                       r"polynomial coefficients must be finite, got \(0.0, nan\)"),
    "polynomial_huge_negative_int": (lambda: Polynomial((-(10**400),)), ValueError,
                                     r"polynomial coefficients .* got \(-inf,\)"),
    "exp_then_hold_inf": (lambda: ExpThenHold(INF), ValueError, r"ExpThenHold switch_time must be finite, got \(inf,\)"),
    "exosystem_spectrum_nan": (lambda: Exosystem((0.0, NAN)), ValueError,
                               r"exosystem spectrum must be finite, got \(0j, \(nan\+0j\)\); entry 1"),
    # the spectrum is the exosystem's one input, and it starts with the built-in zero
    "exosystem_spectrum_without_zero": (lambda: Exosystem((5j, complex(0.0, -5.0))), ValueError,
                                        r"exosystem spectrum must start with its built-in zero, got \(5j, -5j\)"),
    "exosystem_spectrum_empty": (lambda: Exosystem(()), ValueError,
                                 r"exosystem spectrum must start with its built-in zero, got \(\)"),
    "spectrum_long_overflows": (lambda: exosystem_from_spectrum([1e200j, -1e200j] + [0.0] * 200), Overflow,
                                r"\A(?=spectrum \[1e\+200j, .*overflows the exosystem polynomial).{1,200}\Z"),
    # a pair whose product underflows would add zero roots the spectrum does not name
    "spectrum_pair_underflows": (lambda: exosystem_from_spectrum([1e-200j, -1e-200j]), Overflow,
                                 r"spectrum \[1e-200j, \(-0-1e-200j\)\] underflows the exosystem polynomial"),
    "spectrum_pair_underflows_beside_a_carrier": (lambda: exosystem_from_spectrum([1e-200j, -1e-200j, 3j, -3j]),
                                                  Overflow, "underflows the exosystem polynomial"),
    "spectrum_repeated_pair_underflows": (lambda: exosystem_from_spectrum([1e-100j, -1e-100j] * 2), Overflow,
                                          "underflows the exosystem polynomial"),
    "spectrum_huge_int": (lambda: exosystem_from_spectrum([10**400]), ValueError,
                          r"exosystem spectrum must be finite, got \(\(inf\+0j\),\)"),
    "spectrum_nan": (lambda: exosystem_from_spectrum([NAN]), ValueError,
                     r"exosystem spectrum must be finite, got \(\(nan\+0j\),\)"),
    "spectrum_long_nan": (lambda: exosystem_from_spectrum([0.0] * 100_000 + [NAN]), ValueError,
                          r"\A(?=exosystem spectrum must be finite, got .*\(nan\+0j\)).{1,200}\Z"),
    "spectrum_infinite_carrier": (lambda: exosystem_from_spectrum([complex(0.0, INF), complex(0.0, -INF)]), ValueError,
                                  "exosystem spectrum must be finite"),
    # finite terms whose slope bound, value at t = 0 or residual shift leaves the double range
    "s_norm_exp_then_hold_overflows": (lambda: s_norm(ExpThenHold(1000.0)), Overflow, NORM_OVERFLOWS),
    "s_norm_harmonic_overflows": (lambda: s_norm(Harmonic(1e200, 1e200)), Overflow, NORM_OVERFLOWS),
    "s_norm_sum_overflows": (lambda: s_norm(Sum((Harmonic(1e308, 1.0),) * 2)), Overflow, NORM_OVERFLOWS),
    "s_norm_value_overflows": (lambda: s_norm(Sum((Constant(1e308),) * 2)), Overflow, NORM_OVERFLOWS),
    "decompose_exp_then_hold_overflows": (lambda: decompose(ExpThenHold(1000.0), exosystem_from_spectrum([])),
                                          Overflow, NORM_OVERFLOWS),
    "decompose_harmonic_overflows": (lambda: decompose(Harmonic(1e200, 1e200), exosystem_from_spectrum([])),
                                     Overflow, NORM_OVERFLOWS),
    "decompose_sum_overflows": (lambda: decompose(Sum((Harmonic(1e308, 1.0),) * 2), exosystem_from_spectrum([])),
                                Overflow, NORM_OVERFLOWS),
    "decompose_shift_overflows": (lambda: decompose(Sum((Harmonic(1e308, 1.0, np.pi / 2),) * 2),
                                                    exosystem_from_spectrum([])),
                                  Overflow, "residual value at t = 0 overflows the double range"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, exc, message = REFUSALS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=message):
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

    @pytest.mark.parametrize(
        "frequency, carriers",
        [(5e-10, []), (10.0 + 5e-10, [10j, -10j]), (10.0, [complex(-1e-10, 10.0), complex(-1e-10, -10.0)])],
        ids=["near_zero", "near_carrier", "decaying_carrier"],
    )
    def test_only_the_exact_frequency_is_modelled(self, frequency, carriers):
        # G generates only its exact eigenvalues, so anything else, however
        # close, is residual and carries its slope into the residual norm
        term = Harmonic(1e6, frequency)
        dec = decompose(term, exosystem_from_spectrum(carriers))
        assert dec.modeled.terms == () and dec.residual.terms == (term,)
        assert dec.residual_s_norm == 1e6 * frequency

    @hypothesis.settings(derandomize=True, database=None, max_examples=150, deadline=1000)
    @hypothesis.given(
        carriers=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=3),
        pick=st.integers(0, 2),
        move=st.one_of(st.just(0), st.integers(-3, 3), st.floats(-1e-9, 1e-9)),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_modelled_iff_its_frequency_is_in_the_spectrum(self, carriers, pick, move, sign):
        # a carrier, a carrier moved a few ulps, or a carrier moved by up to 1e-9 rad/s
        nu = carriers[pick % len(carriers)]
        if isinstance(move, int):
            for _ in range(abs(move)):
                nu = float(np.nextafter(nu, np.copysign(np.inf, move)))
        else:
            nu += move
        exo = exosystem_from_spectrum([s * 1j * f for f in carriers for s in (1, -1)])
        term = Harmonic(1.0, sign * nu)
        modelled = decompose(term, exo).modeled.terms == (term,)
        assert modelled == (complex(0.0, abs(nu)) in exo.spectrum) == (abs(nu) in carriers or nu == 0.0)

    def test_exp_then_hold_goes_residual(self):
        dec = decompose(Sum((ExpThenHold(1.0), Constant(2.0))), exosystem_from_spectrum([]))
        # hold value e^1, slope sup e^1, shifted start: norm is sup|de/dt|
        assert dec.residual_s_norm == pytest.approx(np.e)
        assert evaluate(dec.residual, 0.0) == 0.0
