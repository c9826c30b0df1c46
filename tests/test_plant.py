import numpy as np
import pytest

from edo import (
    GeneralPlant,
    Plant,
    canonical_plant,
    controllability_canonical_transform,
    is_observable_for_S,
    is_observable_for_omega,
    transmission_zero_holds,
)
from edo.errors import EmptyCoefficients, NotControllable, Overflow, SpectraOverlap
from edo.linalg import MEET_TOL, companion_from_last_row
from edo.plant import controllability_matrix


def double_integrator_example():
    # x1' = x2, x2' = d, y = x1 - x2: observable for exosystem classes
    # but not for the full signal class
    return GeneralPlant(A=[[0.0, 1.0], [0.0, 0.0]], B=[0.0, 1.0], C=[1.0, -1.0])


#: Library refusals of this module: (call, exception, what the message says).
REFUSALS = {
    "b_longer_than_a": (lambda: Plant(a=(1.0,), b=(1.0, 0.0)), ValueError, "a and b must have equal length"),
    "b_shorter_than_a": (lambda: Plant(a=(1.0, 2.0), b=(1.0,)), ValueError, "a and b must have equal length"),
    "b_zero": (lambda: Plant(a=(1.0, 2.0), b=(0.0, -0.0)), ValueError, "must not be identically zero"),
    # one finiteness rule, an int beyond the double range read as inf
    "a_nan": (lambda: Plant(a=(float("nan"), 1.0), b=(1.0, 0.0)), ValueError, r"plant a must be finite, got \(nan"),
    "b_nan": (lambda: Plant(a=(1.0,), b=(float("nan"),)), ValueError, "plant b must be finite"),
    "a_inf": (lambda: Plant(a=(float("-inf"),), b=(1.0,)), ValueError, r"plant a must be finite, got \(-inf,\)"),
    "a_huge_int": (lambda: Plant(a=(10**400,), b=(1.0,)), ValueError, r"plant a must be finite, got \(inf,\)"),
    "b_huge_negative_int": (lambda: Plant(a=(1.0,), b=(-(10**400),)), ValueError, r"plant b must be finite, got \(-inf"),
    # a long input is echoed shortened, and the message still names the value refused
    "a_long_nan": (lambda: Plant(a=(0.0,) * 100_000 + (float("nan"),), b=(1.0,) * 100_001), ValueError,
                   r"\A(?=plant a must be finite, got .*\bnan\b).{1,200}\Z"),
    "A_not_square": (lambda: GeneralPlant(A=np.zeros((2, 3)), B=[1.0, 0.0], C=[0.0, 1.0]), ValueError,
                     "A must be square"),
    "B_size": (lambda: GeneralPlant(A=np.eye(2), B=[1.0], C=[0.0, 1.0]), ValueError, "B and C must match"),
    "C_size": (lambda: GeneralPlant(A=np.eye(2), B=[1.0, 0.0], C=[0.0, 1.0, 0.0]), ValueError,
               "B and C must match"),
    # the known-dynamics path takes the same finiteness rule, before any numpy call can warn
    "general_A_nan": (lambda: GeneralPlant(A=[[float("nan")]], B=[1.0], C=[1.0]), ValueError,
                      r"plant A must be finite, got \(nan,\)"),
    "general_A_huge_int": (lambda: GeneralPlant(A=[[10**400]], B=[1.0], C=[1.0]), ValueError,
                           r"plant A must be finite, got \(inf,\)"),
    "transmission_zero_nan": (lambda: transmission_zero_holds(double_integrator_example(), float("nan")), ValueError,
                              r"lam must be finite, got \(\(nan\+0j\),\)"),
    "transmission_zero_inf": (lambda: transmission_zero_holds(double_integrator_example(), float("inf")), ValueError,
                              r"lam must be finite, got \(\(inf\+0j\),\)"),
    "observable_for_omega_nan": (lambda: is_observable_for_omega(double_integrator_example(), [1j, float("nan")]),
                                 ValueError, r"spectrum_of_G must be finite, got \(1j, \(nan\+0j\)\); entry 1"),
    "observable_for_omega_inf": (lambda: is_observable_for_omega(double_integrator_example(), [float("-inf")]),
                                 ValueError, r"spectrum_of_G must be finite, got \(\(-inf\+0j\),\)"),
    # finite entries whose Krylov rows leave the double range
    "observable_for_omega_krylov_overflows": (
        lambda: is_observable_for_omega(GeneralPlant(A=[[1e308, 1e308], [1e308, 1e308]], B=[1, 0], C=[1, 1]),
                                        [1j, -1j]),
        Overflow, "Krylov rows of an order-2 matrix overflow the double range"),
    "canonical_transform_krylov_overflows": (lambda: controllability_canonical_transform(canonical_plant([1e200] * 3)),
                                             Overflow, "Krylov rows of an order-3 matrix overflow the double range"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=message):
        call()


class TestCanonicalPlant:
    def test_second_order(self):
        p = canonical_plant([2.0, 1.0])
        assert np.array_equal(p.A, [[0.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(p.B, [1.0, 0.0])
        assert np.array_equal(p.C, [0.0, 1.0])

    def test_scalar_integrator(self):
        p = canonical_plant([0.0])
        assert p.A.shape == (1, 1) and p.A[0, 0] == 0.0
        assert p.B[0] == 1.0 and p.C[0] == 1.0

    def test_triple_chain(self):
        p = canonical_plant([0.0, 0.0, 0.0])
        assert np.array_equal(p.A, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyCoefficients):
            canonical_plant([])

    def test_matrices_built_once_and_read_only(self):
        p = canonical_plant([2.0, -1.0, 0.5])
        for name in ("A", "B", "C"):
            M = getattr(p, name)
            assert getattr(p, name) is M
            with pytest.raises(ValueError):
                M[0] = 1.0
        assert np.array_equal(p.A, companion_from_last_row(p.a).T)
        assert np.array_equal(p.B, [1.0, 0.0, 0.0]) and np.array_equal(p.C, [0.0, 0.0, 1.0])

    def test_markov_parameters_consistent(self, rng):
        # the materialized triple must reproduce itself from the stored
        # coefficients: C A^k B computed two ways agrees exactly
        for _ in range(10):
            n = int(rng.integers(1, 6))
            p = Plant(a=tuple(rng.uniform(-2, 2, n)), b=tuple(rng.uniform(-1, 1, n - 1)) + (1.0,))
            rebuilt = Plant(a=p.a, b=p.b)
            for k in range(2 * n):
                h1 = p.C @ np.linalg.matrix_power(p.A, k) @ p.B
                h2 = rebuilt.C @ np.linalg.matrix_power(rebuilt.A, k) @ rebuilt.B
                assert h1 == h2


class TestObservableForS:
    def test_first_state_input(self):
        assert is_observable_for_S(Plant(a=(2.0, 1.0), b=(1.0, 0.0))) is True

    def test_second_state_input(self):
        assert is_observable_for_S(Plant(a=(0.0, 0.0), b=(0.0, 1.0))) is False

    def test_tiny_nonzero_entry_is_exact(self):
        assert is_observable_for_S(Plant(a=(0.0, 0.0), b=(1.0, 1e-12))) is False


class TestTransmissionZeros:
    def test_nonzero_at_i(self):
        assert transmission_zero_holds(double_integrator_example(), 1j) is True

    def test_zero_at_one(self):
        # transfer function (1 - s)/s^2 vanishes at s = 1
        assert transmission_zero_holds(double_integrator_example(), 1.0) is False

    def test_scalar_plant(self):
        gp = GeneralPlant(A=[[0.0]], B=[1.0], C=[1.0])
        assert transmission_zero_holds(gp, 1.0) is True

    def test_valid_inside_plant_spectrum(self):
        # rank form keeps working at eigenvalues of A, where the
        # transfer-function form is undefined
        assert transmission_zero_holds(double_integrator_example(), 0.0) is True

    def test_agrees_with_transfer_function(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            gp = GeneralPlant(rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal(n))
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            eig = np.linalg.eigvals(gp.A)
            if np.abs(eig - lam).min() < 1e-3:
                continue
            tf = gp.C @ np.linalg.solve(lam * np.eye(n) - gp.A, gp.B.astype(complex))
            assert transmission_zero_holds(gp, lam) == (abs(tf) > 1e-9)


class TestObservableForOmega:
    def test_harmonic_spectrum(self):
        assert is_observable_for_omega(double_integrator_example(), [1j, -1j]) is True

    def test_transmission_zero_spectrum(self):
        assert is_observable_for_omega(double_integrator_example(), [1.0]) is False

    def test_unobservable_pair(self):
        # C sees only the first mode; no transmission zero at the carrier
        gp = GeneralPlant(A=np.diag([-1.0, -2.0]), B=[1.0, 1.0], C=[1.0, 0.0])
        assert all(transmission_zero_holds(gp, lam) for lam in (1j, -1j))
        assert is_observable_for_omega(gp, [1j, -1j]) is False

    def test_overlap_rejected(self):
        with pytest.raises(SpectraOverlap):
            is_observable_for_omega(double_integrator_example(), [0.0])

    def test_overlap_is_closer_than_the_meet_tolerance(self):
        # the plant's eigenvalues are exactly 0, so the distance is the imaginary part
        with pytest.raises(SpectraOverlap):
            is_observable_for_omega(double_integrator_example(), [1j * np.nextafter(MEET_TOL, 0.0)])
        assert is_observable_for_omega(double_integrator_example(), [1j * MEET_TOL]) is True


class TestCanonicalTransform:
    def test_chain_of_two(self):
        U = controllability_canonical_transform(canonical_plant([0.0, 0.0]))
        assert np.allclose(U, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_general_second_order(self):
        p = canonical_plant([2.0, 1.0])
        U = controllability_canonical_transform(p)
        assert np.allclose(U, [[0.0, 1.0], [1.0, 1.0]], atol=1e-12)  # [[0,1],[1,a2]]

    def test_scalar(self):
        U = controllability_canonical_transform(canonical_plant([3.0]))
        assert np.allclose(U, [[1.0]])

    def test_defining_identities(self, rng):
        # canonical plants (b = e1) give an identity Krylov basis; a general
        # b with b[0] != 0 exercises the solve with a full basis
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-2, 2, n)
            b = rng.uniform(-2, 2, n)
            b[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            for p in (canonical_plant(a), Plant(a=a, b=b)):
                U = controllability_canonical_transform(p)
                assert np.abs(U @ p.A @ np.linalg.inv(U) - p.A.T).max() < 1e-10
                assert np.abs(U @ p.B - p.C).max() < 1e-10

    def test_uncontrollable_rejected(self):
        p = Plant(a=(0.0, 0.0), b=(0.0, 1.0))
        assert np.linalg.matrix_rank(controllability_matrix(p.A, p.B)) < 2
        with pytest.raises(NotControllable):
            controllability_canonical_transform(p)
