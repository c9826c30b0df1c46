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
from edo.errors import EmptyCoefficients, NotControllable, SpectraOverlap
from edo.linalg import companion_from_last_row
from edo.plant import controllability_matrix


def double_integrator_example():
    # x1' = x2, x2' = d, y = x1 - x2: observable for exosystem classes
    # but not for the full signal class
    return GeneralPlant(A=[[0.0, 1.0], [0.0, 0.0]], B=[0.0, 1.0], C=[1.0, -1.0])


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

    def test_overlap_rejected(self):
        with pytest.raises(SpectraOverlap):
            is_observable_for_omega(double_integrator_example(), [0.0])


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
