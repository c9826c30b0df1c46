import numpy as np
import pytest

from edo import linalg
from edo.errors import NonSquare, Overflow


def durand_kerner(coeffs, iters=200):
    """Independent polynomial root finder (monic, ascending-power input)."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.size - 1
    roots = (0.4 + 0.9j) ** np.arange(n)  # standard distinct start points
    poly = np.polynomial.polynomial.Polynomial(c)
    for _ in range(iters):
        new = roots.copy()
        for i in range(n):
            denom = np.prod([new[i] - new[j] for j in range(n) if j != i]) if n > 1 else 1.0
            new[i] = new[i] - poly(new[i]) / denom
        if np.abs(new - roots).max() < 1e-14:
            roots = new
            break
        roots = new
    return roots


class TestEigenvalues:
    def test_zero_matrix(self):
        w = linalg.eigenvalues(np.zeros((2, 2)))
        assert np.allclose(w, [0.0, 0.0])

    def test_pure_imaginary_pair(self):
        w = linalg.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(w, [-1j, 1j])  # sorted by (re, im)

    def test_double_real_root(self):
        w = linalg.eigenvalues(np.array([[0.0, -1.0], [1.0, -2.0]]))
        assert np.allclose(w, [-1.0, -1.0], atol=1e-8)

    def test_sorted_deterministically(self, rng):
        M = rng.standard_normal((6, 6))
        w = linalg.eigenvalues(M)
        order = np.lexsort((w.imag, w.real))
        assert np.array_equal(order, np.arange(6))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            linalg.eigenvalues(np.zeros((2, 3)))

    def test_companion_matches_root_finder(self, rng):
        for _ in range(40):
            deg = int(rng.integers(1, 7))
            roots = []
            while len(roots) < deg:
                r = rng.uniform(-5.0, 5.0)
                if all(abs(r - s) > 0.3 for s in roots):
                    roots.append(r)
            poly = np.array([1.0])
            for r in roots:
                poly = np.polymul(poly, [1.0, -r])
            # companion with last row b has char poly l^n - b_n l^(n-1) - ... - b_1
            last_row = -poly[1:][::-1]
            M = linalg.companion_from_last_row(last_row)
            got = linalg.eigenvalues(M)
            ref = np.sort_complex(durand_kerner(poly[::-1] / poly[0]))
            assert np.abs(np.sort_complex(got) - ref).max() < 1e-8


class TestHurwitz:
    def test_identity_is_not(self):
        assert linalg.is_hurwitz(np.eye(2)) is False

    def test_stable_double_pole(self):
        assert linalg.is_hurwitz(np.array([[0.0, -1.0], [1.0, -2.0]])) is True

    def test_zero_scalar_is_not(self):
        assert linalg.is_hurwitz(np.zeros((1, 1))) is False

    def test_similarity_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            # eigenvalues kept away from the tolerance boundary
            eigs = rng.choice([-1.0, -2.5, 0.5, 1.5], size=n) + rng.uniform(-0.1, 0.1, n)
            D = np.diag(eigs)
            T = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            M = T @ D @ np.linalg.inv(T)
            assert linalg.is_hurwitz(M) == linalg.is_hurwitz(D)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        E = linalg.expm(np.diag([1.0, -1.0]))
        assert np.allclose(E, np.diag([np.e, 1.0 / np.e]), rtol=1e-12)

    def test_high_gain_closed_form(self):
        # e^{A t} B for A = [[0,1],[-w^2,-2w]], B = (1,1): exact
        # e^{-w t} (1 + (w+1) t, 1 - (w^2+w) t) at w=10, t=0.1
        w, t = 10.0, 0.1
        A = np.array([[0.0, 1.0], [-w * w, -2.0 * w]])
        got = linalg.expm(A * t) @ np.array([1.0, 1.0])
        expected = np.exp(-1.0) * np.array([2.1, -10.0])
        assert np.allclose(got, expected, rtol=1e-12)

    def test_inverse_property(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n))
            M *= 10.0 / max(np.linalg.norm(M), 1.0)
            P = linalg.expm(M) @ linalg.expm(-M)
            assert np.abs(P - np.eye(n)).max() < 1e-10

    def test_overflow_detected(self):
        with pytest.raises(Overflow), np.errstate(over="ignore"):
            linalg.expm(np.array([[1e4]]))

