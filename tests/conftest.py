"""Shared test helpers: random design sampling and independent oracles."""

import numpy as np
import pytest

from edo import (
    Exosystem,
    GainBase,
    Plant,
    canonical_plant,
    exosystem_from_spectrum,
    schedule_gains,
    solve_regulator,
)
from edo.linalg import expm
from edo.synthesis import error_system


def stable_roots(rng, size, lo=0.3, hi=4.0, minsep=0.25, avoid=()):
    """Sample well-separated stable roots; returns (base vector, roots).

    The base vector ``b`` satisfies: the companion matrix with last row
    ``b`` has characteristic polynomial with exactly these roots.
    Separation (also from ``avoid``) keeps every eigenvalue simple so
    that eigensolver comparisons stay well conditioned.
    """
    roots = []
    seen = list(avoid)
    tries = 0
    sep = minsep
    while len(roots) < size:
        tries += 1
        if tries > 2000:  # box got crowded; relax separation
            roots, seen, tries, sep = [], list(avoid), 0, sep * 0.7
        if size - len(roots) >= 2 and rng.random() < 0.5:
            cand = [complex(-rng.uniform(lo, hi), rng.uniform(lo, hi))]
            cand.append(cand[0].conjugate())
        else:
            cand = [complex(-rng.uniform(lo, hi), 0.0)]
        if all(abs(c - e) > sep for c in cand for e in seen):
            roots += cand
            seen += cand
    poly = np.array([1.0 + 0.0j])
    for r in roots:
        poly = np.polymul(poly, np.array([1.0, -r]))
    return tuple(-poly.real[1:][::-1]), roots


def random_frequencies(rng, count, lo=0.5, hi=12.0, minsep=0.4):
    freqs = []
    while len(freqs) < count:
        f = rng.uniform(lo, hi)
        if all(abs(f - g) > minsep for g in freqs):
            freqs.append(f)
    return freqs


def random_instance(rng, max_n=5, max_m=4, omegas=(1.0, 5.0, 10.0, 50.0)):
    """One randomized design instance over the given ranges."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(0, max_m + 1))
    omega = float(rng.choice(omegas))
    plant = canonical_plant(rng.uniform(-2.0, 2.0, n))
    k_obs, roots_obs = stable_roots(rng, n)
    k_ctrl, roots_ctrl = stable_roots(rng, n, avoid=roots_obs)
    p_base, _ = stable_roots(rng, m + 1, avoid=roots_obs + roots_ctrl)
    n_pairs = m // 2
    spectrum = []
    for f in random_frequencies(rng, n_pairs):
        spectrum += [complex(0.0, f), complex(0.0, -f)]
    spectrum += [0.0] * (m - 2 * n_pairs)
    exo = exosystem_from_spectrum(spectrum)
    base = GainBase(k=k_obs, p=p_base)
    sg = schedule_gains(plant, exo, base, omega)
    rs = solve_regulator(plant, exo, sg)
    return {
        "plant": plant,
        "exo": exo,
        "base": base,
        "k_ctrl": k_ctrl,
        "omega": omega,
        "sg": sg,
        "rs": rs,
        "diagonalizable": m == 2 * n_pairs,  # extra zeros repeat the 0 eigenvalue
    }


def regulator_residuals(plant, exo, sg, rs):
    """Relative residuals of the two regulator equations."""
    A_inj = plant.A + np.outer(sg.K_omega, plant.C)
    r_syl = A_inj @ rs.S - rs.S @ exo.G - np.outer(plant.B, rs.Q)
    scale = max(
        np.abs(A_inj).max() * max(np.abs(rs.S).max(), 1e-300),
        np.abs(rs.S).max() * max(np.abs(exo.G).max(), 1.0),
        np.abs(rs.Q).max(),
        1e-300,
    )
    r_out = np.abs(plant.C @ rs.S - sg.P_omega).max() / max(np.abs(sg.P_omega).max(), 1e-300)
    return np.abs(r_syl).max() / scale, r_out


def multiset_gap(a, b):
    """Largest pairwise distance under the optimal matching of two multisets."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectrum_gap_f64(M, parts):
    """Multiset gap between eig(M) and the union of eig over ``parts``."""
    union = np.concatenate([np.linalg.eigvals(np.atleast_2d(P)) for P in parts])
    return multiset_gap(np.linalg.eigvals(M), union)


def balance_pow2(A, return_factors=False):
    """Osborne-style balancing with power-of-two scale factors.

    The diagonal similarity is exact in IEEE arithmetic (scaling by powers
    of two never rounds), so the returned matrix has exactly the same
    spectrum as the input while being far friendlier to eigensolvers.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    factors = np.ones(n)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            c = np.abs(A[:, i]).sum() - abs(A[i, i])
            r = np.abs(A[i, :]).sum() - abs(A[i, i])
            if c == 0.0 or r == 0.0:
                continue
            f = 1.0
            while c < r / 2.0:
                c *= 2.0
                r /= 2.0
                f *= 2.0
            while c >= r * 2.0:
                c /= 2.0
                r *= 2.0
                f /= 2.0
            if f != 1.0:
                A[:, i] *= f
                A[i, :] /= f
                factors[i] *= f
                changed = True
    if return_factors:
        return A, factors
    return A


def spectrum_gap_mp(M, parts, dps=40):
    """Same gap computed with an arbitrary-precision eigensolver.

    Used when the f64 gap exceeds the tolerance: the assembled matrices
    are exact data, so balancing (an exact similarity) plus a
    high-precision eigensolver separates genuine spectrum mismatch from
    eigensolver noise.
    """
    from mpmath import mp, matrix as mp_matrix, eig as mp_eig

    old = mp.dps
    mp.dps = dps
    try:
        def eigs(A):
            A = balance_pow2(np.atleast_2d(A))
            if A.shape == (1, 1):
                return [complex(A[0, 0])]
            vals = mp_eig(mp_matrix(A.tolist()), left=False, right=False)
            if isinstance(vals, tuple):  # some sizes ignore the flags
                vals = vals[0]
            return [complex(float(v.real), float(v.imag)) for v in vals]

        union = [z for P in parts for z in eigs(P)]
        return multiset_gap(eigs(M), union)
    finally:
        mp.dps = old


def newton_polished_eigs(M, seeds, dps=60, iters=8):
    """Polish eigenvalue estimates of exact f64 data in high precision.

    Newton's method on the characteristic polynomial via
    ``lambda <- lambda - 1 / trace((lambda I - M)^-1)``; quadratically
    convergent at simple eigenvalues, which the design sweep guarantees.
    """
    from mpmath import mp, matrix as mp_matrix, mpc

    old = mp.dps
    mp.dps = dps
    try:
        A = mp_matrix(np.asarray(M, dtype=float).tolist())
        n = A.rows
        out = []
        for seed in seeds:
            lam = mpc(seed.real, seed.imag)
            for _ in range(iters):
                shifted = mp_matrix(A)
                for i in range(n):
                    shifted[i, i] = lam - shifted[i, i]
                    for j in range(n):
                        if j != i:
                            shifted[i, j] = -shifted[i, j]
                try:
                    inv = shifted**-1
                except ZeroDivisionError:
                    break  # landed exactly on the eigenvalue
                trace = sum(inv[i, i] for i in range(n))
                step = 1 / trace
                lam = lam - step
                if abs(step) < 1e-25 * max(1.0, abs(lam)):
                    break
            out.append(complex(float(lam.real), float(lam.imag)))
        return out
    finally:
        mp.dps = old


def spectrum_gap(M, parts, tol):
    """Escalating spectrum comparison: f64, then mp QR, then mp Newton.

    The matrices are exact f64 data, so escalation only ever removes
    eigensolver noise; a genuine spectrum mismatch survives every rung.
    """
    gap = spectrum_gap_f64(M, parts)
    if gap <= tol:
        return gap
    gap = spectrum_gap_mp(M, parts)
    if gap <= tol:
        return gap
    union = np.concatenate([np.linalg.eigvals(np.atleast_2d(P)) for P in parts])
    polished_union = newton_polished_eigs(
        _block_diag(parts), union, dps=60
    )
    polished_M = newton_polished_eigs(M, np.linalg.eigvals(np.asarray(M, dtype=float)), dps=60)
    return multiset_gap(polished_M, polished_union)


def _block_diag(parts):
    parts = [np.atleast_2d(P) for P in parts]
    dim = sum(P.shape[0] for P in parts)
    out = np.zeros((dim, dim))
    k = 0
    for P in parts:
        s = P.shape[0]
        out[k : k + s, k : k + s] = P
        k += s
    return out


def carrier_initial_state(d_signal, exo: Exosystem, Q):
    """Initial carrier state v0 with ``Q exp(G t) v0 = d(t)``.

    Least-squares fit on a sample grid; only meaningful when the signal
    lies in the space the exosystem generates (residual is checked).
    """
    from edo.disturbance import evaluate

    dim = exo.dim
    freqs = [abs(z.imag) for z in exo.spectrum if z.imag]
    t_hi = 2.0 * np.pi / min(freqs) if freqs else 1.0
    ts = np.linspace(0.0, t_hi, 4 * dim + 8)
    rows = np.array([np.asarray(Q) @ expm(exo.G * t) for t in ts])
    vals = np.array([float(evaluate(d_signal, t)) for t in ts])
    v0, *_ = np.linalg.lstsq(rows, vals, rcond=None)
    resid = np.abs(rows @ v0 - vals).max()
    assert resid <= 1e-8 * max(1.0, np.abs(vals).max()), "signal not in the exosystem span"
    return v0


def mp_assembled_separation_gap(inst, fb, dps=50):
    """Separation gap with the closed loop assembled in exact arithmetic.

    Uses the identical f64 design data (S, Q, schedules, feedback row) but
    performs the block sums in mp arithmetic before taking eigenvalues.
    This isolates how much of a measured f64 gap is representation
    rounding of the assembled drift rather than design error.
    """
    from mpmath import mp, matrix as mp_matrix, eig as mp_eig, mpf

    from edo.synthesis import assemble_edo, closed_loop

    p, exo, sg, rs = inst["plant"], inst["exo"], inst["sg"], inst["rs"]
    n, d = p.n, exo.dim
    old = mp.dps
    mp.dps = dps
    try:
        def to_mp(A):
            return mp_matrix(np.atleast_2d(np.asarray(A, dtype=float)).tolist())

        KSE = sg.K_omega + rs.S @ exo.E
        N = 2 * n + d
        f = lambda v: mpf(float(v))
        M = mp_matrix(N, N)
        for i in range(n):
            for j in range(n):
                M[i, j] = f(p.A[i, j])
                M[i, n + j] = f(p.B[i]) * f(fb.F[j])
                M[n + i, j] = -(f(KSE[i]) * f(p.C[j]))
                M[n + i, n + j] = f(p.A[i, j]) + f(KSE[i]) * f(p.C[j]) + f(p.B[i]) * f(fb.F[j])
            for j in range(d):
                M[i, 2 * n + j] = -(f(p.B[i]) * f(rs.Q[j]))
                M[n + i, 2 * n + j] = 0.0
        for i in range(d):
            for j in range(n):
                M[2 * n + i, j] = f(exo.E[i]) * f(p.C[j])
                M[2 * n + i, n + j] = -(f(exo.E[i]) * f(p.C[j]))
            for j in range(d):
                M[2 * n + i, 2 * n + j] = f(exo.G[i, j])

        # balance with power-of-two factors taken from the f64 twin:
        # exact similarity in mp, massively better QR convergence
        obs = assemble_edo(p, exo, sg, rs)
        proxy, _ = closed_loop(p, obs, fb, rs)
        _, factors = balance_pow2(proxy, return_factors=True)
        for i in range(N):
            for j in range(N):
                if i != j:
                    M[i, j] = M[i, j] * (mpf(factors[j]) / mpf(factors[i]))

        def eigs(Mm):
            vals = mp_eig(Mm, left=False, right=False)
            if isinstance(vals, tuple):
                vals = vals[0]
            return [complex(float(v.real), float(v.imag)) for v in vals]

        parts = [
            p.A + np.outer(p.B, fb.F),
            p.A + np.outer(sg.K_omega, p.C),
            exo.G + np.outer(exo.E, sg.P_omega),
        ]
        union = []
        for P in parts:
            P = balance_pow2(np.atleast_2d(P))
            union += [complex(P[0, 0])] if P.shape == (1, 1) else eigs(to_mp(P))
        return multiset_gap(eigs(M), union)
    finally:
        mp.dps = old


def steady_dist_err_amplitude(obs, exo, freq, slope_amp):
    """Frequency-domain oracle for the steady disturbance-estimate error.

    The error system is driven by the residual's derivative; for a
    sinusoidal residual of slope amplitude ``slope_amp`` at ``freq`` the
    stationary error amplitude is |Q (jw - A_err)^-1 B_err| * slope_amp,
    with ``Q`` the observer's read-out ``d_hat_row``.
    """
    A_err, B_err = error_system(obs, exo)
    dim = A_err.shape[0]
    H = obs.d_hat_row @ np.linalg.solve(1j * freq * np.eye(dim) - A_err, B_err.astype(complex))
    return float(abs(H) * slope_amp)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
