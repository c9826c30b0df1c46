"""Observer and feedback synthesis.

The design pipeline is:

1. pick base gain vectors ``k`` (plant side) and ``p`` (exosystem side)
   whose companion matrices are Hurwitz;
2. schedule them with a bandwidth ``omega_o``, which places the error
   poles at ``omega_o`` times the base roots;
3. solve the constrained Sylvester (regulator) system for the coupling
   matrix S and the disturbance read-out row Q;
4. assemble the combined state-plus-disturbance estimator, and optionally
   a scheduled state-feedback row for the closed loop, whose control
   ``u = F x_hat - d_hat`` cancels the estimator's own disturbance estimate.

The estimator's error dynamics are block-triangularizable by S, so the
closed-loop spectrum is exactly the union of the three designed spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .disturbance import Exosystem
from .errors import (
    DimensionMismatch,
    NonHurwitz,
    NonHurwitzBase,
    NotDiagonalizable,
    NotObservablePair,
    Overflow,
    SingularSystem,
    SpectraOverlap,
)
from .plant import GeneralPlant, Plant, _full_rank, controllability_canonical_transform, observability_matrix

__all__ = [
    "GainBase",
    "ScheduledGains",
    "schedule_gains",
    "RegulatorSolution",
    "solve_regulator",
    "solve_regulator_spectral",
    "ObserverRealization",
    "assemble_edo",
    "assemble_known_dynamics_observer",
    "StabilizerGain",
    "stabilizer_gain",
    "closed_loop",
    "error_system",
]


@dataclass(frozen=True)
class GainBase:
    """Base gain vectors, validated to be Hurwitz at construction.

    ``k`` (length n) and ``p`` (length m+1) define companion matrices with
    characteristic polynomials ``l^n - k_n l^(n-1) - ... - k_1`` and
    ``l^(m+1) - p_m l^m - ... - p_0``; both must be Hurwitz, which in
    particular forces ``k_1 != 0`` and ``p_0 != 0``.
    """

    k: tuple
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", linalg.finite_floats(self.k, "base k"))
        object.__setattr__(self, "p", linalg.finite_floats(self.p, "base p"))
        if not self.k or not self.p:
            raise DimensionMismatch("gain base vectors must be non-empty")
        _check_hurwitz_base(self.k, "base k")
        _check_hurwitz_base(self.p, "base p")


def _check_hurwitz_base(vec, what: str):
    if not linalg.is_hurwitz(linalg.companion_from_last_row(vec)):
        raise NonHurwitzBase(f"companion matrix of {what} {vec} is not Hurwitz")


@dataclass(frozen=True, eq=False)
class ScheduledGains:
    """Bandwidth-scheduled injection gains."""

    omega_o: float
    K_omega: np.ndarray  # length n
    P_omega: np.ndarray  # length m+1


def schedule_gains(p: Plant, exo: Exosystem, base: GainBase, omega_o: float) -> ScheduledGains:
    """Materialize the scheduled gain vectors.

    ``K_omega[j] = k_j omega^(n-j) - a_j`` (1-based powers n..1) and
    ``P_omega = [p_0 omega^(m+1), p_1 omega^m - g_1, ..., p_m omega - g_m]``,
    so the scheduled companion matrices have spectra ``omega_o`` times the
    base spectra.
    """
    K = _power_schedule(base.k, omega_o, p.a)
    P = _power_schedule(base.p, omega_o, (0.0,) + exo.g)
    return ScheduledGains(omega_o=float(omega_o), K_omega=K, P_omega=P)


def _bandwidth(w) -> float:
    w = linalg.as_float(w)
    if not 0.0 < w < np.inf:
        raise ValueError(f"bandwidth {w:g} is not positive and finite")
    return w


def _power_schedule(base, w, shift) -> np.ndarray:
    """Gain ``base_j w^(s-j) - shift_j``, s = len(base); added to the coefficients
    ``shift`` it gives the companion of ``base`` with its spectrum times ``w``.
    Refuses ``len(shift) != s`` (DimensionMismatch) and a ``w`` not positive and finite (ValueError)."""
    s = len(base)
    if len(shift) != s:
        raise DimensionMismatch(f"base of length {s} does not fit the {len(shift)} coefficients it shifts")
    w = _bandwidth(w)
    try:
        gains = np.array([base[j] * w ** (s - j) - shift[j] for j in range(s)])
    except OverflowError:  # a Python-float power beyond the double range
        gains = np.array([np.inf])
    if not np.all(np.isfinite(gains)):
        raise Overflow(f"bandwidth {w:g} overflows the gain schedule")
    return gains


@dataclass(frozen=True, eq=False)
class RegulatorSolution:
    """Solution (S, Q) of the constrained Sylvester system."""

    S: np.ndarray  # n x (m+1)
    Q: np.ndarray  # length m+1


def _regulator_system(A_inj, G, B, C, P_row):
    """Square system ``M sol = rhs`` of ``A_inj S - S G = B Q`` with ``C S = P_row``.

    ``sol`` stacks the columns of S (column-major vec) over Q.  Block
    (i, j) of the Sylvester part is ``delta_ij A_inj - G[j, i] I``; ``-B``
    sits in column ``nS + i`` of block row i and C in row ``nS + i``.
    """
    n, d = A_inj.shape[0], G.shape[0]
    nS = n * d
    M = np.zeros((nS + d, nS + d))
    rhs = np.zeros(nS + d)
    blk, row = np.arange(d), np.arange(n)
    syl = M[:nS, :nS].reshape(d, n, d, n)  # syl[i, :, j, :] is block (i, j)
    syl[blk, :, blk, :] = A_inj
    syl[:, row, :, row] -= G.T
    inp = M[:nS, nS:].reshape(d, n, d)
    inp[blk, :, blk] = -B
    out = M[nS:, :nS].reshape(d, d, n)
    out[blk, blk] = C
    rhs[nS:] = P_row
    return M, rhs


def _solve_constrained_sylvester(A_inj, G, B, C, P_row):
    """Joint dense solve of ``A_inj S - S G = B Q`` with ``C S = P_row``.

    Q is itself an unknown, so the Sylvester part is vectorized and the
    output constraint appended, giving one square linear system in the
    entries of S and Q (``_regulator_system``).  The system is heavily
    graded at large bandwidths (entries spanning many orders of
    magnitude), so it goes through the LAPACK solver and singularity is
    decided from the residual rather than from a global pivot threshold.
    """
    n, d = A_inj.shape[0], G.shape[0]
    nS = n * d
    M, rhs = _regulator_system(A_inj, G, B, C, P_row)
    # a solve that leaves the double range is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sol = np.linalg.solve(M, rhs)
            # two refinement sweeps with an extended-precision residual; the
            # system is graded enough that the raw forward error would
            # otherwise leak into the designed closed-loop spectrum
            M_ld = M.astype(np.longdouble)
            rhs_ld = rhs.astype(np.longdouble)
            for _ in range(2):
                resid = np.asarray(rhs_ld - M_ld @ sol.astype(np.longdouble), dtype=float)
                sol = sol + np.linalg.solve(M, resid)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                "regulator system is singular; an exosystem eigenvalue is a plant transmission zero"
            ) from exc
        residual = np.abs(M @ sol - rhs).max()
        scale = np.abs(M).max() * max(np.abs(sol).max(), 1.0) + np.abs(rhs).max()
    if not np.isfinite(sol).all():
        raise Overflow(f"regulator solution overflows the double range (system entries up to {np.abs(M).max():g})")
    if residual > 1e-6 * scale:
        raise SingularSystem(
            "regulator system is numerically singular; a plant transmission zero is near an exosystem eigenvalue"
        )
    if not (np.isfinite(residual) and np.isfinite(scale)):
        raise SingularSystem(
            f"regulator residual check overflows the double range (residual {residual:g}, scale {scale:g})"
        )
    S = sol[:nS].reshape((d, n)).T
    Q = sol[nS:]
    return S, Q


def solve_regulator(p: Plant, exo: Exosystem, sg: ScheduledGains) -> RegulatorSolution:
    """Solve the regulator equations for the scheduled observer.

    Returns (S, Q) with ``(A + K_omega C) S - S G = B Q`` and
    ``C S = P_omega``.  It is solvable exactly when no exosystem eigenvalue
    is a plant transmission zero: the observer poles are stable and the
    exosystem's are not, and output injection moves no zeros.
    """
    _check_dims(p, exo, sg)
    A_inj = p.A + np.outer(sg.K_omega, p.C)
    S, Q = _solve_constrained_sylvester(A_inj, exo.G, p.B, p.C, sg.P_omega)
    return RegulatorSolution(S=S, Q=Q)


def solve_regulator_spectral(p: Plant, exo: Exosystem, sg: ScheduledGains) -> RegulatorSolution:
    """Eigenvector-based regulator solve; cross-check path.

    Valid when the exosystem matrix is diagonalizable (distinct
    eigenvalues): along each eigenvector, Q is the scheduled output row
    divided by the observer transfer evaluated at that eigenvalue, and the
    matching S column follows from one resolvent solve.
    """
    _check_dims(p, exo, sg)
    G = exo.G
    lams, V = np.linalg.eig(G)
    d = G.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            if abs(lams[i] - lams[j]) <= 1e-9:
                raise NotDiagonalizable(f"repeated exosystem eigenvalue {lams[i]:.3g}")
    A_inj = p.A + np.outer(sg.K_omega, p.C)
    n = p.n
    S_cols = np.empty((n, d), dtype=complex)
    q = np.empty(d, dtype=complex)
    for j in range(d):
        M = A_inj - lams[j] * np.eye(n)
        try:
            x = np.linalg.solve(M, p.B.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"{lams[j]} is an observer pole") from exc
        gain = p.C @ x  # C (A + K_omega C - lam)^-1 B
        if abs(gain) < 1e-300:
            raise SingularSystem(f"transmission zero at exosystem eigenvalue {lams[j]}")
        q[j] = (sg.P_omega @ V[:, j]) / gain
        S_cols[:, j] = x * q[j]
    Vinv = np.linalg.inv(V)
    S = S_cols @ Vinv
    Q = q @ Vinv
    scale = max(1.0, np.abs(S).max(), np.abs(Q).max())
    if max(np.abs(S.imag).max(), np.abs(Q.imag).max()) > 1e-8 * scale:
        raise SingularSystem("spectral solve left a complex residue")
    return RegulatorSolution(S=S.real.copy(), Q=Q.real.copy())


def _check_dims(p: Plant, exo: Exosystem, sg: ScheduledGains):
    if sg.K_omega.shape != (p.n,) or sg.P_omega.shape != (exo.dim,):
        raise DimensionMismatch(
            f"scheduled gains sized ({sg.K_omega.shape[0]}, {sg.P_omega.shape[0]}) do not fit "
            f"plant order {p.n} and exosystem dimension {exo.dim}"
        )


@dataclass(frozen=True, eq=False)
class ObserverRealization:
    """State-space realization of a combined state/disturbance estimator.

    The state stacks the plant estimate (first ``n`` entries) over the
    disturbance-carrier estimate.  Integrating
    ``z' = A_hat z + L_y y + B_u u`` and reading ``d_hat = d_hat_row z``
    reproduces the designed estimator.
    """

    n: int
    A_hat: np.ndarray
    L_y: np.ndarray
    B_u: np.ndarray
    d_hat_row: np.ndarray

    @property
    def dim(self) -> int:
        return self.A_hat.shape[0]

    @property
    def v_dim(self) -> int:
        return self.dim - self.n


def _realization(p, G, F1, F2, Q) -> ObserverRealization:
    """Observer with injection ``F1`` on the state block and ``F2`` on the carrier.

    Blockwise: the state-estimate drift is ``A + F1 C`` with ``B Q``
    coupling into the carrier estimate; the carrier drift is G with
    ``-F2 C`` coupling; the measurement enters through ``-F1`` and ``F2``.
    """
    n, d = p.n, G.shape[0]
    A_hat = np.zeros((n + d, n + d))
    A_hat[:n, :n] = p.A + np.outer(F1, p.C)
    A_hat[:n, n:] = np.outer(p.B, Q)
    A_hat[n:, :n] = -np.outer(F2, p.C)
    A_hat[n:, n:] = G
    L_y = np.concatenate([-F1, F2])
    B_u = np.concatenate([p.B, np.zeros(d)])
    d_hat_row = np.concatenate([np.zeros(n), Q])
    return ObserverRealization(n=n, A_hat=A_hat, L_y=L_y, B_u=B_u, d_hat_row=d_hat_row)


def assemble_edo(p: Plant, exo: Exosystem, sg: ScheduledGains, rs: RegulatorSolution) -> ObserverRealization:
    """Assemble the extended-dynamics observer realization.

    This is the known-dynamics observer with ``F0 = K_omega``, ``F2 = E``
    and ``P_row = P_omega``: the state block is injected with
    ``K_omega + S E`` and the carrier block with ``E``.
    """
    _check_dims(p, exo, sg)
    if rs.S.shape != (p.n, exo.dim) or rs.Q.shape != (exo.dim,):
        raise DimensionMismatch(
            f"regulator solution sized {rs.S.shape} does not fit plant order {p.n} "
            f"and exosystem dimension {exo.dim}"
        )
    return _realization(p, exo.G, sg.K_omega + rs.S @ exo.E, exo.E, rs.Q)


def assemble_known_dynamics_observer(
    p_general: GeneralPlant,
    G,
    P_row,
    F0,
    F2,
) -> ObserverRealization:
    """Luenberger observer for a disturbance with fully known dynamics.

    Scheme: with ``A + F0 C`` Hurwitz and disjoint from the spectrum of G,
    solve ``(A + F0 C) S - S G = B Q`` with ``C S = P_row``, then inject
    with ``F1 = F0 + S F2`` on the state block and ``F2`` on the carrier
    block.  The error matrix is similar to a block-triangular form with
    diagonal blocks ``A + F0 C`` and ``G + F2 P_row``.
    """
    G = np.atleast_2d(linalg.finite_array(G, "G"))
    P_row = linalg.finite_array(P_row, "P_row").reshape(-1)
    F0 = linalg.finite_array(F0, "F0").reshape(-1)
    F2 = linalg.finite_array(F2, "F2").reshape(-1)
    n, m = p_general.n, G.shape[0]
    if G.shape != (m, m) or P_row.shape != (m,) or F0.shape != (n,) or F2.shape != (m,):
        raise DimensionMismatch("inconsistent observer design dimensions")
    A_F0 = p_general.A + np.outer(F0, p_general.C)
    eig_closed = linalg.eigenvalues(A_F0)
    eig_G = linalg.eigenvalues(G)
    if min(abs(a - b) for a in eig_closed for b in eig_G) < 1e-9:
        raise SpectraOverlap("spectrum of A + F0 C meets the disturbance dynamics spectrum")
    if not _full_rank(observability_matrix(G, P_row)):
        raise NotObservablePair("(G, P_row) is not observable")
    if not linalg.is_hurwitz(A_F0):
        raise NonHurwitz("A + F0 C is not Hurwitz")
    if not linalg.is_hurwitz(G + np.outer(F2, P_row)):
        raise NonHurwitz("G + F2 P_row is not Hurwitz")
    S, Q = _solve_constrained_sylvester(A_F0, G, p_general.B, p_general.C, P_row)
    return _realization(p_general, G, F0 + S @ F2, F2, Q)


@dataclass(frozen=True, eq=False)
class StabilizerGain:
    """Scheduled state-feedback row."""

    omega_c: float
    F: np.ndarray


def stabilizer_gain(p: Plant, k_ctrl, omega_c: float) -> StabilizerGain:
    """High-gain state feedback placing the closed poles at scaled base roots.

    The scheduled row ``K_c = [k_1 w^n - a_1, ..., k_n w - a_n]`` stabilizes
    the controllability-form twin of the plant; pulling it back through the
    canonical transform U gives ``F = K_c U`` with
    ``spectrum(A + B F) = omega_c * roots(base)``.
    """
    k_ctrl = linalg.finite_floats(k_ctrl, "control base")
    K_c = _power_schedule(k_ctrl, omega_c, p.a)
    _check_hurwitz_base(k_ctrl, "control base")
    U = controllability_canonical_transform(p)
    with np.errstate(over="ignore", invalid="ignore"):
        F = K_c @ U
    if not np.isfinite(F).all():
        raise Overflow(f"stabilizer gain at bandwidth {float(omega_c):g} overflows the double range")
    return StabilizerGain(omega_c=float(omega_c), F=F)


def closed_loop(p: Plant, obs: ObserverRealization, fb: StabilizerGain, rs: RegulatorSolution):
    """Drift matrix and disturbance column of the full closed loop.

    State ordering is (plant state, observer state); the control is
    ``u = F x_hat - d_hat``, cancelling the observer's own disturbance
    estimate, and the measurement feeds the observer noise- and ramp-free.
    The spectrum is the union of the stabilized plant, scheduled observer,
    and scheduled exosystem spectra.
    """
    M, U, _, dist_col, _ = _loop(p, obs, fb, rs)
    # assigned, not added: the report prints the -0.0 entries of the outer product
    M[p.n :, : p.n] = U[p.n :, : p.n]
    return M, dist_col


def _loop(p: Plant, obs: ObserverRealization, fb: Optional[StabilizerGain], rs: RegulatorSolution):
    """Layout of the closed loop ``u = F_aug z_obs = F x_hat - d_hat``.

    ``F_aug = [F, -obs.d_hat_row[n:]]``: the control cancels the estimate
    the observer reports, and ``rs`` must be the regulator solution it
    was assembled from (ValueError otherwise).  The state is (plant,
    observer), and without ``fb`` the control is zero.
    Returns ``(M0, U, col_y, col_d, F_aug)``.  The measurement
    ``y = r C x`` at ramp value r enters the drift through the column
    ``col_y = [0, L_y]``, so the drift is ``M0 + r U`` with the rank-one
    coupling ``U = col_y [C, 0]``; ``M0`` has the control folded in and
    ``col_d`` is the disturbance column.
    """
    n = p.n
    if obs.n != n or (fb is not None and fb.F.shape != (n,)) or rs.Q.shape != (obs.v_dim,):
        raise DimensionMismatch("plant, observer, feedback, and regulator sizes disagree")
    Q = obs.d_hat_row[n:]
    if not np.array_equal(rs.Q, Q):
        raise ValueError("regulator solution is not the one the observer was assembled from")
    F_aug = np.zeros(obs.dim) if fb is None else np.concatenate([fb.F, -Q])
    M0 = np.zeros((n + obs.dim, n + obs.dim))
    M0[:n, :n] = p.A
    M0[:n, n:] = np.outer(p.B, F_aug)
    M0[n:, n:] = obs.A_hat + np.outer(obs.B_u, F_aug)
    col_y = np.concatenate([np.zeros(n), obs.L_y])
    U = np.outer(col_y, np.concatenate([p.C, np.zeros(obs.dim)]))
    return M0, U, col_y, np.concatenate([p.B, np.zeros(obs.dim)]), F_aug


def error_system(obs: ObserverRealization, exo: Exosystem):
    """Estimation-error dynamics (A_err, B_err) driven by the residual slope.

    ``A_err`` is a copy of the observer drift; the forcing column is the
    zero eigenvector of G scaled by ``1 / (Q B_d)``, Q the observer's read-out.
    """
    if obs.v_dim != exo.dim:
        raise DimensionMismatch(f"observer carrier of size {obs.v_dim} does not fit exosystem dimension {exo.dim}")
    B_err = np.concatenate([np.zeros(obs.n), exo.B_d]) / float(obs.d_hat_row[obs.n :] @ exo.B_d)
    return obs.A_hat.copy(), B_err
