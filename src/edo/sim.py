"""Fixed-step closed-loop simulation, error metrics, and high-gain probes.

The grid is uniform; the integrator is classic fourth-order Runge-Kutta
(or explicit Euler for fidelity comparisons), and the measurement path
supports an optional soft-start ramp and per-step additive Gaussian noise.
The noise draw is held constant across the stages of a step, reproducing a
per-sample corruption rather than a dt-scaled white-noise model.

The closed loop comes from ``synthesis._loop``, the builder behind
``closed_loop`` too, so the drift the design report prints is the drift
integrated here.  It is linear, its only time variation a scalar ramp on a
rank-one measurement coupling, and its forcing (disturbance, noise) is
known in advance.  Each step is therefore an affine map
``z_{k+1} = Phi_k z_k + g_k``.

Step maps come from a per-run basis.  The drift at ramp value r is
``M0 + r U``, both from ``_loop``, so the RK4 map is a polynomial in the ramp
values at the step's start, midpoint and end, with 12 monomials and
constant coefficient matrices (2 for Euler); ``g`` is also linear in the
step's forcing samples.  The coefficients are built once per run by the
RK4 stage recursion on coefficient stacks, and a block of steps then needs
one matrix product for its ``Phi`` and one for its ``g``.

The maps are run by a reduce-carry-sweep scan (after Blelloch, "Prefix sums
and their applications", CMU-CS-90-190) over blocks of chunks of ``CHUNK``
steps.  A block holds at most ``BLOCK_DOUBLES`` doubles of maps, so its
length depends on the state dimension alone.  Within a block a pairwise
tree reduces each chunk to its total affine map, the chunk start states
are carried from one chunk to the next, and then all chunks step from
their starts in lockstep, one batched matrix-vector product per position.
The divergence guard is checked once per block but reports the exact first
grid point beyond it.  Chunk and block sizes are fixed or derived from the
dimension, so everything is a pure function of its inputs including the
seed, runs are bit-reproducible and safely parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .disturbance import Signal, evaluate
from .errors import ConfigError, DimensionMismatch, EmptyTrajectory, NonFinite
from .plant import Plant
from .synthesis import GainBase, ObserverRealization, RegulatorSolution, StabilizerGain, _loop, _power_schedule

__all__ = [
    "SimConfig",
    "Trajectory",
    "simulate",
    "ErrorMetrics",
    "metrics",
    "high_gain_probe",
    "peaking_counterexample_norm",
]

#: Any state component beyond this magnitude is treated as divergence.
DIVERGENCE_GUARD = 1e12

INTEGRATORS = ("rk4", "euler")

#: Steps per chunk of the integration kernel.  Fixed, not derived from
#: the host, so the order of the arithmetic and every output byte of a
#: run are the same from run to run.
CHUNK = 16

#: Doubles of step maps a block of chunks holds at most: the number of
#: chunks in a block depends only on the state dimension.
BLOCK_DOUBLES = 32768


@dataclass(frozen=True)
class SimConfig:
    """Grid, integrator, and measurement-path settings."""

    t_end: float
    dt: float
    integrator: str = "rk4"
    noise_std: float = 0.0
    seed: int = 0
    output_ramp: bool = False

    def __post_init__(self):
        if not (0.0 < self.dt <= self.t_end):
            raise ValueError("need 0 < dt <= t_end")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if not (-(2**63) <= int(self.seed) < 2**63):
            raise ValueError("seed must fit a 64-bit integer")

    @property
    def steps(self) -> int:
        """``floor(t_end/dt)`` of the decimal values as written, exactly.

        In binary ``0.3 / 0.1`` is 2.9999999999999996; the shortest decimal
        strings of the two doubles divide exactly, at any magnitude.
        """
        return math.floor(Fraction(repr(float(self.t_end))) / Fraction(repr(float(self.dt))))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid record of plant, observer, and signal histories."""

    times: np.ndarray
    x: np.ndarray       # (N+1, n)
    x_hat: np.ndarray   # (N+1, n)
    v_hat: np.ndarray   # (N+1, v_dim)
    d: np.ndarray
    d_hat: np.ndarray
    u: np.ndarray
    y: np.ndarray


def simulate(
    p: Plant,
    obs: ObserverRealization,
    fb: Optional[StabilizerGain],
    rs: RegulatorSolution,
    d: Signal,
    cfg: SimConfig,
    x0,
    obs0,
) -> Trajectory:
    """Integrate plant plus observer (plus optional feedback) on a fixed grid.

    The measurement fed to the observer at each step is
    ``y = ramp(t) * C x + noise_std * xi_k`` with one normal draw per step,
    held across the integrator stages of that step.  Without a feedback
    gain the control is identically zero (observer-only run).  A grid too
    large to allocate raises ``ConfigError``; a state beyond
    ``DIVERGENCE_GUARD`` (or not finite) raises ``NonFinite`` naming the
    first such grid time.
    """
    n = p.n
    M0, U, col_y, col_d, F_aug = _loop(p, obs, fb, rs)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    z_obs0 = np.asarray(obs0, dtype=float).reshape(-1)
    if x0.shape != (n,) or z_obs0.shape != (obs.dim,):
        raise DimensionMismatch("initial states do not match plant/observer dimensions")

    N = cfg.steps
    dt = cfg.dt
    dim = M0.shape[0]
    try:
        # the final block is padded to whole chunks: the samples and rows
        # past the run are computed and cut off below
        Z = np.empty((N + CHUNK, dim))
        half_times = np.arange(2 * (N + CHUNK) - 1) * (dt / 2.0)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"sim: a grid of {N} steps cannot be allocated ({exc})") from None
    times = half_times[: 2 * N + 1 : 2]

    d_half = np.asarray(evaluate(d, half_times), dtype=float)
    if cfg.output_ramp:
        ramp_half = 1.0 - np.exp(-half_times)
    else:
        ramp_half = np.ones(len(half_times))
    noise = np.zeros(N + CHUNK)
    if cfg.noise_std > 0.0:
        noise[: N + 1] = cfg.noise_std * np.random.default_rng(cfg.seed).standard_normal(N + 1)

    Z[0] = np.concatenate([x0, z_obs0])
    rk4 = cfg.integrator == "rk4"
    block = _block_steps(dim)
    # a diverging block may overflow past its first bad row; the guard
    # below reports that row, so the overflow itself is not an error
    with np.errstate(over="ignore", invalid="ignore"):
        K, Kg = _basis(M0, U, col_y, col_d, dt, rk4)
        for k0 in range(0, N, block):
            k1 = min(k0 + block, N)
            L = -(-(k1 - k0) // CHUNK) * CHUNK  # whole chunks
            j = slice(2 * k0, 2 * (k0 + L) + 1)
            Phi, g = _step_maps(K, Kg, ramp_half[j], d_half[j], noise[k0 : k0 + L], rk4)
            _scan(Phi, g, Z[k0 : k0 + L + 1])
            rows = np.abs(Z[k0 : k1 + 1])
            # written so that a NaN state trips the guard too
            if not rows.max() <= DIVERGENCE_GUARD:
                k = k0 + int((~(rows.max(axis=1) <= DIVERGENCE_GUARD)).argmax())
                raise NonFinite(f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} at t={times[k]:.6g}")

    Z = Z[: N + 1]
    x = Z[:, :n]
    x_hat = Z[:, n : 2 * n]
    v_hat = Z[:, 2 * n :]
    return Trajectory(
        times=times,
        x=x,
        x_hat=x_hat,
        v_hat=v_hat,
        d=d_half[: 2 * N + 1 : 2],
        d_hat=Z[:, n:] @ obs.d_hat_row,
        u=Z[:, n:] @ F_aug,
        y=ramp_half[: 2 * N + 1 : 2] * (x @ p.C) + noise[: N + 1],
    )


def _block_steps(dim):
    """Steps per block: whole chunks whose maps hold at most ``BLOCK_DOUBLES``
    doubles, and at least one chunk."""
    return max(1, BLOCK_DOUBLES // (CHUNK * dim * dim)) * CHUNK


def _basis(M0, U, col_y, col_d, dt, rk4):
    """Coefficients of the step map ``z -> Phi z + g`` of one step.

    The drift at ramp value r is ``M0 + r U``, U of rank one, as
    ``synthesis._loop`` gives it, so ``Phi`` is a polynomial in the ramp values
    ``(r0, rm, r1)`` at the step's start, midpoint and end, and ``g`` is
    also linear in the forcing ``(nu, d0, dm, d1)``: the noise draw, held
    across the stages, and the disturbance at the three points.  Returns
    ``(K, Kg)`` with ``Phi = I + sum_i w_i K_i`` and ``g = sum_i wg_i Kg_i``
    for the weights of ``_step_maps``.  RK4 runs its stage recursion on
    stacks ``[c, b, a]`` of the coefficients of ``r1^c rm^b r0^a``; a
    product with the drift at a ramp value shifts that value's axis.
    """
    dim = M0.shape[0]
    if not rk4:
        return dt * np.stack([M0, U]).reshape(2, -1), dt * np.stack([col_y, col_d])

    def drift_times(X, axis):
        Y = M0 @ X
        Y[(slice(None),) * axis + (slice(1, None),)] += (U @ X)[(slice(None),) * axis + (slice(None, -1),)]
        return Y

    h = 0.5 * dt
    # monomials: index a + 2b + 6c of r0^a rm^b r1^c
    A0, Am, A1 = np.zeros((3, 2, 3, 2, dim, dim))
    A0[0, 0, 0] = Am[0, 0, 0] = A1[0, 0, 0] = M0
    A0[0, 0, 1] = Am[0, 1, 0] = A1[1, 0, 0] = U
    P2 = Am + h * drift_times(A0, 1)
    P3 = Am + h * drift_times(P2, 1)
    P4 = A1 + dt * drift_times(P3, 0)
    K = (dt / 6.0) * (A0 + 2.0 * (P2 + P3) + P4)
    # forcing f in (nu, d0, dm, d1) times the monomials free of r0:
    # index 4 (3c + b) + f, stacks [c, b, f] of column vectors
    B0, Bm, B1 = np.zeros((3, 2, 3, 4, dim, 1))
    B0[0, 0, 0] = Bm[0, 0, 0] = B1[0, 0, 0] = col_y[:, None]
    B0[0, 0, 1] = Bm[0, 0, 2] = B1[0, 0, 3] = col_d[:, None]
    C2 = Bm + h * drift_times(B0, 1)
    C3 = Bm + h * drift_times(C2, 1)
    C4 = B1 + dt * drift_times(C3, 0)
    Kg = (dt / 6.0) * (B0 + 2.0 * (C2 + C3) + C4)
    return K.reshape(12, -1), Kg.reshape(24, dim)


def _step_maps(K, Kg, ramp, d, noise, rk4):
    """Step maps ``(Phi, g)`` of a block of whole chunks, indexed
    ``[position in chunk, chunk]``; ``ramp`` and ``d`` hold the block's
    half-grid samples, ``noise`` one draw per step.  The weights of the
    basis of ``_basis`` are the monomials ``w`` in the ramp values and, for
    ``g``, the forcing times the monomials free of ``r0``."""
    nc = len(noise) // CHUNK
    dim = Kg.shape[1]

    def by_position(x):
        return x.reshape(nc, CHUNK).T

    r0, rm, r1 = (by_position(ramp[i : len(ramp) - 2 + i : 2]) for i in range(3))
    f = np.stack([by_position(noise)] + [by_position(d[i : len(d) - 2 + i : 2]) for i in range(3)], axis=-1)
    if rk4:
        w = np.empty((CHUNK, nc, 12))
        w[..., 0] = 1.0
        w[..., 2] = rm
        w[..., 4] = rm * rm
        w[..., 1:6:2] = w[..., 0:6:2] * r0[..., None]
        w[..., 6:] = w[..., :6] * r1[..., None]
        wg = w[..., 0::2, None] * f[..., None, :]
    else:
        w = np.stack([np.ones_like(r0), r0], axis=-1)
        wg = f[..., :2]
    Phi = w.reshape(nc * CHUNK, -1) @ K
    # the identity comes last, as in the stage formula: summed in with
    # the basis it would round Phi - I at the scale of I once per term
    Phi[:, :: dim + 1] += 1.0
    g = wg.reshape(nc * CHUNK, -1) @ Kg
    return Phi.reshape(CHUNK, nc, dim, dim), g.reshape(CHUNK, nc, dim)


def _matvec(P, v):
    return (P @ v[..., None])[..., 0]


def _scan(Phi, g, Zb):
    """Run the step maps of a block from ``Zb[0]``: ``Zb[1 + c * CHUNK + j]``
    becomes the state after the step of ``Phi[j, c]``, ``g[j, c]``.

    Reduce: each chunk's total affine map, by a pairwise tree.  Carry: the
    chunk start states, one matvec per chunk.  Sweep: all chunks step in
    lockstep from their starts, one batched matvec per position.  A chunk
    total that overflows can make a carried start non-finite even where
    the states are not (inf * 0 on a zero state); from the first such
    chunk the sweep goes one chunk at a time, from the state swept before.
    """
    nc = Phi.shape[1]
    dim = Zb.shape[1]
    S = Zb[:-1].reshape(nc, CHUNK, dim)  # S[c, 0]: the start of chunk c
    T = Zb[1:].reshape(nc, CHUNK, dim)  # T[c, j]: the state after its step j
    P, q = Phi, g
    while len(P) > 1:
        q = _matvec(P[1::2], q[0::2]) + q[1::2]
        P = P[1::2] @ P[0::2]
    P, q = P[0], q[0]
    for c in range(nc - 1):
        S[c + 1, 0] = P[c] @ S[c, 0] + q[c]
    finite = np.isfinite(S[:, 0]).all(axis=1)
    first_bad = nc if finite.all() else int(finite.argmin())
    for chunks in [slice(0, first_bad)] + [slice(c, c + 1) for c in range(first_bad, nc)]:
        z = S[chunks, 0]
        for j in range(CHUNK):
            z = _matvec(Phi[j, chunks], z)
            z += g[j, chunks]
            T[chunks, j] = z


@dataclass(frozen=True)
class ErrorMetrics:
    """Tail-window error maxima and the full-horizon transient peak."""

    tail_window: tuple
    tail_max_state_err: float
    tail_max_dist_err: float
    peak_abs: float


def metrics(tr: Trajectory, tail_fraction: float) -> ErrorMetrics:
    """Summarize a trajectory over the trailing fraction of the horizon.

    The disturbance error is scored against ``tr.d``, the signal of the run.
    ``peak_abs`` is taken over every plant and observer component on the
    whole horizon, which is what the soft-start ramp is meant to tame.
    """
    if tr.times.size == 0:
        raise EmptyTrajectory("trajectory has no records")
    if not (0.0 < tail_fraction < 1.0):
        raise ValueError("tail_fraction must lie in (0, 1)")
    t_end = float(tr.times[-1])
    t_lo = t_end * (1.0 - tail_fraction)
    window = tr.times >= t_lo - 1e-12 * max(1.0, t_end)
    dist_err = np.abs(tr.d - tr.d_hat)
    state_err = np.linalg.norm(tr.x - tr.x_hat, axis=1)
    peak = max(np.abs(tr.x).max(), np.abs(tr.x_hat).max(), np.abs(tr.v_hat).max())
    return ErrorMetrics(
        tail_window=(t_lo, t_end),
        tail_max_state_err=float(state_err[window].max()),
        tail_max_dist_err=float(dist_err[window].max()),
        peak_abs=float(peak),
    )


def high_gain_probe(base: GainBase, p: Plant, omegas, t_grid):
    """Empirical decay constants of the scheduled injection family.

    For each bandwidth the probe forms ``A_w = A + K_w C`` and reports
    ``max over the grid of ||exp(A_w t) B|| exp(w t)``: bounded growth of
    the table across bandwidths is the numerical signature that high gain
    absorbs a bounded unknown input.
    """
    omegas = [float(w) for w in omegas]
    if any(w <= 0.0 for w in omegas):
        raise ValueError("bandwidths must be positive")
    if len(base.k) != p.n:
        raise DimensionMismatch(f"base length {len(base.k)} does not match plant order {p.n}")
    t_grid = np.asarray(t_grid, dtype=float)
    table = []
    for w in omegas:
        A_w = p.A + np.outer(_power_schedule(base.k, w, p.a), p.C)
        # exp(w t) commutes into the exponential, avoiding tiny*huge overflow
        shifted = A_w + w * np.eye(p.n)
        vals = [np.linalg.norm(linalg.expm(shifted * t) @ p.B) for t in t_grid]
        table.append((w, float(max(vals))))
    return table


def peaking_counterexample_norm(omega: float) -> float:
    """Norm of ``exp(A_w / w) B`` for the family where high gain fails.

    The family is ``A_w = [[0, 1], [-w^2, -2w]]`` with ``B = (1, 1)``; the
    norm grows without bound as the bandwidth increases even though every
    member is Hurwitz and controllable.
    """
    w = float(omega)
    if w <= 0.0:
        raise ValueError("omega must be positive")
    A_w = np.array([[0.0, 1.0], [-w * w, -2.0 * w]])
    B = np.array([1.0, 1.0])
    return float(np.linalg.norm(linalg.expm(A_w / w) @ B))
