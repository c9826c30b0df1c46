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
``z_{k+1} = Phi_k z_k + g_k``.  The kernel works in chunks of ``CHUNK``
steps: it builds the chunk's maps in batch from the drift at the half-grid
points, then composes them by a doubling prefix scan (Hillis-Steele; see
Blelloch, "Prefix sums and their applications", CMU-CS-90-190).  The
divergence guard is checked once per chunk but reports the exact first
grid point beyond it.  The chunk size is a constant, so everything is a
pure function of its inputs including the seed, runs are bit-reproducible
and safely parallel.
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
CHUNK = 64


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
    M0, col_y, meas_idx, col_d, F_aug = _loop(p, obs, fb, rs)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    z_obs0 = np.asarray(obs0, dtype=float).reshape(-1)
    if x0.shape != (n,) or z_obs0.shape != (obs.dim,):
        raise DimensionMismatch("initial states do not match plant/observer dimensions")

    N = cfg.steps
    dt = cfg.dt
    dim = M0.shape[0]
    try:
        Z = np.empty((N + 1, dim))
        half_times = np.arange(2 * N + 1) * (dt / 2.0)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"sim: a grid of {N} steps cannot be allocated ({exc})") from None
    times = half_times[::2]
    # the ramp makes the measurement coupling time varying, so it is kept
    # apart from M0
    U = np.zeros((dim, dim))
    U[:, meas_idx] = col_y

    d_half = np.asarray(evaluate(d, half_times), dtype=float)
    if cfg.output_ramp:
        ramp_half = 1.0 - np.exp(-half_times)
    else:
        ramp_half = np.ones(2 * N + 1)
    if cfg.noise_std > 0.0:
        noise = cfg.noise_std * np.random.default_rng(cfg.seed).standard_normal(N + 1)
    else:
        noise = np.zeros(N + 1)

    Z[0] = np.concatenate([x0, z_obs0])
    rk4 = cfg.integrator == "rk4"
    # a diverging chunk may overflow past its first bad row; the guard
    # below reports that row, so the overflow itself is not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, N, CHUNK):
            k1 = min(k0 + CHUNK, N)
            j = slice(2 * k0, 2 * k1 + 1)
            A = ramp_half[j, None, None] * U
            A += M0
            Phi, g = _step_maps(A, noise[k0:k1, None] * col_y, d_half[j, None] * col_d, dt, rk4)
            _compose(Phi, g, Z[k0], Z[k0 + 1 : k1 + 1])
            # written so that a NaN state trips the guard too
            bad = ~(np.abs(Z[k0 : k1 + 1]).max(axis=1) <= DIVERGENCE_GUARD)
            if bad.any():
                k = k0 + int(bad.argmax())
                raise NonFinite(f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} at t={times[k]:.6g}")

    x = Z[:, :n]
    x_hat = Z[:, n : 2 * n]
    v_hat = Z[:, 2 * n :]
    return Trajectory(
        times=times,
        x=x,
        x_hat=x_hat,
        v_hat=v_hat,
        d=d_half[::2],
        d_hat=Z[:, n:] @ obs.d_hat_row,
        u=Z[:, n:] @ F_aug,
        y=ramp_half[::2] * Z[:, meas_idx] + noise,
    )


def _step_maps(A, b_nu, b_d, dt, rk4):
    """Affine maps ``z_{k+1} = Phi_k z_k + g_k`` of a chunk of L steps.

    ``A`` holds the drift at the chunk's 2L+1 half-grid points, ``b_d`` the
    disturbance forcing there, and ``b_nu`` the noise forcing of each step,
    held across its stages.  RK4 composes its four stages in closed form:
    stage i is ``P_i z + c_i`` with ``P_i``, ``c_i`` built from the previous
    stage.
    """
    A0, Am, A1 = A[0:-1:2], A[1::2], A[2::2]
    b0 = b_nu + b_d[0:-1:2]
    if not rk4:
        Phi = dt * A0
        Phi += np.eye(A.shape[1])
        return Phi, dt * b0
    bm = b_nu + b_d[1::2]
    b1 = b_nu + b_d[2::2]
    h = 0.5 * dt
    P2 = Am @ A0
    P2 *= h
    P2 += Am
    P3 = Am @ P2
    P3 *= h
    P3 += Am
    P4 = A1 @ P3
    P4 *= dt
    P4 += A1
    c2 = bm + h * _matvec(Am, b0)
    c3 = bm + h * _matvec(Am, c2)
    c4 = b1 + dt * _matvec(A1, c3)
    # Phi = I + dt/6 (P1 + 2 P2 + 2 P3 + P4), likewise g from the c_i
    P2 += P3
    P2 *= 2.0
    P2 += A0
    P2 += P4
    P2 *= dt / 6.0
    P2 += np.eye(A.shape[1])
    return P2, (dt / 6.0) * (b0 + 2.0 * (c2 + c3) + c4)


def _matvec(P, v):
    return (P @ v[:, :, None])[:, :, 0]


def _compose(Phi, g, z0, out):
    """Write ``out[i] = z_{i+1}`` for the step maps ``(Phi, g)`` from ``z0``.

    Hillis-Steele doubling: after the pass with shift ``s`` each pair maps
    the state ``2s`` steps back to the state after its own step, and ``g``
    already holds the states whose window reaches ``z0``.  ``Phi`` and
    ``g`` are overwritten.
    """
    L = len(g)
    g[0] += Phi[0] @ z0
    s = 1
    while s < L:
        g[s:] += _matvec(Phi[s:], g[:-s])
        if 2 * s < L:
            Phi[s:] = Phi[s:] @ Phi[:-s]
        s *= 2
    out[:] = g


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
