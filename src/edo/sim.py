"""Fixed-step closed-loop simulation, error metrics, and high-gain probes.

The integrator is deliberately plain: a uniform grid, classic fourth-order
Runge-Kutta (or explicit Euler for fidelity comparisons), and a
measurement path that supports an optional soft-start ramp and per-step
additive Gaussian noise.  The noise draw is held constant across the
stages of a step, reproducing a per-sample corruption rather than a
dt-scaled white-noise model.  Everything is a pure function of its inputs
including the seed, so runs are bit-reproducible and safely parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .disturbance import Signal, evaluate
from .errors import DimensionMismatch, EmptyTrajectory, NonFinite
from .plant import Plant
from .synthesis import GainBase, ObserverRealization, RegulatorSolution, StabilizerGain, _drift, _power_schedule

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
        # grid count is intended as an exact division; absorb float fuzz
        ratio = self.t_end / self.dt
        return int(np.floor(ratio + 1e-9 * max(1.0, ratio)))


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
    gain the control is identically zero (observer-only run).
    """
    n = p.n
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    z_obs0 = np.asarray(obs0, dtype=float).reshape(-1)
    if obs.n != n or x0.shape != (n,) or z_obs0.shape != (obs.dim,):
        raise DimensionMismatch("initial states do not match plant/observer dimensions")
    if fb is not None and fb.F.shape != (n,):
        raise DimensionMismatch("feedback gain does not match plant order")
    if rs.Q.shape != (obs.v_dim,):
        raise DimensionMismatch("regulator row does not match observer carrier dimension")

    N = cfg.steps
    dt = cfg.dt

    # drift with control folded in; measurement coupling kept separate
    # because the ramp makes it time varying
    if fb is not None:
        F_aug = np.concatenate([fb.F, -rs.Q])
    else:
        F_aug = np.zeros(obs.dim)
    M0, col_d = _drift(p, obs, F_aug)
    col_y = np.concatenate([np.zeros(n), obs.L_y])

    half_times = np.arange(2 * N + 1) * (dt / 2.0)
    times = half_times[::2]
    d_half = np.asarray(evaluate(d, half_times), dtype=float)
    if cfg.output_ramp:
        ramp_half = 1.0 - np.exp(-half_times)
    else:
        ramp_half = np.ones(2 * N + 1)
    if cfg.noise_std > 0.0:
        noise = cfg.noise_std * np.random.default_rng(cfg.seed).standard_normal(N + 1)
    else:
        noise = np.zeros(N + 1)

    meas_idx = n - 1  # C picks the last plant state

    def field(z, j, nu):
        # closed-loop vector field at half-grid index j
        f = M0 @ z
        f += (ramp_half[j] * z[meas_idx] + nu) * col_y
        f += d_half[j] * col_d
        return f

    Z = np.empty((N + 1, n + obs.dim))
    z = np.concatenate([x0, z_obs0])
    rk4 = cfg.integrator == "rk4"
    for k in range(N + 1):
        # written so that a NaN state trips the guard too
        if not (np.abs(z).max() <= DIVERGENCE_GUARD):
            raise NonFinite(f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} at t={times[k]:.6g}")
        Z[k] = z
        if k == N:
            break
        j = 2 * k
        nu = noise[k]
        f1 = field(z, j, nu)
        if rk4:
            f2 = field(z + (0.5 * dt) * f1, j + 1, nu)
            f3 = field(z + (0.5 * dt) * f2, j + 1, nu)
            f4 = field(z + dt * f3, j + 2, nu)
            z = z + (dt / 6.0) * (f1 + 2.0 * (f2 + f3) + f4)
        else:
            z = z + dt * f1

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
