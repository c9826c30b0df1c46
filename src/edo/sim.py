"""Fixed-step closed-loop simulation, error metrics, and high-gain probes.

The grid is uniform; the integrator is classic fourth-order Runge-Kutta
(or explicit Euler for fidelity comparisons), and the measurement path
supports an optional soft-start ramp and per-step additive Gaussian noise.
The noise draw is held constant across the stages of a step, reproducing a
per-sample corruption rather than a dt-scaled white-noise model.

The closed loop comes from ``synthesis._loop``, the builder behind
``closed_loop`` too, so the drift the design report prints is the drift
integrated here: ``M0 + r U`` at ramp value r, U a rank-one measurement
coupling, with its forcing (disturbance, noise) known in advance.  Each
step is therefore an affine map ``z_{k+1} = Phi_k z_k + g_k``, in
homogeneous coordinates ``(z, 1)`` the matrix ``[[Phi_k, g_k], [0, 1]]``,
and a run of steps is a product of them.  A step's map is a polynomial in
the ramp values at its start, midpoint and end and linear in its forcing
samples; ``_basis`` builds the nonzero coefficient matrices once per run by
one pass of the RK4 stage recursion (13 of 24 for RK4 on a second-order
plant, 4 for Euler), and a block's maps are one matrix product with them.
A block is run by a work-efficient scan (Blelloch, "Prefix sums and their
applications", CMU-CS-90-190; Kogge and Stone, IEEE Trans. Computers C-22,
1973): the up-sweep pairs adjacent maps level by level up to the block's
total map, and the down-sweep fills in the states from the coarsest stride
down, one batched product per level.

The run is split once, at the first step after the last ramp sample that
is not 1.0: the first step with ``output_ramp`` off, and with it on a step
near t = 37.43, beyond which ``1 - exp(-t)`` rounds to 1.0.  From there
every step has the same Phi, summed from the basis, so those blocks carry
only their forcing and the powers of Phi, O(L dim^2) work against
O(L dim^3).  A block holds at most ``BLOCK_DOUBLES`` doubles of maps, or of
states after the split, so its length depends on the state dimension
alone.  A long product of unstable maps, or a high power of Phi, can
overflow where the states do not (inf * 0 on a zero state), so a block
whose first row beyond the guard is not finite is stepped again one step
at a time before the guard, checked once per block, reports the exact
first grid point beyond it.  Runs are pure functions of their inputs, seed
included, so they are bit-reproducible and safely parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .disturbance import Signal, evaluate
from .errors import ConfigError, DimensionMismatch, EmptyTrajectory, NonFinite, Overflow
from .plant import Plant
from .synthesis import GainBase, ObserverRealization, RegulatorSolution, StabilizerGain
from .synthesis import _bandwidth, _loop, _power_schedule

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

#: Doubles of step maps a block holds at most.  Fixed, not derived from the
#: host: a block's length, and so the order of the arithmetic and every
#: output byte of a run, depend only on the state dimension.
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
        # the largest double, not inf, so that an int beyond it is refused too
        if not (0.0 < self.dt <= self.t_end <= sys.float_info.max):
            raise ValueError("need 0 < dt <= t_end < inf")
        if not 0.0 <= self.noise_std <= sys.float_info.max:
            raise ValueError("noise_std must be nonnegative and finite")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        try:
            seed = int(self.seed)
        except (TypeError, ValueError, OverflowError):  # None, NaN, inf
            seed = None
        if seed != self.seed:
            raise ValueError("seed must be an integer")
        if not -(2**63) <= seed < 2**63:
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
        Z = np.ones((N + 1, dim + 1))  # the states in homogeneous coordinates
        half_times = np.arange(2 * N + 1) * (dt / 2.0)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"sim: a grid of {N} steps cannot be allocated ({exc})") from None
    times = half_times[::2]

    d_half = np.asarray(evaluate(d, half_times), dtype=float)
    ramp_half = 1.0 - np.exp(-half_times) if cfg.output_ramp else np.ones(len(half_times))
    noise = np.zeros(N + 1)
    if cfg.noise_std > 0.0:
        # the residue keeps every nonnegative seed's stream and runs the negative ones
        noise = cfg.noise_std * np.random.default_rng(int(cfg.seed) % 2**64).standard_normal(N + 1)

    Z[0, :dim] = np.concatenate([x0, z_obs0])
    # K: the first step after the last ramp sample that is not 1.0; from it on, one Phi
    K = min(N, np.flatnonzero(ramp_half != 1.0)[-1] // 2 + 1) if cfg.output_ramp else 0
    # a diverging block may overflow past its first bad row; the guard
    # below reports that row, so the overflow itself is not an error
    with np.errstate(over="ignore", invalid="ignore"):
        basis = _basis(M0, U, col_y, col_d, dt, cfg.integrator == "rk4")
        # at ramp 1.0 Phi sums _step_maps' terms with s <= 1, G4[s - 2] the forcing of those with s
        sums = np.tensordot(np.arange(1, 6)[:, None] == np.maximum(basis[0][2], 1), basis[1], 1)
        Phi, G4 = sums[0, :dim, :dim] + np.eye(dim), sums[1:, :dim, dim]
        block, const_block = _block_steps(dim), _block_steps(dim, constant=True)
        blocks = [(k0, min(k0 + block, K)) for k0 in range(0, K, block)]
        blocks += [(k0, min(k0 + const_block, N)) for k0 in range(K, N, const_block)]
        for k0, k1 in blocks:
            j, rows = slice(2 * k0, 2 * k1 + 1), Z[k0 : k1 + 1]
            if k0 < K:
                maps = (basis, ramp_half[j], d_half[j], noise[k0:k1])
                _scan(_step_maps(*maps), rows)
            else:
                f = np.stack([noise[k0:k1], d_half[j][0:-2:2], d_half[j][1:-1:2], d_half[j][2::2]], axis=1)
                _scan_constant(Phi, f @ G4, rows[:, :dim])
            bad = _first_bad(rows)
            if bad is not None and not np.isfinite(rows[bad]).all():
                # overflowed in a long product or a power of Phi: step the block from its start
                if k0 < K:
                    for k, A in enumerate(_step_maps(*maps)):
                        rows[k + 1] = A @ rows[k]
                else:
                    for k, g in enumerate(f @ G4):
                        rows[k + 1, :dim] = Phi @ rows[k, :dim] + g
                bad = _first_bad(rows)
            if bad is not None:
                raise NonFinite(f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} at t={times[k0 + bad]:.6g}")

    x, z_obs = Z[:, :n], Z[:, n:dim]
    return Trajectory(
        times=times, x=x, x_hat=Z[:, n : 2 * n], v_hat=Z[:, 2 * n : dim], d=d_half[::2],
        d_hat=z_obs @ obs.d_hat_row, u=z_obs @ F_aug, y=ramp_half[::2] * (x @ p.C) + noise,
    )


def _block_steps(dim, constant=False):
    """Steps per block: as many as hold at most ``BLOCK_DOUBLES`` doubles of maps
    in homogeneous coordinates, or of states if ``constant``, and at least one."""
    return max(1, BLOCK_DOUBLES // (dim if constant else (dim + 1) ** 2))


def _first_bad(rows):
    """Index of the first row beyond ``DIVERGENCE_GUARD`` or not finite, or None."""
    rows = np.abs(rows)
    # written so that a NaN state trips the guard too
    if rows.max() <= DIVERGENCE_GUARD:
        return None
    return int((~(rows.max(axis=1) <= DIVERGENCE_GUARD)).argmax())


def _basis(M0, U, col_y, col_d, dt, rk4):
    """Nonzero coefficients of the step map ``[[Phi, g], [0, 1]]`` of one step.

    The drift at ramp value r is ``M0 + r U``, U of rank one and ``U^2 = 0``,
    as ``synthesis._loop`` gives it, and the forcing is ``nu col_y + d col_d``:
    the noise draw, held across the stages, and the disturbance.  In
    homogeneous coordinates the forcing is the drift's last column, so the
    step map is ``I + sum r1^c rm^b u_s H[c, b, s]``, ``u = (1, r0, nu, d0,
    dm, d1)``, ``(r0, rm, r1)`` the ramp values at the step's start, midpoint
    and end, and ``b <= 1`` since ``U^2 = 0``.  RK4 runs its stage recursion
    once on stacks ``(2, 2, 6, ...)`` of such coefficients; a product with the
    drift at a ramp value shifts that value's axis.  Euler's stack is ``dt``
    times the drift at the step's start.  Returns the exponents ``(c, b, s)``
    of the nonzero matrices of ``H``, in the stack's order, and those.
    """
    dim = M0.shape[0]
    # the drift at the step's start, midpoint and end: M0 and col_y at 1 and
    # nu, U at that point's ramp value and col_d at its disturbance sample
    X0, Xm, X1 = np.zeros((3, 2, 2, 6, dim + 1, dim + 1))
    for X, r, d in ((X0, (0, 0, 1), 3), (Xm, (0, 1, 0), 4), (X1, (1, 0, 0), 5)):
        X[0, 0, 0, :dim, :dim] = M0
        X[r][:dim, :dim] = U
        X[0, 0, 2, :dim, dim] = col_y
        X[0, 0, d, :dim, dim] = col_d
    H = dt * X0
    if rk4:
        M0h, Uh = X1[0, 0, 0], X1[1, 0, 0]

        def drift_times(X, axis):
            Y = M0h @ X
            Y[(slice(None),) * axis + (1,)] += (Uh @ X)[(slice(None),) * axis + (0,)]
            return Y

        h = 0.5 * dt
        P2 = Xm + h * drift_times(X0, 1)
        P3 = Xm + h * drift_times(P2, 1)
        P4 = X1 + dt * drift_times(P3, 0)
        H = (dt / 6.0) * (X0 + 2.0 * (P2 + P3) + P4)
    terms = np.nonzero(H.any(axis=(-2, -1)))
    return terms, H[terms]


def _step_maps(basis, ramp, d, noise):
    """Step maps ``[[Phi, g], [0, 1]]`` of a block, in step order, from the
    ``basis`` of ``_basis``; ``ramp`` and ``d`` hold the block's half-grid
    samples, ``noise`` one draw per step.  Term ``(c, b, s)`` is weighted by
    ``(r1^c rm^b) u_s``, read from the powers ``(1, r1)``, ``(1, rm)`` and
    ``u``, and the weighted terms are summed by one matrix product."""
    (c, b, s), H = basis
    size, one = H.shape[-1], np.ones(len(noise))
    r0, rm, r1 = ramp[0:-2:2], ramp[1:-1:2], ramp[2::2]
    u = np.stack([one, r0, noise, d[0:-2:2], d[1:-1:2], d[2::2]])
    W = (np.stack([one, r1])[c] * np.stack([one, rm])[b]) * u[s]
    A = W.T @ H.reshape(len(H), -1)
    # the identity comes last, as in the stage formula: summed in with
    # the basis it would round Phi - I at the scale of I once per term
    A[:, :: size + 1] += 1.0
    return A.reshape(-1, size, size)


def _scan(A, Zb):
    """Run the step maps of a block from ``Zb[0]``: ``Zb[k + 1] = A[k] Zb[k]``.

    Up-sweep, in place: at strides s = 1, 2, 4, ... the map that ends at
    each multiple of 2s takes in the map of the s steps before it, so that
    ``A[k]`` ends as the map from state ``k + 1 - s`` to ``k + 1``, s the
    largest power of two dividing ``k + 1``.  Down-sweep: from the largest
    such s down to 1, the states at the odd multiples of s follow from the
    states s steps before them, one batched matrix-vector product per stride.
    """
    L = len(A)
    s = 1
    while 2 * s <= L:
        end = L - L % (2 * s)
        A[2 * s - 1 : end : 2 * s] = A[2 * s - 1 : end : 2 * s] @ A[s - 1 : end : 2 * s]
        s *= 2
    while s:
        Zb[s :: 2 * s] = (A[s - 1 :: 2 * s] @ Zb[: L + 1 - s : 2 * s, :, None])[..., 0]
        s //= 2


def _scan_constant(Phi, g, z):
    """``_scan`` of steps ``z[k + 1] = Phi z[k] + g[k]`` that share ``Phi``, the
    states as rows: the map of s steps is ``Phi^s`` and a forcing, so the sweeps
    carry only the forcing and one power of Phi per level, O(L dim^2) work."""
    L, powers, s = len(g), [Phi.T], 1
    while 2 * s <= L:
        end = L - L % (2 * s)
        g[2 * s - 1 : end : 2 * s] += g[s - 1 : end : 2 * s] @ powers[-1]
        powers.append(powers[-1] @ powers[-1])
        s *= 2
    while s:
        z[s :: 2 * s] = z[: L + 1 - s : 2 * s] @ powers.pop() + g[s - 1 :: 2 * s]
        s //= 2


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
    if np.ndim(t_grid) != 1 or not np.size(t_grid) or not all(map(math.isfinite, map(linalg.as_float, t_grid))):
        raise ValueError("t_grid must be a nonempty 1-D sequence of finite times")
    t_grid = np.asarray(t_grid, dtype=float)
    table = []
    for w in map(_bandwidth, omegas):
        # exp(w t) commutes into the exponential of A_w = A + K_w C, avoiding tiny*huge overflow
        shifted = p.A + np.outer(_power_schedule(base.k, w, p.a), p.C) + w * np.eye(p.n)
        E = linalg.expm(shifted * t_grid[:, None, None])
        table.append((w, float(max(np.linalg.norm(e @ p.B) for e in E))))
    return table


def peaking_counterexample_norm(omega: float) -> float:
    """Norm of ``exp(A_w / w) B`` for the family where high gain fails.

    The family is ``A_w = [[0, 1], [-w^2, -2w]]`` with ``B = (1, 1)``; the
    norm grows without bound as the bandwidth increases even though every
    member is Hurwitz and controllable.  ``A_w / w`` has the double eigenvalue
    -1, so ``exp(A_w / w) = e^-1 (2 I + A_w / w)`` by Cayley-Hamilton.
    """
    w = _bandwidth(omega)
    norm = math.exp(-1.0) * math.hypot(2.0 + 1.0 / w, w)
    if norm == math.inf:  # 1/w beyond the double range
        raise Overflow(f"counterexample at bandwidth {w:g} overflows the double range")
    return norm
