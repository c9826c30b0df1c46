import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import carrier_initial_state, steady_dist_err_amplitude
from edo import (
    Constant,
    GainBase,
    GeneralPlant,
    Harmonic,
    SimConfig,
    Sum,
    canonical_plant,
    exosystem_from_spectrum,
    high_gain_probe,
    metrics,
    schedule_gains,
    simulate,
    solve_regulator,
    stabilizer_gain,
)
from edo import linalg
from edo.errors import DimensionMismatch, EmptyTrajectory, NonFinite
from edo.sim import _basis, _block_steps, _step_maps, peaking_counterexample_norm
from edo.synthesis import (
    RegulatorSolution,
    StabilizerGain,
    _loop,
    assemble_edo,
    assemble_known_dynamics_observer,
    error_system,
)
from edo.linalg import eigenvalues


def make_design(a, spectrum, p_base, omega_o, omega_c=None, k_base=(-1.0, -2.0)):
    p = canonical_plant(a)
    exo = exosystem_from_spectrum(spectrum)
    base = GainBase(k=k_base, p=p_base)
    sg = schedule_gains(p, exo, base, omega_o)
    rs = solve_regulator(p, exo, sg)
    obs = assemble_edo(p, exo, sg, rs)
    fb = stabilizer_gain(p, k_base, omega_c if omega_c is not None else omega_o)
    return p, exo, sg, rs, obs, fb


SINE_PLUS_TEN = Sum((Harmonic(1.0, 10.0, 0.0), Constant(10.0)))


class TestSimulateBasics:
    def test_matched_initialization_keeps_estimates_glued(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=2.0, dt=1e-3)
        x0 = np.array([0.3, -0.5])
        tr = simulate(p, obs, fb, rs, Constant(0.0), cfg, x0, np.concatenate([x0, [0.0]]))
        assert np.abs(tr.x - tr.x_hat).max() < 1e-10

    def test_scalar_decay_matches_exponential(self):
        # x' = -x via a = (-1), no input, no feedback
        p = canonical_plant([-1.0])
        exo = exosystem_from_spectrum([])
        sg = schedule_gains(p, exo, GainBase(k=(-1.0,), p=(-1.0,)), 1.0)
        rs = solve_regulator(p, exo, sg)
        obs = assemble_edo(p, exo, sg, rs)
        cfg = SimConfig(t_end=1.0, dt=0.01)
        tr = simulate(p, obs, None, rs, Constant(0.0), cfg, [1.0], np.zeros(2))
        assert tr.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert np.abs(tr.u).max() == 0.0

    def test_grid_count(self):
        assert SimConfig(t_end=10.0, dt=1e-4).steps == 100000
        assert SimConfig(t_end=0.2, dt=1e-3).steps == 200
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        tr = simulate(p, obs, fb, rs, Constant(0.0), SimConfig(t_end=0.2, dt=1e-3), [0.0, 0.0], np.zeros(3))
        assert tr.times.size == 201

    @pytest.mark.parametrize(
        "field, value",
        [("t_end", np.inf), ("t_end", np.nan), ("dt", np.inf), ("dt", np.nan), ("noise_std", np.inf),
         ("noise_std", np.nan), pytest.param("t_end", 10**400, id="t_end-huge_int"),
         pytest.param("noise_std", 10**400, id="noise_std-huge_int")],
    )
    def test_non_finite_settings_refused(self, field, value):
        # noise_std=nan used to run noise-free, and t_end=inf to fail in
        # steps, as an int beyond the double range did in float()
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"t_end": 1.0, "dt": 1e-3, **{field: value}})

    def test_divergence_guard(self):
        # open loop with an unstable plant mode grows past the guard
        p, exo, sg, rs, obs, _ = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=20.0, dt=1e-2)
        with pytest.raises(NonFinite):
            simulate(p, obs, None, rs, Constant(0.0), cfg, [1.0, 0.0], np.zeros(3))

    def test_divergence_guard_catches_nan(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=0.1, dt=1e-3)
        with pytest.raises(NonFinite, match=r"at t=0$"):
            simulate(p, obs, fb, rs, Constant(0.0), cfg, [np.nan, 0.0], np.zeros(3))

    @pytest.mark.parametrize("state", ["x0", "observer0"])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_nan_initial_state_trips_at_zero(self, state, integrator):
        # a first bad row that is not finite sends its block through the
        # step-by-step sweep, which must still report row 0
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        x0, obs0 = np.zeros(2), np.zeros(3)
        {"x0": x0, "observer0": obs0}[state][1] = np.nan
        cfg = SimConfig(t_end=3.0, dt=1e-3, integrator=integrator, output_ramp=True)
        assert cfg.steps > _block_steps(5)
        with pytest.raises(NonFinite, match=r"at t=0$"):
            simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, obs0)

    def test_determinism_bytes(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=0.5, dt=1e-3, noise_std=0.01, seed=42)
        runs = [
            simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, [0.0, 1.0], np.zeros(3))
            for _ in range(2)
        ]
        for field in ("times", "x", "x_hat", "v_hat", "d", "d_hat", "u", "y"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()

    @pytest.mark.parametrize("seed", [7, -1, -(2**63)])
    def test_noise_stream_of_the_seed(self, seed):
        # an open loop from rest: x stays 0 and y is the noise alone, drawn
        # from the seed's residue mod 2^64, so seed 7 keeps its stream
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=0.5, dt=1e-3, noise_std=0.01, seed=seed)
        tr = simulate(p, obs, None, rs, Constant(0.0), cfg, [0.0, 0.0], np.zeros(3))
        want = 0.01 * np.random.default_rng(seed % 2**64).standard_normal(cfg.steps + 1)
        assert tr.y.tobytes() == want.tobytes()

    def test_seed_changes_noise(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        a = simulate(p, obs, fb, rs, SINE_PLUS_TEN, SimConfig(0.5, 1e-3, noise_std=0.01, seed=1), [0.0, 1.0], np.zeros(3))
        b = simulate(p, obs, fb, rs, SINE_PLUS_TEN, SimConfig(0.5, 1e-3, noise_std=0.01, seed=2), [0.0, 1.0], np.zeros(3))
        assert not np.array_equal(a.y, b.y)


class TestMetrics:
    def test_perfect_tracking_gives_zero(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        x0 = np.array([0.1, 0.2])
        v0 = carrier_initial_state(Constant(10.0), exo, rs.Q)
        tr = simulate(p, obs, fb, rs, Constant(10.0), SimConfig(4.0, 1e-3), x0, np.concatenate([x0, v0]))
        m = metrics(tr, 0.2)
        assert m.tail_max_state_err < 1e-9
        assert m.tail_max_dist_err < 1e-9

    def test_unestimated_constant(self):
        # freeze the observer by zeroing its read-out: dhat stays 0
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        tr = simulate(p, obs, fb, rs, Constant(10.0), SimConfig(1.0, 1e-3), [0.0, 0.0], np.zeros(3))
        fake = tr.__class__(
            times=tr.times, x=tr.x, x_hat=tr.x, v_hat=tr.v_hat,
            d=tr.d, d_hat=np.zeros_like(tr.d_hat), u=tr.u, y=tr.y,
        )
        m = metrics(fake, 0.2)
        assert m.tail_max_dist_err == 10.0
        assert m.tail_max_state_err == 0.0

    def test_empty_rejected(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        tr = simulate(p, obs, fb, rs, Constant(0.0), SimConfig(0.01, 0.01), [0.0, 0.0], np.zeros(3))
        empty = tr.__class__(
            times=tr.times[:0], x=tr.x[:0], x_hat=tr.x_hat[:0], v_hat=tr.v_hat[:0],
            d=tr.d[:0], d_hat=tr.d_hat[:0], u=tr.u[:0], y=tr.y[:0],
        )
        with pytest.raises(EmptyTrajectory):
            metrics(empty, 0.2)


class TestSteadyStateAgainstFrequencyOracle:
    """Time-domain tails must match the frequency-domain prediction.

    The unmodeled part of sin(10 t) + 10 under constant-dynamics design
    forces the error system at 10 rad/s with slope amplitude 10; the
    bandwidth sweep documents the measured improvement ratio, which at
    these moderate bandwidths sits near 0.88 (the asymptotic inverse-
    bandwidth regime only emerges for bandwidths well above the
    disturbance frequency).
    """

    def tail_and_oracle(self, omega_o):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), omega_o, omega_c=10.0)
        cfg = SimConfig(t_end=10.0, dt=1e-3, output_ramp=True)
        tr = simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, [0.0, 1.0], np.zeros(3))
        m = metrics(tr, 0.2)
        oracle = steady_dist_err_amplitude(obs, exo, 10.0, 10.0)
        return m.tail_max_dist_err, oracle

    def test_tail_matches_oracle_at_two_bandwidths(self):
        got10, want10 = self.tail_and_oracle(10.0)
        got20, want20 = self.tail_and_oracle(20.0)
        assert got10 == pytest.approx(want10, rel=1e-2)
        assert got20 == pytest.approx(want20, rel=1e-2)
        ratio = got20 / got10
        assert ratio == pytest.approx(want20 / want10, rel=2e-2)


class TestExactModelBehaviour:
    def test_exponential_nulling(self):
        # disturbance inside the modeled class, no noise: both tail errors
        # fall below 1e-6 of the initial estimation error
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        d = Constant(10.0)
        v0 = carrier_initial_state(d, exo, rs.Q)
        x0 = np.array([0.0, 1.0])
        init_err = float(np.linalg.norm(np.concatenate([x0, v0])))
        t_end = 40.0 / sg.omega_o
        tr = simulate(p, obs, fb, rs, d, SimConfig(t_end, 1e-3), x0, np.zeros(3))
        m = metrics(tr, 0.2)
        assert m.tail_max_state_err < 1e-6 * init_err
        assert m.tail_max_dist_err < 1e-6 * init_err

    def test_empirical_decay_rate_matches_design(self):
        # fit the error-norm slope on [2, 3]; expect the designed rate
        # within 20% (the defective triple eigenvalue drags it slightly)
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        d = Constant(10.0)
        v0 = carrier_initial_state(d, exo, rs.Q)
        tr = simulate(p, obs, fb, rs, d, SimConfig(3.0, 1e-3), [0.0, 1.0], np.zeros(3))
        v_true = np.full_like(tr.times, v0[0])
        err = np.sqrt(
            np.sum((tr.x - tr.x_hat) ** 2, axis=1) + (v_true - tr.v_hat[:, 0]) ** 2
        )
        i2, i3 = 2000, 3000
        rate = np.log(err[i2] / err[i3]) / (tr.times[i3] - tr.times[i2])
        design_rate = -eigenvalues(error_system(obs, exo)[0]).real.max()
        assert rate == pytest.approx(design_rate, rel=0.2)

    def test_state_regulated_to_zero_with_exact_model(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [10j, -10j], (-1.0, -3.0, -3.0), 10.0)
        tr = simulate(p, obs, fb, rs, SINE_PLUS_TEN, SimConfig(6.0, 1e-3), [0.0, 1.0], np.zeros(5))
        tail = tr.times >= 4.8
        assert np.abs(tr.x[tail]).max() < 1e-6

    def test_zero_disturbance_full_decay(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        tr = simulate(p, obs, fb, rs, Constant(0.0), SimConfig(10.0, 1e-3), [0.4, -0.7], np.zeros(3))
        final = np.concatenate([tr.x[-1], tr.x_hat[-1], tr.v_hat[-1]])
        assert np.linalg.norm(final) < 1e-6


class TestKnownDynamicsDecay:
    def test_error_decays_exponentially(self):
        # the designed error poles are {-1, -1, -2}; with the shared -1
        # defective the decay carries a t e^{-t} factor, so the error
        # crosses 1e-6 of its initial size near t = 19
        p = canonical_plant([2.0, 1.0])
        gp = GeneralPlant(p.A, p.B, p.C)
        obs = assemble_known_dynamics_observer(gp, [[0.0]], [1.0], [-4.0, -4.0], [-1.0])
        Q = obs.d_hat_row[2:]
        rs_like = RegulatorSolution(S=np.zeros((2, 1)), Q=Q)
        fb = stabilizer_gain(p, (-1.0, -2.0), 2.0)
        d = Constant(10.0)
        v0 = d.level / Q[0]
        x0 = np.array([0.0, 1.0])
        tr = simulate(p, obs, fb, rs_like, d, SimConfig(20.0, 1e-3), x0, np.zeros(3))
        err = np.sqrt(np.sum((tr.x - tr.x_hat) ** 2, axis=1) + (v0 - tr.v_hat[:, 0]) ** 2)
        init = np.linalg.norm(np.concatenate([x0, [v0]]))
        assert err[-1] < 1e-6 * init            # converged by t = 20
        assert err[15000] > 1e-6 * init         # but not yet at t = 15
        assert err[15000] == pytest.approx(3.1e-5 * init, rel=0.15)


class TestIntegratorOrder:
    def test_euler_deviation_halves_with_step(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        x0 = [0.0, 1.0]

        def run(integrator, dt):
            cfg = SimConfig(t_end=1.0, dt=dt, integrator=integrator)
            return simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, np.zeros(3))

        ref = run("rk4", 2.5e-4)
        e1 = run("euler", 1e-3)
        e2 = run("euler", 5e-4)
        dev1 = np.abs(e1.x[:, 0] - ref.x[::4, 0]).max()
        dev2 = np.abs(e2.x[:, 0] - ref.x[::2, 0]).max()
        assert 0.4 <= dev2 / dev1 <= 0.6


def reference_run(p, obs, fb, rs, d, cfg, x0, obs0):
    """Plain per-step integration of the closed loop, written from the model.

    Plant ``x' = A x + B (u + d)``, observer ``z' = A_hat z + L_y y + B_u u``,
    control ``u = F x_hat - Q v_hat`` (zero without a feedback gain), measurement
    ``y = ramp(t) C x + nu_k`` with ``ramp(t) = 1 - exp(-t)`` when enabled
    and one normal draw per step held across the stages.  Shares no code
    with ``simulate``; it is the oracle for any faster kernel.
    """
    n, N, dt = p.n, cfg.steps, cfg.dt
    if cfg.noise_std > 0.0:
        noise = cfg.noise_std * np.random.default_rng(cfg.seed).standard_normal(N + 1)
    else:
        noise = np.zeros(N + 1)

    def control(z):
        return 0.0 if fb is None else fb.F @ z[:n] - rs.Q @ z[n:]

    def measure(t, x, nu):
        ramp = 1.0 - np.exp(-t) if cfg.output_ramp else 1.0
        return ramp * (p.C @ x) + nu

    def rhs(t, x, z, nu):
        u = control(z)
        dx = p.A @ x + p.B * (u + float(d.value(t)))
        dz = obs.A_hat @ z + obs.L_y * measure(t, x, nu) + obs.B_u * u
        return dx, dz

    x, z = np.array(x0, dtype=float), np.array(obs0, dtype=float)
    rows = []
    for k in range(N + 1):
        t, nu = k * dt, noise[k]
        rows.append((x, z, float(d.value(t)), rs.Q @ z[n:], control(z), measure(t, x, nu)))
        if cfg.integrator == "euler":
            dx, dz = rhs(t, x, z, nu)
            x, z = x + dt * dx, z + dt * dz
            continue
        k1 = rhs(t, x, z, nu)
        k2 = rhs(t + dt / 2, x + dt / 2 * k1[0], z + dt / 2 * k1[1], nu)
        k3 = rhs(t + dt / 2, x + dt / 2 * k2[0], z + dt / 2 * k2[1], nu)
        k4 = rhs(t + dt, x + dt * k3[0], z + dt * k3[1], nu)
        x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        z = z + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    x, z, d_vals, d_hat, u, y = (np.array(col) for col in zip(*rows))
    return {"x": x, "x_hat": z[:, :n], "v_hat": z[:, n:], "d": d_vals, "d_hat": d_hat, "u": u, "y": y}


def assert_matches_reference(design, cfg):
    p, exo, sg, rs, obs, fb = make_design(**design)
    assert_run_matches_reference(p, obs, fb, rs, cfg)


def assert_run_matches_reference(p, obs, fb, rs, cfg):
    x0 = np.linspace(0.5, -0.5, p.n)
    obs0 = np.zeros(obs.dim)
    tr = simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, obs0)
    ref = reference_run(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, obs0)
    assert np.array_equal(tr.times, np.arange(cfg.steps + 1) * cfg.dt)
    for name, want in ref.items():
        got = getattr(tr, name).reshape(want.shape)
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0)), name


N5_M4_BASE = (-1.0, -5.0, -10.0, -10.0, -5.0)
#: Closed loops of 5, 7 and 15 states, each with its own block length.
BLOCK_DESIGNS = {
    5: dict(a=[2.0, 1.0], spectrum=[], p_base=(-1.0,), omega_o=10.0),
    7: dict(a=[2.0, 1.0], spectrum=[10j, -10j], p_base=(-1.0, -3.0, -3.0), omega_o=10.0),
    15: dict(a=[1.0, -2.0, 0.5, 0.3, -1.0], spectrum=[2j, -2j, 5j, -5j], p_base=N5_M4_BASE, omega_o=5.0,
             k_base=N5_M4_BASE),
}


class TestReferenceStepper:
    DESIGNS = {
        "n2_m0": dict(a=[2.0, 1.0], spectrum=[], p_base=(-1.0,), omega_o=10.0),
        "n3_m2": dict(a=[1.0, -2.0, 0.5], spectrum=[10j, -10j], p_base=(-1.0, -3.0, -3.0), omega_o=10.0,
                      k_base=(-1.0, -3.0, -3.0)),
    }

    def assert_matches_reference(self, design, cfg):
        assert_matches_reference(self.DESIGNS[design], cfg)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("noise", [0.0, 0.01], ids=["quiet", "noise"])
    @pytest.mark.parametrize("ramp", [False, True], ids=["const", "ramp"])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_simulate_matches_reference(self, design, noise, ramp, integrator):
        cfg = SimConfig(t_end=0.3, dt=1e-3, integrator=integrator, noise_std=noise, seed=3, output_ramp=ramp)
        self.assert_matches_reference(design, cfg)

    # (9 states, blocks of 327 steps) one, two and three steps; 64 steps,
    # a power of two, and 65; and four blocks plus one of 192 steps
    @pytest.mark.parametrize("steps", [1, 2, 3, 64, 65, 1500])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_chunk_edges_match_reference(self, steps, integrator):
        cfg = SimConfig(t_end=steps * 1e-3, dt=1e-3, integrator=integrator, noise_std=0.01, seed=5,
                        output_ramp=True)
        assert cfg.steps == steps and _block_steps(9) == 327
        self.assert_matches_reference("n3_m2", cfg)


class TestOutputRow:
    """The observer and the reported y see ``C x``, whatever the row C."""

    @staticmethod
    def design():
        """``(plant, observer, feedback, regulator)`` of a plant observable
        from y = 0.5 x1 + x2, with no transmission zero at 0 and C B = 0.5."""
        gp = GeneralPlant(A=[[0.0, -2.0], [1.0, -3.0]], B=[1.0, 0.0], C=[0.5, 1.0])
        obs = assemble_known_dynamics_observer(gp, [[0.0]], [1.0], [-4.0, -4.0], [-1.0])
        rs = RegulatorSolution(S=np.zeros((2, 1)), Q=obs.d_hat_row[2:])
        fb = StabilizerGain(omega_c=1.0, F=np.array([-1.0, 0.5]))
        return gp, obs, fb, rs

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_non_unit_output_row_matches_reference(self, integrator):
        cfg = SimConfig(t_end=0.3, dt=1e-3, integrator=integrator, output_ramp=True)
        assert_run_matches_reference(*self.design(), cfg)


@functools.lru_cache(maxsize=None)
def open_loop_magnitude(cfg, scale):
    """Largest state magnitude at each grid point of the reference run of
    ``test_divergence_guard``'s open loop from ``x0 = (scale, 0)``."""
    p, exo, sg, rs, obs, _ = make_design([2.0, 1.0], [], (-1.0,), 10.0)
    ref = reference_run(p, obs, None, rs, Constant(0.0), cfg, [scale, 0.0], np.zeros(3))
    return np.abs(np.hstack([ref["x"], ref["x_hat"], ref["v_hat"]])).max(axis=1)


class TestGuardAtChunkGranularity:
    """The divergence guard reports the first bad grid point wherever it
    falls in the scan of a block, which is checked as a whole, on either
    path.

    The open loop of ``test_divergence_guard`` is linear in ``x0`` and its
    state magnitude rises at every step, so scaling ``x0`` places the first
    point beyond 1e12 at any chosen row.  It has 5 states.  With the ramp on
    (rows labelled by number alone) its blocks hold 910 steps, and the third
    of its 1999 steps holds the last 179; with the ramp off they hold 6553
    steps, and the third of 13285 the last 179.
    """

    #: path: (config, steps, block length)
    PATHS = {
        "ramp": (SimConfig(t_end=19.99, dt=1e-2, output_ramp=True), 1999, _block_steps(5)),
        "const": (SimConfig(t_end=13.285, dt=1e-3), 13285, _block_steps(5, constant=True)),
    }
    ROWS = {
        "ramp": [
            1,                      # the first step
            65,                     # an odd row: the down-sweep's last level
            88, 192,                # rows it reaches at strides 8 and 64
            512,                    # a power of two: the block's top stride
            910, 911,               # last row of a block, first of the next
            1296, 1297,             # inside the second block
            1821, 1989,             # first row of the last, short block, and one inside it
        ],
        "const": [
            1, 65,                  # the first step, an odd row
            4096,                   # a power of two: the block's top stride
            6553, 6554,             # last row of a block, first of the next
            10649,                  # the second block's top stride
            13107, 13275,           # first row of the last, short block, and one inside it
        ],
    }

    def test_block_lengths(self):
        for path, (cfg, steps, block) in self.PATHS.items():
            assert cfg.steps == steps and 2 * block < steps < 3 * block, path
        assert [block for _, _, block in self.PATHS.values()] == [910, 6553]

    @pytest.mark.parametrize("path, row", [pytest.param("ramp", row, id=str(row)) for row in ROWS["ramp"]]
                             + [pytest.param("const", row, id=f"const-{row}") for row in ROWS["const"]])
    def test_reports_first_bad_grid_point(self, path, row):
        p, exo, sg, rs, obs, _ = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = self.PATHS[path][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = open_loop_magnitude(cfg, 1.0)
            assert np.all(np.diff(unit) > 0.0)
            scale = 1e12 / np.sqrt(unit[row - 1] * unit[row])
            # the reference is causal: its first ``row`` steps are those of the full run
            head = dataclasses.replace(cfg, t_end=round(row * cfg.dt, 12))
            first_bad = int(np.argmax(open_loop_magnitude(head, scale) > 1e12))
            assert first_bad == row
            with pytest.raises(NonFinite) as info:
                simulate(p, obs, None, rs, Constant(0.0), cfg, [scale, 0.0], np.zeros(3))
        assert str(info.value).endswith(f"at t={first_bad * cfg.dt:.6g}")


class TestBlockEdges:
    """Runs that end just before, on and just past a block edge, and two
    that end in a short third block, against the per-step reference.  The
    block length depends on the state dimension and the path: ramped runs
    hold maps, and constant runs, which hold states, have longer blocks.
    The last block of ``2block+3`` has 3 steps and that of
    ``2block+chunk+3`` 19, whose down-sweep starts at a stride of 16 (the
    chunk of its label)."""

    @pytest.mark.parametrize("dim", sorted(BLOCK_DESIGNS))
    @pytest.mark.parametrize("edge", ["block-1", "block", "block+1", "2block+3", "2block+chunk+3"])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("ramp, noise", [(True, 0.01), (False, 0.0)], ids=["ramp-noise", "const-quiet"])
    def test_block_edges_match_reference(self, dim, edge, integrator, ramp, noise):
        block = _block_steps(dim, constant=not ramp)
        steps = {"block-1": block - 1, "block": block, "block+1": block + 1, "2block+3": 2 * block + 3,
                 "2block+chunk+3": 2 * block + 19}[edge]
        cfg = SimConfig(t_end=steps * 1e-3, dt=1e-3, integrator=integrator, noise_std=noise, seed=11,
                        output_ramp=ramp)
        assert cfg.steps == steps
        assert_matches_reference(BLOCK_DESIGNS[dim], cfg)


class TestPathSwitch:
    """A ramped run is split once, at the first step after its last ramp
    sample that is not 1.0, near t = 37.43: the maps path runs up to there,
    its last block cut short, and the constant path runs the rest."""

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_ramped_run_past_the_split_matches_reference(self, integrator):
        cfg = SimConfig(t_end=40.0, dt=1e-2, integrator=integrator, noise_std=0.01, seed=13, output_ramp=True)
        ramp = 1.0 - np.exp(-np.arange(2 * cfg.steps + 1) * (cfg.dt / 2.0))
        split = np.flatnonzero(ramp != 1.0)[-1] // 2 + 1
        assert 37.42 < split * cfg.dt < 37.44 and split % _block_steps(5) != 0
        assert_matches_reference(BLOCK_DESIGNS[5], cfg)


def nested_stage_map(A0, Am, A1, b0, bm, b1, dt, rk4):
    """``(Phi, g)`` of one step ``z -> Phi z + g`` with the drift ``A0``,
    ``Am``, ``A1`` and the forcing ``b0``, ``bm``, ``b1`` at its start,
    midpoint and end, from the stages ``k_i = P_i z + c_i``."""
    eye = np.eye(len(A0))
    if not rk4:
        return eye + dt * A0, dt * b0
    h = dt / 2.0
    P1, c1 = A0, b0
    P2, c2 = Am @ (eye + h * P1), Am @ (h * c1) + bm
    P3, c3 = Am @ (eye + h * P2), Am @ (h * c2) + bm
    P4, c4 = A1 @ (eye + dt * P3), A1 @ (dt * c3) + b1
    return eye + dt / 6.0 * (P1 + 2.0 * P2 + 2.0 * P3 + P4), dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)


class TestStepMapBasis:
    """The step maps built from the per-run basis equal the stage formula
    evaluated at each step's ramp values and forcing, and the basis keeps
    only its nonzero coefficient matrices: 4 for Euler, and for RK4 fewer
    the higher the plant's order (18, 13 and 8 at n = 1, 2 and 5; plants
    with C B != 0, here the first-order one and ``TestOutputRow``'s, keep
    terms in r1 rm)."""

    #: closed loops by state count, or by plant, and their RK4 matrices kept
    RK4_KEPT = {5: 13, 7: 13, 15: 8, "first_order": 18, "output_row": 18}
    FIRST_ORDER = dict(a=[1.0], spectrum=[], p_base=(-1.0,), omega_o=10.0, k_base=(-1.0,))

    @pytest.mark.parametrize("case", list(RK4_KEPT))
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_basis_matches_nested_stages(self, case, integrator):
        if case == "output_row":
            p, obs, fb, rs = TestOutputRow.design()
        else:
            p, exo, sg, rs, obs, fb = make_design(**BLOCK_DESIGNS.get(case, self.FIRST_ORDER))
        M0, U, col_y, col_d, _ = _loop(p, obs, fb, rs)
        rk4, dt, steps, dim = integrator == "rk4", 1e-3, 16, M0.shape[0]
        basis = _basis(M0, U, col_y, col_d, dt, rk4)
        assert len(basis[1]) == (self.RK4_KEPT[case] if rk4 else 4)
        rng = np.random.default_rng(dim)
        ramp = rng.uniform(0.0, 1.0, 2 * steps + 1)
        ramp[:7] = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]  # whole steps at 0 and 1, and mixed
        d = rng.standard_normal(2 * steps + 1)
        nu = rng.standard_normal(steps)
        A = _step_maps(basis, ramp, d, nu)
        assert A.shape == (steps, dim + 1, dim + 1)
        assert np.array_equal(A[:, dim], np.tile(np.eye(dim + 1)[dim], (steps, 1)))  # rows (0, 1)
        Phi, g = A[:, :dim, :dim], A[:, :dim, dim]
        for k in range(steps):
            A0, Am, A1 = (M0 + r * U for r in ramp[2 * k : 2 * k + 3])
            b0, bm, b1 = (nu[k] * col_y + v * col_d for v in d[2 * k : 2 * k + 3])
            want_Phi, want_g = nested_stage_map(A0, Am, A1, b0, bm, b1, dt, rk4)
            assert np.abs(Phi[k] - want_Phi).max() <= 1e-14 * np.abs(want_Phi).max()
            assert np.abs(g[k] - want_g).max() <= 1e-14 * np.abs(want_g).max()


class TestOverflowingChunkMaps:
    # at dt * omega_o = 1e6 a product of many step maps overflows, so a
    # state the down-sweep computes from it is inf * 0 = NaN; the block is
    # swept again one step at a time, and the states are exactly zero
    DESIGN = dict(a=[2.0, 1.0], spectrum=[], p_base=(-1.0,), omega_o=1e10, omega_c=10.0)

    def run_from_zero(self, ramp):
        p, exo, sg, rs, obs, fb = make_design(**self.DESIGN)
        cfg = SimConfig(t_end=0.05, dt=1e-4, output_ramp=ramp)
        steps = cfg.steps  # the run is one block on either path
        assert steps == 500 and _block_steps(5) >= steps
        M0, U, col_y, col_d, _ = _loop(p, obs, fb, rs)
        samples = 1.0 - np.exp(-np.arange(2 * steps + 1) * (cfg.dt / 2.0)) if ramp else np.ones(2 * steps + 1)
        zeros = np.zeros(2 * steps + 1)
        A = _step_maps(_basis(M0, U, col_y, col_d, cfg.dt, True), samples, zeros, zeros[:steps])
        tr = simulate(p, obs, fb, rs, Constant(0.0), cfg, [0.0, 0.0], np.zeros(obs.dim))
        assert tr.times.size == 501
        for field in ("x", "x_hat", "v_hat", "d_hat", "u", "y"):
            assert not np.any(getattr(tr, field)), field
        return A

    def test_zero_state_stays_zero(self):
        A = self.run_from_zero(ramp=True)
        with np.errstate(over="ignore", invalid="ignore"):
            total = functools.reduce(lambda P, Ak: Ak @ P, A)
        assert np.all(np.isfinite(A)) and not np.all(np.isfinite(total))

    def test_zero_state_stays_zero_without_ramp(self):
        # every step shares one Phi, and its 256th power overflows
        A = self.run_from_zero(ramp=False)
        assert np.all(A == A[0]) and np.all(np.isfinite(A))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(np.linalg.matrix_power(A[0], 256)))

    def test_guard_past_an_overflowing_power_of_phi(self, monkeypatch):
        # at dt = 0.087 the open loop grows by 1.19 a step and Phi^4096
        # overflows; from a subnormal x0 the state crosses the guard only
        # past row 4096, so the constant block is stepped again
        p, exo, sg, rs, obs, _ = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=round(4400 * 0.087, 12), dt=0.087)
        assert cfg.steps == 4400 and _block_steps(5, constant=True) >= cfg.steps
        x0 = [1e-310, 0.0]
        ref = reference_run(p, obs, None, rs, Constant(0.0), cfg, x0, np.zeros(3))
        magnitude = np.abs(np.hstack([ref["x"], ref["x_hat"], ref["v_hat"]])).max(axis=1)
        row = int(np.argmax(magnitude > 1e12))
        assert row > 4096 and magnitude[row - 1] < 0.99e12 and magnitude[row] > 1.01e12
        blocks = []
        monkeypatch.setattr("edo.sim._step_maps", lambda *maps: blocks.append(len(maps[3])) or _step_maps(*maps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite) as info:
                simulate(p, obs, None, rs, Constant(0.0), cfg, x0, np.zeros(3))
        assert blocks == [4400]  # the constant path forms maps only to step again
        assert str(info.value).endswith(f"at t={row * cfg.dt:.6g}")


class TestWorkingSet:
    """Traced allocations stay per block: the horizon adds only its records.

    On an n=5, m=4 design (15 states) a whole-horizon stack of step maps
    would hold N * 15 * 15 doubles, about 36 MB at N = 20 000.
    """

    def peak_mb(self, steps, ramp):
        base = (-1.0, -5.0, -10.0, -10.0, -5.0)
        p, exo, sg, rs, obs, fb = make_design([1.0, -2.0, 0.5, 0.3, -1.0], [2j, -2j, 5j, -5j], base, 5.0,
                                              k_base=base)
        assert p.n + obs.dim == 15
        cfg = SimConfig(t_end=steps * 1e-3, dt=1e-3, output_ramp=ramp)
        assert cfg.steps == steps
        x0 = np.linspace(0.5, -0.5, p.n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, np.zeros(obs.dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / 1e6

    def assert_peak_grows_only_with_the_records(self, ramp):
        short = self.peak_mb(2000, ramp)
        long = self.peak_mb(20000, ramp)
        assert short <= 1.5
        assert long - short <= 4.0

    def test_peak_grows_only_with_the_records(self):
        self.assert_peak_grows_only_with_the_records(ramp=True)

    def test_constant_path_peak_grows_only_with_the_records(self):
        self.assert_peak_grows_only_with_the_records(ramp=False)


class TestHighGainProbe:
    def test_scalar_family_is_flat(self):
        base = GainBase(k=(-1.0,), p=(-1.0,))
        table = high_gain_probe(base, canonical_plant([0.7]), [1.0, 10.0, 100.0], np.linspace(0, 1, 101))
        for _, lb in table:
            assert lb == pytest.approx(1.0, rel=1e-9)

    def test_second_order_family_stays_bounded(self):
        base = GainBase(k=(-1.0, -2.0), p=(-1.0,))
        table = high_gain_probe(base, canonical_plant([0.0, 0.0]), [5.0, 10.0, 20.0, 40.0], np.linspace(0, 1, 201))
        values = [lb for _, lb in table]
        assert max(values) / min(values) <= 10.0

    def test_counterexample_matches_closed_form_and_grows(self):
        omegas = [10.0, 100.0, 1000.0]
        got = [peaking_counterexample_norm(w) for w in omegas]
        want = [np.exp(-1.0) * np.hypot(2.0 + 1.0 / w, w) for w in omegas]
        for g, w_ in zip(got, want):
            assert g == pytest.approx(w_, rel=1e-6)
        assert got[0] < got[1] < got[2]

    def test_counterexample_value_at_ten(self):
        assert peaking_counterexample_norm(10.0) == pytest.approx(np.exp(-1.0) * np.sqrt(2.1**2 + 100.0), rel=1e-9)

    @pytest.mark.parametrize("omega", np.logspace(-3.0, 6.0, 10))
    def test_counterexample_matches_matrix_exponential(self, omega):
        A_w = np.array([[0.0, 1.0], [-omega * omega, -2.0 * omega]])
        want = np.linalg.norm(linalg.expm(A_w / omega) @ np.array([1.0, 1.0]))
        assert peaking_counterexample_norm(omega) == pytest.approx(want, rel=1e-9)

    def test_one_exponential_per_bandwidth(self, monkeypatch):
        shapes = []
        expm = linalg.expm
        monkeypatch.setattr(linalg, "expm", lambda M: shapes.append(np.shape(M)) or expm(M))
        base = GainBase(k=(-1.0, -2.0), p=(-1.0,))
        high_gain_probe(base, canonical_plant([0.0, 0.0]), [5.0, 10.0, 20.0], np.linspace(0, 1, 21))
        assert shapes == [(21, 2, 2)] * 3
        peaking_counterexample_norm(10.0)
        assert len(shapes) == 3


def short_run(x0=(0.0, 1.0), obs0=(0.0, 0.0, 0.0)):
    p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
    return simulate(p, obs, fb, rs, Constant(0.0), SimConfig(0.1, 0.01), x0, obs0)


def probe(t_grid):
    return high_gain_probe(GainBase(k=(-1.0, -2.0), p=(-1.0,)), canonical_plant([0.0, 0.0]), [5.0], t_grid)


#: Library refusals of this module: (call, exception, what the message says).
REFUSALS = {
    "seed_above_int64": (lambda: SimConfig(1.0, 0.1, seed=2**63), ValueError, "seed must fit a 64-bit integer"),
    "seed_below_int64": (lambda: SimConfig(1.0, 0.1, seed=-(2**63) - 1), ValueError, "seed must fit"),
    "seed_fraction": (lambda: SimConfig(1.0, 0.1, seed=1.5), ValueError, "seed must be an integer"),
    "seed_nan": (lambda: SimConfig(1.0, 0.1, seed=float("nan")), ValueError, "seed must be an integer"),
    "seed_inf": (lambda: SimConfig(1.0, 0.1, seed=float("inf")), ValueError, "seed must be an integer"),
    "seed_string": (lambda: SimConfig(1.0, 0.1, seed="7"), ValueError, "seed must be an integer"),
    "ramp_not_bool": (lambda: SimConfig(1.0, 0.1, output_ramp="no"), ValueError, "output_ramp must be a boolean"),
    "x0_size": (lambda: short_run(x0=[0.0]), DimensionMismatch, "initial states do not match"),
    "observer0_size": (lambda: short_run(obs0=np.zeros(4)), DimensionMismatch, "initial states"),
    "tail_fraction_zero": (lambda: metrics(short_run(), 0.0), ValueError, "tail_fraction must lie in"),
    "tail_fraction_one": (lambda: metrics(short_run(), 1.0), ValueError, "tail_fraction must lie in"),
    "probe_grid_empty": (lambda: probe([]), ValueError, "t_grid must be a nonempty 1-D"),
    "probe_grid_2d": (lambda: probe([[0.0, 0.5], [1.0, 1.5]]), ValueError, "t_grid must be a nonempty 1-D"),
    "probe_grid_scalar": (lambda: probe(1.0), ValueError, "t_grid must be a nonempty 1-D"),
    "probe_grid_nan": (lambda: probe([0.0, float("nan")]), ValueError, "t_grid must be finite"),
    "probe_grid_inf": (lambda: probe(np.array([np.inf])), ValueError, "t_grid must be finite"),
    "probe_grid_huge_int": (lambda: probe([0, 10**400]), ValueError, "t_grid must be finite"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=message):
        call()
