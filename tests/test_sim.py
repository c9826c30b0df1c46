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
from edo.errors import EmptyTrajectory, NonFinite
from edo.sim import peaking_counterexample_norm
from edo.synthesis import RegulatorSolution, assemble_edo, assemble_known_dynamics_observer, error_system
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

    def test_determinism_bytes(self):
        p, exo, sg, rs, obs, fb = make_design([2.0, 1.0], [], (-1.0,), 10.0)
        cfg = SimConfig(t_end=0.5, dt=1e-3, noise_std=0.01, seed=42)
        runs = [
            simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, [0.0, 1.0], np.zeros(3))
            for _ in range(2)
        ]
        for field in ("times", "x", "x_hat", "v_hat", "d", "d_hat", "u", "y"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()

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
        oracle = steady_dist_err_amplitude(p, exo, sg, rs, 10.0, 10.0)
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
        design_rate = -eigenvalues(error_system(p, exo, sg, rs)[0]).real.max()
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
    control ``u = F x_hat - Q v_hat``, measurement
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
        return fb.F @ z[:n] - rs.Q @ z[n:]

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


class TestReferenceStepper:
    DESIGNS = {
        "n2_m0": dict(a=[2.0, 1.0], spectrum=[], p_base=(-1.0,), omega_o=10.0),
        "n3_m2": dict(a=[1.0, -2.0, 0.5], spectrum=[10j, -10j], p_base=(-1.0, -3.0, -3.0), omega_o=10.0,
                      k_base=(-1.0, -3.0, -3.0)),
    }

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("noise", [0.0, 0.01], ids=["quiet", "noise"])
    @pytest.mark.parametrize("ramp", [False, True], ids=["const", "ramp"])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_simulate_matches_reference(self, design, noise, ramp, integrator):
        p, exo, sg, rs, obs, fb = make_design(**self.DESIGNS[design])
        cfg = SimConfig(t_end=0.3, dt=1e-3, integrator=integrator, noise_std=noise, seed=3, output_ramp=ramp)
        x0 = np.linspace(0.5, -0.5, p.n)
        obs0 = np.zeros(obs.dim)
        tr = simulate(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, obs0)
        ref = reference_run(p, obs, fb, rs, SINE_PLUS_TEN, cfg, x0, obs0)
        assert np.array_equal(tr.times, np.arange(cfg.steps + 1) * cfg.dt)
        for name, want in ref.items():
            got = getattr(tr, name).reshape(want.shape)
            assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0)), name


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
