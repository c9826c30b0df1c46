import dataclasses
import warnings

import numpy as np
import pytest

from conftest import (
    random_instance,
    regulator_residuals,
    spectrum_gap,
    spectrum_gap_f64,
)
from edo import (
    Constant,
    GainBase,
    GeneralPlant,
    Plant,
    SimConfig,
    canonical_plant,
    evaluate,
    exosystem_from_spectrum,
    high_gain_probe,
    schedule_gains,
    simulate,
    solve_regulator,
    solve_regulator_spectral,
    stabilizer_gain,
)
from edo.errors import (
    DimensionMismatch,
    NonHurwitz,
    NonHurwitzBase,
    NotDiagonalizable,
    NotObservablePair,
    SingularSystem,
    SpectraOverlap,
)
from edo import cli
from edo.linalg import eigenvalues
from edo.plant import observability_matrix, transmission_zero_holds
from edo.sim import peaking_counterexample_norm
from edo.synthesis import (
    RegulatorSolution,
    ScheduledGains,
    StabilizerGain,
    assemble_edo,
    assemble_known_dynamics_observer,
    _regulator_system,
    closed_loop,
    error_system,
)


def reference_design(omega_o=10.0):
    """Constant-dynamics design with the closed-form solution."""
    p = canonical_plant([2.0, 1.0])
    exo = exosystem_from_spectrum([])
    base = GainBase(k=(-1.0, -2.0), p=(-1.0,))
    sg = schedule_gains(p, exo, base, omega_o)
    rs = solve_regulator(p, exo, sg)
    return p, exo, base, sg, rs


class TestGainBase:
    def test_non_hurwitz_k_rejected(self):
        with pytest.raises(NonHurwitzBase):
            GainBase(k=(1.0, 2.0), p=(-1.0,))

    def test_non_hurwitz_p_rejected(self):
        with pytest.raises(NonHurwitzBase):
            GainBase(k=(-1.0, -2.0), p=(1.0,))


class TestScheduleGains:
    def test_reference_k_schedule(self):
        _, _, _, sg, _ = reference_design()
        assert np.array_equal(sg.K_omega, [-102.0, -21.0])

    def test_reference_p_schedule(self):
        _, _, _, sg, _ = reference_design()
        assert np.array_equal(sg.P_omega, [-10.0])

    def test_unit_bandwidth_identity(self):
        p = canonical_plant([0.0, 0.0])
        exo = exosystem_from_spectrum([])
        base = GainBase(k=(-1.0, -2.0), p=(-1.0,))
        sg = schedule_gains(p, exo, base, 1.0)
        assert np.array_equal(sg.K_omega, base.k)
        assert np.array_equal(sg.P_omega, base.p)

    def test_dimension_guard(self):
        p = canonical_plant([0.0, 0.0])
        exo = exosystem_from_spectrum([10j, -10j])
        with pytest.raises(DimensionMismatch):
            schedule_gains(p, exo, GainBase(k=(-1.0, -2.0), p=(-1.0,)), 10.0)


#: Each bandwidth schedule, called with a bandwidth and a gain base for the
#: double integrator.
SCHEDULES = {
    "schedule_gains": lambda w, base: schedule_gains(canonical_plant([0.0, 0.0]), exosystem_from_spectrum([]), base, w),
    "stabilizer_gain": lambda w, base: stabilizer_gain(canonical_plant([0.0, 0.0]), base.k, w),
    "high_gain_probe": lambda w, base: high_gain_probe(base, canonical_plant([0.0, 0.0]), [w], [0.0, 1.0]),
    "peaking_counterexample_norm": lambda w, base: peaking_counterexample_norm(w),
}


class TestBandwidthRule:
    """A bandwidth must be positive and finite, and a base as long as the
    coefficients it shifts, wherever a schedule is built."""

    @pytest.mark.parametrize(
        "omega", [np.nan, np.inf, 0.0, -1.0, 10**400], ids=["nan", "inf", "zero", "negative", "huge_int"]
    )
    @pytest.mark.parametrize("call", SCHEDULES)
    def test_bad_bandwidth_raises_value_error(self, call, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                SCHEDULES[call](omega, GainBase(k=(-1.0, -2.0), p=(-1.0,)))

    @pytest.mark.parametrize("call", ["schedule_gains", "stabilizer_gain", "high_gain_probe"])
    def test_wrong_base_length_raises(self, call):
        with pytest.raises(DimensionMismatch):
            SCHEDULES[call](10.0, GainBase(k=(-1.0,), p=(-1.0,)))

    def test_wrong_carrier_base_length_raises(self):
        with pytest.raises(DimensionMismatch):
            SCHEDULES["schedule_gains"](10.0, GainBase(k=(-1.0, -2.0), p=(-1.0, -2.0)))


class TestSolveRegulator:
    def test_closed_form_S_and_Q(self):
        _, _, _, _, rs = reference_design()
        assert np.abs(rs.S.ravel() - [-200.0, -10.0]).max() < 1e-10
        assert abs(rs.Q[0] - 1000.0) < 1e-10

    def test_qbd_magnitude_identity(self):
        _, exo, base, sg, rs = reference_design()
        assert abs(rs.Q @ exo.B_d) == pytest.approx(abs(base.k[0] * base.p[0]) * 10.0**3, rel=1e-12)

    def test_scalar_plant_residuals(self):
        p = canonical_plant([0.0])
        exo = exosystem_from_spectrum([])
        sg = schedule_gains(p, exo, GainBase(k=(-1.0,), p=(-1.0,)), 1.0)
        rs = solve_regulator(p, exo, sg)
        r1, r2 = regulator_residuals(p, exo, sg, rs)
        assert max(r1, r2) < 1e-12

    def test_spectral_agrees_on_reference(self):
        p, exo, base, sg, rs = reference_design()
        rs2 = solve_regulator_spectral(p, exo, sg)
        assert np.abs(rs.S - rs2.S).max() < 1e-9 * max(1.0, np.abs(rs.S).max())
        assert np.abs(rs.Q - rs2.Q).max() < 1e-9 * max(1.0, np.abs(rs.Q).max())

    def test_spectral_agrees_on_harmonic_exosystem(self):
        p = canonical_plant([2.0, 1.0])
        exo = exosystem_from_spectrum([10j, -10j])
        sg = schedule_gains(p, exo, GainBase(k=(-1.0, -2.0), p=(-1.0, -3.0, -3.0)), 10.0)
        rs = solve_regulator(p, exo, sg)
        rs2 = solve_regulator_spectral(p, exo, sg)
        scale = max(1.0, np.abs(rs.S).max(), np.abs(rs.Q).max())
        assert np.abs(rs.S - rs2.S).max() < 1e-8 * scale
        assert np.abs(rs.Q - rs2.Q).max() < 1e-8 * scale

    def test_jordan_block_not_diagonalizable(self):
        p = canonical_plant([0.0, 0.0])
        exo = exosystem_from_spectrum([0.0])  # double zero eigenvalue
        sg = schedule_gains(p, exo, GainBase(k=(-1.0, -2.0), p=(-1.0, -2.0)), 5.0)
        with pytest.raises(NotDiagonalizable):
            solve_regulator_spectral(p, exo, sg)

    # b = (0, 1) puts a transmission zero at 0, an eigenvalue of every
    # exosystem; b = (-1, 1) puts it at 1
    @pytest.mark.parametrize(
        "b, spectrum, p_base, zero",
        [
            ((0.0, 1.0), [], (-1.0,), 0.0),
            ((0.0, 1.0), [2j, -2j], (-1.0, -3.0, -3.0), 0.0),
            ((-1.0, 1.0), [1.0], (-1.0, -2.0), 1.0),
        ],
        ids=["zero_at_0", "zero_at_0_harmonic", "zero_at_1"],
    )
    def test_transmission_zero_on_exosystem_spectrum_named(self, b, spectrum, p_base, zero):
        p = Plant(a=(0.5, 0.5), b=b)
        assert not transmission_zero_holds(GeneralPlant(p.A, p.B, p.C), zero)
        exo = exosystem_from_spectrum(spectrum)
        sg = schedule_gains(p, exo, GainBase(k=(-1.0, -2.0), p=p_base), 10.0)
        with pytest.raises(SingularSystem, match="plant transmission zero"):
            solve_regulator(p, exo, sg)

    def test_transmission_zero_off_exosystem_spectrum_designs(self):
        p = Plant(a=(0.5, 0.5), b=(-1.0, 1.0))
        assert transmission_zero_holds(GeneralPlant(p.A, p.B, p.C), 2.0)
        exo = exosystem_from_spectrum([2.0])
        sg = schedule_gains(p, exo, GainBase(k=(-1.0, -2.0), p=(-1.0, -2.0)), 10.0)
        rs = solve_regulator(p, exo, sg)
        assert max(regulator_residuals(p, exo, sg, rs)) < 1e-9


def kron_regulator_system(A_inj, G, B, C, P_row):
    """The regulator system spelled with Kronecker products (column-major vec)."""
    n, d = A_inj.shape[0], G.shape[0]
    nS = n * d
    M = np.zeros((nS + d, nS + d))
    rhs = np.zeros(nS + d)
    M[:nS, :nS] = np.kron(np.eye(d), A_inj) - np.kron(G.T, np.eye(n))
    M[:nS, nS:] = -np.kron(np.eye(d), B.reshape(-1, 1))
    M[nS:, :nS] = np.kron(np.eye(d), C.reshape(1, -1))
    rhs[nS:] = P_row
    return M, rhs


class TestRegulatorSystem:
    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_kron_construction(self, n, d):
        rng = np.random.default_rng(1000 + 10 * n + d)
        for signed_zeros in (False, True):
            A_inj, G = rng.standard_normal((n, n)), rng.standard_normal((d, d))
            B, C, P_row = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(d)
            if signed_zeros:
                for X in (A_inj, G, B, C):
                    X[rng.random(X.shape) < 0.3] = 0.0
                    X[rng.random(X.shape) < 0.3] = -0.0
            M, rhs = _regulator_system(A_inj, G, B, C, P_row)
            M_ref, rhs_ref = kron_regulator_system(A_inj, G, B, C, P_row)
            assert np.array_equal(M, M_ref) and np.array_equal(rhs, rhs_ref)

    def test_design_matrices_match_kron_construction(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            p, exo, sg = inst["plant"], inst["exo"], inst["sg"]
            args = (p.A + np.outer(sg.K_omega, p.C), exo.G, p.B, p.C, sg.P_omega)
            M, _ = _regulator_system(*args)
            M_ref, _ = kron_regulator_system(*args)
            assert np.array_equal(M, M_ref)


def known_dynamics_observer(F0=(-4.0, -4.0)):
    p = canonical_plant([2.0, 1.0])
    return assemble_known_dynamics_observer(GeneralPlant(p.A, p.B, p.C), [[0.0]], [1.0], F0, [-1.0])


def with_harmonic_exosystem(solve):
    """``solve`` on the constant-dynamics reference gains and a carrier they do not fit."""
    p, _, _, sg, _ = reference_design()
    return solve(p, exosystem_from_spectrum([10j, -10j]), sg)


def with_regulator_solution(S, Q):
    """``assemble_edo`` on the constant-dynamics reference design with a given (S, Q)."""
    p, exo, _, sg, _ = reference_design()
    return assemble_edo(p, exo, sg, RegulatorSolution(S=S, Q=Q))


def spectral_solve(b=(1.0, 0.0), K_omega=(-102.0, -21.0), P_omega=(-10.0,)):
    """``solve_regulator_spectral`` on the plant ``a = (2, 1)``; the default gains are the
    constant-dynamics schedule at bandwidth 10."""
    p = Plant(a=(2.0, 1.0), b=b)
    sg = ScheduledGains(omega_o=10.0, K_omega=np.array(K_omega), P_omega=np.array(P_omega))
    return solve_regulator_spectral(p, exosystem_from_spectrum([]), sg)


#: Library refusals of this module: (call, exception, what the message says).
REFUSALS = {
    "empty_base_k": (lambda: GainBase(k=(), p=(-1.0,)), DimensionMismatch, "must be non-empty"),
    "empty_base_p": (lambda: GainBase(k=(-1.0,), p=()), DimensionMismatch, "must be non-empty"),
    # one finiteness rule, an int beyond the double range read as inf
    "base_k_nan": (lambda: GainBase(k=(float("nan"),), p=(-1.0,)), ValueError, r"base k must be finite, got \(nan"),
    "base_k_huge_int": (lambda: GainBase(k=(10**400,), p=(-1.0,)), ValueError, r"base k must be finite, got \(inf"),
    "base_p_inf": (lambda: GainBase(k=(-1.0,), p=(float("-inf"),)), ValueError, "base p must be finite"),
    "base_p_huge_int": (lambda: GainBase(k=(-1.0,), p=(-(10**400),)), ValueError, r"base p must be finite, got \(-inf"),
    "control_base_nan": (lambda: stabilizer_gain(canonical_plant([2.0, 1.0]), (float("nan"), -2.0), 10.0), ValueError,
                         r"control base must be finite, got \(nan"),
    "control_base_huge_int": (lambda: stabilizer_gain(canonical_plant([2.0, 1.0]), (10**400, -2.0), 10.0), ValueError,
                              r"control base must be finite, got \(inf"),
    "solve_regulator_dims": (lambda: with_harmonic_exosystem(solve_regulator), DimensionMismatch,
                             r"scheduled gains sized \(2, 1\) do not fit"),
    "solve_regulator_spectral_dims": (lambda: with_harmonic_exosystem(solve_regulator_spectral), DimensionMismatch,
                                      "scheduled gains sized"),
    "assemble_edo_regulator_size": (lambda: with_regulator_solution(np.zeros((2, 2)), np.zeros(1)),
                                    DimensionMismatch, r"regulator solution sized \(2, 2\)"),
    "error_system_dims": (lambda: error_system(known_dynamics_observer(), exosystem_from_spectrum([10j, -10j])),
                          DimensionMismatch, "observer carrier of size 1 does not fit exosystem dimension 3"),
    "known_dynamics_dims": (lambda: known_dynamics_observer(F0=(-4.0,)), DimensionMismatch,
                            "inconsistent observer design dimensions"),
    "known_dynamics_non_hurwitz": (lambda: known_dynamics_observer(F0=(0.0, 0.0)), NonHurwitz,
                                   r"A \+ F0 C is not Hurwitz"),
    "known_dynamics_huge_int_gain": (lambda: known_dynamics_observer(F0=(10**400, -4.0)), ValueError,
                                     r"F0 must be finite, got \(inf, -4.0\)"),
    "known_dynamics_nan_gain": (lambda: known_dynamics_observer(F0=(-4.0, float("nan"))), ValueError,
                                r"F0 must be finite, got \(-4.0, nan\)"),
    # a + K_omega = 0 leaves A_inj nilpotent: 0, the carrier's eigenvalue, is an observer pole
    "spectral_observer_pole": (lambda: spectral_solve(K_omega=(-2.0, -1.0)), SingularSystem, "is an observer pole"),
    # b = (0, 1) puts a transmission zero at 0
    "spectral_transmission_zero": (lambda: spectral_solve(b=(0.0, 1.0)), SingularSystem,
                                   "transmission zero at exosystem eigenvalue"),
    # a complex output row leaves a Q that no real design has
    "spectral_complex_residue": (lambda: spectral_solve(P_omega=(1j,)), SingularSystem, "complex residue"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=message):
        call()


class TestRandomizedSuite:
    """Small randomized sweep; the acceptance suite runs the full one."""

    def test_regulator_properties(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            p, exo, sg, rs = inst["plant"], inst["exo"], inst["sg"], inst["rs"]
            r1, r2 = regulator_residuals(p, exo, sg, rs)
            assert max(r1, r2) < 1e-8
            qbd = abs(rs.Q @ exo.B_d)
            expect = abs(inst["base"].k[0] * inst["base"].p[0]) * inst["omega"] ** (p.n + exo.dim)
            assert qbd == pytest.approx(expect, rel=1e-8)
            obs_rows = observability_matrix(exo.G, rs.Q)
            obs_rows = obs_rows / np.linalg.norm(obs_rows, axis=1, keepdims=True)
            sv = np.linalg.svd(obs_rows, compute_uv=False)
            assert sv[-1] > 1e-9 * sv[0]
            if inst["diagonalizable"]:
                rs2 = solve_regulator_spectral(p, exo, sg)
                scale = max(1.0, np.abs(rs.S).max(), np.abs(rs.Q).max())
                assert np.abs(rs.S - rs2.S).max() < 1e-8 * scale
                assert np.abs(rs.Q - rs2.Q).max() < 1e-8 * scale

    def test_spectral_scaling_law(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            p, exo, base, sg = inst["plant"], inst["exo"], inst["base"], inst["sg"]
            w = inst["omega"]
            from conftest import multiset_gap
            from edo.linalg import companion_from_last_row

            A_unit = p.A + np.outer(
                np.array([base.k[j] - p.a[j] for j in range(p.n)]), p.C
            )
            got = eigenvalues(p.A + np.outer(sg.K_omega, p.C))
            assert multiset_gap(got, w * eigenvalues(A_unit)) < 1e-8 * max(1.0, w)
            G_unit = companion_from_last_row(base.p)
            gotG = eigenvalues(exo.G + np.outer(exo.E, sg.P_omega))
            assert multiset_gap(gotG, w * eigenvalues(G_unit)) < 1e-8 * max(1.0, w)

    def test_separation(self, rng):
        # moderate orders/bandwidths: beyond them the f64 representation
        # of the assembled drift alone costs more than 1e-6 (the entries
        # grow like omega^(n+m)); the acceptance suite documents that
        for _ in range(12):
            inst = random_instance(rng, max_n=3, omegas=(1.0, 5.0, 10.0))
            p, exo, sg, rs = inst["plant"], inst["exo"], inst["sg"], inst["rs"]
            obs = assemble_edo(p, exo, sg, rs)
            fb = stabilizer_gain(p, inst["k_ctrl"], inst["omega"])
            M, _ = closed_loop(p, obs, fb, rs)
            parts = [
                p.A + np.outer(p.B, fb.F),
                p.A + np.outer(sg.K_omega, p.C),
                exo.G + np.outer(exo.E, sg.P_omega),
            ]
            assert spectrum_gap(M, parts, 1e-6) < 1e-6


class TestAssembleEdo:
    def test_reference_innovation_coefficients(self):
        p, exo, _, sg, rs = reference_design()
        obs = assemble_edo(p, exo, sg, rs)
        # x-block injection -(K + S E) carries the innovation coefficients
        assert np.abs(obs.L_y[:2] - [302.0, 31.0]).max() < 1e-10

    def test_innovation_equals_schedule_plus_coupling(self):
        p, exo, _, sg, rs = reference_design()
        obs = assemble_edo(p, exo, sg, rs)
        assert np.allclose(-obs.L_y[:2], sg.K_omega + rs.S @ exo.E, atol=1e-12)
        assert np.abs(sg.K_omega + rs.S @ exo.E - [-302.0, -31.0]).max() < 1e-10

    def test_blocks_match_design(self):
        p, exo, _, sg, rs = reference_design()
        obs = assemble_edo(p, exo, sg, rs)
        KSE = sg.K_omega + rs.S @ exo.E
        assert np.allclose(obs.A_hat[:2, :2], p.A + np.outer(KSE, p.C))
        assert np.allclose(obs.A_hat[:2, 2:], np.outer(p.B, rs.Q))
        assert np.allclose(obs.A_hat[2:, :2], -np.outer(exo.E, p.C))
        assert np.allclose(obs.A_hat[2:, 2:], exo.G)
        assert np.allclose(obs.d_hat_row, [0.0, 0.0, 1000.0])

    def test_dimension_guard(self):
        p, exo, _, sg, rs = reference_design()
        wrong_exo = exosystem_from_spectrum([10j, -10j])
        with pytest.raises(DimensionMismatch):
            assemble_edo(p, wrong_exo, sg, rs)


class TestKnownDynamicsObserver:
    def hand_instance(self):
        p = canonical_plant([2.0, 1.0])
        gp = GeneralPlant(p.A, p.B, p.C)
        return assemble_known_dynamics_observer(gp, [[0.0]], [1.0], [-4.0, -4.0], [-1.0])

    def test_hand_solved_gains(self):
        obs = self.hand_instance()
        F1 = -obs.L_y[:2]
        Q = obs.d_hat_row[2:]
        assert np.abs(F1 - [-7.0, -5.0]).max() < 1e-10
        assert abs(Q[0] + 2.0) < 1e-10

    def test_output_constraint_holds(self):
        # C S = P recovered from F1 = F0 + S F2 with F2 = -1: S = F0 - F1
        obs = self.hand_instance()
        S = np.array([-4.0, -4.0]) - (-obs.L_y[:2])
        assert np.abs(S - [3.0, 1.0]).max() < 1e-10
        assert abs(S[1] - 1.0) < 1e-10  # C S = S_2 = P = 1

    def test_error_matrix_spectra(self):
        obs = self.hand_instance()
        got = eigenvalues(obs.A_hat)  # error matrix shares A_hat blocks
        assert np.abs(np.sort(got.real) - [-2.0, -1.0, -1.0]).max() < 1e-6
        assert np.abs(got.imag).max() < 1e-6

    def test_spectra_overlap_rejected(self):
        p = canonical_plant([2.0, 1.0])
        gp = GeneralPlant(p.A, p.B, p.C)
        # F0 places {-1, -2}; G = [-1] collides
        with pytest.raises(SpectraOverlap):
            assemble_known_dynamics_observer(gp, [[-1.0]], [1.0], [-4.0, -4.0], [-1.0])

    def test_unobservable_pair_rejected(self):
        p = canonical_plant([2.0, 1.0])
        gp = GeneralPlant(p.A, p.B, p.C)
        G = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(NotObservablePair):
            assemble_known_dynamics_observer(gp, G, [0.0, 1.0], [-4.0, -4.0], [-1.0, -1.0])

    def test_non_hurwitz_carrier_injection_rejected(self):
        p = canonical_plant([2.0, 1.0])
        gp = GeneralPlant(p.A, p.B, p.C)
        with pytest.raises(NonHurwitz):
            assemble_known_dynamics_observer(gp, [[0.0]], [1.0], [-4.0, -4.0], [1.0])


def scenario_design(name):
    return cli.build_design(cli.parse_config(cli.SCENARIOS[name]))


class TestSharedRealization:
    """The EDO is the known-dynamics observer with F0 = K_omega, F2 = E and
    P_row = P_omega, and its error matrix is the observer drift itself."""

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_edo_is_known_dynamics_observer(self, name):
        d = scenario_design(name)
        p, exo, sg = d.plant, d.exo, d.gains
        known = assemble_known_dynamics_observer(p, exo.G, sg.P_omega, sg.K_omega, exo.E)
        edo = assemble_edo(p, exo, sg, d.regulator)
        assert known.n == edo.n
        for field in ("A_hat", "L_y", "B_u", "d_hat_row"):
            assert np.array_equal(getattr(known, field), getattr(edo, field)), field

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_error_matrix_is_observer_drift(self, name):
        d = scenario_design(name)
        A_err, _ = error_system(d.observer, d.exo)
        assert np.array_equal(A_err, assemble_edo(d.plant, d.exo, d.gains, d.regulator).A_hat)


class TestStabilizer:
    def test_scalar(self):
        fb = stabilizer_gain(canonical_plant([0.0]), (-1.0,), 10.0)
        assert np.allclose(fb.F, [-10.0])

    def test_second_order_pole_placement(self):
        p = canonical_plant([2.0, 1.0])
        fb = stabilizer_gain(p, (-1.0, -2.0), 10.0)
        got = eigenvalues(p.A + np.outer(p.B, fb.F))
        assert np.abs(got - [-10.0, -10.0]).max() < 1e-6

    def test_unit_bandwidth_places_base_roots(self):
        p = canonical_plant([0.0, 0.0])
        fb = stabilizer_gain(p, (-2.0, -3.0), 1.0)
        got = np.sort(eigenvalues(p.A + np.outer(p.B, fb.F)).real)
        assert np.abs(got - [-2.0, -1.0]).max() < 1e-8

    def test_non_hurwitz_base_rejected(self):
        with pytest.raises(NonHurwitzBase):
            stabilizer_gain(canonical_plant([0.0, 0.0]), (1.0, 2.0), 10.0)


class TestClosedLoopAndErrorSystem:
    def test_reference_closed_loop_spectrum(self):
        # all three designed spectra sit at -10, so the closed loop has a
        # defective 5-fold eigenvalue; compare in high precision
        p, exo, _, sg, rs = reference_design()
        obs = assemble_edo(p, exo, sg, rs)
        fb = stabilizer_gain(p, (-1.0, -2.0), 10.0)
        M, dist_col = closed_loop(p, obs, fb, rs)
        assert M.shape == (5, 5)
        assert np.array_equal(dist_col, [1.0, 0.0, 0.0, 0.0, 0.0])
        parts = [
            p.A + np.outer(p.B, fb.F),
            p.A + np.outer(sg.K_omega, p.C),
            exo.G + np.outer(exo.E, sg.P_omega),
        ]
        assert spectrum_gap(M, parts, 1e-6) < 1e-6

    def test_error_system_spectrum_and_forcing(self):
        p, exo, _, sg, rs = reference_design()
        A_err, B_err = error_system(assemble_edo(p, exo, sg, rs), exo)
        got = eigenvalues(A_err)
        assert np.abs(got - [-10.0, -10.0, -10.0]).max() < 1e-4  # defective triple
        assert spectrum_gap_f64(A_err, [p.A + np.outer(sg.K_omega, p.C), exo.G + np.outer(exo.E, sg.P_omega)]) < 1e-4
        assert np.array_equal(B_err, [0.0, 0.0, 1.0 / 1000.0])

    def test_error_system_of_a_known_dynamics_observer(self):
        # any observer has an error system: here F0 places {-2, -1} and F2 P_row = -1
        obs = known_dynamics_observer()
        A_err, B_err = error_system(obs, exosystem_from_spectrum([]))
        got = eigenvalues(A_err)
        assert np.abs(np.sort(got.real) - [-2.0, -1.0, -1.0]).max() < 1e-6 and np.abs(got.imag).max() < 1e-6
        assert np.array_equal(B_err, [0.0, 0.0, 1.0 / obs.d_hat_row[2]])

    def test_error_matrix_is_a_copy(self):
        obs = known_dynamics_observer()
        drift = obs.A_hat.copy()
        A_err, _ = error_system(obs, exosystem_from_spectrum([]))
        A_err[:] = 7.0
        assert np.array_equal(obs.A_hat, drift)

    def test_triangularizing_similarity(self):
        # at unit bandwidth the coupling transform block-triangularizes
        # the error matrix exactly
        p, exo, _, sg, rs = reference_design(omega_o=1.0)
        A_err, _ = error_system(assemble_edo(p, exo, sg, rs), exo)
        n, d = p.n, exo.dim
        P = np.eye(n + d)
        P[:n, n:] = rs.S
        transformed = P @ A_err @ np.linalg.inv(P)
        expected = np.zeros((n + d, n + d))
        expected[:n, :n] = p.A + np.outer(sg.K_omega, p.C)
        expected[n:, :n] = -np.outer(exo.E, p.C)
        expected[n:, n:] = exo.G + np.outer(exo.E, sg.P_omega)
        assert np.abs(transformed - expected).max() < 1e-10


class TestClosedLoopBuilder:
    """``closed_loop`` and ``simulate`` share one layout of the closed loop."""

    @pytest.mark.parametrize(
        "wrong, exc, message",
        [
            ("feedback_order", DimensionMismatch, "sizes disagree"),
            ("regulator_row", DimensionMismatch, "sizes disagree"),
            # the same sizes, but not the Q the observer reports d_hat with
            ("regulator_value", ValueError, "regulator solution is not the one the observer was assembled from"),
        ],
        ids=["feedback_order", "regulator_row", "regulator_value"],
    )
    def test_size_mismatch_raises(self, wrong, exc, message):
        d = scenario_design("fig2")
        p, obs, fb, rs = d.plant, d.observer, d.stabilizer, d.regulator
        if wrong == "feedback_order":
            fb = StabilizerGain(omega_c=fb.omega_c, F=np.append(fb.F, 1.0))
        elif wrong == "regulator_row":
            rs = RegulatorSolution(S=rs.S, Q=rs.Q[:-1])
        else:
            rs = scenario_design("fig3").regulator
        with pytest.raises(exc, match=message):
            closed_loop(p, obs, fb, rs)
        cfg = SimConfig(t_end=1e-3, dt=1e-4)
        with pytest.raises(exc, match=message):
            simulate(p, obs, fb, rs, Constant(0.0), cfg, np.zeros(p.n), np.zeros(obs.dim))

    def test_control_cancels_the_recorded_estimate(self):
        # u = F x_hat - d_hat, with d_hat the estimate the trajectory records
        cfg = cli.parse_config(cli.SCENARIOS["fig4"])
        tr = cli.run_config(dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, t_end=0.5)))
        d = cli.build_design(cfg)
        expected = tr.x_hat @ d.stabilizer.F - tr.d_hat
        assert np.abs(tr.u - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_integrated_drift_is_reported_drift(self, name):
        # one Euler step, ramp off and no noise: z1 = z0 + dt (M_cl z0 + col_d d(0))
        d = scenario_design(name)
        p, obs = d.plant, d.observer
        dist = cli.parse_config(cli.SCENARIOS[name]).disturbance
        z0 = np.random.default_rng(7).standard_normal(p.n + obs.dim)
        cfg = SimConfig(t_end=1e-4, dt=1e-4, integrator="euler")
        tr = simulate(p, obs, d.stabilizer, d.regulator, dist, cfg, z0[: p.n], z0[p.n :])
        z1 = np.concatenate([tr.x[1], tr.x_hat[1], tr.v_hat[1]])
        M_cl, col_d = closed_loop(p, obs, d.stabilizer, d.regulator)
        expected = z0 + cfg.dt * (M_cl @ z0 + col_d * evaluate(dist, 0.0))
        assert np.abs(z1 - expected).max() <= 1e-13 * np.abs(expected).max()
