"""Acceptance suite: one check per shipping criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS|FAIL`` line (run pytest
with ``-s`` or read captured output) and then asserts.  Two checks are
known to fail and are left failing on purpose; their tests explain the
measured behavior:

* criterion 5 (separation clause): at the largest order/bandwidth corner
  the assembled drift's double-precision representation alone moves
  eigenvalues by more than the 1e-6 tolerance (the design itself is
  exact, as the in-test exact-assembly control shows).
* criterion 7 (decay clause): the hand instance shares the eigenvalue -1
  between its two designed blocks, which makes it defective; the t e^-t
  factor delays the 1e-6 crossing from t = 15 to t ~ 19.
"""

import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    mp_assembled_separation_gap,
    multiset_gap,
    random_instance,
    regulator_residuals,
    spectrum_gap,
)
from edo import cli
from edo import (
    Constant,
    GainBase,
    GeneralPlant,
    SimConfig,
    canonical_plant,
    exosystem_from_spectrum,
    high_gain_probe,
    metrics,
    schedule_gains,
    simulate,
    solve_regulator,
    solve_regulator_spectral,
    stabilizer_gain,
)
from edo.linalg import eigenvalues
from edo.plant import observability_matrix
from edo.sim import peaking_counterexample_norm
from edo.synthesis import RegulatorSolution, assemble_edo, assemble_known_dynamics_observer, closed_loop

SUITE_SEED = 987654321
SUITE_SIZE = 200


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """fig1..fig3 scenario runs with wall-clock timings."""
    out = {}
    for name in ("fig1", "fig2", "fig3"):
        directory = tmp_path_factory.mktemp(f"scen_{name}")
        start = time.perf_counter()
        rc = cli.main(["scenario", name, "--out", str(directory)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        payload = json.loads((directory / f"{name}_metrics.json").read_text())
        out[name] = {"metrics": payload, "seconds": elapsed, "dir": directory}
    return out


@pytest.fixture(scope="module")
def randomized_suite():
    rng = np.random.default_rng(SUITE_SEED)
    return [random_instance(rng) for _ in range(SUITE_SIZE)]


def test_criterion_1_scenario_ordering(scenario_runs):
    """Known dynamics must help: strictly decreasing tail error, and the
    exact-model scenario converges below 1e-3 within the budgeted time."""
    d1 = scenario_runs["fig1"]["metrics"]["tail_max_dist_err"]
    d2 = scenario_runs["fig2"]["metrics"]["tail_max_dist_err"]
    d3 = scenario_runs["fig3"]["metrics"]["tail_max_dist_err"]
    s3 = scenario_runs["fig3"]["metrics"]["tail_max_state_err"]
    runtimes = {k: v["seconds"] for k, v in scenario_runs.items()}
    ok = (
        d1 > d2 > d3
        and d3 < 1e-3
        and s3 < 1e-3
        and all(sec < 10.0 for sec in runtimes.values())
    )
    report(
        1,
        ok,
        f"tail errors {d1:.4g} > {d2:.4g} > {d3:.4g}, fig3 state {s3:.3g}, "
        f"runtimes {', '.join(f'{k}={v:.1f}s' for k, v in runtimes.items())}",
    )
    assert ok


def test_criterion_2_bandwidth_scaling():
    """Doubling the bandwidth must cut the tail error to 0.3..0.7.

    The fig1 design models only the constant, so ``sin(10 t)`` is the
    residual and every observer pole sits at -omega_o.  Its stationary
    disturbance-estimation error amplitude has the closed form

        E(w) = |s (s^2 + 3 w s + 3 w^2)| / |s + w|^3   at s = 10j,

    whose leading term 3 sup|d'| / w is the inverse-bandwidth law.  That
    term governs only once the bandwidth clearly exceeds the disturbance
    frequency: at w = 10 -> 20 the closed form gives 1.2748 -> 1.1207, a
    ratio of 0.879 that no correct program can bring into the window.
    The doubling is therefore evaluated at w = 40 -> 80 (lower bandwidth
    four times the disturbance frequency), where the closed form gives
    0.69205 -> 0.36734, a ratio of 0.531.  Everything else is the fig1
    config unchanged.  The 10 -> 20 tails stay pinned against the
    frequency oracle in ``test_sim.TestSteadyStateAgainstFrequencyOracle``.
    """
    low, high = 40.0, 80.0
    tails = {}
    for omega_o in (low, high):
        cfg_dict = json.loads(json.dumps(cli.SCENARIOS["fig1"]))
        cfg_dict["gains"]["omega_o"] = omega_o
        cfg = cli.parse_config(cfg_dict)
        tr = cli.run_config(cfg)
        tails[omega_o] = metrics(tr).tail_max_dist_err
    ratio = tails[high] / tails[low]
    ok = 0.3 <= ratio <= 0.7
    report(
        2,
        ok,
        f"tail ratio at omega_o {high:g} vs {low:g} = {ratio:.4f} "
        f"({tails[low]:.5g} -> {tails[high]:.5g}, want 0.3..0.7)",
    )
    assert ok


def test_criterion_3_regulator_correctness(randomized_suite):
    """Residuals, method agreement, read-out observability, and the
    |Q B_d| magnitude identity across the randomized design sweep."""
    worst_resid = worst_qbd = worst_agree = 0.0
    rank_ok = True
    for inst in randomized_suite:
        p, exo, sg, rs = inst["plant"], inst["exo"], inst["sg"], inst["rs"]
        r1, r2 = regulator_residuals(p, exo, sg, rs)
        worst_resid = max(worst_resid, r1, r2)
        qbd = abs(rs.Q @ exo.B_d)
        expect = abs(inst["base"].k[0] * inst["base"].p[0]) * inst["omega"] ** (p.n + exo.dim)
        worst_qbd = max(worst_qbd, abs(qbd - expect) / expect)
        rows = observability_matrix(exo.G, rs.Q)
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        sv = np.linalg.svd(rows, compute_uv=False)
        rank_ok = rank_ok and sv[-1] > 1e-9 * sv[0]
        if inst["diagonalizable"]:
            rs2 = solve_regulator_spectral(p, exo, sg)
            scale = max(1.0, np.abs(rs.S).max(), np.abs(rs.Q).max())
            worst_agree = max(
                worst_agree,
                np.abs(rs.S - rs2.S).max() / scale,
                np.abs(rs.Q - rs2.Q).max() / scale,
            )
    ok = worst_resid < 1e-8 and worst_qbd < 1e-8 and worst_agree < 1e-8 and rank_ok
    report(
        3,
        ok,
        f"{len(randomized_suite)} instances: residual {worst_resid:.2e}, "
        f"|QBd| dev {worst_qbd:.2e}, method gap {worst_agree:.2e}, read-out rank ok={rank_ok}",
    )
    assert ok


def test_criterion_4_closed_forms():
    """Constant-dynamics design reproduces the closed-form S, Q and the
    assembled innovation coefficients."""
    p = canonical_plant([2.0, 1.0])
    exo = exosystem_from_spectrum([])
    sg = schedule_gains(p, exo, GainBase(k=(-1.0, -2.0), p=(-1.0,)), 10.0)
    rs = solve_regulator(p, exo, sg)
    obs = assemble_edo(p, exo, sg, rs)
    innovation = -obs.L_y[:2]
    ok = (
        np.abs(rs.S.ravel() - [-200.0, -10.0]).max() < 1e-10
        and abs(rs.Q[0] - 1000.0) < 1e-10
        and np.abs(innovation - [-302.0, -31.0]).max() < 1e-10
    )
    report(4, ok, f"S={rs.S.ravel()}, Q={rs.Q[0]:.6f}, innovation={innovation}")
    assert ok


def test_criterion_5_separation_and_scaling(randomized_suite):
    """Closed-loop spectrum equals the designed union (multiset, 1e-6,
    eigensolver noise removed by escalating precision) and the bandwidth
    scaling law holds to 1e-8.

    KNOWN FAILURE of the separation clause at extreme corners: the
    coupling matrix S grows like omega^(n+m), so at (n=5, m=4,
    omega=50) the double-precision representation of the assembled
    drift perturbs entries by ~eps * |S|, which moves eigenvalues by
    more than 1e-6 no matter how the spectra are computed.  The same
    instances re-assembled in exact arithmetic from the identical f64
    design data meet the designed union to ~5e-10 (reported below), so
    the design is exact and the miss is representation rounding.
    """
    worst_gap = worst_scaling = 0.0
    worst_inst = worst_fb = None
    for inst in randomized_suite:
        p, exo, sg, rs = inst["plant"], inst["exo"], inst["sg"], inst["rs"]
        w = inst["omega"]
        obs = assemble_edo(p, exo, sg, rs)
        fb = stabilizer_gain(p, inst["k_ctrl"], w)
        M, _ = closed_loop(p, obs, fb, rs)
        parts = [
            p.A + np.outer(p.B, fb.F),
            p.A + np.outer(sg.K_omega, p.C),
            exo.G + np.outer(exo.E, sg.P_omega),
        ]
        gap = spectrum_gap(M, parts, 1e-6)
        if gap > worst_gap:
            worst_gap, worst_inst, worst_fb = gap, inst, fb
        base = inst["base"]
        A_unit = p.A + np.outer(np.array([base.k[j] - p.a[j] for j in range(p.n)]), p.C)
        got = eigenvalues(p.A + np.outer(sg.K_omega, p.C))
        worst_scaling = max(worst_scaling, multiset_gap(got, w * eigenvalues(A_unit)) / max(1.0, w))
    control = mp_assembled_separation_gap(worst_inst, worst_fb)
    ok = worst_gap < 1e-6 and worst_scaling < 1e-8
    report(
        5,
        ok,
        f"worst f64 spectrum gap {worst_gap:.2e} (exact-assembly control {control:.2e}), "
        f"worst scaling deviation {worst_scaling:.2e}",
    )
    assert ok


def test_criterion_6_high_gain_probe():
    """Counterexample norm matches its closed form and grows; the
    canonical family's empirical constant stays bounded."""
    omegas = [10.0, 100.0, 1000.0]
    got = [peaking_counterexample_norm(w) for w in omegas]
    want = [np.exp(-1.0) * np.hypot(2.0 + 1.0 / w, w) for w in omegas]
    rel = max(abs(g - w_) / w_ for g, w_ in zip(got, want))
    increasing = got[0] < got[1] < got[2]
    table = high_gain_probe(
        GainBase(k=(-1.0, -2.0), p=(-1.0,)),
        canonical_plant([0.0, 0.0]),
        [5.0, 10.0, 20.0, 40.0],
        np.linspace(0.0, 1.0, 201),
    )
    values = [lb for _, lb in table]
    spread = max(values) / min(values)
    ok = rel < 1e-6 and increasing and spread <= 10.0
    report(6, ok, f"counterexample rel dev {rel:.2e}, increasing={increasing}, family spread {spread:.2f}")
    assert ok


def test_criterion_7_known_dynamics_path():
    """Hand-derived design values, then error decay below 1e-6 of the
    initial error by t = 15 under a constant disturbance.

    KNOWN PARTIAL FAILURE: the gain values match exactly, but the decay
    clause misses its deadline.  The designed blocks share the eigenvalue
    -1 and the coupled pair is defective, so the error carries a t e^-t
    term: measured ratio at t = 15 is ~3e-5, crossing 1e-6 only at t ~ 19.
    """
    p = canonical_plant([2.0, 1.0])
    gp = GeneralPlant(p.A, p.B, p.C)
    obs = assemble_known_dynamics_observer(gp, [[0.0]], [1.0], [-4.0, -4.0], [-1.0])
    F1 = -obs.L_y[:2]
    Q = obs.d_hat_row[2:]
    S = np.array([-4.0, -4.0]) - F1  # F1 = F0 + S F2 with F2 = -1
    values_ok = (
        np.abs(S - [3.0, 1.0]).max() < 1e-10
        and abs(Q[0] + 2.0) < 1e-10
        and np.abs(F1 - [-7.0, -5.0]).max() < 1e-10
    )
    fb = stabilizer_gain(p, (-1.0, -2.0), 2.0)
    rs_like = RegulatorSolution(S=np.zeros((2, 1)), Q=Q)
    d = Constant(10.0)
    v0 = d.level / Q[0]
    x0 = np.array([0.0, 1.0])
    tr = simulate(p, obs, fb, rs_like, d, SimConfig(t_end=15.0, dt=1e-3), x0, np.zeros(3))
    err = np.sqrt(np.sum((tr.x - tr.x_hat) ** 2, axis=1) + (v0 - tr.v_hat[:, 0]) ** 2)
    init = float(np.linalg.norm(np.concatenate([x0, [v0]])))
    ratio = float(err[-1] / init)
    decay_ok = ratio < 1e-6
    ok = values_ok and decay_ok
    report(
        7,
        ok,
        f"values clause {'ok' if values_ok else 'BAD'}; decay ratio at t=15 is {ratio:.2e} (want < 1e-6)",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed give byte-identical emitted files; the
    noisy scenario yields finite metrics."""
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert cli.main(["scenario", "fig4", "--out", str(d)]) == 0
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("fig4.csv", "fig4.svg", "fig4_metrics.json")
    )
    rows = (dirs[0] / "fig4.csv").read_bytes().count(b"\n")
    payload = json.loads((dirs[0] / "fig4_metrics.json").read_text())
    finite = all(
        np.isfinite(payload[k]) for k in ("tail_max_dist_err", "tail_max_state_err", "peak_abs")
    )
    ok = identical and finite and rows == 1 + 100001  # header + grid records
    report(8, ok, f"byte-identical={identical}, finite metrics={finite}, csv lines={rows} "
                  f"(fig4 tail dist err {payload['tail_max_dist_err']:.4g})")
    assert ok


#: Each child names the OpenBLAS core it runs on, read by ``tools/digest.py``'s
#: ``blas_core``, then runs ``edo simulate --svg`` on each config in process,
#: with a RuntimeWarning an error, as in this suite.
KERNEL_CHILD = """
import contextlib, importlib.util, io, json, sys

tool, configs, out, *names = sys.argv[1:]
spec = importlib.util.spec_from_file_location("digest", tool)
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)  # puts this checkout's src first on sys.path
from edo import cli

runs = {"core": digest.blas_core()}
for name in names:
    argv = ["simulate", "--config", f"{configs}/{name}.json", "--out", f"{out}/{name}.csv", "--svg", f"{out}/{name}.svg"]
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()) as stderr:
        rc = cli.main(argv)
    runs[name] = [rc, stdout.getvalue(), stderr.getvalue()]
json.dump(runs, sys.stdout)
"""
KERNEL_SETTINGS = {"haswell-1": ("Haswell", "1"), "haswell-2": ("Haswell", "2"), "sandybridge-1": ("Sandybridge", "1")}


def test_outputs_across_blas_kernels(tmp_path):
    """README's scope of byte identity: the four presets cut to 0.5 s and a
    fig3 run that trips the divergence guard, in one child interpreter per
    OpenBLAS kernel and thread count.  On one kernel, 1 and 2 threads give
    the same CSV, SVG, stdout and stderr bytes; from Haswell to Sandybridge
    (no FMA) every CSV column agrees within 1e-12 of its scale and the guard
    trips at the same t."""
    configs = {name: copy.deepcopy(cli.SCENARIOS[name]) for name in ("fig1", "fig2", "fig3", "fig4")}
    for cfg in configs.values():
        cfg["sim"]["t_end"] = 0.5
    configs["trip"] = copy.deepcopy(cli.SCENARIOS["fig3"])
    configs["trip"]["gains"]["omega_o"] = 3000.0
    configs["trip"]["sim"].update(dt=1e-4, t_end=0.3)
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    tool = str(Path(__file__).resolve().parent.parent / "tools" / "digest.py")
    children = {}
    for setting, (core, threads) in KERNEL_SETTINGS.items():
        (tmp_path / setting).mkdir()
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", KERNEL_CHILD, tool, str(tmp_path),
                str(tmp_path / setting), *configs]
        children[setting] = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    runs = {}
    for setting, child in children.items():
        stdout, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr.decode()
        runs[setting] = json.loads(stdout)
    for setting, (core, _) in KERNEL_SETTINGS.items():
        if runs[setting]["core"] != core:
            pytest.skip(f"OPENBLAS_CORETYPE={core} runs the {runs[setting]['core']} kernel: "
                        "numpy's BLAS kernel cannot be chosen here")

    def files(setting, name):
        return [(tmp_path / setting / f"{name}{suffix}").read_bytes() for suffix in (".csv", ".svg")]

    haswell, sandybridge = runs["haswell-1"], runs["sandybridge-1"]
    assert runs["haswell-2"] == haswell
    for name in ("fig1", "fig2", "fig3", "fig4"):
        assert haswell[name][0] == sandybridge[name][0] == 0
        assert files("haswell-2", name) == files("haswell-1", name)
        got, want = (np.loadtxt(tmp_path / setting / f"{name}.csv", delimiter=",", skiprows=1)
                     for setting in ("sandybridge-1", "haswell-1"))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0))
    trip_at = [re.fullmatch(r"divergence: .* at t=(\S+)\n", run["trip"][2]).group(1) for run in (haswell, sandybridge)]
    assert haswell["trip"][0] == sandybridge["trip"][0] == 4
    assert trip_at[0] == trip_at[1]
    assert not any((tmp_path / setting / "trip.csv").exists() for setting in KERNEL_SETTINGS)
