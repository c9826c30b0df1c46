"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Each workload builds a list of operations for one round from its seed.
``Op.run(tracer)`` is the timed call into the package; ``Op.check(out)``
verifies its output outside the timed section and returns counters
(sums, or maxima for keys ending in ``_max``), or raises ``CheckFailed``.

* ``presets``: the README scenario configurations fig1..fig4, cut to a 0.5 s
  horizon, through the ``edo simulate`` entry point writing CSV and SVG.
  The seed sets the order of the figures in each round.  Traced runs also
  run the full scenarios through ``edo scenario`` once, to check the
  README's claims.
* ``sim_grid``: ``sim.simulate`` alone over closed-loop designs that vary
  integrator, ramp, noise and state size, plus one configuration that must
  trip the divergence guard.  Each grid cell has a fixed pool of seeded
  variants with stored references; the seed picks a variant per cell and
  the order.
* ``design_sweep``: random designs over the acceptance range, stratified so
  every (plant order, carrier dimension) pair from 1..5 appears equally
  often, each run through the whole design pipeline and the JSON report,
  with a few ``high_gain_probe`` calls mixed in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from fractions import Fraction

import numpy as np

from edo import cli, disturbance, linalg, plant, sim, synthesis
from edo.errors import NonFinite
from tracer import Tracer

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

#: Reference comparisons are normwise per column: |value - reference|
#: divided by the column's largest magnitude over the whole trajectory.
#: Flipping the last bit of each observer-matrix entry moves the grid cases
#: by 2e-15 to 3e-13 of that scale; integrating with the other integrator
#: moves every case by 1e-2 or more.
REF_RTOL = 1e-9

#: Relative residual bound of the regulator equations (acceptance criterion 3).
REGULATOR_RTOL = 1e-8


class CheckFailed(Exception):
    pass


class Op:
    """One timed call: ``key`` is unique within a round, ``kind`` names the span."""

    def __init__(self, key, kind, run, check, sim_class=None, steps=0):
        self.key = key
        self.kind = kind
        self.run = run
        self.check = check
        self.sim_class = sim_class
        self.steps = steps


def expected_rows(t_end, dt) -> int:
    """``floor(t_end/dt) + 1`` in exact decimal arithmetic."""
    return math.floor(Fraction(repr(t_end)) / Fraction(repr(dt))) + 1


def scaled_error(rows, ref) -> float:
    got = np.asarray(rows, dtype=float)
    want = np.asarray(ref["rows"], dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"compared shape {got.shape} differs from reference {want.shape}")
    scale = np.maximum(np.asarray(ref["scale"], dtype=float), 1e-300)
    return float(np.max(np.abs(got - want) / scale))


def load_refs(name):
    with open(os.path.join(REFS_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# random designs


def _stable_base(rng, size, avoid=()):
    """Base gain vector whose companion matrix has well-separated stable roots."""
    roots, sep, tries = [], 0.25, 0
    while len(roots) < size:
        tries += 1
        if tries > 2000:  # box got crowded: restart with a looser separation
            roots, sep, tries = [], sep * 0.7, 0
        if size - len(roots) >= 2 and rng.random() < 0.5:
            c = complex(-rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
            cand = [c, c.conjugate()]
        else:
            cand = [complex(-rng.uniform(0.3, 4.0), 0.0)]
        if all(abs(c - e) > sep for c in cand for e in roots + list(avoid)):
            roots += cand
    poly = np.poly(roots).real
    return tuple(-poly[1:][::-1]), roots


def _spectrum(rng, m):
    """m exosystem eigenvalues: conjugate pairs on the imaginary axis, zeros for odd m."""
    freqs = []
    while len(freqs) < m // 2:
        f = rng.uniform(0.5, 12.0)
        if all(abs(f - g) > 0.4 for g in freqs):
            freqs.append(f)
    spectrum = []
    for f in freqs:
        spectrum += [complex(0.0, f), complex(0.0, -f)]
    return spectrum + [0.0] * (m - 2 * len(freqs)), freqs


def random_design_params(rng, n, m, omega):
    a = tuple(rng.uniform(-2.0, 2.0, n))
    k_obs, roots_obs = _stable_base(rng, n)
    k_ctrl, roots_ctrl = _stable_base(rng, n, avoid=roots_obs)
    p_base, _ = _stable_base(rng, m + 1, avoid=roots_obs + roots_ctrl)
    spectrum, freqs = _spectrum(rng, m)
    return {"a": a, "k": k_obs, "k_ctrl": k_ctrl, "p": p_base, "spectrum": spectrum,
            "freqs": freqs, "omega_o": omega, "omega_c": omega}


def design(t, prm):
    """Full synthesis pipeline for one design, each public call under a span."""
    p = t.call("plant.canonical_plant", plant.canonical_plant, prm["a"])
    exo = t.call("disturbance.exosystem_from_spectrum", disturbance.exosystem_from_spectrum, prm["spectrum"])
    base = t.call("synthesis.GainBase", synthesis.GainBase, k=prm["k"], p=prm["p"])
    sg = t.call("synthesis.schedule_gains", synthesis.schedule_gains, p, exo, base, prm["omega_o"])
    rs = t.call("synthesis.solve_regulator", synthesis.solve_regulator, p, exo, sg)
    obs = t.call("synthesis.assemble_edo", synthesis.assemble_edo, p, exo, sg, rs)
    fb = t.call("synthesis.stabilizer_gain", synthesis.stabilizer_gain, p, prm["k_ctrl"], prm["omega_c"])
    drift, _ = t.call("synthesis.closed_loop", synthesis.closed_loop, p, obs, fb, rs)
    return cli.Design(plant=p, exo=exo, gains=sg, regulator=rs, observer=obs, stabilizer=fb), drift


def regulator_residual(d) -> float:
    """Largest relative residual of the two regulator equations."""
    p, exo, sg, rs = d.plant, d.exo, d.gains, d.regulator
    A_inj = p.A + np.outer(sg.K_omega, p.C)
    r_syl = A_inj @ rs.S - rs.S @ exo.G - np.outer(p.B, rs.Q)
    scale = max(
        np.abs(A_inj).max() * max(np.abs(rs.S).max(), 1e-300),
        np.abs(rs.S).max() * max(np.abs(exo.G).max(), 1.0),
        np.abs(rs.Q).max(),
        1e-300,
    )
    r_out = np.abs(p.C @ rs.S - sg.P_omega).max() / max(np.abs(sg.P_omega).max(), 1e-300)
    return float(max(np.abs(r_syl).max() / scale, r_out))


def spectrum_gap(report) -> float:
    """Optimal-matching gap between the closed-loop spectrum and the designed union."""
    from scipy.optimize import linear_sum_assignment

    spectra = report["spectra"]
    cl = np.array([complex(*z) for z in spectra["closed_loop"]])
    union = np.array([complex(*z) for name in ("observer_state", "observer_carrier", "state_feedback")
                      for z in spectra[name]])
    if cl.size != union.size:
        raise CheckFailed(f"closed loop has {cl.size} eigenvalues, designed union {union.size}")
    cost = np.abs(cl[:, None] - union[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# presets


PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4")

#: Horizon of the timed preset runs.  At the README's 10 s one figure takes
#: about 6 s, too long to be repeated within a run on a time-sliced host
#: (see NOTES.md); the first half second is the same trajectory.
PRESET_T_END = 0.5

#: README claims on the tail disturbance-estimation error of the full 10 s
#: scenarios, checked by every traced run.
PRESET_CLAIMS = {"fig1": (1.2, 1.35), "fig2": (0.14, 0.18), "fig3": (0.0, 1e-9)}


def preset_config(name):
    raw = json.loads(json.dumps(cli.SCENARIOS[name]))
    raw["sim"]["t_end"] = PRESET_T_END
    return raw


def simulate_entry(config_path, csv_path, svg_path):
    """Exactly what ``edo simulate --config --out --svg`` does.

    In traced rounds the spans come from the functions ``cli.cmd_simulate``
    reaches, which ``worker.NESTED_CALLS`` wraps in place.
    """
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        rc = cli.main(["simulate", "--config", config_path, "--out", csv_path, "--svg", svg_path])
    return rc, captured.getvalue()


def read_files(*paths):
    files = []
    for path in paths:
        with open(path, "rb") as fh:
            files.append(fh.read())
    return files


def csv_rows(csv_bytes, index):
    """Header, row count and the parsed rows at ``index`` (0 = first data row)."""
    lines = csv_bytes.decode("ascii").split("\n")
    if lines[-1] != "":
        raise CheckFailed("CSV does not end with a newline")
    data = lines[1:-1]
    return lines[0], len(data), [[float(v) for v in data[i].split(",")] for i in index]


def check_trajectory_csv(name, csv_bytes, ref, t_end, dt):
    header, n_rows, rows = csv_rows(csv_bytes, ref["index"])
    if n_rows != expected_rows(t_end, dt) or header != ref["header"]:
        raise CheckFailed(f"{name}: {n_rows} rows with header {header!r}")
    err = scaled_error(rows, ref)
    if not err <= REF_RTOL:
        raise CheckFailed(f"{name}: trajectory deviates from reference by {err:.3g} of scale")


def check_svg(name, svg):
    if not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
        raise CheckFailed(f"{name}: SVG is not a complete document")


class Presets:
    #: Spans a traced run must record; a missing one fails the run.
    SPANS = ("cli.load_config", "cli.parse_config", "cli.build_design", "sim.simulate", "cli.write_csv",
             "cli.write_svg", "sim.metrics", "disturbance.exosystem_from_spectrum", "synthesis.schedule_gains",
             "synthesis.solve_regulator", "synthesis.assemble_edo", "synthesis.stabilizer_gain",
             "plant.controllability_canonical_transform", "linalg.eigenvalues")

    def __init__(self, seed, work_dir):
        self.refs = load_refs("presets")
        self.work_dir = work_dir
        self.order = [PRESET_NAMES[i] for i in np.random.default_rng(seed).permutation(len(PRESET_NAMES))]
        self.digests = {}
        os.makedirs(work_dir, exist_ok=True)
        for name in PRESET_NAMES:
            with open(os.path.join(work_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(preset_config(name), fh)

    def ops(self, traced):
        return [self._op(name, traced) for name in self.order]

    def _op(self, name, traced):
        config_path = os.path.join(self.work_dir, f"{name}.json")
        stem = os.path.join(self.work_dir, f"{name}-{'traced' if traced else 'entry'}")
        csv_path, svg_path = stem + ".csv", stem + ".svg"
        sim_cfg = preset_config(name)["sim"]

        def run(t):
            return simulate_entry(config_path, csv_path, svg_path)

        def check(out):
            rc, stdout = out
            if rc != 0 or not stdout.startswith("tail ["):
                raise CheckFailed(f"{name}: exit code {rc}, stdout {stdout!r}")
            csv_bytes, svg = read_files(csv_path, svg_path)
            digest = hashlib.sha256(csv_bytes + svg + stdout.encode()).hexdigest()
            # the first run of a figure in a process is untraced; every later
            # run, traced or not, must match it byte for byte
            if self.digests.setdefault(name, digest) != digest:
                raise CheckFailed(f"{name}: outputs differ from the first entry-point run")
            check_trajectory_csv(name, csv_bytes, self.refs["short"][name], sim_cfg["t_end"], sim_cfg["dt"])
            check_svg(name, svg)
            return {"csv_bytes": len(csv_bytes)}

        sim_class = "noise" if sim_cfg["noise_std"] > 0.0 else "rk4_ramp"
        steps = expected_rows(sim_cfg["t_end"], sim_cfg["dt"]) - 1
        return Op(name, "simulate_cli", run, check, sim_class=sim_class, steps=steps)

    def full_checks(self):
        """The README scenarios at full length through ``edo scenario``, untimed."""
        return [(f"{name}-full", lambda name=name: self._check_full(name)) for name in PRESET_NAMES]

    def _check_full(self, name):
        out_dir = os.path.join(self.work_dir, "full")
        rc, _ = scenario_entry(name, out_dir)
        if rc != 0:
            raise CheckFailed(f"{name}: edo scenario exited {rc}")
        ref = self.refs["full"][name]
        csv_bytes, svg, metrics_bytes = read_files(
            *(os.path.join(out_dir, name + suffix) for suffix in (".csv", ".svg", "_metrics.json")))
        sim_cfg = cli.SCENARIOS[name]["sim"]
        check_trajectory_csv(name, csv_bytes, ref, sim_cfg["t_end"], sim_cfg["dt"])
        check_svg(name, svg)
        metrics = json.loads(metrics_bytes)
        for key in ("tail_max_dist_err", "tail_max_state_err", "peak_abs"):
            want = ref["metrics"][key]
            if not abs(metrics[key] - want) <= REF_RTOL * max(abs(want), 1.0):
                raise CheckFailed(f"{name}: {key} {metrics[key]!r} differs from reference {want!r}")
        lo, hi = PRESET_CLAIMS.get(name, (0.0, math.inf))
        if not lo <= metrics["tail_max_dist_err"] <= hi:
            raise CheckFailed(f"{name}: tail_max_dist_err {metrics['tail_max_dist_err']:.4g} outside [{lo}, {hi}]")


def scenario_entry(name, out_dir):
    """``edo scenario <name> --out <dir>``; returns the exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        rc = cli.main(["scenario", name, "--out", out_dir])
    return rc, captured.getvalue()


# ---------------------------------------------------------------------------
# sim_grid

#: (name, integrator, output_ramp, noise_std, n, m, omega); every cell runs
#: t_end = 1.5 s at dt = 1e-3, short enough that each is repeated many
#: times in a run.  The last cell is fig3 at omega_o in the
#: thousands and dt = 1e-4, which RK4 cannot integrate: it must trip the
#: 1e12 divergence guard, at the t stored in the reference.
GRID_CELLS = (
    ("rk4_ramp_n2m0", "rk4", True, 0.0, 2, 0, 10.0),
    ("rk4_ramp_n5m4", "rk4", True, 0.0, 5, 4, 1.5),
    ("rk4_const_n2m0", "rk4", False, 0.0, 2, 0, 10.0),
    ("rk4_const_n5m4", "rk4", False, 0.0, 5, 4, 1.0),
    ("euler_ramp_n3m2", "euler", True, 0.0, 3, 2, 2.0),
    ("euler_const_n4m3", "euler", False, 0.0, 4, 3, 2.0),
    ("rk4_noise_n3m2", "rk4", True, 0.01, 3, 2, 2.0),
    ("euler_noise_n2m1", "euler", False, 0.01, 2, 1, 5.0),
    ("diverge_fig3", "rk4", True, 0.0, 2, 2, None),
)
GRID_T_END, GRID_DT = 1.5, 1e-3
DIVERGE_T_END, DIVERGE_DT = 0.3, 1e-4
DIVERGE_OMEGAS = (2800.0, 3000.0, 3200.0, 3400.0)
GRID_VARIANTS = 4
GRID_POOL_SEED = 20201112
GRID_REF_ROWS = 11


def sim_class(cell):
    _, integrator, ramp, noise, *_ = cell
    if noise > 0.0:
        return "noise"
    if integrator == "euler":
        return "euler"
    return "rk4_ramp" if ramp else "rk4_const"


def grid_case(cell_index, variant):
    """Design, signal, config and initial state of one pooled grid case."""
    name, integrator, ramp, noise, n, m, omega = GRID_CELLS[cell_index]
    if omega is None:
        raw = json.loads(json.dumps(cli.SCENARIOS["fig3"]))
        raw["gains"]["omega_o"] = DIVERGE_OMEGAS[variant]
        raw["sim"].update(t_end=DIVERGE_T_END, dt=DIVERGE_DT)
        cfg = cli.parse_config(raw)
        d = cli.build_design(cfg)
        return {"design": d, "signal": cfg.disturbance, "sim": cfg.sim, "x0": cfg.x0, "obs0": cfg.observer0}
    rng = np.random.default_rng([GRID_POOL_SEED, cell_index, variant])
    prm = random_design_params(rng, n, m, omega)
    d, _ = design(Tracer(), prm)
    freq = prm["freqs"][0] if prm["freqs"] else rng.uniform(0.5, 12.0)
    signal = disturbance.Sum((
        disturbance.Harmonic(rng.uniform(0.5, 2.0), freq, rng.uniform(0.0, 2.0 * math.pi)),
        disturbance.Constant(rng.uniform(-5.0, 5.0)),
    ))
    cfg = sim.SimConfig(t_end=GRID_T_END, dt=GRID_DT, integrator=integrator, noise_std=noise,
                        seed=int(rng.integers(2**32)), output_ramp=ramp)
    return {"design": d, "signal": signal, "sim": cfg, "x0": rng.uniform(-1.0, 1.0, n),
            "obs0": np.zeros(d.observer.dim)}


def simulate_case(t, case):
    d = case["design"]
    return t.call("sim.simulate", sim.simulate, d.plant, d.observer, d.stabilizer, d.regulator,
                  case["signal"], case["sim"], case["x0"], case["obs0"])


def trajectory_columns(tr):
    return np.column_stack([tr.times, tr.x, tr.x_hat, tr.v_hat, tr.d, tr.d_hat, tr.u, tr.y])


class SimGrid:
    SPANS = ("sim.simulate",)

    def __init__(self, seed):
        refs = load_refs("sim_grid")["cases"]
        rng = np.random.default_rng(seed)
        variants = rng.integers(GRID_VARIANTS, size=len(GRID_CELLS))
        self._ops = [self._op(i, int(variants[i]), refs) for i in rng.permutation(len(GRID_CELLS))]

    def ops(self, traced):
        return self._ops

    def full_checks(self):
        return []

    def _op(self, cell_index, variant, refs):
        cell = GRID_CELLS[cell_index]
        key = f"{cell[0]}/{variant}"
        ref = refs[key]
        case = grid_case(cell_index, variant)
        cfg = case["sim"]
        diverges = "t_trip" in ref

        def run(t):
            try:
                return simulate_case(t, case)
            except NonFinite as exc:
                if not diverges:
                    raise
                return exc

        def check(out):
            if diverges:
                if not isinstance(out, NonFinite):
                    raise CheckFailed(f"{key}: integrated to the end instead of tripping the guard")
                found = re.search(r"at t=(\S+)$", str(out))
                if not found or abs(float(found.group(1)) - ref["t_trip"]) > 1.5 * cfg.dt:
                    raise CheckFailed(f"{key}: {out} (reference t={ref['t_trip']})")
                return {"guard_trips": 1}
            if out.times.size != expected_rows(cfg.t_end, cfg.dt):
                raise CheckFailed(f"{key}: {out.times.size} rows")
            cols = trajectory_columns(out)
            if not np.all(np.isfinite(cols)):
                raise CheckFailed(f"{key}: non-finite values in the trajectory")
            err = scaled_error(cols[ref["index"]], ref)
            if not err <= REF_RTOL:
                raise CheckFailed(f"{key}: trajectory deviates from reference by {err:.3g} of scale")
            return {}

        steps = round(ref["t_trip"] / cfg.dt) if diverges else cfg.steps
        return Op(key, "simulate", run, check, sim_class=None if diverges else sim_class(cell), steps=steps)


# ---------------------------------------------------------------------------
# design_sweep

SWEEP_ORDERS = range(1, 6)          # plant order n
SWEEP_CARRIER_DIMS = range(1, 6)    # carrier dimension m + 1
SWEEP_PER_CELL = 4
SWEEP_OMEGA = (1.0, 50.0)           # log-uniform
PROBE_EVERY = 25
PROBE_OMEGAS = (1.0, 10.0, 100.0)
PROBE_T_GRID = np.linspace(0.0, 1.0, 21)


class DesignSweep:
    SPANS = ("plant.canonical_plant", "disturbance.exosystem_from_spectrum", "synthesis.GainBase",
             "synthesis.schedule_gains", "synthesis.solve_regulator", "synthesis.assemble_edo",
             "synthesis.stabilizer_gain", "synthesis.closed_loop", "cli.design_report",
             "plant.controllability_canonical_transform", "linalg.eigenvalues", "linalg.expm",
             "sim.high_gain_probe")

    def __init__(self, seed, with_gap):
        rng = np.random.default_rng(seed)
        params = []
        for n in SWEEP_ORDERS:
            for mp1 in SWEEP_CARRIER_DIMS:
                for _ in range(SWEEP_PER_CELL):
                    omega = math.exp(rng.uniform(*np.log(SWEEP_OMEGA)))
                    params.append(random_design_params(rng, n, mp1 - 1, omega))
        params = [params[i] for i in rng.permutation(len(params))]
        self._ops = []
        for i, prm in enumerate(params):
            self._ops.append(self._design_op(f"design{i}", prm, with_gap))
            if (i + 1) % PROBE_EVERY == 0:
                self._ops.append(self._probe_op(f"probe{i}", prm))

    def ops(self, traced):
        return self._ops

    def full_checks(self):
        return []

    def _design_op(self, key, prm, with_gap):
        def run(t):
            d, drift = design(t, prm)
            report = t.call("cli.design_report", cli.design_report, d)
            return d, drift, report, json.dumps(report, indent=2) + "\n"

        def check(out):
            d, drift, report, text = out
            resid = regulator_residual(d)
            if not resid < REGULATOR_RTOL:
                raise CheckFailed(f"{key}: regulator residual {resid:.3g}")
            if not linalg.is_hurwitz(drift):
                raise CheckFailed(f"{key}: closed loop is not Hurwitz")
            if max(re for re, _ in report["spectra"]["closed_loop"]) >= 0.0:
                raise CheckFailed(f"{key}: reported closed-loop spectrum is not stable")
            if json.loads(text) != report:
                raise CheckFailed(f"{key}: JSON report does not round-trip")
            counters = {"designs": 1, "regulator_residual_max": resid}
            if with_gap:
                counters["spectrum_gap_max"] = spectrum_gap(report)
            return counters

        return Op(key, "design", run, check)

    def _probe_op(self, key, prm):
        p = plant.canonical_plant(prm["a"])
        base = synthesis.GainBase(k=prm["k"], p=prm["p"])

        def run(t):
            return t.call("sim.high_gain_probe", sim.high_gain_probe, base, p, PROBE_OMEGAS, PROBE_T_GRID)

        def check(table):
            values = [v for _, v in table]
            if [w for w, _ in table] != list(PROBE_OMEGAS) or not all(math.isfinite(v) and v > 0.0 for v in values):
                raise CheckFailed(f"{key}: probe table {table}")
            return {"probes": 1}

        return Op(key, "probe", run, check)
