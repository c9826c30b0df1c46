"""Command-line front end: design, simulate, scenario presets, probes.

Commands
--------
edo design   --config cfg.json --out report.json
edo simulate --config cfg.json --out run.csv [--svg run.svg]
edo scenario {fig1|fig2|fig3|fig4} --out outdir
edo probe    --omega 10,100,1000

Exit codes: 0 success, 2 configuration/flag error, 3 synthesis error,
4 simulated divergence.  The environment variable ``EDO_SEED`` (decimal
64-bit integer) overrides the configured noise seed.

The JSON configuration is strict: unknown keys and non-finite numbers
are rejected at every level.  Complex eigenvalues are written as
``[re, im]`` pairs and disturbance terms as tagged objects, for example
``{"type": "harmonic", "amplitude": 1.0, "frequency": 10.0, "phase": 0.0}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import linalg
from .disturbance import (
    Constant,
    ExpThenHold,
    Exosystem,
    Harmonic,
    Polynomial,
    Signal,
    Sum,
    exosystem_from_spectrum,
)
from .errors import ConfigError, EdoError, NonFinite
from .plant import Plant, canonical_plant
from .sim import SimConfig, Trajectory, high_gain_probe, metrics, peaking_counterexample_norm, simulate
from .synthesis import (
    GainBase,
    ObserverRealization,
    RegulatorSolution,
    ScheduledGains,
    StabilizerGain,
    assemble_edo,
    closed_loop,
    schedule_gains,
    solve_regulator,
    stabilizer_gain,
)

__all__ = ["main", "load_config", "build_design", "run_config", "SCENARIOS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYNTHESIS = 3
EXIT_DIVERGED = 4


# ---------------------------------------------------------------------------
# configuration parsing


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the double range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def _number_list(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty array of numbers")
    return [_number(v, where) for v in value]


def _parse_term(obj, where) -> Signal:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{where}: disturbance term needs a 'type' tag")
    kind = obj["type"]
    if kind == "constant":
        _require_keys(obj, ("type", "value"), ("type", "value"), where)
        return Constant(_number(obj["value"], where))
    if kind == "harmonic":
        _require_keys(obj, ("type", "amplitude", "frequency", "phase"), ("type", "amplitude", "frequency"), where)
        return Harmonic(
            _number(obj["amplitude"], where),
            _number(obj["frequency"], where),
            _number(obj.get("phase", 0.0), where),
        )
    if kind == "polynomial":
        _require_keys(obj, ("type", "coefficients"), ("type", "coefficients"), where)
        return Polynomial(tuple(_number_list(obj["coefficients"], where)))
    if kind == "exp_then_hold":
        _require_keys(obj, ("type", "switch_time"), ("type", "switch_time"), where)
        return ExpThenHold(_number(obj["switch_time"], where))
    raise ConfigError(f"{where}: unknown disturbance term type {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    plant: Plant
    spectrum: tuple
    omega_o: float
    omega_c: float
    k: tuple
    p: tuple
    disturbance: Signal
    sim: SimConfig
    x0: np.ndarray
    observer0: np.ndarray  # "zero" in the config is stored as a zero array


def load_config(path) -> RunConfig:
    """Read and validate a strict-JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw) -> RunConfig:
    top = ("plant", "exosystem", "gains", "disturbance", "sim", "initial")
    _require_keys(raw, top, top, "config")
    _require_keys(raw["plant"], ("a",), ("a",), "plant")
    a = _number_list(raw["plant"]["a"], "plant.a")
    plant = canonical_plant(a)

    _require_keys(raw["exosystem"], ("spectrum",), ("spectrum",), "exosystem")
    pairs_raw = raw["exosystem"]["spectrum"]
    if not isinstance(pairs_raw, list):
        raise ConfigError("exosystem.spectrum: expected an array of [re, im] pairs")
    spectrum = []
    for pair in pairs_raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("exosystem.spectrum: entries must be [re, im] pairs")
        spectrum.append(complex(_number(pair[0], "spectrum"), _number(pair[1], "spectrum")))

    gains = raw["gains"]
    _require_keys(gains, ("omega_o", "omega_c", "k", "p"), ("omega_o", "omega_c", "k", "p"), "gains")
    omega_o = _number(gains["omega_o"], "gains.omega_o")
    omega_c = _number(gains["omega_c"], "gains.omega_c")
    if omega_o <= 0.0 or omega_c <= 0.0:
        raise ConfigError("gains: bandwidths must be positive")
    k = tuple(_number_list(gains["k"], "gains.k"))
    p = tuple(_number_list(gains["p"], "gains.p"))
    if len(k) != len(a):
        raise ConfigError("gains.k must match the plant order")
    if len(p) != len(spectrum) + 1:
        raise ConfigError("gains.p must have one entry more than the exosystem spectrum")

    _require_keys(raw["disturbance"], ("terms",), ("terms",), "disturbance")
    terms = raw["disturbance"]["terms"]
    if not isinstance(terms, list) or not terms:
        raise ConfigError("disturbance.terms: expected a non-empty array")
    signal = Sum(tuple(_parse_term(t, "disturbance.terms") for t in terms))

    sim_raw = raw["sim"]
    sim_keys = ("t_end", "dt", "integrator", "noise_std", "seed", "output_ramp")
    _require_keys(sim_raw, sim_keys, sim_keys, "sim")
    if not isinstance(sim_raw["seed"], int) or isinstance(sim_raw["seed"], bool):
        raise ConfigError("sim.seed must be an integer")
    if not isinstance(sim_raw["output_ramp"], bool):
        raise ConfigError("sim.output_ramp must be a boolean")
    seed = _apply_seed_override(sim_raw["seed"])
    try:
        sim_cfg = SimConfig(
            t_end=_number(sim_raw["t_end"], "sim.t_end"),
            dt=_number(sim_raw["dt"], "sim.dt"),
            integrator=sim_raw["integrator"],
            noise_std=_number(sim_raw["noise_std"], "sim.noise_std"),
            seed=seed,
            output_ramp=sim_raw["output_ramp"],
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc

    init = raw["initial"]
    _require_keys(init, ("x0", "observer0"), ("x0", "observer0"), "initial")
    x0 = np.array(_number_list(init["x0"], "initial.x0"))
    if x0.size != len(a):
        raise ConfigError("initial.x0 must match the plant order")
    obs0_raw = init["observer0"]
    if obs0_raw == "zero":
        observer0 = np.zeros(len(a) + len(spectrum) + 1)
    else:
        observer0 = np.array(_number_list(obs0_raw, "initial.observer0"))
        if observer0.size != len(a) + len(spectrum) + 1:
            raise ConfigError("initial.observer0 must match the observer dimension")

    return RunConfig(
        plant=plant,
        spectrum=tuple(spectrum),
        omega_o=omega_o,
        omega_c=omega_c,
        k=k,
        p=p,
        disturbance=signal,
        sim=sim_cfg,
        x0=x0,
        observer0=observer0,
    )


def _apply_seed_override(seed: int) -> int:
    raw = os.environ.get("EDO_SEED")
    if raw is None:
        return seed
    try:
        value = int(raw, 10)
    except ValueError:
        raise ConfigError(f"EDO_SEED is not a decimal integer: {raw!r}") from None
    if not (-(2**63) <= value < 2**63):
        raise ConfigError("EDO_SEED does not fit a 64-bit integer")
    return value


# ---------------------------------------------------------------------------
# design pipeline and serialization


@dataclass(frozen=True)
class Design:
    plant: Plant
    exo: Exosystem
    gains: ScheduledGains
    regulator: RegulatorSolution
    observer: ObserverRealization
    stabilizer: StabilizerGain


def build_design(cfg: RunConfig) -> Design:
    """Run the synthesis pipeline for a parsed configuration."""
    exo = exosystem_from_spectrum(cfg.spectrum)
    base = GainBase(k=cfg.k, p=cfg.p)
    sg = schedule_gains(cfg.plant, exo, base, cfg.omega_o)
    rs = solve_regulator(cfg.plant, exo, sg)
    obs = assemble_edo(cfg.plant, exo, sg, rs)
    fb = stabilizer_gain(cfg.plant, cfg.k, cfg.omega_c)
    return Design(plant=cfg.plant, exo=exo, gains=sg, regulator=rs, observer=obs, stabilizer=fb)


def _spectrum_pairs(M) -> list:
    return [[float(lam.real), float(lam.imag)] for lam in linalg.eigenvalues(M)]


def design_report(design: Design) -> dict:
    """Nested plain-number report of every designed quantity."""
    p, exo, sg, rs, obs, fb = (
        design.plant,
        design.exo,
        design.gains,
        design.regulator,
        design.observer,
        design.stabilizer,
    )
    M_cl, dist_col = closed_loop(p, obs, fb, rs)
    return {
        "plant": {"a": list(p.a), "b": list(p.b)},
        "exosystem": {"g": list(exo.g), "spectrum": [[z.real, z.imag] for z in exo.spectrum]},
        "gains": {
            "omega_o": sg.omega_o,
            "omega_c": fb.omega_c,
            "K_omega": sg.K_omega.tolist(),
            "P_omega": sg.P_omega.tolist(),
            "stabilizer_F": fb.F.tolist(),
        },
        "regulator": {"S": rs.S.tolist(), "Q": rs.Q.tolist(), "Q_Bd": float(rs.Q @ exo.B_d)},
        "observer": {
            "A_hat": obs.A_hat.tolist(),
            "L_y": obs.L_y.tolist(),
            "B_u": obs.B_u.tolist(),
            "d_hat_row": obs.d_hat_row.tolist(),
        },
        "spectra": {
            "observer_state": _spectrum_pairs(p.A + np.outer(sg.K_omega, p.C)),
            "observer_carrier": _spectrum_pairs(exo.G + np.outer(exo.E, sg.P_omega)),
            "state_feedback": _spectrum_pairs(p.A + np.outer(p.B, fb.F)),
            "closed_loop": _spectrum_pairs(M_cl),
        },
        "closed_loop": {"drift": M_cl.tolist(), "disturbance_column": dist_col.tolist()},
    }


def run_config(cfg: RunConfig) -> Trajectory:
    """Design and simulate one configuration; returns the trajectory."""
    design = build_design(cfg)
    return simulate(
        cfg.plant,
        design.observer,
        design.stabilizer,
        design.regulator,
        cfg.disturbance,
        cfg.sim,
        cfg.x0,
        cfg.observer0,
    )


# ---------------------------------------------------------------------------
# file emission


@contextmanager
def _open_outputs(paths):
    """Open every output before the command's work; rewrite them after it.

    Yields one UTF-8 text stream (``newline=""``) per path, so a path that
    cannot be opened raises ``ConfigError`` before any work is done.  No
    file is opened with ``O_TRUNC``: on ext4 (``auto_da_alloc``) a file
    truncated to zero is flushed on close, and the next truncating open
    waits for the write-back.  If the block raises, the files created here
    are removed and the others left byte-unchanged, so the block finishes
    all that can fail before it writes.  Otherwise each regular file is cut
    at its final length; it keeps its inode, mode and links, and special
    files such as ``/dev/null`` are never truncated.
    """
    streams, created = [], []
    try:
        for path in paths:
            new = not os.path.lexists(path)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
            if new:
                created.append(path)
            streams.append(open(fd, "w", encoding="utf-8", newline=""))
        yield streams
    except BaseException:
        for fh in streams:
            fh.close()
        for path in created:
            os.unlink(path)
        raise
    for fh in streams:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
        fh.close()


def write_csv(fh, tr: Trajectory) -> None:
    n = tr.x.shape[1]
    v_dim = tr.v_hat.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xhat{i + 1}" for i in range(n)]
        + [f"vhat{i + 1}" for i in range(v_dim)]
        + ["d", "dhat", "u", "y"]
    )
    table = np.column_stack([tr.times, tr.x, tr.x_hat, tr.v_hat, tr.d, tr.d_hat, tr.u, tr.y])
    fh.write(",".join(header) + "\n")
    for row in table:
        # repr is the shortest digit string that round-trips the double
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def _polyline(ts, vs, x0, y0, w, h, t_span, v_span, limit=1200):
    stride = max(1, int(np.ceil(ts.size / limit)))
    idx = np.arange(0, ts.size, stride)
    if idx[-1] != ts.size - 1:
        idx = np.append(idx, ts.size - 1)
    t_lo, t_hi = t_span
    v_lo, v_hi = v_span
    dv = v_hi - v_lo or 1.0
    dt_ = t_hi - t_lo or 1.0
    px = x0 + (ts[idx] - t_lo) / dt_ * w
    py = y0 + h - (vs[idx] - v_lo) / dv * h
    return " ".join([f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), py.tolist())])


def write_svg(fh, tr: Trajectory) -> None:
    """Static three-panel figure: state estimates, estimation error, control."""
    panels = []
    n = tr.x.shape[1]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    series_sets = [
        (
            "states and estimates",
            [(f"x{i + 1}", tr.x[:, i]) for i in range(n)]
            + [(f"xhat{i + 1}", tr.x_hat[:, i]) for i in range(n)],
        ),
        ("disturbance estimation error", [("d-dhat", tr.d - tr.d_hat)]),
        ("control", [("u", tr.u)]),
    ]
    W, H, pad = 420, 300, 45
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{3 * W}" height="{H}" '
        f'font-family="monospace" font-size="11">'
    ]
    for pi, (title, series) in enumerate(series_sets):
        x0 = pi * W + pad
        y0 = 30
        w, h = W - 2 * pad, H - 75
        lo = min(float(np.min(vs)) for _, vs in series)
        hi = max(float(np.max(vs)) for _, vs in series)
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        t_span = (float(tr.times[0]), float(tr.times[-1]))
        parts.append(f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="#444"/>')
        parts.append(f'<text x="{x0}" y="18">{title}</text>')
        for si, (label, vs) in enumerate(series):
            color = colors[si % len(colors)]
            pts = _polyline(tr.times, vs, x0, y0, w, h, t_span, (lo, hi))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
            parts.append(
                f'<text x="{x0 + 6 + 70 * si}" y="{y0 + h + 28}" fill="{color}">{label}</text>'
            )
        parts.append(f'<text x="{x0}" y="{y0 + h + 14}">t in [{t_span[0]:.6g}, {t_span[1]:.6g}]</text>')
        parts.append(f'<text x="{x0 + w - 120}" y="{y0 - 12}">range [{lo:.6g}, {hi:.6g}]</text>')
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# scenario presets


def _scenario_config(spectrum, p_base, noise_std=0.0, seed=0) -> dict:
    return {
        "plant": {"a": [2.0, 1.0]},
        "exosystem": {"spectrum": spectrum},
        "gains": {"omega_o": 10.0, "omega_c": 10.0, "k": [-1.0, -2.0], "p": p_base},
        "disturbance": {
            "terms": [
                {"type": "harmonic", "amplitude": 1.0, "frequency": 10.0, "phase": 0.0},
                {"type": "constant", "value": 10.0},
            ]
        },
        "sim": {
            "t_end": 10.0,
            "dt": 1e-4,
            "integrator": "rk4",
            "noise_std": noise_std,
            "seed": seed,
            "output_ramp": True,
        },
        "initial": {"x0": [0.0, 1.0], "observer0": "zero"},
    }


#: Named presets: completely unknown, roughly known, and exactly known
#: disturbance dynamics, plus the noisy variant of the rough case.
SCENARIOS = {
    "fig1": _scenario_config([], [-1.0]),
    "fig2": _scenario_config([[0.0, 9.5], [0.0, -9.5]], [-1.0, -3.0, -3.0]),
    "fig3": _scenario_config([[0.0, 10.0], [0.0, -10.0]], [-1.0, -3.0, -3.0]),
    "fig4": _scenario_config([[0.0, 9.5], [0.0, -9.5]], [-1.0, -3.0, -3.0], noise_std=0.01, seed=1),
}

TAIL_FRACTION = 0.2


# ---------------------------------------------------------------------------
# commands


def cmd_design(config_path, out_path) -> int:
    cfg = load_config(config_path)
    with _open_outputs([out_path]) as (fh,):
        report = design_report(build_design(cfg))
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name in ("observer_state", "observer_carrier", "state_feedback", "closed_loop"):
        pairs = report["spectra"][name]
        pretty = ", ".join(f"{re:+.6g}{im:+.6g}j" for re, im in pairs)
        print(f"{name:16s}: {pretty}")
    return EXIT_OK


def _run_and_emit(cfg: RunConfig, csv_fh, svg_fh=None):
    """Simulate and score the run, then write the CSV (and the SVG if asked for)."""
    tr = run_config(cfg)
    m = metrics(tr, TAIL_FRACTION)
    write_csv(csv_fh, tr)
    if svg_fh is not None:
        write_svg(svg_fh, tr)
    return m


def cmd_simulate(config_path, out_csv, out_svg=None) -> int:
    cfg = load_config(config_path)
    with _open_outputs([out_csv] if out_svg is None else [out_csv, out_svg]) as streams:
        m = _run_and_emit(cfg, *streams)
    print(
        f"tail [{m.tail_window[0]:.6g}, {m.tail_window[1]:.6g}]: "
        f"max |d-dhat| = {m.tail_max_dist_err:.6g}, max ||x-xhat|| = {m.tail_max_state_err:.6g}"
    )
    return EXIT_OK


def cmd_scenario(name, out_dir) -> int:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror}") from None
    stem = os.path.join(out_dir, name)
    with _open_outputs([stem + ".csv", stem + ".svg", stem + "_metrics.json"]) as (csv_fh, svg_fh, json_fh):
        m = _run_and_emit(parse_config(SCENARIOS[name]), csv_fh, svg_fh)
        payload = {
            "scenario": name,
            "tail_window": [m.tail_window[0], m.tail_window[1]],
            "tail_max_dist_err": m.tail_max_dist_err,
            "tail_max_state_err": m.tail_max_state_err,
            "peak_abs": m.peak_abs,
        }
        json.dump(payload, json_fh, indent=2)
        json_fh.write("\n")
    print(f"{name}: tail_max_dist_err={m.tail_max_dist_err:.6g} tail_max_state_err={m.tail_max_state_err:.6g}")
    return EXIT_OK


def cmd_probe(omega_list) -> int:
    try:
        omegas = [_number(float(tok), "--omega") for tok in omega_list.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--omega expects a comma-separated number list, got {omega_list!r}") from None
    if not omegas or any(w <= 0.0 for w in omegas):
        raise ConfigError("--omega values must be positive")
    plant = canonical_plant([0.0, 0.0])
    base = GainBase(k=(-1.0, -2.0), p=(-1.0,))
    t_grid = np.linspace(0.0, 1.0, 201)
    table = high_gain_probe(base, plant, omegas, t_grid)
    print(f"{'omega':>12s} {'L_B(omega)':>16s} {'counterexample':>16s}")
    for w, lb in table:
        print(f"{w:12.6g} {lb:16.9g} {peaking_counterexample_norm(w):16.9g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="edo", description="Extended-dynamics observer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="synthesize an observer and write a design report")
    p_design.add_argument("--config", required=True)
    p_design.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="design and run the closed loop, write CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--svg", default=None)

    p_scen = sub.add_parser("scenario", help="run a named preset scenario")
    p_scen.add_argument("name")
    p_scen.add_argument("--out", required=True)

    p_probe = sub.add_parser("probe", help="print high-gain decay probe table")
    p_probe.add_argument("--omega", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "design":
            return cmd_design(args.config, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.svg)
        if args.command == "scenario":
            return cmd_scenario(args.name, args.out)
        if args.command == "probe":
            return cmd_probe(args.omega)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFinite as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except EdoError as exc:
        print(f"synthesis error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS


if __name__ == "__main__":
    raise SystemExit(main())
