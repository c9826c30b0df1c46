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

The JSON configuration is strict: unknown keys, repeated keys and
non-finite numbers are rejected at every level.  Complex eigenvalues are
written as ``[re, im]`` pairs and disturbance terms as tagged objects,
for example ``{"type": "harmonic", "amplitude": 1.0, "frequency": 10.0, "phase": 0.0}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import linalg, shortest
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


def _require_keys(obj, where, keys, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(keys) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {linalg.echo(sorted(unknown))}")
    missing = set(keys) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {linalg.echo(value)}")
    value = linalg.as_float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {linalg.echo(value)}")
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
        _require_keys(obj, where, ("type", "value"))
        return Constant(_number(obj["value"], where))
    if kind == "harmonic":
        _require_keys(obj, where, ("type", "amplitude", "frequency"), optional=("phase",))
        return Harmonic(
            _number(obj["amplitude"], where),
            _number(obj["frequency"], where),
            _number(obj.get("phase", 0.0), where),
        )
    if kind == "polynomial":
        _require_keys(obj, where, ("type", "coefficients"))
        return Polynomial(tuple(_number_list(obj["coefficients"], where)))
    if kind == "exp_then_hold":
        _require_keys(obj, where, ("type", "switch_time"))
        return ExpThenHold(_number(obj["switch_time"], where))
    raise ConfigError(f"{where}: unknown disturbance term type {linalg.echo(kind)}")


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
            raw = json.load(fh, object_pairs_hook=_object_without_repeats)
    except OSError as exc:
        raise ConfigError(f"cannot read config {linalg.cut(str(path))}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # bad syntax, bytes that are not UTF-8, integers beyond the digit limit, deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _object_without_repeats(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {linalg.echo(key)}")
        obj[key] = value
    return obj


def parse_config(raw) -> RunConfig:
    _require_keys(raw, "config", ("plant", "exosystem", "gains", "disturbance", "sim", "initial"))
    _require_keys(raw["plant"], "plant", ("a",))
    a = _number_list(raw["plant"]["a"], "plant.a")
    plant = canonical_plant(a)

    _require_keys(raw["exosystem"], "exosystem", ("spectrum",))
    pairs_raw = raw["exosystem"]["spectrum"]
    if not isinstance(pairs_raw, list):
        raise ConfigError("exosystem.spectrum: expected an array of [re, im] pairs")
    spectrum = []
    for pair in pairs_raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("exosystem.spectrum: entries must be [re, im] pairs")
        spectrum.append(complex(_number(pair[0], "exosystem.spectrum"), _number(pair[1], "exosystem.spectrum")))

    gains = raw["gains"]
    _require_keys(gains, "gains", ("omega_o", "omega_c", "k", "p"))
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

    _require_keys(raw["disturbance"], "disturbance", ("terms",))
    terms = raw["disturbance"]["terms"]
    if not isinstance(terms, list) or not terms:
        raise ConfigError("disturbance.terms: expected a non-empty array")
    signal = Sum(tuple(_parse_term(t, "disturbance.terms") for t in terms))

    sim_raw = raw["sim"]
    _require_keys(sim_raw, "sim", ("t_end", "dt", "integrator", "noise_std", "seed", "output_ramp"))
    if not isinstance(sim_raw["seed"], int) or isinstance(sim_raw["seed"], bool):
        raise ConfigError("sim.seed must be an integer")
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
    _require_keys(init, "initial", ("x0", "observer0"))
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
    match = re.fullmatch(r"([+-]?)0*([0-9]+)", raw)  # ASCII digits only: no "_", spaces or other scripts
    if match is None:
        raise ConfigError(f"EDO_SEED is not a decimal integer: {linalg.echo(raw)}")
    sign, digits = match.groups()
    if len(digits) > 19 or not (-(2**63) <= int(sign + digits) < 2**63):
        raise ConfigError("EDO_SEED does not fit a 64-bit integer")
    return int(sign + digits)


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
    """Run the synthesis pipeline for a parsed configuration, its closed loop included."""
    exo = exosystem_from_spectrum(cfg.spectrum)
    base = GainBase(k=cfg.k, p=cfg.p)
    sg = schedule_gains(cfg.plant, exo, base, cfg.omega_o)
    rs = solve_regulator(cfg.plant, exo, sg)
    obs = assemble_edo(cfg.plant, exo, sg, rs)
    fb = stabilizer_gain(cfg.plant, cfg.k, cfg.omega_c)
    closed_loop(cfg.plant, obs, fb, rs)  # refuses (Overflow) a drift beyond the double range before any run
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
            "observer_state": _spectrum_pairs(linalg.plus_outer(p.A, sg.K_omega, p.C, "A + K_omega C")),
            "observer_carrier": _spectrum_pairs(linalg.plus_outer(exo.G, exo.E, sg.P_omega, "G + E P_omega")),
            "state_feedback": _spectrum_pairs(linalg.plus_outer(p.A, p.B, fb.F, "A + B F")),
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
    cannot be opened, or that names a regular file another path names too
    (the same path, a hard link or a symlink to it), raises ``ConfigError``
    before any work is done.  No file is opened with ``O_TRUNC``: on ext4
    (``auto_da_alloc``) a file truncated to zero is flushed on close, and
    the next truncating open waits for the write-back.  If the block
    raises, the files created here are removed (a file created through a
    dangling symlink, not the link) and the others left byte-unchanged,
    so the block finishes all that can fail before it writes.  Otherwise
    each regular file is cut at its final length; it keeps its inode,
    mode and links, and special files such as ``/dev/null`` are never
    truncated.
    """
    streams, created, files = [], [], {}
    try:
        for path in paths:
            new = not os.path.exists(path)  # false for a dangling symlink: open creates its target
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            except OSError as exc:
                raise ConfigError(f"cannot write {linalg.cut(path)}: {exc.strerror}") from None
            if new:
                created.append(os.path.realpath(path))
            streams.append(open(fd, "w", encoding="utf-8", newline=""))
            info = os.fstat(fd)
            key = (info.st_dev, info.st_ino)
            if stat.S_ISREG(info.st_mode) and key in files:
                raise ConfigError(f"cannot write {linalg.cut(files[key])} and {linalg.cut(path)}: the same file")
            files[key] = path
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
    """Header, then one line per grid point; each value is written exactly as
    ``repr(float)`` writes it, the shortest text that reads back as the same
    double.  ``fh`` is a text stream over a binary ``buffer``, as ``open``
    returns: the header goes through the stream, the blocks to its buffer."""
    n = tr.x.shape[1]
    v_dim = tr.v_hat.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xhat{i + 1}" for i in range(n)]
        + [f"vhat{i + 1}" for i in range(v_dim)]
        + ["d", "dhat", "u", "y"]
    )
    columns = (tr.times, tr.x, tr.x_hat, tr.v_hat, tr.d, tr.d_hat, tr.u, tr.y)
    blocks = shortest.csv_blocks(columns)  # refuses a value that is not finite before any write
    fh.write(",".join(header) + "\n")
    fh.flush()
    fh.buffer.writelines(blocks)  # the ASCII bytes as formatted; each block is dropped before the next


def write_svg(fh, tr: Trajectory) -> None:
    """Static three-panel figure: state estimates, estimation error, control.
    Every point lies in the canvas, x in [45, 1215] and y in [30, 255], when
    the values are finite and the times ascend: a panel whose range is wider
    than the double range is placed from halved values."""
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
    w, h, y0 = W - 2 * pad, H - 75, 30
    ts = tr.times
    stride = max(1, int(np.ceil(ts.size / 1200)))  # at most 1200 points, and the last
    idx = np.append(np.arange(0, ts.size - 1, stride), ts.size - 1)
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    across = (ts[idx] - t_lo) / (t_hi - t_lo or 1.0) * w
    panels, px, py = [], [], []
    for pi, (title, series) in enumerate(series_sets):
        x0 = pi * W + pad
        lo = min(float(np.min(vs)) for _, vs in series)
        hi = max(float(np.max(vs)) for _, vs in series)
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        s = 1.0 if math.isfinite(hi - lo) else 0.5  # 1.0 keeps every byte; 0.5 every distance finite
        dv = s * hi - s * lo or 1.0
        panels.append((title, series, x0, lo, hi))
        px += [x0 + across] * len(series)
        py += [y0 + h - (s * vs[idx] - s * lo) / dv * h for _, vs in series]
    points = iter(shortest.polylines(np.array(px), np.array(py)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{3 * W}" height="{H}" '
        f'font-family="monospace" font-size="11">'
    ]
    for title, series, x0, lo, hi in panels:
        parts.append(f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="#444"/>')
        parts.append(f'<text x="{x0}" y="18">{title}</text>')
        for si, (label, _) in enumerate(series):
            color = colors[si % len(colors)]
            parts.append(f'<polyline points="{next(points)}" fill="none" stroke="{color}" stroke-width="1"/>')
            parts.append(
                f'<text x="{x0 + 6 + 70 * si}" y="{y0 + h + 28}" fill="{color}">{label}</text>'
            )
        parts.append(f'<text x="{x0}" y="{y0 + h + 14}">t in [{t_lo:.6g}, {t_hi:.6g}]</text>')
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


# ---------------------------------------------------------------------------
# commands


def cmd_design(config_path, out_path) -> int:
    cfg = load_config(config_path)
    with _open_outputs([out_path]) as (fh,):
        report = design_report(build_design(cfg))
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, pairs in report["spectra"].items():
        pretty = ", ".join(f"{real:+.6g}{imag:+.6g}j" for real, imag in pairs)
        print(f"{name:16s}: {pretty}")
    return EXIT_OK


def _run_and_emit(cfg: RunConfig, csv_fh, svg_fh=None):
    """Simulate and score the run, then write the CSV (and the SVG if asked for);
    only the run can fail, as ``simulate`` returns finite values alone."""
    tr = run_config(cfg)
    m = metrics(tr)
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
        raise ConfigError(f"unknown scenario {linalg.echo(name)}; choose from {sorted(SCENARIOS)}")
    cfg = parse_config(SCENARIOS[name])  # a refused preset makes no directory
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {linalg.cut(out_dir)}: {exc.strerror}") from None
    stem = os.path.join(out_dir, name)
    with _open_outputs([stem + ".csv", stem + ".svg", stem + "_metrics.json"]) as (csv_fh, svg_fh, json_fh):
        m = _run_and_emit(cfg, csv_fh, svg_fh)
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
        # float() alone reads "1_0" and other scripts' digits as 10; EDO_SEED refuses them too
        if not omega_list.isascii() or "_" in omega_list:
            raise ValueError
        omegas = [_number(float(tok), "--omega") for tok in omega_list.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--omega expects a comma-separated number list, got {linalg.echo(omega_list)}") from None
    if not omegas:
        raise ConfigError("--omega: no bandwidth given")
    if any(w <= 0.0 for w in omegas):
        raise ConfigError("--omega values must be positive")
    plant = canonical_plant([0.0, 0.0])
    base = GainBase(k=(-1.0, -2.0), p=(-1.0,))
    t_grid = np.linspace(0.0, 1.0, 201)
    table = high_gain_probe(base, plant, omegas, t_grid)
    print(f"{'omega':>12s} {'L_B(omega)':>16s} {'counterexample':>16s}")
    for w, lb in table:
        print(f"{w:12.6g} {lb:16.9g} {peaking_counterexample_norm(w):16.9g}")
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; each subcommand's ``run`` looks its
    ``cmd_*`` handler up when it is called."""
    parser = argparse.ArgumentParser(prog="edo", description="Extended-dynamics observer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="synthesize an observer and write a design report")
    p_design.add_argument("--config", required=True)
    p_design.add_argument("--out", required=True)
    p_design.set_defaults(run=lambda args: cmd_design(args.config, args.out))

    p_sim = sub.add_parser("simulate", help="design and run the closed loop, write CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--svg", default=None)
    p_sim.set_defaults(run=lambda args: cmd_simulate(args.config, args.out, args.svg))

    p_scen = sub.add_parser("scenario", help="run a named preset scenario")
    p_scen.add_argument("name")
    p_scen.add_argument("--out", required=True)
    p_scen.set_defaults(run=lambda args: cmd_scenario(args.name, args.out))

    p_probe = sub.add_parser("probe", help="print high-gain decay probe table")
    p_probe.add_argument("--omega", required=True)
    p_probe.set_defaults(run=lambda args: cmd_probe(args.omega))
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFinite as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except EdoError as exc:
        print(f"synthesis error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
