"""Regenerate the stored reference trajectories in ``bench/refs``.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python3 bench/make_refs.py

The references pin the results of the tree they were generated from.  The
benchmark compares later trees against them with the tolerances in
``workloads.py``, so regenerate them only when a change of results is
intended and stated.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import numpy as np

import workloads as wl
from edo.errors import NonFinite
from tracer import Tracer

FULL_STRIDE = 2000
SHORT_STRIDE = 250


def _dump(name, payload):
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    with open(os.path.join(wl.REFS_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def _csv_case(csv_bytes, stride):
    lines = csv_bytes.decode("ascii").split("\n")[:-1]
    full = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    index = list(range(0, full.shape[0], stride))
    if index[-1] != full.shape[0] - 1:
        index.append(full.shape[0] - 1)
    return {"header": lines[0], "index": index, "rows": full[index].tolist(), "scale": np.abs(full).max(axis=0).tolist()}


def presets(tmp):
    full, short = {}, {}
    for name in wl.PRESET_NAMES:
        rc, _ = wl.scenario_entry(name, tmp)
        if rc != 0:
            raise SystemExit(f"{name}: edo scenario exited {rc}")
        csv_bytes, metrics_bytes = wl.read_files(os.path.join(tmp, f"{name}.csv"), os.path.join(tmp, f"{name}_metrics.json"))
        metrics = json.loads(metrics_bytes)
        lo, hi = wl.PRESET_CLAIMS.get(name, (0.0, float("inf")))
        print(f"{name}: tail_max_dist_err {metrics['tail_max_dist_err']:.6g}, README claim [{lo}, {hi}]")
        full[name] = _csv_case(csv_bytes, FULL_STRIDE)
        full[name]["metrics"] = {k: metrics[k] for k in ("tail_max_dist_err", "tail_max_state_err", "peak_abs")}

        config_path, csv_path = os.path.join(tmp, f"{name}-short.json"), os.path.join(tmp, f"{name}-short.csv")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(wl.preset_config(name), fh)
        rc, _ = wl.simulate_entry(config_path, csv_path, os.path.join(tmp, f"{name}-short.svg"))
        if rc != 0:
            raise SystemExit(f"{name}: edo simulate exited {rc}")
        short[name] = _csv_case(wl.read_files(csv_path)[0], SHORT_STRIDE)
    _dump("presets", {"full": full, "short": short})


def sim_grid():
    cases = {}
    for cell_index, cell in enumerate(wl.GRID_CELLS):
        for variant in range(wl.GRID_VARIANTS):
            key = f"{cell[0]}/{variant}"
            case = wl.grid_case(cell_index, variant)
            try:
                tr = wl.simulate_case(Tracer(), case)
            except NonFinite as exc:
                if cell[6] is not None:
                    raise
                cases[key] = {"t_trip": float(re.search(r"at t=(\S+)$", str(exc)).group(1))}
                continue
            if cell[6] is None:
                raise SystemExit(f"{key}: expected divergence, integrated to the end")
            cols = wl.trajectory_columns(tr)
            index = np.linspace(0, cols.shape[0] - 1, wl.GRID_REF_ROWS).round().astype(int).tolist()
            cases[key] = {
                "index": index,
                "rows": cols[index].tolist(),
                "scale": np.abs(cols).max(axis=0).tolist(),
            }
            print(f"{key}: max |z| {np.abs(cols).max():.3g}")
    _dump("sim_grid", {"cases": cases})


def main():
    tmp = os.path.join(".bench_out", "make_refs")
    os.makedirs(tmp, exist_ok=True)
    try:
        presets(tmp)
        sim_grid()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
