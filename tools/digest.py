"""Print one SHA-256 per group of outputs, to show that a change kept them
byte for byte, or how far its trajectories moved.

``python tools/digest.py`` prints the digests of this checkout's ``src``;
the seeded inputs come from its ``bench/workloads.py``, which is imported
and not modified, except those of ``signals``, which the tool draws itself.  ``python tools/digest.py PARENT_CHECKOUT`` digests this
checkout and ``PARENT_CHECKOUT``, each in its own child process, prints
``same`` or ``DIFFERS`` per group and exits 1 on any difference.  For the
trajectory groups (``scenarios``, ``sim_grid`` and ``simulate``) it also
prints the largest deviation as a fraction of column scale: the largest
``|this - parent|`` in a trajectory column over the largest ``|parent|`` in
it, ``inf`` if trip messages or run lengths differ; the ``sim_grid`` cases
that trip the divergence guard are printed with their message.
``python tools/digest.py ROOT OUT`` is the child, which writes the digests
and trajectories of checkout ``ROOT`` to the ``.npz`` file ``OUT``.
``EDO_SEED`` is ignored, so that the digests are those of the configured
seeds, and a numpy ``RuntimeWarning`` is an error, as in the tests, so that
no comparison passes over a leaked overflow.  The groups are:

* ``scenarios``: the 12 files of ``edo scenario fig1..fig4`` and stdout;
* ``design``: the ``edo design`` reports of the four presets and stdout;
* ``sweep``: 300 seeded ``design_sweep`` designs (report JSON and the bytes
  of S, Q and the closed-loop drift) and the sweep's ``high_gain_probe`` tables;
* ``sim_grid``: the 36 pooled ``sim_grid`` cases (trajectory bytes, or the
  divergence message);
* ``probe``: the stdout of ``edo probe --omega 1,10,100,1000``;
* ``simulate``: the stdout and CSV of ``edo simulate`` on fig4 cut to the
  bench's 0.5 s (``workloads.preset_config``);
* ``signals``: ``s_norm`` and ``decompose`` of 400 seeded term sums over
  every term kind against seeded exosystems (the ``repr`` of each result,
  or the error's class and message).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the child of a comparison digests the checkout named on its command line
ROOT = os.path.abspath(sys.argv[1]) if __name__ == "__main__" and len(sys.argv) == 3 else HERE
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from edo import cli, disturbance  # noqa: E402
from edo.errors import EdoError, NonFinite  # noqa: E402
from tracer import Tracer  # noqa: E402

SWEEP_SEEDS = (9001, 9002, 9003)  # 100 designs each
SIGNALS_SEED = 9101


def run_cli(h, argv):
    """Run ``edo <argv>`` in process and feed its exit code and stdout to ``h``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    h.update(f"{argv[0]} rc={rc}\n{out.getvalue()}".encode())


def feed_files(h, directory, names):
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())


def scenarios(work, runs):
    h = hashlib.sha256()
    for name in workloads.PRESET_NAMES:
        run_cli(h, ["scenario", name, "--out", work])
        feed_files(h, work, [name + suffix for suffix in (".csv", ".svg", "_metrics.json")])
        tr = cli.run_config(cli.parse_config(cli.SCENARIOS[name]))  # re-run: the command keeps no trajectory
        runs[f"scenarios/{name}"] = workloads.trajectory_columns(tr)
    return h


def design(work, runs):
    h = hashlib.sha256()
    for name in workloads.PRESET_NAMES:
        config = os.path.join(work, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cli.SCENARIOS[name], fh)
        run_cli(h, ["design", "--config", config, "--out", os.path.join(work, f"{name}_report.json")])
        feed_files(h, work, [f"{name}_report.json"])
    return h


def sweep(work, runs):
    h = hashlib.sha256()
    for seed in SWEEP_SEEDS:
        for op in workloads.DesignSweep(seed, with_gap=False).ops(traced=False):
            out = op.run(Tracer())
            if op.kind == "probe":
                h.update(repr(out).encode())
                continue
            d, drift, _, text = out
            h.update(text.encode())
            for array in (d.regulator.S, d.regulator.Q, drift):
                h.update(array.tobytes())
    return h


def sim_grid(work, runs):
    h = hashlib.sha256()
    for cell in range(len(workloads.GRID_CELLS)):
        for variant in range(workloads.GRID_VARIANTS):
            case = workloads.grid_case(cell, variant)
            key = f"sim_grid/{workloads.GRID_CELLS[cell][0]}/{variant}"
            try:
                runs[key] = workloads.trajectory_columns(workloads.simulate_case(Tracer(), case))
                h.update(runs[key].tobytes())
            except NonFinite as exc:
                runs[key] = np.array(str(exc))
                h.update(str(exc).encode())
    return h


def probe(work, runs):
    h = hashlib.sha256()
    run_cli(h, ["probe", "--omega", "1,10,100,1000"])
    return h


def simulate(work, runs):
    h = hashlib.sha256()
    config, out = os.path.join(work, "fig4_cut.json"), os.path.join(work, "fig4_cut.csv")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(workloads.preset_config("fig4"), fh)
    run_cli(h, ["simulate", "--config", config, "--out", out])
    feed_files(h, work, ["fig4_cut.csv"])
    runs["simulate/fig4"] = workloads.trajectory_columns(cli.run_config(cli.load_config(config)))
    return h


def random_term(rng, carried):
    """One term of a random kind; a harmonic takes a frequency of ``carried`` half the time."""
    kind = rng.integers(4)
    if kind == 0:
        return disturbance.Constant(rng.uniform(-5.0, 5.0))
    if kind == 1:
        frequency = rng.choice(carried) if carried and rng.integers(2) else rng.uniform(0.5, 20.0)
        sign = rng.choice((-1.0, 1.0))
        return disturbance.Harmonic(rng.uniform(-3.0, 3.0), sign * frequency, rng.uniform(-3.2, 3.2))
    if kind == 2:
        return disturbance.Polynomial(tuple(rng.uniform(-2.0, 2.0, rng.integers(1, 4))))  # degree 0-2
    return disturbance.ExpThenHold(rng.uniform(-1.0, 3.0))


def signals(work, runs):
    h = hashlib.sha256()
    rng = np.random.default_rng(SIGNALS_SEED)
    for _ in range(400):
        carried = list(rng.uniform(0.5, 20.0, rng.integers(3)))  # 0-2 conjugate pairs, then 0-2 extra zeros
        spectrum = [s * 1j * f for f in carried for s in (1, -1)] + [0.0] * rng.integers(3)
        exo = disturbance.exosystem_from_spectrum(spectrum)
        d = disturbance.Sum(tuple(random_term(rng, carried) for _ in range(rng.integers(1, 5))))
        for fact in (disturbance.s_norm, lambda d: disturbance.decompose(d, exo)):
            try:
                h.update(repr(fact(d)).encode())
            except EdoError as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
    return h


GROUPS = (scenarios, design, sweep, sim_grid, probe, simulate, signals)


def digests(runs):
    """Yield each group's name and digest; its trajectories go into ``runs``."""
    with tempfile.TemporaryDirectory() as work:
        for group in GROUPS:
            yield group.__name__, group(work, runs).hexdigest()


def deviation(got, want):
    """Largest ``|got - want|`` of a column over the largest ``|want|`` in it."""
    if got.dtype.kind == "U" or want.dtype.kind == "U" or got.shape != want.shape:
        return 0.0 if got.dtype == want.dtype and np.array_equal(got, want) else np.inf
    diff = np.abs(got - want).max(axis=0)
    scale = np.abs(want).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(diff == 0.0, 0.0, diff / scale).max())


def compare(parent):
    """Digest this checkout and ``parent`` in child processes; 1 if any group differs."""
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for root in (HERE, os.path.abspath(parent)):
            paths.append(os.path.join(work, f"{len(paths)}.npz"))
            subprocess.run([sys.executable, os.path.abspath(__file__), root, paths[-1]], check=True)
        with np.load(paths[0]) as this, np.load(paths[1]) as before:
            differs = False
            for group in GROUPS:
                name = group.__name__
                ok = this[name] == before[name]
                differs |= not ok
                keys = sorted(key for key in {*this.files, *before.files} if key.startswith(name + "/"))
                for key in keys:
                    if key in this.files and this[key].dtype.kind == "U":
                        print(f"{key:32s} {this[key]}")
                devs = [deviation(this[k], before[k]) if k in before.files and k in this.files else np.inf
                        for k in keys]
                print(f"{name:10s} {'same' if ok else 'DIFFERS'}" + (f" {max(devs):.3g}" if devs else ""))
    return 1 if differs else 0


if __name__ == "__main__":
    os.environ.pop("EDO_SEED", None)  # would override the configured noise seeds; the children inherit this
    warnings.simplefilter("error", RuntimeWarning)
    if len(sys.argv) == 1:
        for name, digest in digests({}):
            print(f"{name:10s} {digest}", flush=True)
    elif len(sys.argv) == 2:
        sys.exit(compare(sys.argv[1]))
    elif len(sys.argv) == 3:
        runs = {}
        found = dict(digests(runs))
        np.savez(sys.argv[2], **found, **runs)
    else:
        sys.exit(__doc__)
