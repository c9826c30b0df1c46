"""Print one SHA-256 per group of outputs, to show that a change kept them byte for byte.

``python tools/digest.py`` prints the digests of this checkout's ``src``;
the seeded inputs come from its ``bench/workloads.py``, which is imported
and not modified.  ``python tools/digest.py PARENT_CHECKOUT`` digests this
checkout and ``PARENT_CHECKOUT``, each in its own child process, prints
``same`` or ``DIFFERS`` per group and exits 1 on any difference;
``python tools/digest.py ROOT OUT`` is the child, which writes the digests
of checkout ``ROOT`` to the file ``OUT``.  The groups are:

* ``scenarios``: the 12 files of ``edo scenario fig1..fig4`` and stdout;
* ``design``: the ``edo design`` reports of the four presets and stdout;
* ``sweep``: 300 seeded ``design_sweep`` designs (report JSON and the bytes
  of S, Q and the closed-loop drift) and the sweep's ``high_gain_probe`` tables;
* ``sim_grid``: the 36 pooled ``sim_grid`` cases (trajectory bytes, or the
  divergence message);
* ``probe``: the stdout of ``edo probe --omega 1,10,100,1000``;
* ``simulate``: the stdout and CSV of ``edo simulate`` on fig4 cut to the
  bench's 0.5 s (``workloads.preset_config``).
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

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the child of a comparison digests the checkout named on its command line
ROOT = os.path.abspath(sys.argv[1]) if __name__ == "__main__" and len(sys.argv) == 3 else HERE
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from edo import cli  # noqa: E402
from edo.errors import NonFinite  # noqa: E402
from tracer import Tracer  # noqa: E402

SWEEP_SEEDS = (9001, 9002, 9003)  # 100 designs each


def run_cli(h, argv):
    """Run ``edo <argv>`` in process and feed its exit code and stdout to ``h``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    h.update(f"{argv[0]} rc={rc}\n{out.getvalue()}".encode())


def feed_files(h, directory, names):
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())


def scenarios(work):
    h = hashlib.sha256()
    for name in workloads.PRESET_NAMES:
        run_cli(h, ["scenario", name, "--out", work])
        feed_files(h, work, [name + suffix for suffix in (".csv", ".svg", "_metrics.json")])
    return h


def design(work):
    h = hashlib.sha256()
    for name in workloads.PRESET_NAMES:
        config = os.path.join(work, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cli.SCENARIOS[name], fh)
        run_cli(h, ["design", "--config", config, "--out", os.path.join(work, f"{name}_report.json")])
        feed_files(h, work, [f"{name}_report.json"])
    return h


def sweep(work):
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


def sim_grid(work):
    h = hashlib.sha256()
    for cell in range(len(workloads.GRID_CELLS)):
        for variant in range(workloads.GRID_VARIANTS):
            case = workloads.grid_case(cell, variant)
            try:
                h.update(workloads.trajectory_columns(workloads.simulate_case(Tracer(), case)).tobytes())
            except NonFinite as exc:
                h.update(str(exc).encode())
    return h


def probe(work):
    h = hashlib.sha256()
    run_cli(h, ["probe", "--omega", "1,10,100,1000"])
    return h


def simulate(work):
    h = hashlib.sha256()
    config, out = os.path.join(work, "fig4_cut.json"), os.path.join(work, "fig4_cut.csv")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(workloads.preset_config("fig4"), fh)
    run_cli(h, ["simulate", "--config", config, "--out", out])
    feed_files(h, work, ["fig4_cut.csv"])
    return h


GROUPS = (scenarios, design, sweep, sim_grid, probe, simulate)


def main(out):
    with tempfile.TemporaryDirectory() as work:
        for group in GROUPS:
            print(f"{group.__name__:10s} {group(work).hexdigest()}", file=out, flush=True)


def compare(parent):
    """Digest this checkout and ``parent`` in child processes; 1 if any group differs."""
    with tempfile.TemporaryDirectory() as work:
        digests = []
        for root in (HERE, os.path.abspath(parent)):
            path = os.path.join(work, f"{len(digests)}.txt")
            subprocess.run([sys.executable, os.path.abspath(__file__), root, path], check=True)
            with open(path, encoding="utf-8") as fh:
                digests.append(dict(line.split() for line in fh))
    this, before = digests
    same = {name: this.get(name) == before.get(name) for name in {**this, **before}}
    for name, ok in same.items():
        print(f"{name:10s} {'same' if ok else 'DIFFERS'}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    if len(sys.argv) == 1:
        main(sys.stdout)
    elif len(sys.argv) == 2:
        sys.exit(compare(sys.argv[1]))
    elif len(sys.argv) == 3:
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            main(fh)
    else:
        sys.exit(__doc__)
