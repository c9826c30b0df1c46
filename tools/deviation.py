"""Print how far this checkout's trajectories are from another checkout's.

``python tools/deviation.py PARENT_CHECKOUT`` runs the same simulations in
both checkouts, each in its own child process that imports that checkout's
``src`` (and the seeded cases of its ``bench/workloads.py``), and prints per
group the largest deviation, as a fraction of column scale: the largest
``|this - parent|`` in a trajectory column over the largest ``|parent|`` in
it.  A change that reorders the arithmetic of ``simulate`` shows its size
here, where ``tools/digest.py`` can only report byte identity.  The groups are:

* ``figures``: the full 10 s ``edo scenario fig1..fig4`` runs;
* ``sim_grid``: the 36 pooled ``sim_grid`` cases; a case that trips the
  divergence guard is compared by its message, and its trip t is printed;
* ``simulate``: ``edo simulate`` on fig4 cut to the bench's 0.5 s.

A group whose trip messages differ, or whose runs differ in length, prints
``inf``.  ``python tools/deviation.py ROOT OUT`` is the child: it writes the
trajectories of checkout ``ROOT`` to the ``.npz`` file ``OUT``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dump(root, out):
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads
    from edo import cli
    from edo.errors import NonFinite
    from tracer import Tracer

    runs = {}
    for name in workloads.PRESET_NAMES:
        runs[f"figures/{name}"] = cli.run_config(cli.parse_config(cli.SCENARIOS[name]))
    for cell in range(len(workloads.GRID_CELLS)):
        for variant in range(workloads.GRID_VARIANTS):
            key = f"sim_grid/{workloads.GRID_CELLS[cell][0]}/{variant}"
            try:
                runs[key] = workloads.simulate_case(Tracer(), workloads.grid_case(cell, variant))
            except NonFinite as exc:
                runs[key] = str(exc)
    runs["simulate/fig4"] = cli.run_config(cli.parse_config(workloads.preset_config("fig4")))
    np.savez(out, **{key: np.array(tr) if isinstance(tr, str) else workloads.trajectory_columns(tr)
                     for key, tr in runs.items()})


def deviation(got, want):
    """Largest ``|got - want|`` of a column over the largest ``|want|`` in it."""
    if got.dtype.kind == "U" or want.dtype.kind == "U" or got.shape != want.shape:
        return 0.0 if got.dtype == want.dtype and np.array_equal(got, want) else np.inf
    diff = np.abs(got - want).max(axis=0)
    scale = np.abs(want).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(diff == 0.0, 0.0, diff / scale).max())


def main(parent):
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for root in (HERE, os.path.abspath(parent)):
            paths.append(os.path.join(work, f"{len(paths)}.npz"))
            subprocess.run([sys.executable, os.path.abspath(__file__), root, paths[-1]], check=True)
        with np.load(paths[0]) as this, np.load(paths[1]) as before:
            groups = {}
            for key in sorted(set(this.files) | set(before.files)):
                dev = deviation(this[key], before[key]) if key in this.files and key in before.files else np.inf
                group = key.split("/")[0]
                groups[group] = max(groups.get(group, 0.0), dev)
                if key in this.files and this[key].dtype.kind == "U":
                    print(f"{key:32s} {this[key]}")
    for group, dev in groups.items():
        print(f"{group:10s} {dev:.3g}")


if __name__ == "__main__":
    if len(sys.argv) == 3:
        dump(*sys.argv[1:])
    elif len(sys.argv) == 2:
        main(sys.argv[1])
    else:
        sys.exit(__doc__)
