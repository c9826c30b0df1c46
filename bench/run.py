"""Benchmark of the edo package: one workload per run, each in a fresh child.

    python3 bench/run.py --workload {presets,sim_grid,design_sweep,all} \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the Python standard
library here, and numpy and scipy in the children.  The package is
imported from ``src`` of the checkout, which is compiled to bytecode once
before anything is timed.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it list every metric with its unit and the host it ran on.  The exit
code is 0 only if every checked operation passed.  Spans and full results
are written under ``.bench_out/`` in the checkout.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("presets", "sim_grid", "design_sweep")
OUT_DIR = ".bench_out"
#: Fresh interpreters timed from start until the inputs are built: some
#: before and after the worker that runs the workload, and some in pauses
#: the worker makes, spread over its run.  With the measuring worker itself
#: that is 11 samples, whose median spans the run rather than one moment of
#: the host's load.
SETUP_SAMPLES_AROUND = 2
SETUP_SAMPLES_DURING = 6
IMPORT_SAMPLES = 3
#: Modules whose cumulative ``-X importtime`` is reported.
IMPORT_MODULES = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s", "edo": "import.edo_s"}
#: Time a worker may take beyond ``--seconds``: set-up, the round in
#: progress when the time is up, and the checks, which in a traced run of
#: ``presets`` include the full 10 s scenarios.
GRACE_S = 150.0


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("EDO_SEED", None)  # would override the configured noise seeds
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(cmd, env, root, timeout):
    try:
        done = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} timed out after {timeout} s") from None
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done


def start_worker(args, workload, env, root, setup_only, pauses=0):
    """Start a worker; return it with its set-up time, once it is READY."""
    cmd = [sys.executable, os.path.join("bench", "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR] + (["--setup-only"] if setup_only else ["--pauses", str(pauses)])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdin=subprocess.PIPE if pauses else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} did not start (exit code {proc.returncode})")
    return proc, setup_s


def import_times(env, root):
    """Median cumulative import time of numpy, scipy.linalg and edo in fresh children."""
    samples = {name: [] for name in IMPORT_MODULES.values()}
    for _ in range(IMPORT_SAMPLES):
        err = run_child([sys.executable, "-X", "importtime", "-c", "import edo"], env, root, 120).stderr
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            module = parts[-1].strip()
            if len(parts) == 3 and module in IMPORT_MODULES and module not in found:
                found[module] = int(parts[1]) * 1e-6
        for module, metric in IMPORT_MODULES.items():
            if module not in found:
                raise BenchError(f"-X importtime did not report {module}")
            samples[metric].append(found[module])
    return {metric: statistics.median(values) for metric, values in samples.items()}


def time_setups(args, workload, env, root, count):
    times = []
    for _ in range(count):
        proc, setup_s = start_worker(args, workload, env, root, setup_only=True)
        proc.stdout.read()
        if proc.wait(timeout=60) != 0:
            raise BenchError(f"set-up of {workload} exited {proc.returncode}")
        times.append(setup_s)
    return times


def run_workload(args, workload, root):
    """One measuring worker; with ``--trace 0``, set-up samples before, during and after it."""
    env = child_env(root)
    pauses = 0 if args.trace else SETUP_SAMPLES_DURING
    setup = [] if args.trace else time_setups(args, workload, env, root, SETUP_SAMPLES_AROUND)
    proc, setup_s = start_worker(args, workload, env, root, setup_only=False, pauses=pauses)
    setup.append(setup_s)
    timeout = args.seconds + GRACE_S + pauses * 60
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.strip() == "PAUSE":
                setup += time_setups(args, workload, env, root, 1)
                proc.stdin.write("GO\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}"
                         + (f" (killed after {timeout} s)" if proc.returncode < 0 else ""))
    result = json.loads(lines[-1])
    if args.trace:
        result["metrics"].update(import_times(env, root))
    else:
        setup += time_setups(args, workload, env, root, SETUP_SAMPLES_AROUND)
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["setup_samples_s"] = setup
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "edo", "__init__.py")):
            raise BenchError("run from the root of a checkout: src/edo is missing")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        os.makedirs(OUT_DIR, exist_ok=True)
        # warm the bytecode cache so that set-up times the import, not compilation
        run_child([sys.executable, "-m", "compileall", "-q", "src", "bench"], child_env(root), root, 300)

        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(args, workload, root)
            path = os.path.join(OUT_DIR, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            env = result["env"]
            print(f"# {workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}; "
                  f"{env['nproc']} x {env['cpu']}; Python {env['python']}, numpy {env['numpy']}, "
                  f"scipy {env['scipy']}")
            for failure in result["failures"]:
                print(f"# FAILED {failure}")
            print(f"{workload} failed_frac {result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']}/{result['attempted']})")
            for name, (value, unit) in result.get("derived", {}).items():
                print(f"{workload} {name} {value:.6g} {unit} (derived, not gated)")
            prefix = f"{workload}/" if args.workload == "all" else ""
            for m in wanted:
                if m["name"] not in result["metrics"]:
                    raise BenchError(f"{workload} did not report {m['name']}")
                value = result["metrics"][m["name"]]
                print(f"{workload} {m['name']} {value:.6g} {m['unit']}")
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            correct = correct and result["failed"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
