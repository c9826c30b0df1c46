"""One benchmark run of one workload, in its own process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR \
        [--setup-only | --pauses K]

Started by ``bench/run.py`` from the root of a checkout with ``src`` on
``PYTHONPATH``.  Prints ``READY`` once the package is imported and the
workload's inputs are built, then runs whole rounds of the workload's
operations until ``--seconds`` have passed (at least one round, two with
``--trace 1``) and prints one JSON line of results.

With ``--pauses K`` the worker stops K times, evenly spread over its
``--seconds``, between rounds: it prints ``PAUSE`` and waits for a ``GO``
line on standard input.  The time it waits does not count towards
``--seconds``.  ``bench/run.py`` times fresh set-ups in those pauses, so that
they sample the host over the same stretch as the measured rounds.

With ``--trace 1`` rounds alternate between untraced and traced, so the
tracing overhead is measured against untraced rounds of the same process,
and the per-layer metrics come from the traced rounds only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

SIM_CLASSES = ("rk4_ramp", "rk4_const", "euler", "noise")
SELF_TIME_LAYERS = ("cli", "synthesis", "plant", "disturbance", "linalg", "sim")

#: Functions the package calls internally, wrapped in traced rounds so their
#: spans nest under the public call that made them: (module, attribute, span).
#: The ``cli`` names are the globals ``cli.cmd_simulate`` and
#: ``cli.build_design`` reach them by, so a traced ``presets`` round runs the
#: entry point itself.
NESTED_CALLS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "build_design", "cli.build_design"),
    ("cli", "simulate", "sim.simulate"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_svg", "cli.write_svg"),
    ("cli", "metrics", "sim.metrics"),
    ("linalg", "eigenvalues", "linalg.eigenvalues"),
    ("linalg", "expm", "linalg.expm"),
    ("synthesis", "controllability_canonical_transform", "plant.controllability_canonical_transform"),
    ("cli", "exosystem_from_spectrum", "disturbance.exosystem_from_spectrum"),
    ("cli", "schedule_gains", "synthesis.schedule_gains"),
    ("cli", "solve_regulator", "synthesis.solve_regulator"),
    ("cli", "assemble_edo", "synthesis.assemble_edo"),
    ("cli", "stabilizer_gain", "synthesis.stabilizer_gain"),
    ("cli", "closed_loop", "synthesis.closed_loop"),
)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def merge(total, counters):
    for key, value in counters.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value


def pause():
    print("PAUSE", flush=True)
    if sys.stdin.readline().strip() != "GO":
        raise RuntimeError("no GO after PAUSE")


def run_rounds(workload, seconds, trace, tracer, patch, pauses=0):
    rounds, failures = [], []
    start, paused, done_pauses = time.perf_counter(), 0.0, 0
    while len(rounds) < (2 if trace else 1) or time.perf_counter() - paused - start < seconds:
        measured = time.perf_counter() - paused - start
        if done_pauses < pauses and measured >= (done_pauses + 1) * seconds / (pauses + 1):
            t0 = time.perf_counter()
            pause()
            paused += time.perf_counter() - t0
            done_pauses += 1
        traced = trace and len(rounds) % 2 == 1
        if traced:
            patch()
        rec = {"traced": traced, "ops": [], "counters": {}}
        for op in workload.ops(traced):
            tracer.key = f"{len(rounds)}:{op.key}"
            tracer.recording = traced
            t0 = time.perf_counter()
            try:
                out, err = tracer.call("op." + op.kind, op.run, tracer), None
            except Exception as exc:  # a raising operation is a failed one
                out, err = None, exc
            elapsed = time.perf_counter() - t0
            tracer.recording = False
            if err is None:
                try:
                    merge(rec["counters"], op.check(out))
                except Exception as exc:  # CheckFailed, or a check that broke
                    err = exc
            if err is not None:
                failures.append(f"{op.key}: {type(err).__name__}: {err}")
            rec["ops"].append((op, elapsed))
        if traced:
            tracer.unpatch()
        rounds.append(rec)
    return rounds, failures


def op_times(rounds, traced=False):
    """Durations of each operation, by key, over the untraced (or traced) rounds."""
    times = {}
    for r in rounds:
        if r["traced"] == traced:
            for op, dt in r["ops"]:
                times.setdefault(op.key, []).append(dt)
    return times


def best_round_s(rounds, traced=False):
    """One round's time with every operation at its fastest repetition."""
    return sum(min(times) for times in op_times(rounds, traced).values())


def end_to_end(rounds):
    """Round time with every operation at its best, and peak memory.

    Every operation is repeated once per round; its fastest repetition is
    the time it takes when the host lends the process a whole core (see
    NOTES.md on time-slicing).  ``wall_s`` sums those times over one round.
    The ``derived`` figures are printed but not part of the contract,
    because they exist on one workload only.
    """
    best = {key: min(times) for key, times in op_times(rounds).items()}
    ops = [op for op, _ in rounds[0]["ops"]]
    wall_s = sum(best.values())
    derived = {}
    steps = sum(op.steps for op in ops)
    if steps:
        derived["steps_per_s"] = (steps / wall_s, "1/s")
    designs = [best[op.key] for op in ops if op.kind == "design"]
    if designs:
        derived["designs_per_s"] = (len(designs) / sum(designs), "1/s")
        derived["design_ms_p50"] = (statistics.median(designs) * 1e3, "ms")
    metrics = {"wall_s": wall_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    return metrics, derived


def per_layer(rounds, spans, summarize):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    nt = len(traced)
    durations, self_time = summarize(spans)
    counters = {}
    for r in traced:
        merge(counters, r["counters"])
    all_counters = {}
    for r in rounds:
        merge(all_counters, r["counters"])

    def med(name, scale):
        return statistics.median(durations[name]) * scale if durations.get(name) else 0.0

    def per_round(name):
        return sum(durations.get(name, ())) / nt

    simulate_by_key = {key: (t1 - t0) * 1e-9 for _, _, name, key, t0, t1 in spans if name == "sim.simulate"}
    ns_per_step = {c: [] for c in SIM_CLASSES}
    steps = 0
    for i, r in enumerate(rounds):
        if not r["traced"]:
            continue
        for op, _ in r["ops"]:
            steps += op.steps
            key = f"{i}:{op.key}"
            if op.sim_class and key in simulate_by_key:
                ns_per_step[op.sim_class].append(simulate_by_key[key] / op.steps * 1e9)

    csv_s = sum(durations.get("cli.write_csv", ()))
    design_ms = sorted(d * 1e3 for d in durations.get("op.design", ()))
    metrics = {
        "sim.simulate_s": per_round("sim.simulate"),
        "sim.steps": steps / nt,
        **{f"sim.ns_per_step.{c}": statistics.median(v) if v else 0.0 for c, v in ns_per_step.items()},
        "sim.guard_trips": counters.get("guard_trips", 0) / nt,
        "sim.metrics_ms": med("sim.metrics", 1e3),
        "cli.write_csv_s": csv_s / nt,
        "cli.csv_bytes": counters.get("csv_bytes", 0) / nt,
        "cli.csv_mb_per_s": counters.get("csv_bytes", 0) / 1e6 / csv_s if csv_s else 0.0,
        "cli.write_svg_ms": med("cli.write_svg", 1e3),
        "cli.parse_config_us": med("cli.parse_config", 1e6),
        "cli.build_design_us": med("cli.build_design", 1e6),
        "cli.design_report_us": med("cli.design_report", 1e6),
        "synthesis.schedule_gains_us": med("synthesis.schedule_gains", 1e6),
        "synthesis.solve_regulator_us": med("synthesis.solve_regulator", 1e6),
        "synthesis.assemble_edo_us": med("synthesis.assemble_edo", 1e6),
        "synthesis.stabilizer_gain_us": med("synthesis.stabilizer_gain", 1e6),
        "synthesis.closed_loop_us": med("synthesis.closed_loop", 1e6),
        "synthesis.design_ms_p99": design_ms[min(len(design_ms) - 1, int(0.99 * len(design_ms)))] if design_ms else 0.0,
        "synthesis.designs": counters.get("designs", 0) / nt,
        "synthesis.regulator_residual_max": all_counters.get("regulator_residual_max", 0.0),
        "synthesis.spectrum_gap_max": all_counters.get("spectrum_gap_max", 0.0),
        "plant.controllability_canonical_transform_us": med("plant.controllability_canonical_transform", 1e6),
        "disturbance.exosystem_from_spectrum_us": med("disturbance.exosystem_from_spectrum", 1e6),
        "linalg.eigenvalues_us": med("linalg.eigenvalues", 1e6),
        "linalg.expm_us": med("linalg.expm", 1e6),
        "trace.overhead_frac": best_round_s(rounds, traced=True) / best_round_s(rounds) - 1.0,
        **{f"{layer}.self_s": self_time.get(layer, 0.0) / nt for layer in SELF_TIME_LAYERS},
    }
    return metrics, {"plain_rounds": len(plain), "traced_rounds": nt, "spans": len(spans)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("presets", "sim_grid", "design_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0)
    args = ap.parse_args(argv)

    import edo

    src = os.path.join(os.getcwd(), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(edo.__file__))) != src:
        print(f"worker: edo imported from {edo.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads as wl
    from tracer import Tracer, summarize

    work_dir = os.path.join(args.out, f"work-{os.getpid()}")
    try:
        if args.workload == "presets":
            workload = wl.Presets(args.seed, work_dir)
        elif args.workload == "sim_grid":
            workload = wl.SimGrid(args.seed)
        else:
            workload = wl.DesignSweep(args.seed, with_gap=bool(args.trace))
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer()

        def patch():
            for module, attr, span in NESTED_CALLS:
                tracer.patch(importlib.import_module(f"edo.{module}"), attr, span)

        full_checks = workload.full_checks() if args.trace else []
        rounds, failures = run_rounds(workload, args.seconds, bool(args.trace), tracer, patch, args.pauses)
        for key, check in full_checks:
            try:
                check()
            except Exception as exc:  # CheckFailed, or a check that broke
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    span_checks = workload.SPANS if args.trace else ()
    recorded = {span[2] for span in tracer.spans}
    failures += [f"span {name}: never recorded in a traced round" for name in span_checks if name not in recorded]
    attempted = sum(len(r["ops"]) for r in rounds) + len(full_checks) + len(span_checks)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "env": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "round_s": [sum(dt for _, dt in r["ops"]) for r in rounds if not r["traced"]],
        "op_s": op_times(rounds),
    }
    if args.trace:
        result["metrics"], result["trace"] = per_layer(rounds, tracer.spans, summarize)
        result["metrics"]["check.failed_frac"] = len(failures) / attempted
        path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path)
        result["trace"]["file"] = path
    else:
        result["metrics"], result["derived"] = end_to_end(rounds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
