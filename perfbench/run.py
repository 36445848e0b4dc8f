"""Benchmark of gmfkrylov: one workload, one seed, a closed loop of operations.

    python3 perfbench/run.py --workload rational_short --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and measured from outside, through public calls
only. After set-up, one caller runs the workload's operation again as soon as
the previous one returns, until ``--seconds`` have passed; every operation is
checked against the dense oracle.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations, prints the per-layer metrics taken from the
spans of the traced ones and writes the spans to
``.perfbench_out/spans_<workload>_seed<seed>.json.gz``. Both modes write a
record with the environment to ``.perfbench_out/result_*.json``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated at least SETUP_MIN_REPS times, and until SETUP_MIN_S
# seconds are spent, so that its median is steady even when it takes a few
# milliseconds.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="ascii") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"unknown ({ref})"


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


def import_package():
    """Import gmfkrylov from this checkout's src/; returns (package, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "gmfkrylov", "__init__.py")):
        raise SystemExit(f"error: no gmfkrylov sources under {SRC}; "
                         "run from the root of a source checkout")
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import gmfkrylov
    import gmfkrylov.harness  # noqa: F401  (the desk workload and the tracer need it)
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(gmfkrylov.__file__))) != SRC:
        raise SystemExit(f"error: gmfkrylov was imported from {gmfkrylov.__file__}, "
                         f"not from {SRC}")
    return gmfkrylov, elapsed


def run_setups(workload, gmf, seed, tracer):
    """Set up SETUP_MIN_REPS times or more; returns (inputs, seconds of each)."""
    times = []
    inputs = None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        if tracer is None:
            inputs = workload.setup(gmf, seed)
        else:
            with tracer.installed():
                inputs = tracer.root("setup", workload.setup, gmf, seed)
        times.append(time.perf_counter() - t0)
    return inputs, times


def run_operation(workload, gmf, inputs, tracer, outcome_cls):
    """One gated operation, traced when a tracer is given; returns (seconds, outcome)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.operation(gmf, inputs)
        else:
            with tracer.installed():
                raw = tracer.root("operation", workload.operation, gmf, inputs)
        elapsed = time.perf_counter() - t0
        outcome = workload.check(inputs, raw)
    except Exception as exc:  # a raising operation is a failed one; keep measuring
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        outcome = outcome_cls(problems=[f"raised {type(exc).__name__}: {exc}"])
    return elapsed, outcome


def run_loop(workload, gmf, inputs, seconds, tracer, outcome_cls):
    """Closed loop of gated operations until ``seconds`` pass.

    Returns [(mode, seconds, outcome)] with mode "untraced" or "traced"; with
    a tracer, untraced and traced operations alternate.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    traced = True
    while True:
        traced = tracer is not None and not traced
        mode = "traced" if traced else "untraced"
        samples.append((mode, *run_operation(workload, gmf, inputs,
                                             tracer if traced else None, outcome_cls)))
        if time.perf_counter() >= deadline and (tracer is None or len(samples) >= 2):
            return samples


def end_to_end(samples, setup_s, setup_times):
    times = [s[1] for s in samples if s[0] == "untraced"]
    q1, med, q3 = quartiles(times)
    passed = sum(1 for s in samples if s[2].passed)
    digits = [s[2].digits for s in samples if s[2].errors]
    metrics = {
        "time_to_solution_s": (med, "s"),
        "accuracy_digits": (statistics.median(digits) if digits else 0.0, "digits"),
        "pass_ratio": (passed / len(samples), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "time_to_solution_s": f"median of n={len(times)} operations, q1={q1:.4f} q3={q3:.4f}",
        "setup_s": f"import + median of {len(setup_times)} set-ups "
                   f"({statistics.median(setup_times):.4f} s each)",
    }
    return metrics, notes


def per_layer(tracer, samples, tracing):
    traced = [s for s in samples if s[0] == "traced"]
    untraced = [s for s in samples if s[0] == "untraced"]
    op_values = [tracing.layer_values(agg, s[2])
                 for agg, s in zip(tracer.layer_metrics("operation"), traced)]
    setup_values = [tracing.layer_values(agg, None)
                    for agg in tracer.layer_metrics("setup")]
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        value = (tracing.median_or_zero([v[name] for v in op_values])
                 + tracing.median_or_zero([v[name] for v in setup_values]))
        metrics[name] = (value, unit)
    overhead = (statistics.median(s[1] for s in traced)
                - statistics.median(s[1] for s in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    counts = [tuple(v[name] for name in tracing.COUNT_METRICS) for v in op_values]
    notes = {"counts_repeat": len(set(counts)) == 1,
             "traced_operations": len(traced), "untraced_operations": len(untraced)}
    return metrics, notes


def main(argv=None):
    gmf, import_s = import_package()   # first, so that import_s includes numpy and scipy
    import tracing
    import workloads

    args = parse_args(argv, workloads.NAMES)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload, ROOT, OUT_DIR)
    tracer = tracing.Tracer(gmf) if args.trace else None

    inputs, setup_times = run_setups(workload, gmf, args.seed, tracer)
    setup_s = import_s + statistics.median(setup_times)
    samples = run_loop(workload, gmf, inputs, args.seconds, tracer, workloads.Outcome)

    if tracer is None:
        metrics, notes = end_to_end(samples, setup_s, setup_times)
    else:
        metrics, notes = per_layer(tracer, samples, tracing)
        tracer.write(os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.json.gz"))

    failed = sum(1 for s in samples if not s[2].passed)
    env = environment(args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "notes": notes,
        "import_s": import_s, "setup_times_s": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": [{"mode": t, "seconds": dt, "errors": o.errors, "steps": o.steps,
                        "problems": o.problems} for t, dt, o in samples],
    }
    record_path = os.path.join(
        OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"fail_ratio = {failed}/{len(samples)} = {failed / len(samples):.4f} "
          "(operations failed / attempted)")
    if "counts_repeat" in notes:
        print(f"counts_repeat = {notes['counts_repeat']}")
    for _, _, outcome in samples:
        for problem in outcome.problems:
            print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
