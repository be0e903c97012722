"""Benchmark of the epg_mgcn package: one workload per run.

    python3 benchmarks/run.py --workload train_mixed --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. ``--trace 0`` times the workload and prints the
end-to-end metrics; ``--trace 1`` wraps the package's public functions and
prints the per-layer metrics instead. Either way every output is checked
against the reference model, the human-readable metrics go to stdout, a
result file goes to ``benchmarks/results/``, and the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS stays at one thread; it must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5

END_TO_END = {
    "train_samples_per_s": "samples/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "whatif_call_ms_p50": "ms",
    "whatif_call_ms_p90": "ms",
    "prepare_rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the finish time and exit (used "
                             "to time set-up in a fresh process)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_program():
    """Put the checkout's package and the benchmark modules on the path."""
    package = ROOT / "src" / "epg_mgcn" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run the benchmark inside a "
                 "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def run_untraced(workload, inputs, workdir, seconds):
    import workloads as wl

    budget = {a: share * seconds for a, share in workload.shares.items()}
    prep = wl.run_prepare(inputs, workdir, budget["prepare"])
    prepared = _prepared(prep)
    phases = [prep]
    for activity in workload.shares:
        if activity != "prepare":
            phases.append(wl.RUNNERS[activity](
                wl.scenes_for(activity, workload, prepared), inputs, budget[activity]))
    return phases


def run_traced(workload, inputs, workdir, seconds):
    """Trace every activity; the main one runs untraced first, then traced
    over the same units, which gives the tracing overhead and a bitwise
    comparison of traced against untraced outputs."""
    import tracing
    import workloads as wl

    budget = {a: share * seconds for a, share in workload.shares.items()}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.phase = "prepare"
        prep = wl.run_prepare(inputs, workdir, budget["prepare"], tracer=tracer)
    prepared = _prepared(prep)
    main = workload.main
    scenes = wl.scenes_for(main, workload, prepared)
    untraced = wl.RUNNERS[main](scenes, inputs, budget[main] / 2)
    units = len(untraced.outputs[0]) if main == "train" else untraced.attempted
    phases = [prep, untraced]
    with tracing.installed(tracer):
        for activity in workload.shares:
            if activity == "prepare":
                continue
            tracer.phase = activity
            if activity == main:
                phase = wl.RUNNERS[main](scenes, inputs, None, count=units, tracer=tracer)
                traced_main = phase
            else:
                phase = wl.RUNNERS[activity](wl.scenes_for(activity, workload, prepared),
                                          inputs, budget[activity], tracer=tracer)
            phase.traced = True
            phases.append(phase)
    prep.traced = True
    if not wl.same_outputs(untraced, traced_main):
        traced_main.failed += traced_main.attempted
    order = [main] + [a for a in workload.shares if a != main]
    traced = [p for p in phases if p.traced]
    metrics = tracing.layer_metrics(
        tracer, {p.activity: p.work for p in traced},
        {p.activity: p.calibration.overall() for p in traced}, order)
    # medians, so the first (cold) unit of the untraced pass does not count
    overhead = statistics.median(traced_main.durations) / statistics.median(untraced.durations)
    metrics["tracing_overhead_pct"] = {"value": (overhead - 1.0) * 100.0, "unit": "%"}
    return phases, metrics, tracer


def _prepared(prep):
    done = [out for _, out in prep.outputs if not isinstance(out, Exception)]
    if not done:
        raise RuntimeError("preparing the table failed; nothing to run on")
    return done[-1][1]


def check(phases, inputs):
    """Failed units per phase, from the reference comparisons."""
    import reference
    import workloads as wl

    ref_params = reference.init_params(wl.CONFIG.channels, inputs.seed)
    for phase in phases:
        if phase.activity == "prepare":
            phase.failed += wl.check_prepare(phase, inputs.table)
        elif phase.activity == "predict":
            phase.failed += wl.check_predict(phase, ref_params)
        elif phase.activity == "whatif":
            phase.failed += wl.check_whatif(phase, inputs, ref_params)
        else:
            phase.failed += wl.check_train(phase, inputs)


# ---------------------------------------------------------------------------
# metrics and environment
# ---------------------------------------------------------------------------


def end_to_end(phases, table_rows, setup_s, rss_mb, times="durations"):
    """End-to-end values from calibrated unit times (``times="raw"``: from
    the times as measured)."""
    import numpy as np

    by = {p.activity: p for p in phases}

    def pct(activity, q):
        d = getattr(by[activity], times)
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    def rate(activity, per_unit):
        d = getattr(by[activity], times)
        return statistics.median(per_unit / x for x in d) if d else 0.0

    return {
        "train_samples_per_s": rate("train", len(by["train"].scenes)),
        "predict_ms_p50": pct("predict", 50),
        "predict_ms_p90": pct("predict", 90),
        "whatif_call_ms_p50": pct("whatif", 50),
        "whatif_call_ms_p90": pct("whatif", 90),
        "prepare_rows_per_s": rate("prepare", table_rows),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def measure_setup(args):
    """Median over fresh processes of the time from process start to the end
    of set-up (imports, input generation, parameter init); returns
    (calibrated, as measured). The calibration kernel runs before each
    process and after the last."""
    import calibration

    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(calibration.kernel_seconds())
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"] - start)
    kernel.append(calibration.kernel_seconds())
    raw = statistics.median(times)
    return raw * calibration.REFERENCE_SECONDS / statistics.median(kernel), raw


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def main(argv=None):
    args = parse_args(argv)
    load_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = wl.make_inputs(workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_done": time.perf_counter()}))
            return 0
        if args.trace:
            phases, metrics, tracer = run_traced(workload, inputs, workdir, args.seconds)
        else:
            phases = run_untraced(workload, inputs, workdir, args.seconds)
        rss = peak_rss_mb()  # before the checks, which are not the program's
        check(phases, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {"environment": environment(args)}
    if not args.trace:
        setup_s, setup_raw = measure_setup(args)
        values = end_to_end(phases, inputs.table.rows, setup_s, rss)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["as_measured"] = end_to_end(phases, inputs.table.rows, setup_raw, rss, "raw")
    shown = dict(metrics)
    shown["error_rate"] = {"value": failed / attempted, "unit": "failed/attempted"}
    record["metrics"] = shown
    record["phases"] = [
        {"activity": p.activity, "traced": p.traced, "units": p.attempted,
         "failed": p.failed, "timed_s": sum(p.raw), "unit_s": p.raw,
         "calibration_median_s": statistics.median(p.calibration.times)}
        for p in phases]

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(results / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, m in shown.items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")
    for p in phases:
        print(f"  phase {p.activity:<8} traced={int(p.traced)} units={p.attempted} "
              f"failed={p.failed} timed={sum(p.raw):.2f}s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
