"""The benchmark's own self-test, at tiny sizes (about a minute).

    python3 benchmarks/selftest.py           # run the checks
    python3 benchmarks/selftest.py --record  # rewrite reference_outputs.json

Checks that:

1. the package and the reference model both reproduce the outputs recorded
   in ``reference_outputs.json`` (predictions, what-if divergences and
   planning columns, a loss trace, prepared-sample counts);
2. every workload, run untraced and traced, emits exactly the metrics of
   BENCHMARK.json with their units, plus ``error_rate``, and reports no
   failure;
3. the traced wrappers leave predictions, what-if results and the loss
   trace bitwise identical to untraced calls;
4. the self times of a span and of everything nested in it sum to at most
   the span's duration;
5. outside a checkout (only BENCHMARK.json and ``benchmarks/``) the
   benchmark exits non-zero without printing a result.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

run.load_program()

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from epg_mgcn import model, scene, training, whatif  # noqa: E402

RECORDED = run.BENCH_DIR / "reference_outputs.json"
WORK = run.BENCH_DIR / ".work" / "selftest"
TINY_CLUSTERS = (4, 6, 8)


def tiny_inputs():
    """Seed-0 table with three small clusters, prepared, plus seed-0 params."""
    table = wl.make_table(np.random.default_rng(0), TINY_CLUSTERS, WORK / "table.txt")
    samples = scene.window_samples(scene.load_trajectory_table(table.path, "apollo_like"),
                                   wl.DATASET)
    return table, samples, model.ModelParams.initialize(wl.CONFIG, seed=0)


def program_outputs(table, samples, params):
    base, alts = whatif.what_if(samples[0], wl.alternative_plans(samples[0]),
                                params, wl.CONFIG)
    losses = training.train(samples[:4], wl.CONFIG,
                            training.TrainConfig(batch_size=2, max_epochs=3, seed=0))
    return {
        "rows": table.rows,
        "agents": [s.n_agents for s in samples],
        "predictions": [model.predict(s, wl.CONFIG, params).tolist() for s in samples[:3]],
        "whatif_base": base.predictions.tolist(),
        "whatif": [{"name": a.name, "planning_column": a.planning_column.tolist(),
                    "divergence": a.divergence.tolist(),
                    "max_coordinate_diff": a.max_coordinate_diff} for a in alts],
        "losses": losses.record.losses(),
    }


def reference_outputs(samples):
    p = reference.init_params(wl.CONFIG.channels, 0)
    scenes = [wl.as_reference_scene(s) for s in samples]
    plans = wl.alternative_plans(samples[0])
    base, alts = reference.what_if(scenes[0], list(plans.values()), p)
    return {
        "predictions": [reference.predict(s, p) for s in scenes[:3]],
        "whatif_base": base,
        "whatif": [{"name": name, "planning_column": col, "divergence": div,
                    "max_coordinate_diff": shift}
                   for name, (col, div, shift, _) in zip(plans, alts)],
        "losses": reference.train_losses(scenes[:4], wl.CONFIG.channels, 0, 2, 3),
    }


def matches_recorded(got, want, samples, label):
    problems = []
    egos = [s.observed[0, -1] for s in samples]
    for key in ("rows", "agents"):
        if key in got and got[key] != want[key]:
            problems.append(f"{label}: {key} {got[key]} != recorded {want[key]}")
    pairs = [(f"prediction {i}", np.subtract(g, ego), np.subtract(w, ego))
             for i, (g, w, ego) in enumerate(zip(got["predictions"], want["predictions"], egos))]
    pairs += [("whatif_base", np.subtract(got["whatif_base"], egos[0]),
               np.subtract(want["whatif_base"], egos[0])),
              ("losses", got["losses"], want["losses"])]
    for g, w in zip(got["whatif"], want["whatif"]):
        if g["name"] != w["name"] or not np.array_equal(g["planning_column"],
                                                        w["planning_column"]):
            problems.append(f"{label}: what-if plan {w['name']} planning column differs")
        pairs.append((f"divergence {w['name']}", g["divergence"], w["divergence"]))
        pairs.append((f"shift {w['name']}", g["max_coordinate_diff"], w["max_coordinate_diff"]))
    for name, g, w in pairs:
        if not reference.close(g, w):
            problems.append(f"{label}: {name} differs from the recorded output")
    return problems


def check_recorded():
    table, samples, params = tiny_inputs()
    recorded = json.loads(RECORDED.read_text())
    return (matches_recorded(program_outputs(table, samples, params), recorded, samples,
                             "package")
            + matches_recorded(reference_outputs(samples), recorded, samples, "reference"))


def tiny(workload):
    scenes = {k: (2 if k == "whatif" else 4) for k in workload.scenes}
    return dataclasses.replace(workload, clusters=TINY_CLUSTERS, scenes=scenes)


def check_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    full = dict(wl.WORKLOADS)
    minimum = dict(wl.MIN_UNITS)
    wl.WORKLOADS.update({name: tiny(w) for name, w in full.items()})
    wl.MIN_UNITS.update(prepare=1, train=2, predict=2, whatif=2)
    try:
        for name in full:
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    run.main(["--workload", name, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace)])
                lines = out.getvalue().strip().splitlines()
                result = json.loads(lines[-1])
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                label = f"{name} trace {trace}"
                if got != wanted[trace]:
                    problems.append(f"{label}: metrics {sorted(got)} != {sorted(wanted[trace])}")
                if not any(line.split()[:1] == ["error_rate"] for line in lines):
                    problems.append(f"{label}: error_rate not printed")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: {result['failed']} failed units")
    finally:
        wl.WORKLOADS.update(full)
        wl.MIN_UNITS.update(minimum)
    return problems


def check_tracing():
    """Traced calls are bitwise identical to untraced ones, and self times
    nest within their parents."""
    _, samples, params = tiny_inputs()
    plans = wl.alternative_plans(samples[1])
    config = training.TrainConfig(batch_size=2, max_epochs=2, seed=0)

    def calls():
        base, alts = whatif.what_if(samples[1], plans, params, wl.CONFIG)
        return ([model.predict(s, wl.CONFIG, params) for s in samples[:3]],
                [base.predictions] + [a.predictions for a in alts],
                training.train(samples[:4], wl.CONFIG, config).record.losses())

    plain = calls()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = calls()
    problems = []
    for label, a, b in zip(("predict", "what_if", "loss trace"), plain, traced):
        if not all(np.array_equal(x, y) for x, y in zip(a, b)):
            problems.append(f"traced {label} is not bitwise identical")
    if not tracer.spans:
        problems.append("no spans recorded")
    own = tracer.self_times()
    nested = list(own)
    for i in reversed(range(len(tracer.spans))):
        parent = tracer.spans[i][3]
        if parent >= 0:
            nested[parent] += nested[i]
    for (name, start, end, *_), total in zip(tracer.spans, nested):
        if total > end - start + 1e-9:
            problems.append(f"self times under {name} exceed its duration")
            break
    return problems


def check_outside_checkout():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "train_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["outside a checkout the benchmark did not fail cleanly"]
    return []


def main(argv):
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if argv == ["--record"]:
            table, samples, params = tiny_inputs()
            record = program_outputs(table, samples, params)
            record["recorded_at"] = run.git_sha()
            RECORDED.write_text(json.dumps(record) + "\n")
            print(f"wrote {RECORDED}")
            return 0
        problems = []
        for check in (check_recorded, check_tracing, check_emitted, check_outside_checkout):
            found = check()
            print(f"{check.__name__}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
