"""nliexpl benchmark entry point.

    python3 perfbench/run.py --workload train-pred-expl --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the workload's inputs from `--seed`,
runs a warm-up iteration, then its iteration in a closed loop for
`--seconds` (and at least twice), each after a burst of set-ups, checks
the outputs against independent references and prints, as the last line
of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates untraced and
traced set-up+iteration units and reports the per-layer metrics. Exits 1
if any operation or output check failed, 2 if the program cannot be
imported. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-CPU machine a pred-expl train iteration
# varied 5.4% (coefficient of variation) with two threads and 2.4% with
# one, for 12% less speed.
BLAS_THREADS = 1
# Set-up runs in a burst before every iteration, so its samples spread
# over the run like the iterations do (this machine drifts between fast
# and slow phases lasting seconds); setup_s is the median of all of them.
SETUP_BURST_SECONDS = 0.15
MIN_ITERATIONS = 2      # repeat checks compare at least two iterations
# The first iteration in a process runs measurably slower (allocator and
# BLAS buffers warm up); it is run, checked and left out of the timings.
WARMUP_ITERATIONS = 1
KERNEL_PASSES = 3       # calibration passes before each iteration
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def pin_blas_threads() -> dict:
    """Fix the BLAS thread count (at most nproc) before numpy loads."""
    before = {var: os.environ.get(var) for var in THREAD_VARS}
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return {"thread_env_before": before, "blas_threads": threads,
            "nproc": nproc, "cpu_count": os.cpu_count()}


def environment(pinned: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas_info = {"name": "unknown", "version": "unknown"}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info, "machine": platform.machine(),
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            **pinned}


def _median_rate(outcomes, count_of) -> float:
    return statistics.median(count_of(o) for o in outcomes)


def _setup_burst(wl, times: list[float]):
    """Set the workload up until SETUP_BURST_SECONDS are spent, at least
    once; returns the last state. The caller drops its own state first."""
    gc.collect()
    spent = 0.0
    state = None
    while state is None or spent < SETUP_BURST_SECONDS:
        state = None    # free the previous set-up first, so peak RSS holds one
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return state


def _run_untraced(wl, seconds, spans_mod):
    import calibrate

    kernel = calibrate.Kernel()
    setup_times, kernel_times, outcomes, errors = [], [], [], []
    state = None
    stage = spans_mod.Tracer()
    stage.install(only=set(wl.stage_spans))
    start = None
    try:
        while (len(outcomes) < WARMUP_ITERATIONS + MIN_ITERATIONS
               or time.perf_counter() - start < seconds):
            if len(outcomes) == WARMUP_ITERATIONS:
                start = time.perf_counter()
            try:
                state = raw = None
                state = _setup_burst(wl, setup_times)
                kernel_times += [kernel.seconds() for _ in range(KERNEL_PASSES)]
                stage.spans.clear()
                t0 = time.perf_counter()
                raw = wl.iteration(state, len(outcomes))
                wall = time.perf_counter() - t0
                outcomes.append(wl.summarize(state, raw, wall, stage.spans))
            except Exception:
                errors.append(traceback.format_exc())
                break
    finally:
        stage.uninstall()
    return state, outcomes, errors, {"setup_times": setup_times,
                                     "kernel_times": kernel_times,
                                     "timed": outcomes[WARMUP_ITERATIONS:]}


def _merge(tracers) -> list[list]:
    merged = []
    for tracer in tracers:
        offset = len(merged)
        for name, start, end, parent, attrs in tracer.spans:
            merged.append([name, start, end,
                           parent + offset if parent >= 0 else -1, attrs])
    return merged


def _run_traced(wl, seconds, spans_mod, layers_mod):
    """After a warm-up unit, alternate untraced and traced units of
    set-up plus one iteration."""
    outcomes, errors, tracers = [], [], []
    walls = {False: [], True: []}
    traced = False
    state = None
    start = time.perf_counter()
    while not (walls[False] and walls[True]
               and time.perf_counter() - start >= seconds):
        warmup = len(outcomes) < WARMUP_ITERATIONS
        tracer = spans_mod.Tracer()
        state = None
        gc.collect()
        if traced:
            tracer.install(counters=layers_mod.COUNTERS)
        try:
            try:
                t0 = time.perf_counter()
                state = wl.setup()
                t1 = time.perf_counter()
                raw = wl.iteration(state, len(outcomes))
                t2 = time.perf_counter()
            finally:
                tracer.uninstall()
            outcomes.append(wl.summarize(state, raw, t2 - t1, []))
        except Exception:
            errors.append(traceback.format_exc())
            break
        if warmup:
            continue
        walls[traced].append(t2 - t0)
        if traced:
            tracers.append(tracer)
        traced = not traced
    spans = _merge(tracers)
    overhead = 0.0
    if walls[False] and walls[True]:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    metrics = layers_mod.layer_metrics(spans, spans_mod.self_times(spans),
                                       len(tracers), overhead)
    return state, outcomes, errors, {"spans": spans, "layer_metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool,
        shape: str = "full", pinned: dict | None = None) -> dict:
    """Run one workload; returns the result record (see module doc)."""
    import layers
    import spans as spans_mod
    import workloads

    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[workload](workdir, seed, workloads.SHAPES[shape])
        wl.prepare()
        if trace:
            state, outcomes, errors, extra = _run_traced(wl, seconds, spans_mod, layers)
        else:
            state, outcomes, errors, extra = _run_untraced(wl, seconds, spans_mod)
        checks = []
        if not errors:
            try:
                checks = wl.checks(state, outcomes)
            except Exception:
                errors.append(traceback.format_exc())
        floor = wl.shape.min_step_coverage
        if trace and workload == "train-pred-expl" and floor is not None:
            coverage = extra["layer_metrics"]["trace.step_coverage"][0]
            checks.append(("trace.step_coverage", coverage >= floor,
                           f"{coverage:.4f}, floor {floor}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes) + len(errors) + len(checks)
    failed = len(errors) + sum(1 for _, ok, _ in checks if not ok)
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in extra["layer_metrics"].items()}
        stages = {}
    else:
        import calibrate

        # > 1 when the machine ran slower than its reference speed
        slowdown = (statistics.median(extra["kernel_times"])
                    / calibrate.REFERENCE_SECONDS) if extra["kernel_times"] else 1.0
        timed = extra["timed"]
        raw = {
            "setup_s": (statistics.median(extra["setup_times"])
                        if extra["setup_times"] else 0.0),
            "items_per_s": (_median_rate(timed, lambda o: o["items"] / o["wall"])
                            if timed else 0.0),
        }
        metrics = {
            "setup_s": raw["setup_s"] / slowdown,
            "items_per_s": raw["items_per_s"] * slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        stages = {f"{k}.raw": {"value": v, "unit": END_TO_END[k]} for k, v in raw.items()}
        stages["machine.slowdown"] = {"value": slowdown, "unit": "ratio"}
        for name in (timed[0]["stages"] if timed else {}):
            unit = timed[0]["stages"][name][2]
            rate = _median_rate(timed, lambda o: o["stages"][name][0]
                                / o["stages"][name][1])
            stages[name] = {"value": rate * slowdown, "unit": unit}
    return {
        "correct": not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
        "stages": stages,
        "failed_frac": failed / attempted if attempted else 1.0,
        "iterations": len(outcomes),
        "iteration_walls": [o["wall"] for o in outcomes],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": errors,
        "spans": extra.get("spans"),
        "environment": environment(pinned or {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-pred-expl", "infer-explain", "corpus-quality"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)

    pinned = pin_blas_threads()
    if not (REPO / "src" / "nliexpl" / "__init__.py").is_file():
        print(f"error: no nliexpl sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.shape, pinned)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s, separators=(",", ":")) + "\n" for s in spans)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for error in result["errors"]:
        print(error, file=sys.stderr)
    for check in result["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        print(f"check {check['name']} {status} {check['detail']}".rstrip())
    for name, m in {**result["stages"], **result["metrics"]}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {result['failed_frac']:.6g} ({result['failed']} of "
          f"{result['attempted']} operations and checks)")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
