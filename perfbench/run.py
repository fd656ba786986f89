"""ukge benchmark runner.

    python3 perfbench/run.py --workload train-22k --seed 0 --seconds 25 --trace 0

Runs one workload (see perfbench/README.md) in this process against the
package under ``src/`` of the checkout that holds this file, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the layer boundaries are traced and the
metrics are the per-layer ones, plus the traced run's own end-to-end
figures under ``traced.``.  The result, the run environment and the raw
samples (and, traced, the spans) are also written under
``perfbench/results/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one client thread, one BLAS thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _import_package():
    """Import ukge from this checkout's src/, and nothing else."""
    if not (SRC / "ukge" / "__init__.py").is_file():
        sys.exit(f"error: no ukge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ukge

    if Path(ukge.__file__).resolve().parent != SRC / "ukge":
        sys.exit(f"error: imported ukge from {ukge.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup: list[float], outcome, scaled: bool) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics from host-scaled samples, or from wall times."""

    def times(timer):
        return timer.scaled() if scaled else timer.wall

    return {
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "throughput_per_s": (
            _median([u / t for u, t in zip(outcome.units, times(outcome.work))]), "1/s"
        ),
        "latency_p50_ms": (1000.0 * _median(times(outcome.requests)), "ms"),
    }


def measure(args, workdir: str):
    """Set up SETUP_REPEATS times, run the workload once, then check it."""
    import tracing
    import workloads
    from ukge import operators

    setup, run = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
    try:
        setups = workloads.Timer()
        for i in range(SETUP_REPEATS):
            sub = os.path.join(workdir, str(i))
            os.mkdir(sub)
            setups.start()
            inputs = setup(scale, args.seed, sub)
            setups.stop()
        gc.collect()
        gc.freeze()  # the harness's own objects stay out of the program's collections
        counting = operators.count_operations() if tracer else contextlib.nullcontext()
        with counting as counter:
            outcome = run(inputs, args.seconds, args.seed)
    finally:
        if tracer:
            tracer.restore()
    start = perf_counter()
    failed, details = outcome.check()
    details.append(f"output checks took {perf_counter() - start:.1f} s")
    return setups, outcome, failed, details, tracer, (counter.elements if tracer else 0)


def report(outcome, setups, failed: int, details: list[str]) -> dict:
    """Print the run's figures; return the host-scaled end-to-end metrics."""
    e2e = end_to_end(setups.scaled(), outcome, scaled=True)
    wall = end_to_end(setups.wall, outcome, scaled=False)
    lat = outcome.requests
    e2e["latency_p90_ms"] = (1000.0 * _p90(lat.scaled()), "ms")
    wall["latency_p90_ms"] = (1000.0 * _p90(lat.wall), "ms")
    for line in outcome.details + details:
        print(f"  {line}")
    print(f"{'metric':<24} {'host-scaled':>14} {'wall clock':>14}")
    for name, (value, unit) in e2e.items():
        print(f"{name:<24} {value:>14.6g} {wall[name][0]:>14.6g} {unit}")
    for name, (metric, factor, unit) in outcome.aliases.items():
        print(f"{name:<24} {factor * e2e[metric][0]:>14.6g} "
              f"{factor * wall[metric][0]:>14.6g} {unit}")
    print(f"{'failed_ratio':<24} {failed / outcome.attempted:>14.6g} "
          f"({failed} of {outcome.attempted} operations failed)")
    print(f"{'samples':<24} {len(outcome.work.wall):>14d} throughput, "
          f"{len(lat.wall)} latency, {len(setups.wall)} set-up")
    del e2e["latency_p90_ms"]  # defined only where a run has 100 requests
    return e2e


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: the smoke test's tiny inputs")
    args = parser.parse_args(argv)
    _import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(args)
    print("env " + json.dumps(env))

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        setups, outcome, failed, details, tracer, elements = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = report(outcome, setups, failed, details)
    if tracer:
        metrics = tracing.layer_metrics(tracer, elements)
        metrics.update({f"traced.{k}": v for k, v in e2e.items()})
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {
        "setup_s": setups.wall,
        "work_s": outcome.work.wall,
        "work_units": outcome.units,
        "request_s": outcome.requests.wall,
        "work_scaled_s": outcome.work.scaled(),
        "request_scaled_s": outcome.requests.scaled(),
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "samples": samples, "result": result}, fh, indent=1)
    if tracer:
        tracer.write(str(results / f"{stem}-spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
