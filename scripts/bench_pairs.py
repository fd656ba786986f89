"""Alternating A/B runs of one benchmark workload between two checkouts.

    python scripts/bench_pairs.py PARENT CHANGE --workload query-22k \
        --pairs 10 --first-seed 6001 [--scale full] [--seconds 25] [--json PATH] \
        [--no-compile]

``PARENT`` and ``CHANGE`` are checkout directories.  Every run starts from
a fresh copy of its side's ``src/``, ``perfbench/`` (without its results),
``BENCHMARK.json`` and ``pyproject.toml``, byte-compiled with
``python -m compileall -q src perfbench`` before ``perfbench/run.py`` runs
in it.  With ``--no-compile`` that step is skipped and ``run.py`` runs with
``PYTHONDONTWRITEBYTECODE=1``, so every module is compiled at import, as in
a checkout no earlier run has left caches in.  Pair ``i`` runs both sides
with seed ``FIRST_SEED + i``, the parent first when ``i`` is even and the
change first when it is odd.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, host-scaled and wall clock, and how many pairs the
change won (better by the metric's direction, ties not counted), and two
verdicts:

- ``gain_rule_met``: at least ten pairs ran, the change won at least nine
  tenths of them, and its median is better than the parent's by more
  than the parent's interquartile range (the rule a claimed gain meets);
- ``worse_than_bound``: the change's median is worse than the parent's
  by more than the metric's ``bound`` share.

Then it prints ``correct`` and ``failed`` of every run, and each side's
source size, the lines of ``src/ukge/*.py`` (as ``cat src/ukge/*.py | wc
-l`` counts them), with the change's net line delta.  With ``--json PATH``
the runs, the summary and each side's ``src_lines`` are also written to
``PATH``, with ``byte_compiled`` telling which of the two modes ran and
``numpy_simd_found`` the SIMD extensions that numpy finds in the runs'
interpreter and environment, as ``np.show_runtime()`` reports them, so
that a bit-for-bit claim names its kernels.  The exit status is 1 when
any run failed or reported ``correct: false``.  Standard library only:
the runs' interpreter is asked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COPIED = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")
SKIPPED = ("__pycache__", "results", ".work")  # caches and earlier runs' output
MIN_PAIRS = 10  # the fewest pairs a gain may be claimed on

# Prints, as JSON, the "found" list of np.show_runtime()'s "simd_extensions":
# the CPU features that numpy dispatches kernels for.  show_runtime imports
# pprint when called, so the list is caught before it is printed.
SIMD_PROBE = """
import contextlib, io, json, pprint
import numpy as np
shown = []
pprint.pprint = shown.append
with contextlib.redirect_stdout(io.StringIO()):
    np.show_runtime()
print(json.dumps(next(d["simd_extensions"]["found"] for d in shown[0] if "simd_extensions" in d)))
"""


def fresh_copy(side: Path, dest: Path, byte_compile: bool) -> None:
    """Copy the benchmarked files of ``side`` to ``dest``, and byte-compile
    them if ``byte_compile``."""
    dest.mkdir()
    for name in COPIED:
        if (side / name).is_dir():
            shutil.copytree(side / name, dest / name, ignore=shutil.ignore_patterns(*SKIPPED))
        else:
            shutil.copy2(side / name, dest / name)
    if byte_compile:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=dest, check=True, stdout=subprocess.DEVNULL)


def tree_digest(side: Path) -> str:
    """sha256 over the relative paths and bytes of the files a run copies."""
    digest = hashlib.sha256()
    for name in COPIED:
        root = side / name
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*")
            if p.is_file() and not set(SKIPPED) & set(p.relative_to(side).parts)
        )
        for path in files:
            digest.update(str(path.relative_to(side)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def src_lines(side: Path) -> int:
    """Newlines in ``src/ukge/*.py``, as ``cat src/ukge/*.py | wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src" / "ukge").glob("*.py"))


def simd_found() -> list[str]:
    """The SIMD extensions that numpy finds when this interpreter runs with
    this environment, as ``np.show_runtime()`` reports them: the kernels a
    run's bits come from."""
    proc = subprocess.run([sys.executable, "-c", SIMD_PROBE], capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout)


def git_sha(side: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=side, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def wall_clock(stdout: str, names) -> dict[str, float]:
    """The wall-clock column of run.py's metric table."""
    wall = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in names:
            try:
                wall[parts[0]] = float(parts[2])
            except ValueError:
                pass
    return wall


def run_once(side: Path, workdir: Path, args, seed: int, names) -> dict:
    fresh_copy(side, workdir, not args.no_compile)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1") if args.no_compile else None
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--scale", args.scale],
        cwd=workdir, capture_output=True, text=True, env=env,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or not isinstance(result, dict):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return {"seed": seed, "correct": False, "failed": None, "error": "\n".join(tail)}
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "host_scaled": {k: v["value"] for k, v in result["metrics"].items()},
        "wall": wall_clock(proc.stdout, names),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """Per metric and clock: each side's quartiles, the pairs the change won
    and the two verdicts of the module docstring."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        for clock in ("host_scaled", "wall"):
            values = {
                side: [r.get(clock, {}).get(name) for r in runs[side]] for side in SIDES
            }
            pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                     if p is not None and c is not None]
            if not pairs:
                continue
            won = sum((c < p) if lower else (c > p) for p, c in pairs)
            sides = {side: dict(zip(("q1", "median", "q3"), quartiles([v[i] for v in pairs])))
                     for i, side in enumerate(SIDES)}
            parent, change = sides["parent"], sides["change"]
            gain = parent["median"] - change["median"]  # > 0: the change is better
            if not lower:
                gain = -gain
            summary[f"{name} ({clock})"] = {
                "unit": metric["unit"],
                "better": metric["better"],
                **sides,
                "pairs_won_by_change": won,
                "pairs": len(pairs),
                "gain_rule_met": len(pairs) >= MIN_PAIRS and 10 * won >= 9 * len(pairs)
                and gain > parent["q3"] - parent["q1"],
                "worse_than_bound": -gain > metric["bound"] * abs(parent["median"]),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--json", type=Path)
    parser.add_argument("--no-compile", action="store_true",
                        help="skip compileall and write no bytecode: compile at import")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        missing = [n for n in COPIED if not (path / n).exists()]
        if missing:
            parser.error(f"{side} {path} lacks {', '.join(missing)}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = {m["name"] for m in metrics}
    simd = simd_found()
    print(f"numpy SIMD extensions found: {' '.join(simd) or 'none'}", flush=True)

    runs = {side: [] for side in SIDES}
    first = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                run = run_once(sides[side], Path(tmp) / f"{side}{i}", args,
                               args.first_seed + i, names)
                runs[side].append(run)
                print(f"pair {i} seed {args.first_seed + i} {side}: correct {run['correct']} "
                      f"failed {run['failed']}", flush=True)

    summary = summarise(runs, metrics)
    mode = "compiled at import" if args.no_compile else "byte-compiled"
    print(f"\n{args.workload}, {args.pairs} pairs, {mode}; median [q1, q3]")
    for key, row in summary.items():
        cells = "  ".join(
            f"{side} {row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
            for side in SIDES
        )
        print(f"{key:<32} {cells}  change won {row['pairs_won_by_change']} "
              f"of {row['pairs']} ({row['better']} is better) {row['unit']}  "
              f"gain rule met {row['gain_rule_met']}, "
              f"worse than bound {row['worse_than_bound']}")
    for side in SIDES:
        print(f"{side} correct: {[r['correct'] for r in runs[side]]} "
              f"failed: {[r['failed'] for r in runs[side]]}")
    lines = {side: src_lines(path) for side, path in sides.items()}
    print(f"src lines: parent {lines['parent']}, change {lines['change']}, "
          f"net {lines['change'] - lines['parent']:+d}")
    if args.json:
        record = {
            "workload": args.workload,
            "scale": args.scale,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "seeds": [args.first_seed + i for i in range(args.pairs)],
            "first_in_pair": first,
            "byte_compiled": not args.no_compile,
            "numpy_simd_found": simd,
            "sides": {side: {"path": str(path), "git_sha": git_sha(path),
                             "tree_sha256": tree_digest(path), "src_lines": lines[side]}
                      for side, path in sides.items()},
            "summary": summary,
            "runs": runs,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    ok = all(r["correct"] for side in SIDES for r in runs[side])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
