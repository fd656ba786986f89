"""A/B timing of one training batch, of one ``evaluate`` call and of
one-query scoring between two ``src/`` trees.

    python scripts/kernel_ab.py PARENT_SRC CHANGE_SRC [--pairs 4] [--reps 15]

Each side runs in its own process, with BLAS on one thread, and the two
sides alternate: pair ``i`` runs the parent first when ``i`` is even and
the change first when it is odd.  A process builds the train-22k inputs
with ``perfbench/workloads.train_setup`` (the workload seed), draws the
first batch of ``training.fit`` from them (500 positives with 50 negatives
each at ``Signature(28, 4)``) and times ``training._batch_grads`` on it,
``--reps`` times after one warm-up call.  Inside each call it also sums
the time spent in ``_loss_sum`` and in ``_row_grads``; the scatter is the
batch's time outside ``_scored_rows``.  It prints the per-process medians
of each, their medians over the pairs, and the change's batch time as a
share of the parent's in each pair.  Both trees must give the same loss
and gradients, bit for bit, or the script fails.

Sub-millisecond medians of separate processes spread too widely on a small
shared host, so the query calls are timed with both trees imported in this
process under two package names, calls alternating: it builds the
query-22k inputs with ``perfbench/workloads.query_setup`` (the same seed),
loads each tree's store and model from them, takes the first chunk of
``EVAL_CHUNK`` test queries as ``workloads._query_chunks`` builds them, and
times ``--reps`` calls of ``evaluation.evaluate`` on it, then ``10 *
--reps`` calls each of ``model.score_candidates`` of its first query
against all 21,845 entities and of ``model.score`` of its first triple,
each after one warm-up call.  It prints each side's median and the median
of the change's time as a share of the parent call next to it.  Both trees
must return equal ``EvalReport``s and the same scores bit for bit, or the
script fails.

With ``--json PATH`` the results are also written to ``PATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("loss_sum", "row_grads", "scatter", "batch")
SHARED = ("evaluate", "candidates", "score")  # timed with both trees in one process
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker(args) -> None:
    """Time one side; write medians and the batch's loss and gradients."""
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    from time import perf_counter

    import numpy as np

    import workloads
    from ukge import training

    with tempfile.TemporaryDirectory() as workdir:
        store, m, cfg = workloads.train_setup(workloads.FULL, args.seed, workdir)
    rng = np.random.default_rng(cfg.seed)  # fit's first batch
    batch = store.train[rng.permutation(store.train.shape[0])[: cfg.batch_size]]
    neg = training._sample_negatives_batch(batch, cfg.neg_samples, m.n_entities, rng)

    spent = dict.fromkeys(STAGES[:2] + ("scored",), 0.0)

    def timed(name, fn):
        def call(*a, **kw):
            start = perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spent[name] += perf_counter() - start

        return call

    training._loss_sum = timed("loss_sum", training._loss_sum)
    training._row_grads = timed("row_grads", training._row_grads)
    training._scored_rows = timed("scored", training._scored_rows)
    samples = {name: [] for name in STAGES}
    for rep in range(args.reps + 1):
        for name in spent:
            spent[name] = 0.0
        start = perf_counter()
        loss, grads = training._batch_grads(m, batch, neg)
        batch_s = perf_counter() - start
        if rep:  # the first call warms up
            samples["loss_sum"].append(spent["loss_sum"])
            samples["row_grads"].append(spent["row_grads"])
            samples["scatter"].append(batch_s - spent["scored"])
            samples["batch"].append(batch_s)
    np.savez(args.out, loss=np.float64(loss), **grads)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump({name: 1e3 * statistics.median(v) for name, v in samples.items()}, fh)


def run_side(src: str, seed: int, reps: int, out: str) -> dict:
    subprocess.run(
        [sys.executable, __file__, "--worker", "--src", src, "--seed", str(seed),
         "--reps", str(reps), "--out", out],
        check=True,
    )
    with open(out + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def import_tree(src: str, name: str):
    """The ``ukge`` package of the ``src/`` tree ``src``, imported as ``name``."""
    init = Path(src).resolve() / "ukge" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def side_calls(package, paths: dict, ckpt: str, seed: int) -> dict:
    """The calls of :data:`SHARED` on the query-22k inputs, run by ``package``."""
    import numpy as np

    import workloads

    kgdata = package.kgdata
    store = kgdata.augment_inverse(
        kgdata.load_triples(paths["train"], paths["valid"], paths["test"])
    )
    chunk = workloads._query_chunks(store, workloads.EVAL_CHUNK, seed)[0]
    m = package.model.load(ckpt)
    h, r, t = (int(v) for v in chunk.test[0])
    return {
        "evaluate": lambda: dataclasses.asdict(package.evaluation.evaluate(m, chunk)),
        "candidates": lambda: package.model.score_candidates(m, h, r),
        "score": lambda: np.float64(package.model.score(m, h, r, t)),
    }


def shared_process(sides: dict, seed: int, reps: int) -> dict:
    """Time :data:`SHARED` with both trees imported in this process, calls
    alternating (see the module docstring); exit unless both trees return
    the same reports and scores."""
    sys.path[:0] = [str(Path(sides["change"]).resolve()), str(ROOT / "perfbench")]
    from time import perf_counter

    import numpy as np

    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        inputs = workloads.query_setup(workloads.FULL, seed, workdir)
        calls = {
            side: side_calls(import_tree(src, f"ukge_{side}"), inputs.paths, inputs.ckpt, seed)
            for side, src in sides.items()
        }
    samples = {side: {name: [] for name in SHARED} for side in sides}
    ratios: dict[str, list[float]] = {name: [] for name in SHARED}
    for name, count in zip(SHARED, (reps, 10 * reps, 10 * reps)):
        for rep in range(count + 1):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            took, got = {}, {}
            for side in order:
                start = perf_counter()
                got[side] = calls[side][name]()
                took[side] = perf_counter() - start
            if name == "evaluate":
                equal = got["parent"] == got["change"]
            else:
                equal = np.array_equal(got["parent"].view(np.uint64),
                                       got["change"].view(np.uint64))
            if not equal:
                sys.exit(f"{name}: the trees differ when both run in one process")
            if rep:  # the first call warms up
                for side in sides:
                    samples[side][name].append(took[side])
                ratios[name].append(took["change"] / took["parent"])
    return {
        "medians_ms": {
            side: {name: 1e3 * statistics.median(v) for name, v in samples[side].items()}
            for side in sides
        },
        "ratio_median": {name: statistics.median(v) for name, v in ratios.items()},
        "calls": {name: len(v) for name, v in ratios.items()},
        "queries_per_evaluate": workloads.EVAL_CHUNK,
    }


def same_bits(a: str, b: str) -> bool:
    import numpy as np

    with np.load(a) as x, np.load(b) as y:
        return sorted(x.files) == sorted(y.files) and all(
            x[k].shape == y[k].shape
            and np.array_equal(x[k].view(np.uint64), y[k].view(np.uint64))
            for k in x.files
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="the parent's src/ directory")
    parser.add_argument("change", nargs="?", help="the change's src/ directory")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args)
        return
    if not (args.parent and args.change):
        parser.error("give the parent's and the change's src/ directories")
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))  # before numpy is imported
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = os.path.join(tmp, f"{side}{i}.npz")
                runs[side].append(run_side(sides[side], args.seed, args.reps, out))
            a, b = (os.path.join(tmp, f"{side}{i}.npz") for side in sides)
            if not same_bits(a, b):
                sys.exit(f"pair {i}: loss or gradients differ between the trees")
    ratios = {"batch": [c["batch"] / p["batch"] for p, c in zip(runs["parent"], runs["change"])]}
    shared = shared_process(sides, args.seed, args.reps)
    result = {
        "seed": args.seed,
        "pairs": args.pairs,
        "reps_per_process": args.reps,
        "per_process_medians_ms": runs,
        "medians_ms": {
            side: {s: statistics.median(r[s] for r in runs[side]) for s in STAGES}
            for side in sides
        },
        "ratio_per_pair": ratios,
        "one_process": shared,
        "bits_equal": True,
    }
    print(f"{'ms':<10}" + "".join(f"{s:>12}" for s in STAGES))
    for side in sides:
        med = result["medians_ms"][side]
        print(f"{side:<10}" + "".join(f"{med[s]:>12.3f}" for s in STAGES))
    for name, per_pair in ratios.items():
        print(f"change/parent {name} time per pair:", " ".join(f"{r:.3f}" for r in per_pair))
    print("loss and gradients equal bit for bit in every pair")
    calls = shared["calls"]
    print(f"one process, calls alternating ({calls['evaluate']} evaluate calls of "
          f"{shared['queries_per_evaluate']} queries, {calls['candidates']} score_candidates "
          f"and {calls['score']} score calls):")
    for name in SHARED:
        med = {side: shared["medians_ms"][side][name] for side in sides}
        print(f"  {name:<11} parent {med['parent']:.3f} ms, change {med['change']:.3f} ms, "
              f"change/parent per call median {shared['ratio_median'][name]:.3f}")
    print("  equal reports and scores in every call")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
