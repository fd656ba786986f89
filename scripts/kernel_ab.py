"""A/B timing of one training batch and of one-query scoring between two
``src/`` trees.

    python scripts/kernel_ab.py PARENT_SRC CHANGE_SRC [--pairs 4] [--reps 15]

Each side runs in its own process, with BLAS on one thread, and the two
sides alternate: pair ``i`` runs the parent first when ``i`` is even and
the change first when it is odd.  A process builds the train-22k inputs
with ``perfbench/workloads.train_setup`` (the workload seed), draws the
first batch of ``training.fit`` from them (500 positives with 50 negatives
each at ``Signature(28, 4)``) and times ``training._batch_grads`` on it,
``--reps`` times after one warm-up call.  Inside each call it also sums
the time spent in ``_loss_sum`` and in ``_row_grads``; the scatter is the
batch's time outside ``_scored_rows``.  Then it times, ``10 * --reps``
calls each after one warm-up call, ``model.score`` of the batch's first
triple and ``model.score_candidates`` of its head and relation against
all 21,845 entities.  It prints the per-process medians of each, their
medians over the pairs, and the change's batch, score and candidate times
as a share of the parent's in each pair.  Both trees must give the same
loss, gradients and scores, bit for bit, or the script fails.

With ``--json PATH`` the results are also written to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("loss_sum", "row_grads", "scatter", "batch")
QUERIES = ("score", "candidates")  # model.score and model.score_candidates


def worker(args) -> None:
    """Time one side; write medians, the batch's loss and gradients and the
    scores."""
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    from time import perf_counter

    import numpy as np

    import workloads
    from ukge import model, training

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
    samples = {name: [] for name in STAGES + QUERIES}
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
    h, r, t = (int(v) for v in batch[0])
    queries = {
        "score": lambda: model.score(m, h, r, t),
        "candidates": lambda: model.score_candidates(m, h, r),
    }
    scores = {}
    for name, call in queries.items():
        for rep in range(10 * args.reps + 1):
            start = perf_counter()
            scores[name] = call()
            if rep:
                samples[name].append(perf_counter() - start)
    np.savez(args.out, loss=np.float64(loss), **grads, **scores)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump({name: 1e3 * statistics.median(v) for name, v in samples.items()}, fh)


def run_side(src: str, seed: int, reps: int, out: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run(
        [sys.executable, __file__, "--worker", "--src", src, "--seed", str(seed),
         "--reps", str(reps), "--out", out],
        env=env, check=True,
    )
    with open(out + ".json", encoding="utf-8") as fh:
        return json.load(fh)


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
                sys.exit(f"pair {i}: loss, gradients or scores differ between the trees")
    ratios = {
        name: [c[name] / p[name] for p, c in zip(runs["parent"], runs["change"])]
        for name in ("batch",) + QUERIES
    }
    result = {
        "seed": args.seed,
        "pairs": args.pairs,
        "reps_per_process": args.reps,
        "per_process_medians_ms": runs,
        "medians_ms": {
            side: {s: statistics.median(r[s] for r in runs[side]) for s in STAGES + QUERIES}
            for side in sides
        },
        "ratio_per_pair": ratios,
        "bits_equal": True,
    }
    print(f"{'ms':<10}" + "".join(f"{s:>12}" for s in STAGES + QUERIES))
    for side in sides:
        med = result["medians_ms"][side]
        print(f"{side:<10}" + "".join(f"{med[s]:>12.3f}" for s in STAGES + QUERIES))
    for name, per_pair in ratios.items():
        print(f"change/parent {name} time per pair:", " ".join(f"{r:.3f}" for r in per_pair))
    print("loss, gradients and scores equal bit for bit in every pair")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
