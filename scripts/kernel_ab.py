"""A/B timing of one training batch and of the query calls between two
``src/`` trees, both imported in one process.

    python scripts/kernel_ab.py PARENT_SRC CHANGE_SRC [--reps 15] [--seed 1] [--json PATH]

The trees are imported under two package names, with BLAS on one thread,
and every call runs on both trees in turn: the parent first on even
repetitions, the change first on odd ones.  Both trees read the same
inputs, built once with ``perfbench/workloads`` at the workload seed:

- ``batch``: ``training._batch_grads`` on the first batch of
  ``training.fit`` and its negatives (500 positives with 50 negatives each
  at ``Signature(28, 4)``), drawn once from the train-22k inputs of
  ``workloads.train_setup``, whose model is saved once and loaded with
  each tree's own ``model.load``.  Each tree's ``_loss_sum``,
  ``_row_grads`` and ``_scored_rows`` are wrapped to split the call:
  ``loss_sum`` and ``row_grads`` sum the time spent in the first two, and
  ``scatter`` is the batch's time outside ``_scored_rows``.
- ``evaluate``: ``evaluation.evaluate`` on the first chunk of
  ``EVAL_CHUNK`` test queries, as ``workloads._query_chunks`` builds them
  from the query-22k inputs of ``workloads.query_setup``; each tree loads
  its own store and model from those inputs.
- ``candidates`` and ``score``: ``model.score_candidates`` of that chunk's
  first query against all 21,845 entities, and ``model.score`` of its
  first triple.

``batch`` and ``evaluate`` run ``--reps`` times and the two scorers ``10 *
--reps`` times, each after one warm-up call.  The script prints each
side's median per stage and call, the median over the calls of the
change's time as a share of the parent's, and each side's median count of
minor page faults (``ru_minflt``) per call: a call that faults in fresh
pages times the allocator as well as the code.  It exits non-zero unless
both trees return the same loss and gradients, ``EvalReport``s and scores,
floats compared bit for bit.  One invocation is one process; a claim cites the
ratio medians of at least three.

With ``--json PATH`` the results are also written to ``PATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("batch", "evaluate", "candidates", "score")
STAGES = ("loss_sum", "row_grads", "scatter")  # the split of a batch call
WRAPPED = ("_loss_sum", "_row_grads", "_scored_rows")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def timed(spent: dict, name: str, fn):
    """``fn``, adding the time of each call to ``spent[name]``."""

    def call(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += perf_counter() - start

    return call


def side_calls(package, inputs: dict):
    """The calls of :data:`CALLS` run by ``package`` on ``inputs``, and a
    function that splits the last batch call's time into :data:`STAGES`."""
    import workloads

    training = package.training
    spent = dict.fromkeys(WRAPPED, 0.0)
    for name in WRAPPED:
        setattr(training, name, timed(spent, name, getattr(training, name)))
    trained = package.model.load(inputs["train_ckpt"])
    pos, neg = inputs["batch"]

    def batch():
        for name in WRAPPED:
            spent[name] = 0.0
        loss, grads = training._batch_grads(trained, pos, neg)
        return {"loss": loss, **grads}

    def stages(took: float) -> dict:
        return {"loss_sum": spent["_loss_sum"], "row_grads": spent["_row_grads"],
                "scatter": took - spent["_scored_rows"]}

    paths = inputs["paths"]
    kgdata = package.kgdata
    store = kgdata.augment_inverse(
        kgdata.load_triples(paths["train"], paths["valid"], paths["test"])
    )
    chunk = workloads._query_chunks(store, workloads.EVAL_CHUNK, inputs["seed"])[0]
    m = package.model.load(inputs["query_ckpt"])
    h, r, t = (int(v) for v in chunk.test[0])
    calls = {
        "batch": batch,
        "evaluate": lambda: dataclasses.asdict(package.evaluation.evaluate(m, chunk)),
        "candidates": lambda: package.model.score_candidates(m, h, r),
        "score": lambda: package.model.score(m, h, r, t),
    }
    return calls, stages


def same(a, b) -> bool:
    """Whether ``a`` and ``b`` are equal: dicts key by key, arrays and
    numbers by dtype, shape and value, float64 bit for bit."""
    import numpy as np

    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == np.float64:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return np.array_equal(a, b)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's src/ directory")
    parser.add_argument("change", help="the change's src/ directory")
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json")
    args = parser.parse_args()
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))  # before numpy is imported
    import numpy as np

    sides = {"parent": args.parent, "change": args.change}
    sys.path[:0] = [str(Path(args.change).resolve()), str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        store, m, cfg = workloads.train_setup(workloads.FULL, args.seed, workdir)
        rng = np.random.default_rng(cfg.seed)  # fit's first batch
        pos = store.train[rng.permutation(store.train.shape[0])[: cfg.batch_size]]
        neg = workloads.training._sample_negatives_batch(pos, cfg.neg_samples, m.n_entities, rng)
        train_ckpt = os.path.join(workdir, "train.ukge")
        workloads.model.save(m, train_ckpt)
        query = workloads.query_setup(workloads.FULL, args.seed, workdir)
        inputs = {"train_ckpt": train_ckpt, "batch": (pos, neg), "paths": query.paths,
                  "query_ckpt": query.ckpt, "seed": args.seed}
        calls, stages = {}, {}
        for side, src in sides.items():
            calls[side], stages[side] = side_calls(import_tree(src, f"ukge_{side}"), inputs)

    samples = {side: {name: [] for name in CALLS + STAGES} for side in sides}
    ratios: dict[str, list[float]] = {name: [] for name in CALLS}
    faults = {side: {name: [] for name in CALLS} for side in sides}
    for name, count in zip(CALLS, (args.reps, args.reps, 10 * args.reps, 10 * args.reps)):
        for rep in range(count + 1):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            took, got, faulted = {}, {}, {}
            for side in order:
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = perf_counter()
                got[side] = calls[side][name]()
                took[side] = perf_counter() - start
                faulted[side] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            if not same(got["parent"], got["change"]):
                sys.exit(f"{name}: the trees' results differ (floats compared bit for bit)")
            if rep:  # the first call warms up
                for side in sides:
                    samples[side][name].append(took[side])
                    faults[side][name].append(faulted[side])
                    if name == "batch":
                        for stage, spent in stages[side](took[side]).items():
                            samples[side][stage].append(spent)
                ratios[name].append(took["change"] / took["parent"])

    result = {
        "seed": args.seed,
        "calls": {name: len(v) for name, v in ratios.items()},
        "queries_per_evaluate": workloads.EVAL_CHUNK,
        "medians_ms": {
            side: {name: 1e3 * statistics.median(v) for name, v in samples[side].items()}
            for side in sides
        },
        "ratio_median": {name: statistics.median(v) for name, v in ratios.items()},
        "faults": {
            side: {name: statistics.median(v) for name, v in faults[side].items()}
            for side in sides
        },
        "bits_equal": True,
    }
    print(f"{'ms':<12}{'parent':>10}{'change':>10}   change/parent per call median"
          f"   minor faults per call, parent/change")
    for name in CALLS[:1] + STAGES + CALLS[1:]:
        row = f"{name:<12}" + "".join(f"{result['medians_ms'][s][name]:>10.3f}" for s in sides)
        if name in ratios:
            row += f"   {result['ratio_median'][name]:<29.3f}" + "/".join(
                f"{result['faults'][s][name]:g}" for s in sides)
        print(row)
    n = result["calls"]
    print(f"{n['batch']} batch calls, {n['evaluate']} evaluate calls of "
          f"{workloads.EVAL_CHUNK} queries, {n['candidates']} score_candidates and "
          f"{n['score']} score calls per side, calls alternating;")
    print("equal loss, gradients, reports and scores in every call")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
