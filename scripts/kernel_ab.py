"""A/B timing of single package calls between two ``src/`` trees, both
imported in one process.

    python scripts/kernel_ab.py PARENT_SRC CHANGE_SRC [--reps 15] [--seed 1] [--json PATH]

The trees are imported under two package names, with BLAS on one thread:
the parent's first at odd ``--seed`` and the change's first at even, so
that seeds 1-3 see both orders (``imported_first``).  Every call runs on
both trees in turn: the parent first on even repetitions, the change first
on odd ones.  Both trees read the same inputs, built once with
``perfbench/workloads`` at the workload seed:

- ``batch``: ``training._batch_grads`` on the first batch of
  ``training.fit`` and its negatives (500 positives with 50 negatives each
  at ``Signature(28, 4)``), drawn once from the train-22k inputs of
  ``workloads.train_setup``, whose model is saved once and loaded with
  each tree's own ``model.load``.  A tree whose ``fit`` makes its gradient
  arrays once, with ``training._grad_arrays``, and passes them to each
  batch gets them the same way, made once before the calls, so the call
  is timed as ``fit`` runs it.  Each tree's ``_loss_sum`` and
  ``_row_grads``, those of the two it has, are wrapped to split the call:
  ``loss_sum`` and ``row_grads`` sum the time spent in each, and
  ``scatter`` is the batch's time outside both.
- ``evaluate``: ``evaluation.evaluate`` on the first chunk of
  ``EVAL_CHUNK`` test queries, as ``workloads._query_chunks`` builds them
  from the query-22k inputs of ``workloads.query_setup``; each tree loads
  its own store and model from those inputs.
- ``candidates`` and ``score``: ``model.score_candidates`` of that chunk's
  first query against all 21,845 entities, and ``model.score`` of its
  first triple.
- ``load``: ``model.load`` of the query checkpoint, which lays the entity
  table out coordinate-major; a ``predict`` call pays it and
  ``candidates``.
- ``write``: ``kgdata.write_split_tsv`` of the train split of each tree's
  ``load_triples`` of the query-22k inputs (30,582 lines, 21,845 entity
  names), as the set-ups write their splits, each tree to its own file.
- ``store``: ``kgdata.augment_inverse(kgdata.load_triples(...))`` of the
  query-22k TSVs, as the set-up builds its store; the two sides' stores
  must be equal, field by field.  A tree whose store checks its triples
  when it is built pays that check here, once per store, where
  ``evaluate`` no longer pays it on every call.
- ``hierarchy``: ``kgdata.hierarchy_scores`` of each tree's
  ``load_triples`` of the stats-ring inputs of ``workloads.stats_setup``
  (a 5,461-node ``isa`` tree and a 4,096-node ``next`` ring), as
  ``ukge stats`` scores them.
- ``hierarchy-fb``: ``kgdata.hierarchy_scores`` of a random store of
  FB15k-237's shape, built here from seed 0 (:func:`fb_shaped_triples`):
  14,541 entities, 474 relations and 310,116 train triples, relation
  sizes Zipf with exponent 1.1, heads and tails uniform.  Unlike
  stats-ring's, most of its larger relations give some node two
  successors and two predecessors.
- ``names``: ``kgdata.read_names`` of the query-22k TSVs (38,228 lines,
  21,845 entity names), as ``predict`` reads them; the two sides' name
  bytes, bounds and counts of entities seen before the test split must
  be equal.
- ``predict``: one in-process ``cli.main(["predict", ...])`` of the first
  request of the query-22k workload against its TSVs and checkpoint, as
  the benchmark times it; the exit codes and the stdout bytes must be
  equal.

Every call runs ``--reps`` times its count in :data:`CALLS`, each after
one warm-up call.  The script prints each side's median per stage and
call, the median over the calls of the change's time as a share of the
parent's, and each side's median count of minor page faults
(``ru_minflt``) per call: a call that faults in fresh pages times the
allocator as well as the code, so a call where one side's median lies
outside the other side's interquartile range of counts is marked
(:func:`faults_differ`), as its ratio says little about the code.
After the timed calls, one more untimed call of each kind runs on each
side under ``tracemalloc``, and its peak of traced memory is printed and
kept as ``peak_kb``: the memory a call allocates and holds at once (not
what was made before it, as those gradient arrays), read without slowing a
timed call.  It also prints each side's tails scored exactly per
``evaluate`` query, counted by wrapping that tree's
``evaluation.score_candidates`` and ``evaluation.filtered_rank`` as
``perfbench/tracing.py`` does: a query's tails are those scored during its
``filtered_rank`` call, plus the exact scores handed to it in
``_verified``, ``(scores, verify, exact)``, where its block of queries was
scored in one call, and they must add up to every tail scored.  It prints
the median over the calls of each call's mean (``scored_per_query``), and
the mean and the maximum over every query of every call
(``scored_per_query_mean``, ``scored_per_query_max``).  It exits non-zero
unless both trees return the same result from every call, compared by
:func:`same`.  One invocation is one process; a claim cites the ratio
medians of at least three.

With ``--json PATH`` the results are also written to ``PATH``, with
``numpy_simd_found`` the SIMD extensions that numpy finds in this process,
as ``np.show_runtime()`` reports them (:func:`bench_pairs.simd_found`):
the kernels whose bits the two trees matched on.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import tracemalloc
from collections.abc import Sequence
from pathlib import Path
from time import perf_counter

from bench_pairs import quartiles, simd_found

ROOT = Path(__file__).resolve().parent.parent
# each call's runs per --reps, in print order
CALLS = {"batch": 1, "evaluate": 1, "candidates": 10, "score": 10, "load": 10, "write": 10,
         "store": 10, "hierarchy": 10, "hierarchy-fb": 1, "names": 10, "predict": 10}
FB_SHAPE = (14_541, 474, 310_116)  # FB15k-237's entities, relations and train triples
STAGES = ("loss_sum", "row_grads", "scatter")  # the split of a batch call
WRAPPED = ("_loss_sum", "_row_grads")
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


def fb_shaped_triples(seed: int = 0):
    """Train triples of a random store of :data:`FB_SHAPE`: each triple's
    relation drawn with weight ``rank ** -1.1``, its head and tail
    uniformly."""
    import numpy as np

    n_entities, n_relations, n_triples = FB_SHAPE
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n_relations + 1) ** -1.1
    relations = rng.choice(n_relations, size=n_triples, p=weights / weights.sum())
    heads, tails = rng.integers(0, n_entities, size=(2, n_triples))
    return np.stack([heads, relations, tails], axis=1)


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
    """The calls run by ``package`` on ``inputs``, keyed as :data:`CALLS`, a
    function that splits the last batch call's time into :data:`STAGES`, and
    one that returns the tails the last ``evaluate`` call scored exactly,
    query by query."""
    import numpy as np
    import workloads

    training = package.training
    spent = dict.fromkeys(WRAPPED, 0.0)
    for name in WRAPPED:
        if hasattr(training, name):
            setattr(training, name, timed(spent, name, getattr(training, name)))
    evaluation, scored, sizes = package.evaluation, [], []
    score_all, rank = evaluation.score_candidates, evaluation.filtered_rank

    def counted(*args, **kwargs):
        scores = score_all(*args, **kwargs)
        sizes.append(scores.size)
        return scores

    def ranked(*args, **kwargs):
        before = len(sizes)
        result = rank(*args, **kwargs)
        handed = kwargs.get("_verified")  # scored with its block, before the call
        scored.append(sum(sizes[before:]) + (0 if handed is None else handed[2].size))
        return result

    evaluation.score_candidates, evaluation.filtered_rank = counted, ranked

    def evaluate():
        scored.clear()
        sizes.clear()
        report = dataclasses.asdict(evaluation.evaluate(m, chunk))
        if sum(scored) != sum(sizes):
            sys.exit("evaluate: the tails scored exactly do not add up to the queries' tails")
        return report
    trained = package.model.load(inputs["train_ckpt"])
    pos, neg = inputs["batch"]
    # a tree whose fit makes its gradient arrays once gets them once here
    held = (training._grad_arrays(trained),) if hasattr(training, "_grad_arrays") else ()

    def batch():
        for name in WRAPPED:
            spent[name] = 0.0
        loss, grads = training._batch_grads(trained, pos, neg, *held)
        return {"loss": loss, **grads}

    def stages(took: float) -> dict:
        return {"loss_sum": spent["_loss_sum"], "row_grads": spent["_row_grads"],
                "scatter": took - spent["_loss_sum"] - spent["_row_grads"]}

    paths = inputs["paths"]
    kgdata = package.kgdata
    base = kgdata.load_triples(paths["train"], paths["valid"], paths["test"])
    store = kgdata.augment_inverse(base)
    written = Path(inputs["workdir"]) / f"{package.__name__}.tsv"

    def write() -> Path:
        kgdata.write_split_tsv(base, "train", str(written))
        return written

    stats = inputs["stats_paths"]
    ring = kgdata.load_triples(stats["train"], stats["valid"], stats["test"])
    fb = inputs["fb_triples"]
    fb_store = kgdata.TripleStore([f"e{i}" for i in range(FB_SHAPE[0])],
                                  [f"r{i}" for i in range(FB_SHAPE[1])], fb, fb[:0], fb[:0])

    def names() -> dict:
        entities, relations, n_seen = kgdata.read_names(paths["train"], paths["valid"],
                                                        paths["test"])
        return {"entities": np.frombuffer(entities.data, dtype=np.uint8),
                "entity_bounds": entities.bounds, "n_seen": n_seen,
                "relations": np.frombuffer(relations.data, dtype=np.uint8),
                "relation_bounds": relations.bounds}

    cli = importlib.import_module(f"{package.__name__}.cli")
    head, rel = inputs["request"]
    argv = ["predict", "--model", inputs["query_ckpt"], "--train", paths["train"],
            "--valid", paths["valid"], "--test", paths["test"], "--head", head, "--rel", rel,
            "--topk", str(workloads.TOPK)]

    def predict() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return {"code": code, "stdout": np.frombuffer(out.getvalue().encode(), dtype=np.uint8)}

    chunk = workloads._query_chunks(store, workloads.EVAL_CHUNK, inputs["seed"])[0]
    m = package.model.load(inputs["query_ckpt"])
    h, r, t = (int(v) for v in chunk.test[0])
    calls = {
        "batch": batch,
        "evaluate": evaluate,
        "candidates": lambda: package.model.score_candidates(m, h, r),
        "score": lambda: package.model.score(m, h, r, t),
        "load": lambda: package.model.parameters(package.model.load(inputs["query_ckpt"])),
        "write": write,
        "store": lambda: kgdata.augment_inverse(
            kgdata.load_triples(paths["train"], paths["valid"], paths["test"])),
        "hierarchy": lambda: kgdata.hierarchy_scores(ring),
        "hierarchy-fb": lambda: kgdata.hierarchy_scores(fb_store),
        "names": names,
        "predict": predict,
    }
    if calls.keys() != CALLS.keys():
        sys.exit(f"side_calls: missing {sorted(CALLS.keys() - calls.keys())}, "
                 f"extra {sorted(calls.keys() - CALLS.keys())}")
    return calls, stages, lambda: list(scored)


def faults_differ(parent: list[int], change: list[int]) -> bool:
    """Whether one side's median of per-call fault counts lies outside the
    other side's interquartile range of them, as a gain's median must lie
    outside the parent's (``bench_pairs``): a difference of medians alone
    is often noise, even on one tree."""

    def outside(a: list[int], b: list[int]) -> bool:
        low, _, high = quartiles(b)
        return not low <= statistics.median(a) <= high

    return outside(parent, change) or outside(change, parent)


def same(a, b) -> bool:
    """Whether ``a`` and ``b`` are equal: dicts key by key, lists and other
    sequences (a store's name dictionaries, lists or ``Names``) item by
    item, dataclasses (stores) by class name and then field by field,
    ``None`` only to ``None``, strings and paths by their bytes, arrays and
    numbers by dtype, shape and value, float64 bit for bit."""
    import numpy as np

    if a is None or b is None:
        return a is b
    if isinstance(a, str):
        return isinstance(b, str) and a == b
    if dataclasses.is_dataclass(a):
        return type(a).__name__ == type(b).__name__ and same(vars(a), vars(b))
    if isinstance(a, Sequence) and not isinstance(a, tuple):
        return (isinstance(b, Sequence) and not isinstance(b, (str, tuple)) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, Path):
        return isinstance(b, Path) and a.read_bytes() == b.read_bytes()
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
        stats_dir = os.path.join(workdir, "stats")  # its splits must not replace query's
        os.mkdir(stats_dir)
        inputs = {"train_ckpt": train_ckpt, "batch": (pos, neg), "paths": query.paths,
                  "query_ckpt": query.ckpt, "seed": args.seed, "workdir": workdir,
                  "request": query.requests[0],
                  "stats_paths": workloads.stats_setup(workloads.FULL, args.seed, stats_dir),
                  "fb_triples": fb_shaped_triples()}
        calls, stages, scored = {}, {}, {}
        imported = list(sides) if args.seed % 2 else list(sides)[::-1]
        for side in imported:
            calls[side], stages[side], scored[side] = side_calls(
                import_tree(sides[side], f"ukge_{side}"), inputs
            )
        # the loop stays in the directory: ``load`` reads the query checkpoint
        # and ``write`` writes there
        samples = {side: {name: [] for name in [*CALLS, *STAGES]} for side in sides}
        ratios: dict[str, list[float]] = {name: [] for name in CALLS}
        faults = {side: {name: [] for name in CALLS} for side in sides}
        per_call = {side: [] for side in sides}  # tails scored exactly, each call's queries
        for name in CALLS:
            for rep in range(args.reps * CALLS[name] + 1):
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
                        if name == "evaluate":
                            per_call[side].append(scored[side]())
                    ratios[name].append(took["change"] / took["parent"])
        peak_kb = {side: {} for side in sides}
        for name in CALLS:  # untimed: tracemalloc slows every allocation
            for side in sides:
                tracemalloc.start()
                calls[side][name]()
                peak_kb[side][name] = tracemalloc.get_traced_memory()[1] / 1024
                tracemalloc.stop()

    result = {
        "seed": args.seed,
        "imported_first": imported[0],
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
        "peak_kb": peak_kb,
        "scored_per_query": {
            side: statistics.median(statistics.mean(c) for c in v) for side, v in per_call.items()
        },
        "scored_per_query_mean": {
            side: statistics.mean(n for c in v for n in c) for side, v in per_call.items()
        },
        "scored_per_query_max": {side: max(n for c in v for n in c) for side, v in per_call.items()},
        "bits_equal": True,
        "numpy_simd_found": simd_found(),
    }
    result["faults_differ"] = {
        name: faults_differ(faults["parent"][name], faults["change"][name]) for name in CALLS
    }
    print(f"{'ms':<12}{'parent':>10}{'change':>10}   change/parent per call median"
          f"   minor faults per call, parent/change   peak KB, parent/change")
    for name in [*CALLS][:1] + [*STAGES] + [*CALLS][1:]:  # the batch, then its stages
        row = f"{name:<12}" + "".join(f"{result['medians_ms'][s][name]:>10.3f}" for s in sides)
        if name in ratios:
            faults = "/".join(f"{result['faults'][s][name]:g}" for s in sides)
            row += f"   {result['ratio_median'][name]:<29.3f}{faults:<39}" + "/".join(
                f"{peak_kb[s][name]:.0f}" for s in sides)
            row += "   faults differ" if result["faults_differ"][name] else ""
        print(row)
    print("calls per side, alternating: " + ", ".join(
        f"{n} {name}" for name, n in result["calls"].items())
        + f"; {workloads.EVAL_CHUNK} queries an evaluate call")
    print("tails scored exactly per evaluate query, parent/change: " + "; ".join(
        label + "/".join(f"{result[key][s]:g}" for s in sides) for label, key in (
            ("", "scored_per_query"), ("mean ", "scored_per_query_mean"),
            ("max ", "scored_per_query_max"))))
    print("the same result from every call, compared by same(), "
          f"with numpy's SIMD extensions {' '.join(result['numpy_simd_found']) or 'none'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
