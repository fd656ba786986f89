"""Span tracing of ukge's layers, recorded from outside the package.

Tracing wraps the module attributes that each layer's callers look up at
call time (``geometry.phi``, ``training.Adam.step``, ...) with a recorder,
so nothing under ``src/`` changes.  A name that a module imported directly
(``training.apply_time_guard``, ``evaluation.score_candidates``) is patched
in the importing module, because that is where its caller looks it up.

Spans are kept in memory as ``[name, start, end, parent]`` records and
written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the benchmark runs one client thread.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: the package's modules, in dependency order; each span belongs to the
#: layer named before the first dot of the span name
LAYERS = (
    "geometry", "operators", "autodiff", "model",
    "training", "evaluation", "kgdata", "cli",
)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def wrap(self, fn, name, count=None, span=True):
        """Return ``fn`` recording a span per call.

        ``name`` is a string, or a callable of the tracer giving the name at
        call entry.  ``count(counts, args, kwargs, result)`` runs after the
        call, outside the span's interval.  With ``span=False`` only the
        counter runs.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                count(tracer.counts, args, kwargs, result)
                return result
            label = name(tracer) if callable(name) else name
            record = [label, 0.0, 0.0, tracer.current()]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None, span=True) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count, span))

    def restore(self) -> None:
        """Undo every patch, last first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self):
        """Per span name: (total seconds, self seconds, per-call seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name].append(end - start)
        return total, own, calls

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def _rows(x) -> int:
    """Points in an array (or tensor) of coordinates along the last axis."""
    shape = np.shape(getattr(x, "value", x))
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _stage_name(tracer: Tracer) -> str:
    """V is the first Givens stage inside one relation_transform, U the second."""
    parent = tracer.current()
    seen = tracer.counts[("givens-stages", parent)]
    tracer.counts[("givens-stages", parent)] = seen + 1
    return "operators.v_stage" if seen == 0 else "operators.u_stage"


def _count_phi(c, args, kwargs, result):
    c["geometry.phi_rows"] += _rows(args[0])


def _count_dist(c, args, kwargs, result):
    c["geometry.dist_pairs"] += int(np.prod(np.shape(getattr(result, "value", result))))


def _count_transform(c, args, kwargs, result):
    c["operators.rows"] += _rows(args[3])


def _count_backward(c, args, kwargs, result):
    c["autodiff.backward_calls"] += 1


def _count_batch(c, args, kwargs, result):
    c["training.batches"] += 1


def _count_forward(c, args, kwargs, result):
    pos, neg = args[2], args[3]
    c["training.triples_scored"] += int(pos.shape[0]) + int(np.size(neg)) // 3


def _count_candidates(c, args, kwargs, result):
    c["model.candidates_scored"] += int(np.size(result))


def _count_save(c, args, kwargs, result):
    c["model.checkpoint_bytes"] = os.path.getsize(args[1])


def _count_rank(c, args, kwargs, result):
    m, triple = args[0], args[2]
    h, r, t = (int(v) for v in triple)
    index = kwargs.get("_index") or {}
    known = index.get((h, r), np.empty(0, dtype=np.int64))
    gold_known = bool(np.any(known == t))
    c["evaluation.queries"] += 1
    c["evaluation.candidates"] += m.n_entities
    c["evaluation.unfiltered"] += m.n_entities - known.size - (0 if gold_known else 1)


def _count_lines(c, args, kwargs, result):
    c["kgdata.lines"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the ukge package."""
    from ukge import autodiff, cli, evaluation, geometry, kgdata, model, operators, training

    import workloads

    p = tracer.patch
    # the harness's own probes, so that their time is nobody's self time
    p(workloads, "host_probe", "bench.probe")
    p(geometry, "phi", "geometry.phi", _count_phi)
    p(geometry, "dist_manhattan", "geometry.dist", _count_dist)
    p(geometry, "project_conic", "geometry.project_conic")
    p(geometry, "dist_sphere", "geometry.dist_sphere")
    p(geometry, "dist_hyper", "geometry.dist_hyper")
    p(operators, "relation_transform", "operators.relation_transform", _count_transform)
    p(operators, "block_orthogonal_apply", _stage_name)
    p(operators, "hyper_rot_apply", "operators.boost")
    p(autodiff.Tensor, "backward", "autodiff.backward", _count_backward)
    p(training, "fit", "training.fit")
    p(training, "_batch_grads", "training.batch", _count_batch)
    p(training, "_loss_sum", "training.forward", _count_forward)
    p(training, "_sample_negatives_batch", "training.negatives")
    p(training.Adam, "step", "training.optimizer")
    p(training, "apply_time_guard", "training.guard")
    p(model, "score_candidates", "model.score_candidates", _count_candidates)
    p(evaluation, "score_candidates", "model.score_candidates", _count_candidates)
    p(model, "save", "model.save", _count_save)
    p(model, "load", "model.load")
    p(evaluation, "evaluate", "evaluation.evaluate")
    p(evaluation, "build_filter_index", "evaluation.filter_index")
    p(evaluation, "filtered_rank", "evaluation.rank", _count_rank)
    p(evaluation, "aggregate_ranks", "evaluation.aggregate")
    p(kgdata, "load_triples", "kgdata.load")
    p(kgdata, "_parse_file", None, _count_lines, span=False)
    p(kgdata, "augment_inverse", "kgdata.augment")
    p(kgdata, "krackhardt_score", "kgdata.krackhardt")
    p(cli, "main", "cli.main")
    p(cli, "cmd_predict", "cli.predict")
    p(cli, "cmd_stats", "cli.stats")
    p(cli, "_load_model_for_store", "cli.digest_check")


#: per-layer metric -> (unit, how it is derived); "self"/"total" sum the
#: self or whole durations of a span name, "median_ms" is the median call
PER_LAYER = {
    "geometry.phi_s": ("s", "self", "geometry.phi"),
    "geometry.phi_rows": ("count", "count", "geometry.phi_rows"),
    "geometry.dist_s": ("s", "total", "geometry.dist"),
    "geometry.dist_pairs": ("count", "count", "geometry.dist_pairs"),
    "geometry.project_conic_s": ("s", "self", "geometry.project_conic"),
    "geometry.dist_sphere_s": ("s", "self", "geometry.dist_sphere"),
    "geometry.dist_hyper_s": ("s", "self", "geometry.dist_hyper"),
    "operators.v_stage_s": ("s", "self", "operators.v_stage"),
    "operators.boost_s": ("s", "self", "operators.boost"),
    "operators.u_stage_s": ("s", "self", "operators.u_stage"),
    "operators.rows": ("count", "count", "operators.rows"),
    "operators.elements": ("count", "count", "operators.elements"),
    "autodiff.backward_s": ("s", "self", "autodiff.backward"),
    "autodiff.backward_calls": ("count", "count", "autodiff.backward_calls"),
    "training.fit_s": ("s", "total", "training.fit"),
    "training.batch_s": ("s", "total", "training.batch"),
    "training.forward_s": ("s", "total", "training.forward"),
    "training.negatives_s": ("s", "self", "training.negatives"),
    "training.optimizer_s": ("s", "self", "training.optimizer"),
    "training.guard_s": ("s", "self", "training.guard"),
    "training.fit_self_s": ("s", "self", "training.fit"),
    "training.batches": ("count", "count", "training.batches"),
    "training.triples_scored": ("count", "count", "training.triples_scored"),
    "model.score_candidates_s": ("s", "self", "model.score_candidates"),
    "model.candidates_scored": ("count", "count", "model.candidates_scored"),
    "model.save_ms": ("ms", "median_ms", "model.save"),
    "model.load_ms": ("ms", "median_ms", "model.load"),
    "model.checkpoint_bytes": ("bytes", "count", "model.checkpoint_bytes"),
    "evaluation.filter_index_s": ("s", "self", "evaluation.filter_index"),
    "evaluation.rank_self_s": ("s", "self", "evaluation.rank"),
    "evaluation.aggregate_s": ("s", "self", "evaluation.aggregate"),
    "evaluation.queries": ("count", "count", "evaluation.queries"),
    "kgdata.load_s": ("s", "self", "kgdata.load"),
    "kgdata.lines": ("count", "count", "kgdata.lines"),
    "kgdata.augment_s": ("s", "self", "kgdata.augment"),
    "kgdata.krackhardt_s": ("s", "self", "kgdata.krackhardt"),
    "cli.predict_self_s": ("s", "self", "cli.predict"),
    "cli.digest_check_s": ("s", "self", "cli.digest_check"),
    "cli.stats_self_s": ("s", "self", "cli.stats"),
}


def layer_metrics(tracer: Tracer, elements: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a finished traced run, as (value, unit).

    ``elements`` is the element count of ``operators.count_operations``
    over the measured region.  A layer a workload does not reach reads 0.
    """
    total, own, calls = tracer.durations()
    counts = dict(tracer.counts)
    counts["operators.elements"] = elements
    out: dict[str, tuple[float, str]] = {}
    for metric, (unit, kind, key) in PER_LAYER.items():
        if kind == "self":
            value = own.get(key, 0.0)
        elif kind == "total":
            value = total.get(key, 0.0)
        elif kind == "median_ms":
            value = 1000.0 * statistics.median(calls[key]) if calls.get(key) else 0.0
        else:
            value = counts.get(key, 0)
        out[metric] = (value, unit)
    scored = counts.get("evaluation.candidates", 0)
    out["evaluation.unfiltered_ratio"] = (
        counts.get("evaluation.unfiltered", 0) / scored if scored else 0.0, "ratio"
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for k, v in own.items() if k.split(".", 1)[0] == layer), "s"
        )
    return out
