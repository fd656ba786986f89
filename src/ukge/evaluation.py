"""Filtered ranking evaluation: MRR and Hits@K, globally and per relation.

Every triple of the chosen split is scored as a tail-prediction task: all
entities are ranked as candidate tails of (h, r, ?).  Known true tails from
the filter splits (train, valid, test by default) are removed from the
candidate set — except the gold tail itself — and ties are resolved
pessimistically: the rank counts every unfiltered competitor not scoring
strictly below the gold tail.  A non-finite score therefore never improves
a rank: a NaN gold ranks last and a NaN competitor counts against the gold.
Head prediction is realised upstream by evaluating over a store augmented
with inverse relations.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySplitError
from .kgdata import TripleStore
from .model import Model, candidate_tails, check_ids, check_store, map_row_blocks
from .model import score_candidates

HITS_KS = (1, 3, 10)


@dataclass
class RelationMetrics:
    mrr: float
    hits: dict[int, float]
    count: int


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    triple_count: int
    per_relation: dict[int, RelationMetrics] = field(default_factory=dict)


def build_filter_index(
    store: TripleStore, splits, keys
) -> dict[tuple[int, int], np.ndarray]:
    """Map each (head, relation) row of ``keys``, an (n, 2) array, to the
    sorted array of its known true tails in ``splits``; a pair without a
    known tail has no entry."""
    triples = np.concatenate(
        [store.split(name) for name in splits] + [np.empty((0, 3), dtype=np.int64)]
    )
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    # each (head, relation) pair as one integer, head * width + relation
    width = 1 + max(int(triples[:, 1].max(initial=0)), int(keys[:, 1].max(initial=0)))
    pairs = triples[:, 0] * width + triples[:, 1]
    triples = triples[np.isin(pairs, keys[:, 0] * width + keys[:, 1])]
    rows = np.unique(triples, axis=0)  # sorted by head, relation, tail
    starts = np.flatnonzero(np.any(np.diff(rows[:, :2], axis=0, prepend=-1) != 0, axis=1))
    return {
        (h, r): known
        for (h, r), known in zip(rows[starts, :2].tolist(), np.split(rows[:, 2], starts[1:]))
    }


def filtered_rank(
    m: Model,
    store: TripleStore,
    triple,
    filter_splits=("train", "valid", "test"),
    _index: dict[tuple[int, int], np.ndarray] | None = None,
    _tails: tuple | None = None,
) -> int:
    """Pessimistic filtered rank of the gold tail among all entities.

    rank = 1 + #{ e != t unfiltered with not score(h, r, e) < score(h, r, t) }.
    """
    h, r, t = triple
    check_ids([h, t], m.n_entities, "entity")
    check_ids(r, m.n_relations, "relation")
    h, r, t = int(h), int(r), int(t)
    if _index is None:  # standalone: index this query's pair only
        _index = build_filter_index(store, filter_splits, keys=[(h, r)])
    scores = score_candidates(m, h, r, tails=_tails)
    allowed = np.ones(m.n_entities, dtype=bool)
    known = _index.get((h, r))
    if known is not None:
        allowed[known] = False
    allowed[t] = False  # the gold tail is never its own competitor
    return 1 + int(np.count_nonzero(~(scores[allowed] < scores[t])))


def aggregate_ranks(ranks, relations) -> EvalReport:
    """Fold per-triple ranks into global and per-relation MRR and Hits@K for
    each K of :data:`HITS_KS`."""
    ranks = np.asarray(ranks, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    if ranks.size == 0:
        raise EmptySplitError("aggregate_ranks: no ranks to aggregate")
    rr = 1.0 / ranks
    per_relation: dict[int, RelationMetrics] = {}
    for rel in np.unique(relations):
        sel = relations == rel
        per_relation[int(rel)] = RelationMetrics(
            mrr=float(np.mean(rr[sel])),
            hits={k: float(np.mean(ranks[sel] <= k)) for k in HITS_KS},
            count=int(np.count_nonzero(sel)),
        )
    return EvalReport(
        mrr=float(np.mean(rr)),
        hits={k: float(np.mean(ranks <= k)) for k in HITS_KS},
        triple_count=int(ranks.size),
        per_relation=per_relation,
    )


def evaluate(
    m: Model,
    store: TripleStore,
    split: str = "test",
    filter_splits=("train", "valid", "test"),
    threads: int = 1,
) -> EvalReport:
    """Rank every triple of ``split`` and aggregate the metrics.

    The tail side of the scores (:func:`ukge.model.candidate_tails`) and the
    filter index of the split's (head, relation) pairs are built once per
    call and shared by every query.

    For the standard protocol (head and tail prediction) pass a store that
    has been augmented with inverse relations.  A store with more entities
    or relations than ``m`` raises :class:`IdLookupError` up front.
    """
    check_store(m, store)
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise EmptySplitError(f"evaluate: split {split!r} is empty")
    index = build_filter_index(store, filter_splits, keys=triples[:, :2])
    tails = candidate_tails(m)  # shared read-only by every query and thread

    def rank_block(rows: slice) -> list[int]:
        return [
            filtered_rank(m, store, row, filter_splits, _index=index, _tails=tails)
            for row in triples[rows]
        ]

    parts = map_row_blocks(rank_block, triples.shape[0], threads)
    ranks = [r for part in parts for r in part]
    return aggregate_ranks(ranks, triples[:, 1])


# --- report rendering ---------------------------------------------------------


def _cells(m: RelationMetrics | EvalReport, digits: int) -> list[str]:
    """MRR then Hits@K for each of :data:`HITS_KS`, to ``digits`` decimals."""
    return [f"{v:.{digits}f}" for v in (m.mrr, *(m.hits[k] for k in HITS_KS))]


def report_csv(report: EvalReport, store: TripleStore) -> str:
    """CSV rows per relation, named from ``store``, plus a TOTAL row.  A name
    with a comma, quote or line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["relation", "count", "mrr", "hits1", "hits3", "hits10"])
    for rel in sorted(report.per_relation):
        rm = report.per_relation[rel]
        writer.writerow([store.relation_names[rel], rm.count, *_cells(rm, 6)])
    writer.writerow(["TOTAL", report.triple_count, *_cells(report, 6)])
    return out.getvalue()


def report_table(report: EvalReport, store: TripleStore) -> str:
    """Human-readable fixed-width table of the same numbers."""
    rows = [("relation", "count", "MRR", "H@1", "H@3", "H@10")]
    for rel in sorted(report.per_relation):
        rm = report.per_relation[rel]
        rows.append((store.relation_names[rel], str(rm.count), *_cells(rm, 4)))
    rows.append(("TOTAL", str(report.triple_count), *_cells(report, 4)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for i, row in enumerate(rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
