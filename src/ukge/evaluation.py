"""Filtered ranking evaluation: MRR and Hits@K, globally and per relation.

Every triple of the chosen split is scored as a tail-prediction task: all
entities are ranked as candidate tails of (h, r, ?).  Known true tails from
the filter splits (train, valid, test by default) are removed from the
candidate set — except the gold tail itself — and ties are resolved
pessimistically: the rank counts every unfiltered competitor not scoring
strictly below the gold tail.  A non-finite score therefore never improves
a rank: a NaN gold ranks last and a NaN competitor counts against the gold.
Tails are scored in float32 from matrix products first, a block of
queries at a time, and exactly, in one call per block, only where their
proven margins cannot place them against the gold; the margins are
computed only near the gold, and an exact score outside its margin raises
:class:`NumericError`.  Head prediction is realised upstream by
evaluating over a store augmented with inverse relations.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, EmptySplitError, NumericError
from .errors import PreconditionError
from .kgdata import TripleStore
from .model import Model, approx_margins, approx_scores, approx_side, candidate_tails, check_ids
from .model import TRANSPOSE_BLOCK, check_store, columns, move_heads, score_candidates

HITS_KS = (1, 3, 10)

APPROX_BLOCK = 16  #: heads per matrix product in :func:`evaluate`: 1.4 MB at 21,845 tails


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


def build_filter_index(store: TripleStore, splits, keys) -> dict[tuple[int, int], np.ndarray]:
    """Map each (head, relation) row of ``keys``, an (n, 2) array, to the
    sorted array of its known true tails in ``splits``; a pair without a
    known tail has no entry."""
    if isinstance(splits, str):
        raise ConfigurationError(f"filter_splits must be split names, not the string {splits!r}")
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


def _verify_block(m: Model, side: tuple, tails: tuple, heads: tuple, queries) -> list:
    """Per query of ``queries``, (h, r, t) rows whose moved heads are
    ``heads``: ``(s, verify, exact, margin)``, its row of
    :func:`model.approx_scores`, the tails ``e`` for which ``|s_e - s_t| >
    M_e + M_t`` does not hold (NaNs and the gold included), their exact
    scores and their margins.  :func:`model.approx_margins` gives ``M_e``
    only in each row's window, where the test fails with the row's ceiling
    for ``M_e``: as the ceiling bounds every ``M_e`` and subtraction is
    monotone, the window holds every verified tail.  One
    :func:`score_candidates` call scores a block's verified pairs."""
    s, ceiling = approx_scores(m, *heads, side)
    at = np.arange(len(queries))
    gold, gold_margin = s[at, queries[:, 2]], approx_margins(side, at, queries[:, 2])
    windows = [np.flatnonzero(~(np.abs(s[i] - gold[i]) - ceiling[i] > gold_margin[i])) for i in at]
    rows, cols = np.repeat(at, [w.size for w in windows]), np.concatenate(windows)
    margin = approx_margins(side, rows, cols)
    keep = ~(np.abs(s[rows, cols] - gold[rows]) - margin > gold_margin[rows])
    rows, cols, margin = rows[keep], cols[keep], margin[keep]
    exact = score_candidates(m, queries[rows, 0], queries[rows, 1], tails=columns(tails, cols),
                             _head=columns(heads, rows))
    ends = np.searchsorted(rows, np.append(at, at.size))
    return [(s[i], cols[a:b], exact[a:b], margin[a:b]) for i, a, b in zip(at, ends, ends[1:])]


def filtered_rank(m: Model, store: TripleStore, triple, filter_splits=("train", "valid", "test"),
                  _index: dict | None = None, _verified: tuple | None = None) -> int:
    """Pessimistic filtered rank of the gold tail among all entities.

    rank = 1 + #{ e != t unfiltered with not score(h, r, e) < score(h, r, t) },
    counted over all entities less the known tails, without a mask.
    Called without ``_index``, a store with more entities or relations than
    ``m`` raises :class:`IdLookupError`, as in :func:`evaluate`.

    ``_verified`` is this query's entry of :func:`_verify_block`, which a
    standalone call runs on a block of one: the tails it verified are
    ranked by their exact scores, and the rest lie on the side their
    approximation shows.  Each exact score must lie within its tail's margin
    of a non-NaN approximation, or the query raises :class:`NumericError`.
    """
    if np.shape(triple) != (3,):
        raise DimensionError(f"a triple is (head, relation, tail), got shape {np.shape(triple)}")
    h, r, t = triple
    check_ids(h, m.n_entities, "entity")
    check_ids(t, m.n_entities, "entity")
    check_ids(r, m.n_relations, "relation")
    h, r, t = int(h), int(r), int(t)
    if _index is None:  # standalone: check the store and index this query's pair only
        check_store(m, store)
        _index = build_filter_index(store, filter_splits, keys=[(h, r)])
    if _verified is None:
        tails = candidate_tails(m)[0]
        _verified, = _verify_block(m, approx_side(m, tails), tails, move_heads(m, [h], [r])[0],
                                   np.array([(h, r, t)]))
    scores, verify, exact, margin = _verified
    approx = scores[verify]
    if not np.all((np.abs(exact - approx) <= margin) | np.isnan(approx)):
        raise NumericError(f"query ({h}, {r}, {t}): an exact score lies outside the margin "
                           f"of its approximation")
    gold = exact[np.searchsorted(verify, t)]
    below = scores < scores[t]
    below[verify] = exact < gold  # not gold < gold, even for a NaN gold: it counts itself once
    rank = scores.size - np.count_nonzero(below)
    known = _index.get((h, r))
    if known is not None:
        known = known[known != t]
        rank -= known.size - np.count_nonzero(below[known])
    return int(rank)


def aggregate_ranks(ranks, relations) -> EvalReport:
    """Fold per-triple ranks into global and per-relation MRR and Hits@K for
    each K of :data:`HITS_KS`.  Ranks and relations that are not two 1-d
    arrays of one length raise :class:`DimensionError`, and a rank that is
    not a whole number of at least 1 raises :class:`PreconditionError`, a
    relation id that is negative or not an integer (``bool`` is not)
    :class:`IdLookupError`."""
    ranks, relations = np.asarray(ranks), np.asarray(relations)
    if ranks.ndim != 1 or relations.shape != ranks.shape:
        raise DimensionError(f"aggregate_ranks: ranks of shape {ranks.shape} and relations "
                             f"of shape {relations.shape} are not 1-d and of one length")
    if ranks.size == 0:
        raise EmptySplitError("aggregate_ranks: no ranks to aggregate")
    if not np.all(np.isfinite(ranks) & (ranks >= 1) & (np.floor(ranks) == ranks)):
        raise PreconditionError("aggregate_ranks: ranks must be whole numbers of at least 1")
    check_ids(relations, np.iinfo(np.int64).max, "relation")
    ranks, relations = ranks.astype(np.int64), relations.astype(np.int64)
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


def evaluate(m: Model, store: TripleStore, split: str = "test",
             filter_splits=("train", "valid", "test")) -> EvalReport:
    """Rank every triple of ``split`` and aggregate the metrics.

    The tail side, its float32 copy (:func:`model.approx_side`) and the
    filter index are built once per call; the queries' heads are moved
    :data:`TRANSPOSE_BLOCK` at a time and verified :data:`APPROX_BLOCK` at
    a time by :func:`_verify_block`, before :func:`filtered_rank` ranks
    each.

    For the standard protocol (head and tail prediction) pass a store that
    has been augmented with inverse relations.  A store with more entities
    or relations than ``m`` raises :class:`IdLookupError` up front.
    """
    check_store(m, store)
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise EmptySplitError(f"evaluate: split {split!r} is empty")
    index = build_filter_index(store, filter_splits, keys=triples[:, :2])
    tails = candidate_tails(m)[0]  # shared read-only by every query
    side = approx_side(m, tails, APPROX_BLOCK)
    ranks = []
    for lo in range(0, triples.shape[0], TRANSPOSE_BLOCK):  # bounded head blocks
        hi = min(lo + TRANSPOSE_BLOCK, triples.shape[0])
        heads = move_heads(m, triples[lo:hi, 0], triples[lo:hi, 1])[0]
        for j in range(0, hi - lo, APPROX_BLOCK):
            block = slice(j, j + APPROX_BLOCK)
            verified = _verify_block(m, side, tails, columns(heads, block), triples[lo:hi][block])
            ranks += [filtered_rank(m, store, triples[i], filter_splits, _index=index, _verified=v)
                      for i, v in enumerate(verified, lo + j)]
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
    rows.insert(1, ["-" * w for w in widths])
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)
    return "\n".join(lines) + "\n"
