"""Ranking metric tests against hand fixtures and a brute-force oracle."""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ukge.errors import ConfigurationError, DimensionError, EmptySplitError, IdLookupError
from ukge.errors import NumericError, PreconditionError
from ukge.evaluation import (
    APPROX_BLOCK,
    EvalReport,
    aggregate_ranks,
    approx_margins,
    approx_scores,
    approx_side,
    build_filter_index,
    evaluate,
    filtered_rank,
    report_csv,
    report_table,
)
from ukge.geometry import Signature
from ukge.kgdata import SPLITS, TripleStore, augment_inverse, make_synthetic
from ukge.model import (
    GEOMETRIES,
    Model,
    candidate_tails,
    init,
    move_heads,
    score,
    score_candidates,
)
from ukge.operators import OPERATOR_MODES
from tape_oracle import score_triples

from conftest import SCORING_SIGNATURES, assert_close

S22 = Signature(2, 2, 1.0)


def bias_model(tail_scores, n_relations=1):
    """All entities on one point: scores reduce to the tail-role biases."""
    n = len(tail_scores)
    biases = np.zeros((n, 2))
    biases[:, 1] = tail_scores
    return Model(
        sig=S22,
        entities=np.tile(np.array([0.0, 0.0, 1.0, 0.0]), (n, 1)),
        biases=biases,
        theta=np.zeros((n_relations, 2)),
        phi=np.zeros((n_relations, 2)),
        mu=np.zeros((n_relations, 2)),
        delta=0.0,
        operator="rot",
    )


def ids_store(n_entities, n_relations, train, valid=(), test=()):
    def arr(rows):
        return np.asarray(list(rows), dtype=np.int64).reshape(len(list(rows)), 3)
    return TripleStore(
        [f"e{i}" for i in range(n_entities)],
        [f"r{i}" for i in range(n_relations)],
        arr(train), arr(valid), arr(test),
    )


class TestFilteredRank:
    def test_strict_top_is_rank_one(self):
        m = bias_model([10.0, 8.0, 8.0, 5.0, 1.0])
        store = ids_store(5, 1, train=[(0, 0, 0)])
        assert filtered_rank(m, store, (0, 0, 0), filter_splits=()) == 1

    def test_counts_higher_scores(self):
        m = bias_model([10.0, 8.0, 8.0, 5.0, 1.0])
        store = ids_store(5, 1, train=[(0, 0, 3)])
        # three competitors at 10, 8, 8 outscore the gold tail's 5
        assert filtered_rank(m, store, (0, 0, 3), filter_splits=()) == 4

    def test_ties_rank_pessimistically(self):
        m = bias_model([7.0, 7.0, 7.0, 3.0, 7.0])
        store = ids_store(5, 1, train=[(0, 0, 3)])
        assert filtered_rank(m, store, (0, 0, 3), filter_splits=()) == 5

    def test_all_equal_scores(self):
        m = bias_model([2.0, 2.0, 2.0, 2.0, 2.0])
        store = ids_store(5, 1, train=[(0, 0, 1)])
        # every other entity ties: rank equals the unfiltered candidate count
        assert filtered_rank(m, store, (0, 0, 1), filter_splits=()) == 5

    def test_filtering_removes_known_tails(self):
        m = bias_model([10.0, 8.0, 8.0, 5.0, 1.0])
        store = ids_store(5, 1, train=[(0, 0, 0), (0, 0, 2)], test=[(0, 0, 3)])
        # entities 0 and 2 are known true tails of (h=0, r=0): filtered out
        assert filtered_rank(m, store, (0, 0, 3)) == 2

    def test_gold_tail_never_filters_itself(self):
        m = bias_model([10.0, 8.0, 8.0, 5.0, 1.0])
        store = ids_store(5, 1, train=[(0, 0, 0), (0, 0, 2), (0, 0, 3)])
        assert filtered_rank(m, store, (0, 0, 3)) == 2

    def test_filtering_never_raises_rank(self, rng):
        m = bias_model(list(rng.normal(size=8)))
        store = ids_store(
            8, 1,
            train=[(0, 0, int(t)) for t in rng.integers(0, 8, 5)],
            test=[(0, 0, 4)],
        )
        unfiltered = filtered_rank(m, store, (0, 0, 4), filter_splits=())
        filtered = filtered_rank(m, store, (0, 0, 4))
        assert filtered <= unfiltered

    def test_only_requested_splits_filter(self):
        m = bias_model([10.0, 8.0, 8.0, 5.0, 1.0])
        store = ids_store(5, 1, train=[(0, 0, 0)], valid=[(0, 0, 2)], test=[(0, 0, 3)])
        assert filtered_rank(m, store, (0, 0, 3), filter_splits=("train",)) == 3
        assert filtered_rank(m, store, (0, 0, 3), filter_splits=("train", "valid")) == 2

    def test_tail_id_out_of_range(self):
        m = bias_model([1.0, 2.0])
        store = ids_store(2, 1, train=[(0, 0, 1)])
        with pytest.raises(IdLookupError):
            filtered_rank(m, store, (0, 0, 7))

    def test_matches_brute_force_oracle(self, rng):
        """Sorting-free oracle over a small random model and store."""
        n, r = 12, 3
        m = init(S22, n, r, seed=21, delta=1.0)
        train = [(int(a), int(b), int(c)) for a, b, c in
                 zip(rng.integers(0, n, 30), rng.integers(0, r, 30), rng.integers(0, n, 30))]
        test = [(int(a), int(b), int(c)) for a, b, c in
                zip(rng.integers(0, n, 10), rng.integers(0, r, 10), rng.integers(0, n, 10))]
        store = ids_store(n, r, train=train, test=test)
        known = {}
        for h, rel, t in train + test:
            known.setdefault((h, rel), set()).add(t)
        for h, rel, t in test:
            scores = [score(m, h, rel, e) for e in range(n)]
            competitors = [
                e for e in range(n)
                if e != t and e not in (known.get((h, rel), set()) - {t})
                and scores[e] >= scores[t]
            ]
            expected = 1 + len(competitors)
            assert filtered_rank(m, store, (h, rel, t)) == expected


class TestAggregate:
    def test_frozen_mrr_fixture(self):
        report = aggregate_ranks([1, 2, 4], [0, 0, 0])
        assert abs(report.mrr - 7.0 / 12.0) < 1e-10
        assert report.hits[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.hits[3] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.hits[10] == 1.0
        assert report.triple_count == 3

    def test_per_relation_recomposition(self):
        ranks = [1, 2, 4, 10, 1]
        rels = [0, 1, 0, 1, 2]
        report = aggregate_ranks(ranks, rels)
        weighted = sum(
            rm.mrr * rm.count for rm in report.per_relation.values()
        ) / report.triple_count
        assert abs(weighted - report.mrr) < 1e-12
        assert report.per_relation[0].count == 2
        assert_close(report.per_relation[0].mrr, (1.0 + 0.25) / 2.0, rtol=1e-14)
        assert report.per_relation[2].hits[1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySplitError):
            aggregate_ranks([], [])

    @pytest.mark.parametrize("ranks, relations", [
        ([1, 2, 3], [0, 1]), ([1, 2], [0, 1, 2]), ([[1, 2]], [[0, 0]]), (1, 0), ([1, 2], [[0, 0]]),
    ])
    def test_unpaired_shapes_rejected(self, ranks, relations):
        """``[1, 2, 3]`` with ``[0, 1]`` used to raise a bare IndexError."""
        with pytest.raises(DimensionError, match="one length"):
            aggregate_ranks(ranks, relations)

    @pytest.mark.parametrize("ranks", [[0], [1, -2], [1.7, 2.2], [1.0, np.nan], [np.inf]])
    def test_ranks_that_are_not_ranks_rejected(self, ranks):
        """A rank of 0 used to give MRR inf, and 1.7 was truncated to 1."""
        with pytest.raises(PreconditionError, match="whole numbers"):
            aggregate_ranks(ranks, [0] * len(ranks))

    @pytest.mark.parametrize("relations", [[0.5, 1.7], [0.0, 1.0], [True, False], [-1, 0],
                                           np.array([2**63 + 5, 1], dtype=np.uint64)])
    def test_relations_that_are_not_ids_rejected(self, relations):
        """``[0.5, 1.7]`` used to report relations 0 and 1, and ``[-1, 0]``
        a relation -1."""
        with pytest.raises(IdLookupError, match="relation id"):
            aggregate_ranks([1, 2], relations)

    def test_whole_float_ranks_accepted(self):
        assert aggregate_ranks([1.0, 2.0, 4.0], [0, 0, 1]) == aggregate_ranks([1, 2, 4], [0, 0, 1])


class TestEvaluate:
    def hand_setup(self):
        # scores by tail bias: 9 > 7 > 5 > 3; gold tails chosen so the
        # test ranks are 1 (e0 from anywhere) and 3 (e2 behind e0, e1)
        m = bias_model([9.0, 7.0, 5.0, 3.0], n_relations=2)
        store = ids_store(
            4, 2,
            train=[(1, 0, 3), (2, 1, 1)],
            test=[(1, 0, 0), (3, 1, 2)],
        )
        return m, store

    def test_hand_worked_metrics(self):
        m, store = self.hand_setup()
        report = evaluate(m, store)
        # ranks: (1,0,0) -> 1 (tail 3 filtered, 0 beats 1, 2);
        #        (3,1,2) -> 3 (0 and 1 outscore 2)
        assert report.triple_count == 2
        assert_close(report.mrr, (1.0 + 1.0 / 3.0) / 2.0, rtol=1e-14)
        assert report.hits[1] == 0.5
        assert report.per_relation[0].mrr == 1.0

    def test_store_larger_than_model_rejected(self):
        """A known tail past the model's rows is refused up front, and so is
        a relation the model lacks, even one no triple uses."""
        m, _ = self.hand_setup()
        for store in (
            ids_store(5, 2, train=[(1, 0, 4)], test=[(1, 0, 0)]),
            ids_store(4, 3, train=[(1, 0, 3)], test=[(1, 0, 0)]),
        ):
            with pytest.raises(IdLookupError, match="store has"):
                evaluate(m, store)

    def test_standalone_rank_checks_the_store(self):
        """``filtered_rank`` without ``_index`` refuses the stores that
        ``evaluate`` refuses; the known tail 4 of a 4-entity model used to
        raise a bare IndexError."""
        m, _ = self.hand_setup()
        for store in (
            ids_store(5, 2, train=[(1, 0, 4)], test=[(1, 0, 0)]),
            ids_store(4, 3, train=[(1, 0, 3)], test=[(1, 0, 0)]),
        ):
            with pytest.raises(IdLookupError, match="store has"):
                filtered_rank(m, store, (1, 0, 0))

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    @pytest.mark.parametrize("row, kind", [
        ((1, 0, 5), "entity"), ((-1, 0, 2), "entity"), ((1, 2, 2), "relation"),
    ])
    def test_triple_ids_outside_the_store_rejected(self, split, row, kind):
        """A hand-built store's triples are checked against its dictionaries
        up front; ``(1, 0, 5)`` in a 4-entity store used to pass and then
        raise a bare IndexError in ``filtered_rank``."""
        m, _ = self.hand_setup()
        rows = dict(train=[(1, 0, 3)], valid=[], test=[(1, 0, 0)])
        rows[split] = rows[split] + [row]
        with pytest.raises(IdLookupError, match=f"{kind} id -?[0-9]+ out of range"):
            evaluate(m, ids_store(4, 2, **rows))

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_split_not_of_triples_rejected(self, split):
        """A split of (n, 2) rows used to pass the store check and fail in
        the filter index with a bare numpy ValueError; the store now refuses
        it when it is built, before ``evaluate`` can see it."""
        _, store = self.hand_setup()
        with pytest.raises(DimensionError, match=r"\(head, relation, tail\) rows"):
            replace(store, **{split: np.array([[1, 0], [2, 1]])})

    def test_ids_checked_once_per_call(self, monkeypatch):
        """``evaluate`` checks a store's ids once, up front, so its
        ``check_ids`` calls do not grow with its queries; ``filtered_rank``
        used to check each query's three ids again."""
        from ukge import evaluation, model

        store = augment_inverse(make_synthetic(seed=2))
        m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=5)
        kinds, check = [], model.check_ids

        def counted(ids, n, kind):
            kinds.append(kind)
            check(ids, n, kind)

        monkeypatch.setattr(model, "check_ids", counted)
        monkeypatch.setattr(evaluation, "check_ids", counted)
        counts = []
        for n in (16, 64):
            kinds.clear()
            evaluate(m, replace(store, test=np.resize(store.train, (n, 3))))
            counts.append(len(kinds))
        assert counts[0] == counts[1] > 0

    def test_float_triple_rejected(self):
        m, store = self.hand_setup()
        with pytest.raises(IdLookupError, match="must be integers"):
            filtered_rank(m, store, (1, 0, 0.5))

    @pytest.mark.parametrize("triple", [(True, 0, 1), (0, True, 1), (0, 0, True)])
    def test_bool_ids_rejected(self, triple):
        """A bool head or tail is refused as a bool relation is; checked
        with the other id of the pair in one array, it used to be read as
        entity 1 and ranked."""
        store = augment_inverse(make_synthetic(seed=2))
        m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=5)
        with pytest.raises(IdLookupError, match="must be integers, got bool"):
            filtered_rank(m, store, triple)

    def test_malformed_triple_rejected(self):
        """A triple of two ids used to raise a bare ValueError ("not enough
        values to unpack")."""
        m, store = self.hand_setup()
        for triple in [(0, 0), (1, 0, 0, 2), np.array([[1, 0, 0]])]:
            with pytest.raises(DimensionError, match=r"triple .*shape \("):
                filtered_rank(m, store, triple)

    def test_bare_string_filter_splits_rejected(self):
        """``filter_splits="test"`` used to be read as the splits 't', 'e',
        's', 't' and fail on an unknown split 't'."""
        m, store = self.hand_setup()
        with pytest.raises(ConfigurationError, match="filter_splits .*'test'"):
            evaluate(m, store, filter_splits="test")
        with pytest.raises(ConfigurationError, match="filter_splits"):
            filtered_rank(m, store, (1, 0, 0), filter_splits="train")

    def test_valid_split_selectable(self):
        m, store = self.hand_setup()
        with pytest.raises(EmptySplitError):
            evaluate(m, store, split="valid")

    def test_filter_splits_forwarded(self):
        m, store = self.hand_setup()
        unfiltered = evaluate(m, store, filter_splits=())
        # (1,0,0): without filtering, tail 3 still scores below 0: rank 1
        # stays, but ranks can only grow without filters overall
        assert unfiltered.mrr <= evaluate(m, store).mrr

    def test_index_helper_layout(self):
        _, store = self.hand_setup()
        index = build_filter_index(store, SPLITS, store.all_triples()[:, :2])
        np.testing.assert_array_equal(index[(1, 0)], [0, 3])
        assert (0, 1) not in index


class TestReports:
    def report(self):
        return aggregate_ranks([1, 2, 4], [0, 1, 0])

    def numbered_store(self):
        """Relations named by their ids."""
        return TripleStore(
            ["a", "b"], ["0", "1"], np.asarray([(0, 0, 1), (0, 1, 1)]),
            np.empty((0, 3), np.int64), np.empty((0, 3), np.int64),
        )

    def test_csv_layout(self):
        out = report_csv(self.report(), self.numbered_store())
        lines = out.strip().split("\n")
        assert lines[0] == "relation,count,mrr,hits1,hits3,hits10"
        assert lines[1].startswith("0,2,0.625000")
        assert lines[-1].startswith("TOTAL,3,0.583333")

    def test_csv_uses_relation_names(self):
        store = ids_store(2, 2, train=[(0, 0, 1), (0, 1, 1)])
        out = report_csv(self.report(), store)
        assert out.split("\n")[1].startswith("r0,")

    def test_csv_quotes_names_with_commas_and_quotes(self):
        names = ["part of, whole", 'say "hi"']
        store = TripleStore(
            ["a", "b"], names, np.asarray([(0, 0, 1), (0, 1, 1)]),
            np.empty((0, 3), np.int64), np.empty((0, 3), np.int64),
        )
        rows = list(csv.reader(io.StringIO(report_csv(self.report(), store))))
        assert [len(row) for row in rows] == [6] * 4
        assert [row[0] for row in rows] == ["relation", *names, "TOTAL"]

    def test_table_layout(self):
        out = report_table(self.report(), self.numbered_store())
        lines = out.strip().split("\n")
        assert lines[0].split() == ["relation", "count", "MRR", "H@1", "H@3", "H@10"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[-1].startswith("TOTAL")
        assert "0.5833" in lines[-1]


class TestNonFiniteScores:
    """A non-finite score must never improve a rank."""

    def test_all_nan_model_ranks_last(self):
        m = init(S22, 6, 1, seed=3)
        m.entities[:] = np.nan
        store = ids_store(6, 1, train=[(0, 0, 1)], test=[(0, 0, 1)])
        # every score is NaN: each of the 5 competitors counts against the gold
        assert filtered_rank(m, store, (0, 0, 1), filter_splits=()) == 6
        assert evaluate(m, store, split="test", filter_splits=()).mrr == 1.0 / 6

    def test_nan_gold_ranks_last(self):
        m = bias_model([1.0, np.nan, -3.0, 2.0])
        store = ids_store(4, 1, train=[(0, 0, 1)])
        assert filtered_rank(m, store, (0, 0, 1), filter_splits=()) == 4

    def test_nan_competitor_counts_against_gold(self):
        m = bias_model([5.0, 1.0, np.nan, -2.0])
        store = ids_store(4, 1, train=[(0, 0, 0)])
        # only the strictly lower -2 and 1 stay behind the gold 5
        assert filtered_rank(m, store, (0, 0, 0), filter_splits=()) == 2

    def test_infinite_gold_still_ranks_first(self):
        m = bias_model([1.0, np.inf, 3.0])
        store = ids_store(3, 1, train=[(0, 0, 1)])
        assert filtered_rank(m, store, (0, 0, 1), filter_splits=()) == 1


#: hand-built scores: ties, signed zeros, NaN and both infinities
RANK_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
    st.floats(-4.0, 4.0),
)


@st.composite
def rank_cases(draw):
    """(scores, gold, known tails, filter splits) of one query (0, 0, gold)."""
    scores = draw(st.lists(RANK_SCORES, min_size=1, max_size=12))
    gold = draw(st.integers(0, len(scores) - 1))
    known = draw(st.sets(st.integers(0, len(scores) - 1)))
    splits = draw(st.sampled_from([SPLITS, ()]))
    return scores, gold, known, splits


class TestCountedRank:
    """filtered_rank counts the competitors over all entities less those
    over the known tails; the rank must equal the mask formula's."""

    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    @example(([1.0, 1.0, 1.0], 1, {0}, SPLITS))  # ties with the gold
    @example(([np.nan, 2.0, -1.0, np.nan], 0, {0, 2}, SPLITS))  # NaN gold, known
    @example(([np.nan, 2.0, -1.0, np.nan], 3, {1}, SPLITS))  # NaN gold, not known
    @example(([0.5, np.nan, np.inf, -np.inf, 0.5], 4, {3}, SPLITS))  # NaN, +-inf
    @example(([np.inf, np.inf, -np.inf], 1, set(), SPLITS))  # nothing known
    @example(([3.0, np.nan, 3.0, -np.inf], 2, {0, 1, 2}, ()))  # no filter splits
    def test_equals_the_mask_formula(self, case):
        scores, gold, known, splits = case
        n = len(scores)
        m = bias_model(scores)
        store = ids_store(n, 1, train=[(0, 0, k) for k in sorted(known)])
        s = score_candidates(m, 0, 0)
        np.testing.assert_array_equal(s, scores)
        allowed = np.ones(n, dtype=bool)
        if splits:
            allowed[sorted(known)] = False
        allowed[gold] = False
        expected = 1 + int(np.count_nonzero(~(s[allowed] < s[gold])))
        assert filtered_rank(m, store, (0, 0, gold), filter_splits=splits) == expected


class TestTracedCalls:
    """``perfbench/tracing.py`` patches ``evaluation.filtered_rank`` and
    ``evaluation.score_candidates`` by name and derives
    ``evaluation.queries``, ``evaluation.unfiltered_ratio`` and
    ``model.candidates_scored`` from their calls: the triple as the third
    positional argument, the filter index as the ``_index`` keyword and
    the size of the scores."""

    def test_one_rank_and_one_scoring_per_query(self, monkeypatch):
        """One ``filtered_rank`` call per query, handed the tails that every
        tail's margin verifies, and one ``score_candidates`` call per block
        of :data:`evaluation.APPROX_BLOCK` queries that scores those tails."""
        from ukge import evaluation

        store = augment_inverse(make_synthetic(seed=2))
        m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=5)
        expected = evaluate(m, store)
        ranks, scored, rows = [], [], []
        rank, score_all, approx = (
            evaluation.filtered_rank, evaluation.score_candidates, evaluation.approx_scores)

        def approx_shim(m, x, b_h, side):
            # every tail's margin, before the next block overwrites the work arrays
            s, ceiling, terms = approx(m, x, b_h, side)
            rows.extend(zip(s.copy(), every_margin(s, terms)))
            return s, ceiling, terms

        def rank_shim(*args, **kwargs):
            ranks.append((args, kwargs))
            return rank(*args, **kwargs)

        def score_shim(*args, **kwargs):
            scores = score_all(*args, **kwargs)
            scored.append(scores.size)
            return scores

        monkeypatch.setattr(evaluation, "approx_scores", approx_shim)
        monkeypatch.setattr(evaluation, "filtered_rank", rank_shim)
        monkeypatch.setattr(evaluation, "score_candidates", score_shim)
        assert evaluate(m, store) == expected
        n = store.test.shape[0]
        assert n <= evaluation.TRANSPOSE_BLOCK  # one head block, so blocks of APPROX_BLOCK
        assert len(ranks) == len(rows) == n and len(scored) == -(-n // evaluation.APPROX_BLOCK)
        assert sum(scored) == sum(kwargs["_verified"][1].size for _, kwargs in ranks)
        for (args, kwargs), (approx_row, margin) in zip(ranks, rows):
            np.testing.assert_array_equal(
                kwargs["_verified"][1], verified_tails(approx_row, margin, int(args[2][2])))
        assert [tuple(int(v) for v in args[2]) for args, _ in ranks] == [
            tuple(int(v) for v in row) for row in store.test
        ]
        oracle = filter_index_oracle(store, SPLITS)
        for args, kwargs in ranks:
            h, r, _ = (int(v) for v in args[2])
            assert args[0] is m
            np.testing.assert_array_equal(kwargs["_index"][(h, r)], oracle[(h, r)])

    def test_few_tails_scored_exactly_when_scores_spread(self, monkeypatch):
        """With unit-normal entities and biases, as query-22k sets them,
        evaluate scores exactly under a tenth of the queries' tails."""
        from ukge import evaluation

        store = augment_inverse(make_synthetic(seed=2))
        m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=5)
        rng = np.random.default_rng(6)
        m.entities[:] = rng.normal(0.0, 1.0, m.entities.shape)
        m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
        scored, score_all = [], evaluation.score_candidates

        def score_shim(*args, **kwargs):
            scores = score_all(*args, **kwargs)
            scored.append(scores.size)
            return scores

        monkeypatch.setattr(evaluation, "score_candidates", score_shim)
        evaluate(m, store)
        assert sum(scored) < 0.1 * store.test.shape[0] * m.n_entities


def verified_tails(approx, margin, t):
    """The tails that a query with the approximate scores ``approx`` and
    the margins ``margin`` scores exactly: those whose approximate score
    lies within their margin plus the gold's of the gold's approximate
    score, the gold and any NaN included, or every entity when the gold's
    window is not finite."""
    if not (np.isfinite(approx[t]) and np.isfinite(margin[t])):
        return np.arange(approx.size)
    return np.flatnonzero(~(np.abs(approx - approx[t]) > margin + margin[t]))


def every_margin(s, terms):
    """:func:`approx_margins` of every (row, tail) pair of an
    ``approx_scores`` call that returned the scores ``s`` and ``terms``."""
    k, n = s.shape
    return approx_margins(terms, np.repeat(np.arange(k), n), np.tile(np.arange(n), k)).reshape(k, n)


def assert_ceiling(approx, margin, ceiling):
    """Every margin of a non-NaN approximate score is at most its row's
    ceiling, which therefore opens a window around the gold that holds
    every tail the margins verify."""
    assert np.all((margin <= ceiling[:, None]) | np.isnan(approx))


def filter_index_oracle(store, splits):
    """The filter index spelled out as a dict of sets."""
    tails: dict[tuple[int, int], set[int]] = {}
    for split in splits:
        for h, r, t in store.split(split):
            tails.setdefault((int(h), int(r)), set()).add(int(t))
    return {key: np.array(sorted(vals), dtype=np.int64) for key, vals in tails.items()}


def assert_same_index(got, expected):
    assert set(got) == set(expected)
    for key, known in expected.items():
        assert got[key].dtype == np.int64
        np.testing.assert_array_equal(got[key], known)


@st.composite
def id_stores(draw):
    """Stores whose splits draw from one pool of triples, so triples repeat
    within and across splits; any split may be empty."""
    pool = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)), max_size=12
    ))
    splits = [
        draw(st.lists(st.sampled_from(pool), max_size=10)) if pool else []
        for _ in SPLITS
    ]
    return ids_store(6, 4, *splits)


class TestFilterIndexMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        store=id_stores(),
        keys=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=6),
    )
    def test_full_and_restricted(self, store, keys):
        every_pair = list(itertools.product(range(6), range(4)))
        for n in range(len(SPLITS) + 1):
            for splits in itertools.combinations(SPLITS, n):
                expected = filter_index_oracle(store, splits)
                assert_same_index(build_filter_index(store, splits, every_pair), expected)
                assert_same_index(
                    build_filter_index(store, splits, keys=keys),
                    {key: v for key, v in expected.items() if key in set(keys)},
                )


class TestEvaluateMatchesPairPath:
    """evaluate scores each query against one shared tail side; its ranks
    must equal ranks built from the pair path, where the tape oracle's
    ``score_triples`` scores every (h, r, e) row on its own."""

    def setup(self, geometry, operator, sig=Signature(6, 2)):
        store = augment_inverse(make_synthetic(seed=2))
        n = store.n_entities
        m = init(sig, n, store.n_relations, seed=5, operator=operator, geometry=geometry)
        rng = np.random.default_rng(6)
        m.entities[:] = rng.normal(0.0, 1.0, m.entities.shape)
        m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
        # relation 0 is the identity for rot and ref, and entity 1 copies
        # entity 0 with its tail bias: (0, 0, 0) and (0, 0, 1) hit the exact
        # zero distance, and 0 and 1 tie as tails of every query
        m.theta[0] = m.phi[0] = m.mu[0] = 0.0
        m.entities[1] = m.entities[0]
        m.biases[1, 1] = m.biases[0, 1]
        m.entities[2] = np.nan  # a NaN tail, and a NaN head
        # a time block below the floor, whose bump turns the -0.0 time
        # coordinate of entity 4 into +0.0 in every batch that holds both
        m.entities[3, sig.p :] = 0.0
        m.entities[4, -1] = -0.0
        # (3, 0, 4) and (3, 1, 5) put the bumped head 3 into evaluate's head
        # block next to the -0.0 head 4
        extra = [(0, 0, 1), (1, 0, 0), (0, 0, 0), (2, 1, 3), (4, 1, 2), (5, 3, 2),
                 (3, 0, 4), (3, 1, 5)]
        store = replace(store, test=np.concatenate([store.test, extra]))
        return m, store

    def pair_ranks(self, m, store):
        index = filter_index_oracle(store, SPLITS)
        every = np.arange(m.n_entities)
        ranks = []
        for h, r, t in store.test:
            scores = score_triples(m, np.full(every.size, h), np.full(every.size, r), every)
            allowed = np.ones(every.size, dtype=bool)
            allowed[index[(h, r)]] = False
            allowed[t] = False
            ranks.append(1 + int(np.count_nonzero(~(scores[allowed] < scores[t]))))
        return ranks

    @pytest.mark.parametrize("operator", sorted(OPERATOR_MODES))
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_ranks_bitwise(self, geometry, operator, monkeypatch):
        from ukge import evaluation

        m, store = self.setup(geometry, operator)
        expected = self.pair_ranks(m, store)
        assert [filtered_rank(m, store, row) for row in store.test] == expected
        report = evaluate(m, store)
        assert report == aggregate_ranks(expected, store.test[:, 1])
        if operator != "rotref":  # the identity relation really meets the short circuit
            assert score(m, 0, 0, 1) == m.biases[0, 0] + m.biases[1, 1] + m.delta
        # heads move at most TRANSPOSE_BLOCK at a time; blocks of 3 hold the
        # -0.0 head 4 and the bumped head 3 apart
        widths, move = [], evaluation.move_heads

        def move_shim(m, h, r):
            widths.append(len(h))
            return move(m, h, r)

        monkeypatch.setattr(evaluation, "TRANSPOSE_BLOCK", 3)
        monkeypatch.setattr(evaluation, "move_heads", move_shim)
        assert evaluate(m, store) == report
        assert sum(widths) == store.test.shape[0] and max(widths) == 3

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_precomputed_tails_equal_candidate_rows(self, geometry):
        """Also with 8 or more space or time coordinates, where the dot
        products take numpy's eight-accumulator branch, and with the
        bumped entity 3, the -0.0 coordinate of entity 4 and, for the
        identity relation 0 of ``rot``, the copies 0 and 1 of head 0."""
        for sig, operator in itertools.product(SCORING_SIGNATURES, ["rotref", "rot"]):
            m, _ = self.setup(geometry, operator, sig)
            cand = np.array([7, 1, 0, 2, 7, 3, 4])
            every = np.arange(m.n_entities)
            for h, r in [(0, 0), (3, 2), (2, 1), (4, 0)]:
                rows = score_triples(m, np.full(cand.size, h), np.full(cand.size, r), cand)
                np.testing.assert_array_equal(
                    score_candidates(m, h, r, tails=candidate_tails(m, cand)[0]), rows
                )
                rows = score_triples(m, np.full(every.size, h), np.full(every.size, r), every)
                np.testing.assert_array_equal(score_candidates(m, h, r), rows)
            if operator == "rot":  # the moved head 0 meets candidates 0 and 1
                np.testing.assert_array_equal(
                    score_candidates(m, 0, 0, tails=candidate_tails(m, [0, 1])[0]),
                    m.biases[0, 0] + m.biases[[0, 1], 1] + m.delta,
                )


    @pytest.mark.parametrize("operator", sorted(OPERATOR_MODES))
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_pairwise_scores_equal_per_query_calls(self, geometry, operator):
        """``score_candidates`` with 1-d id arrays ``h`` and ``r`` scores one
        (h, r, e) a column, with the bits of each query's own call, on both
        sides of the few-column branch of ``dot_columns`` and with the
        copies, the NaN entity and the bumped head of :meth:`setup`."""
        rng = np.random.default_rng(7)
        for sig in SCORING_SIGNATURES:
            m, _ = self.setup(geometry, operator, sig)
            fixed = np.array([(0, 0, 1), (0, 0, 0), (2, 1, 3), (3, 0, 4), (4, 2, 2)])
            for width in (1, 5, 40):
                drawn = rng.integers(0, [m.n_entities, m.n_relations, m.n_entities], (width, 3))
                h, r, e = np.concatenate([fixed, drawn])[:width].T
                pairs = score_candidates(m, h, r, tails=candidate_tails(m, e)[0])
                single = [score_candidates(m, a, b, tails=candidate_tails(m, [c])[0])[0]
                          for a, b, c in zip(h, r, e)]
                every = [score_candidates(m, a, b)[c] for a, b, c in zip(h, r, e)]
                for expected in (single, every):  # a NaN's sign may differ
                    np.testing.assert_array_equal(pairs, expected)
                    np.testing.assert_array_equal(np.signbit(pairs) & ~np.isnan(pairs),
                                                  np.signbit(expected) & ~np.isnan(pairs))

    def test_pairwise_shapes_checked(self):
        """Id arrays must be 1-d and as long as the tails; one id and one
        array, or a 2-d array, do not pair."""
        m, _ = self.setup("ultra", "rotref")
        tails = candidate_tails(m, [1, 2, 3])[0]
        for h, r in [([0, 1], [0, 0]), ([0, 1, 2], 0), (0, [0, 0, 0]),
                     (np.zeros((1, 3), int), np.zeros((1, 3), int)), ([0, 1, 2], [0, 0])]:
            with pytest.raises(DimensionError, match="do not pair with 3 tails"):
                score_candidates(m, h, r, tails=tails)
        assert score_candidates(m, [0, 1, 2], [0, 0, 1], tails=tails).shape == (3,)


class TestApproxScores:
    """``approx_scores`` lies within its margin of the exact scores, at
    coincident and nearly coincident points, cosines of ±1 and ``arccosh``
    arguments of 1, large radii and alpha != 1, and marks NaN where the
    coincidence short circuit may apply."""

    @staticmethod
    def fixture(geometry, alpha, scale):
        """40 entities at ``scale``, with copies of entity 0 nudged to
        coincide, nearly coincide, and meet it at cosines of ±1."""
        sig = Signature(28, 4, alpha)
        m = init(sig, 40, 2, seed=3, operator="rot", geometry=geometry)
        rng = np.random.default_rng(4)
        m.entities[:] = rng.normal(0.0, scale, m.entities.shape)
        m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
        m.theta[0] = m.phi[0] = m.mu[0] = 0.0  # relation 0 is the identity
        m.entities[1:6] = m.entities[0]  # copies of 0; 2 to 5 then move
        m.entities[2, 0] = np.nextafter(m.entities[0, 0], np.inf)  # one ulp away
        m.entities[3, 1] *= 1.0 + 1e-12  # shares the first coordinate only
        m.entities[4, sig.p :] *= -1.0  # time antiparallel: cosine -1
        m.entities[5, :2] += 1.0  # another space part, the same time: cosine 1
        return m

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("alpha, scale", [(1.0, 1.0), (0.3, 1e3), (2.5, 1e-2), (1.0, 1e6)])
    def test_within_the_margin(self, geometry, alpha, scale):
        m = self.fixture(geometry, alpha, scale)
        queries = [(0, 0), (0, 1), (7, 1), (4, 0)]
        heads = move_heads(m, *np.transpose(queries))[0]
        side = approx_side(m, candidate_tails(m)[0])
        approx, ceiling, terms = approx_scores(m, *heads, side)
        margin = every_margin(approx, terms)
        assert_ceiling(approx, margin, ceiling)
        for row, margin_row, (h, r) in zip(approx, margin, queries):
            exact = score_candidates(m, h, r)
            covered = ~np.isnan(row)
            assert covered.sum() >= m.n_entities - 4  # at most 0, 1, 3 and 4
            assert np.all(np.abs(row[covered] - exact[covered]) <= margin_row[covered])
        # under the identity, head 0 shares its first coordinate with tails
        # 0, 1, 3 and 4, and the exact scores of 0 and 1 take the short circuit
        np.testing.assert_array_equal(np.flatnonzero(np.isnan(approx[0])), [0, 1, 3, 4])
        assert score(m, 0, 0, 1) == m.biases[0, 0] + m.biases[1, 1] + m.delta

    @pytest.mark.parametrize("alpha, scale", [(1.0, 1.0), (2.5, 1e-2), (1.0, 0.1)])
    def test_boosted_heads_and_tails_off_the_manifold(self, alpha, scale):
        """Heads moved by a rotation alone and under boosts ``mu`` up to 6,
        whose time norms ``nx`` part from their radii ``rx`` by rounding, and a
        third of the tails with their time norm ``ny`` scaled by ``1 + 1e-6``,
        off the manifold on purpose: there the one leg parts from the shorter
        of the two by far more than the dot products' rounding moves them, and
        the margin still covers it."""
        sig = Signature(28, 4, alpha)
        m = init(sig, 60, 3, seed=5, operator="rot", geometry="ultra")
        rng = np.random.default_rng(6)
        m.entities[:] = rng.normal(0.0, scale, m.entities.shape)
        m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
        m.mu[:] = rng.uniform(-6.0, 6.0, m.mu.shape)
        m.mu[0] = 0.0
        m.mu[1] = [6.0, -6.0, 6.0, 0.0]
        (ys, yt, ry, ny), b_t = candidate_tails(m)[0]
        ny = ny.copy()
        ny[::3] *= 1.0 + 1e-6
        tails = ((ys, yt, ry, ny), b_t)
        queries = [(h, r) for h in (0, 7, 19, 33) for r in range(3)]
        heads = move_heads(m, *np.transpose(queries))[0]
        assert np.any(heads[0][2] != heads[0][3])  # rx != nx
        side = approx_side(m, tails)
        approx, ceiling, terms = approx_scores(m, *heads, side)
        margin = every_margin(approx, terms)
        assert_ceiling(approx, margin, ceiling)
        for row, margin_row, (h, r) in zip(approx, margin, queries):
            exact = score_candidates(m, h, r, tails=tails)
            covered = ~np.isnan(row)
            assert covered.sum() >= m.n_entities - 1  # at most the head itself
            assert np.all(np.abs(row[covered] - exact[covered]) <= margin_row[covered])

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_one_leg_far_from_the_shorter(self, alpha):
        """Tails that share head 0's space part under the identity but for
        1e-3 on its first coordinate, with their time norm ``ny`` scaled by
        ``1 + 1e-4``: the one leg's ``arccosh`` argument is about ``1 + r^2
        1e-4 / alpha^2`` where the shorter leg's is about 1, a gap the
        margin's one-leg term must cover."""
        sig = Signature(28, 4, alpha)
        m = init(sig, 30, 1, seed=7, operator="rot", geometry="ultra")
        rng = np.random.default_rng(8)
        m.entities[:] = rng.normal(0.0, 1.0, m.entities.shape)
        m.theta[0] = m.phi[0] = m.mu[0] = 0.0
        m.entities[1:6, : sig.p] = m.entities[0, : sig.p]
        m.entities[1:6, 0] += 1e-3
        (ys, yt, ry, ny), b_t = candidate_tails(m)[0]
        ny = ny.copy()
        ny[1:6] *= 1.0 + 1e-4
        tails = ((ys, yt, ry, ny), b_t)
        side = approx_side(m, tails)
        approx, ceiling, terms = approx_scores(m, *move_heads(m, [0], [0])[0], side)
        margin = every_margin(approx, terms)
        assert_ceiling(approx, margin, ceiling)
        exact = score_candidates(m, 0, 0, tails=tails)
        assert not np.any(np.isnan(approx[0, 1:]))
        assert np.all(np.abs(approx[0, 1:] - exact[1:]) <= margin[0, 1:])

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_zero_margins_fail_the_proof(self, geometry, monkeypatch):
        """With every margin and ceiling 0, the exact score of a verified
        tail lies outside its approximation's margin, and the query is
        named; a euclidean approximation may equal the exact score, but not
        both of two queries'."""
        from ukge import evaluation

        m = self.fixture(geometry, 1.0, 1.0)
        approx, margins = evaluation.approx_scores, evaluation.approx_margins

        def zero_ceilings(*args):
            s, ceiling, terms = approx(*args)
            return s, np.zeros_like(ceiling), terms

        monkeypatch.setattr(evaluation, "approx_scores", zero_ceilings)
        monkeypatch.setattr(evaluation, "approx_margins", lambda *a: np.zeros_like(margins(*a)))
        store = ids_store(40, 2, train=[], test=[(7, 1, 9), (12, 0, 30)])
        with pytest.raises(NumericError, match=r"query \((7, 1, 9|12, 0, 30)\)"):
            evaluate(m, store)
        raised = 0
        for h, r, t in store.test:
            try:
                filtered_rank(m, store, (h, r, t))
            except NumericError as exc:
                assert f"query ({h}, {r}, {t})" in str(exc)
                raised += 1
        assert raised == 2 or (geometry == "euclidean" and raised == 1)

    def test_non_finite_tails_make_the_margin_non_finite(self):
        """A NaN tail scores NaN with an infinite margin and leaves the other
        tails' margins finite; a NaN head's whole row is so."""
        for geometry in GEOMETRIES:
            m = init(Signature(6, 2), 8, 1, seed=1, geometry=geometry)
            m.entities[5] = np.nan
            side = approx_side(m, candidate_tails(m)[0])  # work for APPROX_BLOCK heads
            heads = [0, 5] + [0] * (APPROX_BLOCK - 1)  # one more than that
            approx, ceiling, terms = approx_scores(m, *move_heads(m, heads, [0] * len(heads))[0], side)
            margin = every_margin(approx, terms)
            assert_ceiling(approx, margin, ceiling)
            assert np.isinf(ceiling[1])
            assert np.isnan(approx[0, 5]) and np.isinf(margin[0, 5])
            others = np.arange(8) != 5
            assert np.all(np.isfinite(approx[0, others]) & np.isfinite(margin[0, others]))
            assert np.all(np.isnan(approx[1])) and np.all(np.isinf(margin[1]))


@st.composite
def rank_models(draw):
    """A small model over :data:`SCORING_SIGNATURES`, both geometries and
    every operator, whose entities and biases are copied, nudged by one
    part in 1e13 or 1e9, or spread, and a store of random triples."""
    sig = draw(st.sampled_from(SCORING_SIGNATURES))
    geometry = draw(st.sampled_from(GEOMETRIES))
    operator = draw(st.sampled_from(sorted(OPERATOR_MODES)))
    seed = draw(st.integers(0, 2**16))
    n, n_rel = 10, 3
    m = init(sig, n, n_rel, seed=seed, operator=operator, geometry=geometry)
    rng = np.random.default_rng(seed)
    m.entities[:] = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 30.0])), m.entities.shape)
    m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
    m.theta[0] = m.phi[0] = m.mu[0] = 0.0  # the identity for rot and ref
    nudge = draw(st.sampled_from([0.0, 1e-13, 1e-9]))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        m.entities[dst] = m.entities[src] * (1.0 + nudge * rng.normal(size=sig.d))
        m.biases[dst, 1] = m.biases[src, 1]
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1))
    train = draw(st.lists(triples, max_size=15))
    test = draw(st.lists(triples, min_size=1, max_size=8))
    return m, ids_store(n, n_rel, train=train, test=test)


class TestFilteredRanksMatchExactScores:
    """The filtered ranks of ``evaluate`` and ``filtered_rank`` equal the
    mask formula over the exact scores of ``score_candidates``."""

    @staticmethod
    def check_ranks(m, store):
        index = filter_index_oracle(store, SPLITS)
        expected = []
        for h, r, t in store.test:
            scores = score_candidates(m, h, r)
            allowed = np.ones(m.n_entities, dtype=bool)
            allowed[index[(h, r)]] = False
            allowed[t] = False
            expected.append(1 + int(np.count_nonzero(~(scores[allowed] < scores[t]))))
        assert [filtered_rank(m, store, row) for row in store.test] == expected
        assert evaluate(m, store) == aggregate_ranks(expected, store.test[:, 1])

    @settings(max_examples=60, deadline=None)
    @given(rank_models())
    def test_equals_the_mask_formula(self, case):
        self.check_ranks(*case)

    @pytest.mark.parametrize("scale", [1e-25, 1e25])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_float32_underflow_and_overflow(self, geometry, scale):
        """Entities at 1e-25, whose products underflow in float32, and at
        1e25, whose radii and squares overflow it, for every operator; there
        the ultra approximation is NaN with infinite margins, so every tail
        is verified."""
        for seed, operator in enumerate(sorted(OPERATOR_MODES)):
            m = init(Signature(28, 4), 30, 3, seed=seed, operator=operator, geometry=geometry)
            rng = np.random.default_rng(seed)
            m.entities[:] = rng.normal(0.0, scale, m.entities.shape)
            m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
            m.theta[0] = m.phi[0] = m.mu[0] = 0.0  # the identity for rot and ref
            m.entities[1] = m.entities[0]
            triples = rng.integers(0, [30, 3, 30], size=(40, 3))
            self.check_ranks(m, ids_store(30, 3, train=triples[:30], test=triples[30:]))
            side = approx_side(m, candidate_tails(m)[0])
            approx, ceiling, terms = approx_scores(m, *move_heads(m, [5], [1])[0], side)
            margin = every_margin(approx, terms)
            assert_ceiling(approx, margin, ceiling)
            overflows = scale > 1.0 and geometry == "ultra"
            assert np.all(np.isnan(approx) & np.isinf(margin)) == overflows
            assert np.all(np.isfinite(approx) & np.isfinite(margin)) != overflows

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_exact_ties_that_the_approximation_splits(self, geometry):
        """Tails whose tail biases make their exact scores tie the gold's bit
        for bit, while their approximate scores fall on either side of it:
        each counts against the gold, as only the exact scores can tell."""
        sig = Signature(28, 4)
        m = init(sig, 60, 1, seed=8, geometry=geometry)
        rng = np.random.default_rng(9)
        m.entities[:] = rng.normal(0.0, 1.0, m.entities.shape)
        gold, tied = 0, np.arange(1, 41)
        target = score_candidates(m, 5, 0)[gold]
        for j in tied:  # step the tail bias by ulps until the exact scores tie
            m.biases[j, 1] += target - score(m, 5, 0, int(j))
            for _ in range(64):
                gap = score(m, 5, 0, int(j)) - target
                if gap == 0.0:
                    break
                m.biases[j, 1] = np.nextafter(m.biases[j, 1], -np.inf if gap > 0 else np.inf)
        exact = score_candidates(m, 5, 0)
        tied = tied[exact[tied] == exact[gold]]
        approx = approx_scores(m, *move_heads(m, [5], [0])[0], approx_side(m, candidate_tails(m)[0]))[0]
        assert tied.size > 30
        assert np.any(approx[0, tied] < approx[0, gold])  # these would be lost
        store = ids_store(60, 1, train=[], test=[(5, 0, gold)])
        expected = 1 + int(np.count_nonzero(exact[1:] >= exact[gold]))
        assert filtered_rank(m, store, (5, 0, gold)) == expected
        assert evaluate(m, store).mrr == 1.0 / expected
