"""Ranking metric tests against hand fixtures and a brute-force oracle."""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukge.errors import ConfigurationError, EmptySplitError, IdLookupError
from ukge.evaluation import (
    EvalReport,
    aggregate_ranks,
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

    def test_thread_count_invariance(self):
        store = augment_inverse(make_synthetic(seed=1))
        m = init(S22, store.n_entities, store.n_relations, seed=4)
        one = evaluate(m, store, threads=1)
        many = evaluate(m, store, threads=3)
        assert one.mrr == many.mrr
        assert one.hits == many.hits

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_below_one_rejected(self, threads):
        """``map_row_blocks`` states the rule for ``evaluate`` and ``fit``."""
        m, store = self.hand_setup()
        with pytest.raises(ConfigurationError, match="threads must be >= 1"):
            evaluate(m, store, threads=threads)

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

    def test_float_triple_rejected(self):
        m, store = self.hand_setup()
        with pytest.raises(IdLookupError, match="must be integers"):
            filtered_rank(m, store, (1, 0, 0.5))

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
        extra = [(0, 0, 1), (1, 0, 0), (0, 0, 0), (2, 1, 3), (4, 1, 2), (5, 3, 2)]
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
    def test_ranks_bitwise(self, geometry, operator):
        m, store = self.setup(geometry, operator)
        expected = self.pair_ranks(m, store)
        assert [filtered_rank(m, store, row) for row in store.test] == expected
        report = evaluate(m, store)
        assert report == aggregate_ranks(expected, store.test[:, 1])
        assert evaluate(m, store, threads=2) == report
        if operator != "rotref":  # the identity relation really meets the short circuit
            assert score(m, 0, 0, 1) == m.biases[0, 0] + m.biases[1, 1] + m.delta

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
                    score_candidates(m, h, r, tails=candidate_tails(m, cand)), rows
                )
                rows = score_triples(m, np.full(every.size, h), np.full(every.size, r), every)
                np.testing.assert_array_equal(score_candidates(m, h, r), rows)
            if operator == "rot":  # the moved head 0 meets candidates 0 and 1
                np.testing.assert_array_equal(
                    score_candidates(m, 0, 0, tails=candidate_tails(m, [0, 1])),
                    m.biases[0, 0] + m.biases[[0, 1], 1] + m.delta,
                )

