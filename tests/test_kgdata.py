"""Triple-store tests: parsing, augmentation, statistics, synthesis."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import tempfile
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukge import model
from ukge.errors import (
    ConfigurationError,
    DimensionError,
    EmptySplitError,
    IdLookupError,
    NameLookupError,
    ParseError,
    PreconditionError,
    StateError,
    UndefinedMetricError,
)
from ukge.kgdata import (
    TripleStore,
    _first_rows,
    _first_seen,
    _name_keys,
    _parse_file,
    _read_fields,
    augment_inverse,
    encode_names,
    hierarchy_scores,
    inverse_names,
    krackhardt_score,
    load_triples,
    make_synthetic,
    read_names,
    relation_counts,
    stats_csv,
    write_split_tsv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def load_names(*paths):
    """:func:`read_names` with every name decoded: ``(entity names, relation
    names, entities seen before the test split)`` as lists of strings."""
    entities, relations, n_seen = read_names(*paths)
    return list(entities), list(relations), n_seen


def store_from(train, valid=None, test=None):
    """Build a store directly from name triples (train id order)."""
    entities, relations = [], []
    e, r = {}, {}
    def ids(rows):
        out = []
        for h, rel, t in rows:
            for name in (h, t):
                if name not in e:
                    e[name] = len(entities)
                    entities.append(name)
            if rel not in r:
                r[rel] = len(relations)
                relations.append(rel)
            out.append((e[h], r[rel], e[t]))
        return np.asarray(out, dtype=np.int64).reshape(len(out), 3)
    tr = ids(train)
    va = ids(valid or [])
    te = ids(test or [])
    return TripleStore(entities, relations, tr, va, te)


class TestParsing:
    def test_basic_load(self, tmp_path):
        train = write(tmp_path / "train.tsv", "a\tr\tb\nb\tr\tc\n")
        valid = write(tmp_path / "valid.tsv", "c\tr\ta\n")
        store = load_triples(train, valid)
        assert list(store.entity_names) == ["a", "b", "c"]
        assert list(store.relation_names) == ["r"]
        np.testing.assert_array_equal(store.train, [[0, 0, 1], [1, 0, 2]])
        np.testing.assert_array_equal(store.valid, [[2, 0, 0]])
        assert store.test.shape == (0, 3)

    def test_first_seen_id_order(self, tmp_path):
        train = write(tmp_path / "t.tsv", "z\tr2\ty\ny\tr1\tx\n")
        store = load_triples(train)
        assert list(store.entity_names) == ["z", "y", "x"]
        assert list(store.relation_names) == ["r2", "r1"]
        assert store.entity_id("x") == 2
        assert store.relation_id("r1") == 1

    def test_duplicates_dropped_within_split(self, tmp_path):
        train = write(tmp_path / "t.tsv", "a\tr\tb\na\tr\tb\nb\tr\ta\n")
        store = load_triples(train)
        assert store.train.shape == (2, 3)

    def test_field_count_error_reports_line(self, tmp_path):
        train = write(tmp_path / "t.tsv", "a\tr\tb\na\tr\n")
        with pytest.raises(ParseError) as exc:
            load_triples(train)
        assert exc.value.line == 2
        assert "expected 3 tab-separated fields" in str(exc.value)

    def test_empty_field_rejected(self, tmp_path):
        train = write(tmp_path / "t.tsv", "a\t\tb\n")
        with pytest.raises(ParseError):
            load_triples(train)

    def test_four_fields_rejected(self, tmp_path):
        train = write(tmp_path / "t.tsv", "a\tr\tb\tc\n")
        with pytest.raises(ParseError):
            load_triples(train)

    def test_empty_train_rejected(self, tmp_path):
        train = write(tmp_path / "t.tsv", "")
        with pytest.raises(EmptySplitError):
            load_triples(train)

    def test_every_file_parses_before_the_empty_train_check(self, tmp_path):
        train = write(tmp_path / "t.tsv", "")
        valid = write(tmp_path / "v.tsv", "a\tr\tb\nc\tr\n")
        with pytest.raises(ParseError) as exc:
            load_triples(train, valid)
        assert exc.value.path == valid
        assert exc.value.line == 2

    def test_test_only_entities_recorded(self, tmp_path):
        train = write(tmp_path / "tr.tsv", "a\tr\tb\n")
        test = write(tmp_path / "te.tsv", "b\tr\tq\nz\tr\ta\n")
        store = load_triples(train, None, test)
        assert store.test_only_entities == ["q", "z"]

    def test_unknown_lookup(self, tmp_path):
        store = load_triples(write(tmp_path / "t.tsv", "a\tr\tb\n"))
        with pytest.raises(NameLookupError):
            store.entity_id("nope")
        with pytest.raises(NameLookupError):
            store.relation_id("nope")
        store = load_triples(write(tmp_path / "u.tsv", "alpha\thas_part\tbeta\n"))
        with pytest.raises(NameLookupError, match="close matches: has_part"):
            store.relation_id("has_prat")

    def test_unknown_split_name(self, tmp_path):
        store = load_triples(write(tmp_path / "t.tsv", "a\tr\tb\n"))
        with pytest.raises(ConfigurationError):
            store.split("dev")

    def test_tsv_roundtrip(self, tmp_path):
        """The written split loads back as the same triples of names, in
        order, and its names are numbered by first appearance in it."""
        original = make_synthetic(seed=3)
        path = str(tmp_path / "out.tsv")
        write_split_tsv(original, "train", path)
        back = load_triples(path)

        def named(store):
            return [
                (store.entity_names[h], store.relation_names[r], store.entity_names[t])
                for h, r, t in store.train
            ]

        rows = named(original)
        assert len(set(rows)) == len(rows)  # no duplicate for the reader to drop
        assert named(back) == rows
        assert list(back.entity_names) == list(dict.fromkeys(n for h, _, t in rows for n in (h, t)))
        assert list(back.relation_names) == list(dict.fromkeys(r for _, r, _ in rows))
        assert back.valid.shape == back.test.shape == (0, 3)


class TestAugmentation:
    def test_inverse_ids_and_names(self):
        store = store_from([("a", "r0", "b"), ("b", "r1", "c")])
        aug = augment_inverse(store)
        assert list(aug.relation_names) == ["r0", "r1", "r0_inv", "r1_inv"]
        assert aug.augmented
        # reversed copies appended in order, inverse id = base + 2
        np.testing.assert_array_equal(
            aug.train, [[0, 0, 1], [1, 1, 2], [1, 2, 0], [2, 3, 1]]
        )

    def test_each_split_mirrored(self):
        store = store_from(
            [("a", "r", "b")], valid=[("b", "r", "c")], test=[("c", "r", "a")]
        )
        aug = augment_inverse(store)
        assert aug.train.shape == (2, 3)
        assert aug.valid.shape == (2, 3)
        assert aug.test.shape == (2, 3)
        np.testing.assert_array_equal(aug.test, [[2, 0, 0], [0, 1, 2]])

    def test_empty_split_stays_empty(self):
        store = store_from([("a", "r", "b")])
        aug = augment_inverse(store)
        assert aug.valid.shape == (0, 3)

    def test_double_augmentation_rejected(self):
        aug = augment_inverse(store_from([("a", "r", "b")]))
        with pytest.raises(StateError):
            augment_inverse(aug)

    def test_original_untouched(self):
        store = store_from([("a", "r", "b")])
        augment_inverse(store)
        assert list(store.relation_names) == ["r"]
        assert not store.augmented

    @pytest.mark.parametrize(
        "relations,clash",
        [(["x", "x_inv"], "x_inv"), (["x_inv", "x"], "x_inv"),
         (["y", "x_inv", "x_inv_inv"], "x_inv_inv")],
    )
    def test_inverse_name_clash_rejected(self, relations, clash):
        """Two relations would share the name ``x_inv``, and a lookup of it
        would silently pick the inverse of ``x``."""
        store = store_from([("a", r, "b") for r in relations])
        with pytest.raises(PreconditionError, match=repr(clash)):
            augment_inverse(store)
        with pytest.raises(PreconditionError, match=repr(clash)):
            inverse_names(store.relation_names)

    def test_inverse_names_are_the_augmented_tail(self):
        store = store_from([("a", "x", "b"), ("b", "y", "a")])
        assert list(inverse_names(store.relation_names)) == ["x_inv", "y_inv"]
        assert list(augment_inverse(store).relation_names) == ["x", "y", "x_inv", "y_inv"]


def closure_khs(edges, n):
    """Brute-force hierarchy score via boolean transitive closure."""
    reach = np.zeros((n, n), dtype=bool)
    for h, t in edges:
        reach[h, t] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    total = one_way = 0
    for u in range(n):
        for v in range(n):
            if u != v and reach[u, v]:
                total += 1
                if not reach[v, u]:
                    one_way += 1
    return one_way / total if total else None


def krackhardt_bfs_oracle(store, relation):
    """The hierarchy score by BFS from every node, keeping every reachable
    set: quadratic in time and memory, so only for small graphs."""
    if not 0 <= relation < store.n_relations:
        raise IdLookupError(f"relation id {relation} out of range")
    triples = store.all_triples()
    edges = triples[triples[:, 1] == relation]
    if edges.shape[0] == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} has no edges"
        )
    total, one_way = bfs_pair_counts(edges[:, 0], edges[:, 2])
    if total == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} connects no ordered pairs"
        )
    return one_way / total


def bfs_pair_counts(heads, tails):
    """``(total, one_way)``: the ordered pairs u != v where v is reachable
    from u along the edges ``heads[i] -> tails[i]``, and those of them where
    u is not reachable back, by BFS from every node."""
    adj: dict[int, list[int]] = {}
    nodes: set[int] = set()
    for h, t in zip(heads, tails):
        adj.setdefault(int(h), []).append(int(t))
        nodes.add(int(h))
        nodes.add(int(t))
    reach: dict[int, set[int]] = {}
    for u in nodes:
        seen: set[int] = set()
        queue = deque(adj.get(u, ()))
        seen.update(adj.get(u, ()))
        while queue:
            v = queue.popleft()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach[u] = seen
    total = 0
    one_way = 0
    for u in nodes:
        for v in reach[u]:
            if v == u:
                continue
            total += 1
            if u not in reach[v]:
                one_way += 1
    return total, one_way


class TestKrackhardt:
    def test_chain_is_fully_hierarchical(self):
        store = store_from([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")])
        assert krackhardt_score(store, 0) == 1.0

    def test_cycle_has_no_hierarchy(self):
        store = store_from([("a", "r", "b"), ("b", "r", "a")])
        assert krackhardt_score(store, 0) == 0.0

    def test_mixed_graph(self):
        # chain a->b->c plus back-edge c->b: pairs (b,c),(c,b) are mutual,
        # (a,b),(a,c) are one-way -> 2/4
        store = store_from(
            [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "b")]
        )
        assert krackhardt_score(store, 0) == 0.5

    def test_matches_transitive_closure_oracle(self, rng):
        for trial in range(10):
            n = 12
            mask = rng.random((n, n)) < 0.15
            np.fill_diagonal(mask, False)
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
            if not edges:
                continue
            rows = [(f"n{u}", "r", f"n{v}") for u, v in edges]
            store = store_from(rows)
            pairs = [(store.entity_id(f"n{u}"), store.entity_id(f"n{v}")) for u, v in edges]
            expected = closure_khs(pairs, store.n_entities)
            if expected is None:
                with pytest.raises(UndefinedMetricError):
                    krackhardt_score(store, 0)
            else:
                assert krackhardt_score(store, 0) == expected

    def test_relation_without_edges(self):
        store = store_from([("a", "r0", "b")])
        store2 = TripleStore(
            store.entity_names, ["r0", "r1"], store.train, store.valid, store.test
        )
        with pytest.raises(UndefinedMetricError):
            krackhardt_score(store2, 1)

    def test_self_loop_only_is_undefined(self):
        store = store_from([("a", "r", "a")])
        with pytest.raises(UndefinedMetricError):
            krackhardt_score(store, 0)

    def test_relation_id_out_of_range(self):
        store = store_from([("a", "r", "b")])
        with pytest.raises(IdLookupError):
            krackhardt_score(store, 5)

    def test_edge_outside_the_store_rejected(self):
        """A store whose only triple names entity 5 of 2 used to score 1.0;
        it is now refused when it is built."""
        none = np.empty((0, 3), dtype=np.int64)
        with pytest.raises(IdLookupError, match="entity id 5 out of range"):
            TripleStore(["a", "b"], ["r"], np.array([[0, 0, 5]]), none, none)

    @pytest.mark.parametrize("relation", [1.5, 0.0, np.float64(0.0), True, np.bool_(True), "0"])
    def test_relation_id_not_an_integer(self, relation):
        """``1.5`` used to raise a bare TypeError, and ``True`` and
        ``np.float64(0.0)`` passed as relations 1 and 0."""
        with pytest.raises(IdLookupError, match="must be integers"):
            krackhardt_score(make_synthetic(), relation)

    @pytest.mark.parametrize("relation", [[1], [0, 1], np.array([[1]]), np.int64([1])])
    def test_relation_that_is_not_one_id(self, relation):
        """``[1]`` used to pass as relation 1, and ``[0, 1]`` raised a bare
        numpy ValueError."""
        with pytest.raises(IdLookupError, match="one id"):
            krackhardt_score(make_synthetic(), relation)

    def test_integer_types_accepted(self):
        store = make_synthetic()
        for relation in (np.int64(1), np.uint8(1), np.int32(1)):
            assert krackhardt_score(store, relation) == krackhardt_score(store, 1)

    def test_counts_all_splits(self):
        store = store_from(
            [("a", "r0", "b"), ("b", "r1", "c")],
            valid=[("c", "r0", "a")],
            test=[("a", "r0", "c")],
        )
        np.testing.assert_array_equal(relation_counts(store), [3, 1])

    @pytest.mark.parametrize("row", [[0, 3, 1], [0, -1, 1], [2, 0, 1]])
    def test_counts_refuse_ids_outside_the_dictionaries(self, row):
        """An id past the dictionary raised a bare IndexError in
        ``relation_counts``, and a negative relation id was counted as the
        last relation; the store now refuses both when it is built."""
        empty = np.empty((0, 3), dtype=np.int64)
        with pytest.raises(IdLookupError, match="out of range"):
            TripleStore(["a", "b"], ["r"], np.array([[0, 0, 1], row]), empty, empty)

    def test_counts_of_a_store_without_triples(self):
        empty = np.empty((0, 3))  # float, as np.empty makes it
        store = TripleStore(["a"], ["r", "s"], empty, empty, empty)
        assert relation_counts(store).tolist() == [0, 0]

    def test_stats_csv_layout(self):
        store = store_from([("a", "isa", "b"), ("b", "isa", "c")])
        out = stats_csv(store, relation_counts(store), hierarchy_scores(store))
        lines = out.strip().split("\n")
        assert lines[0] == "relation,count,khs"
        assert lines[1] == "isa,2,1.000000"


@st.composite
def relation_graphs(draw):
    """A store over up to 12 entities plus a few that no edge touches.
    Relation 0 joins chains, cycles and loose nodes over disjoint blocks
    and adds self-loops; random edges of relations 0-2 come on top.  Every
    edge lands in one or more splits, possibly more than once in one."""
    n = draw(st.integers(2, 12))
    nodes = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    edges = []
    for a, b in zip([0, *cuts], [*cuts, n]):
        block = nodes[a:b]
        kind = draw(st.sampled_from(["chain", "cycle", "loose"]))
        if kind != "loose":
            edges += [(u, 0, v) for u, v in zip(block, block[1:])]
        if kind == "cycle":
            edges.append((block[-1], 0, block[0]))
    edges += [(v, 0, v) for v in draw(st.lists(st.sampled_from(nodes), max_size=3))]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, st.integers(0, 2), node), max_size=10))
    splits: list[list[tuple[int, int, int]]] = [[], [], []]
    for edge in edges:
        for where in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)):
            splits[where].append(edge)
    arrays = [
        np.asarray(draw(st.permutations(rows)), dtype=np.int64).reshape(len(rows), 3)
        for rows in splits
    ]
    n_untouched = draw(st.integers(0, 3))
    return TripleStore(
        [f"e{i}" for i in range(n + n_untouched)], ["r0", "r1", "r2"], *arrays
    )


def assert_matches_bfs(store, relation):
    """Exactly the BFS oracle's float, or UndefinedMetricError from both."""
    try:
        expected = krackhardt_bfs_oracle(store, relation)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            krackhardt_score(store, relation)
    else:
        assert krackhardt_score(store, relation) == expected


def cycle_or_chain(n, closed):
    """One relation over n entities: i -> i + 1, and n - 1 -> 0 if closed."""
    heads = np.arange(n if closed else n - 1)
    edges = np.stack([heads, np.zeros_like(heads), (heads + 1) % n], axis=1)
    return TripleStore([f"e{i}" for i in range(n)], ["r"], edges, edges[:0], edges[:0])


@st.composite
def walk_graphs(draw):
    """A store whose one relation gives each of up to 12 nodes at most one
    successor other than itself, or, drawn reversed, at most one
    predecessor: tails running into cycles, sinks, self-loops on top, each
    edge in one or more splits, and entities that no edge touches."""
    n = draw(st.integers(1, 12))
    succ = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n, max_size=n))
    edges = [(u, v) for u, v in enumerate(succ) if v is not None]
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    if draw(st.booleans()):
        edges = [(v, u) for u, v in edges]
    splits: list[list[tuple[int, int, int]]] = [[], [], []]
    for u, v in edges:
        for where in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)):
            splits[where].append((u, 0, v))
    arrays = [
        np.asarray(draw(st.permutations(rows)), dtype=np.int64).reshape(len(rows), 3)
        for rows in splits
    ]
    return TripleStore([f"e{i}" for i in range(n + draw(st.integers(0, 3)))], ["r"], *arrays)


def never_tarjan(*args):
    raise AssertionError("_tarjan entered")


class TestKrackhardtMatchesBfs:
    @settings(max_examples=300, deadline=None)
    @given(store=relation_graphs())
    def test_random_digraphs(self, store):
        for relation in range(store.n_relations):
            assert_matches_bfs(store, relation)

    @settings(max_examples=300, deadline=None)
    @given(store=walk_graphs())
    def test_graphs_of_one_successor_or_one_predecessor(self, store):
        """Scored by pointer doubling, never by Tarjan's pass."""
        from unittest import mock

        from ukge import kgdata

        with mock.patch.object(kgdata, "_tarjan", never_tarjan):
            assert_matches_bfs(store, 0)

    def test_synthetic_stores(self):
        for store in (
            make_synthetic(),
            make_synthetic(levels=5, branching=4, seed=1),
            make_synthetic(levels=4, branching=3, cycle=5, seed=2),
        ):
            assert hierarchy_scores(store) == [
                krackhardt_bfs_oracle(store, r) for r in range(store.n_relations)
            ]


def scores_or_none(store):
    """:func:`krackhardt_score` of each relation alone, ``None`` where undefined."""
    scores = []
    for relation in range(store.n_relations):
        try:
            scores.append(krackhardt_score(store, relation))
        except UndefinedMetricError:
            scores.append(None)
    return scores


class TestHierarchyScores:
    @pytest.mark.parametrize("bad", [-1, 2, 256, 65_536])
    def test_relation_ids_outside_the_dictionary_are_left_out(self, bad):
        """A triple whose relation id is outside a 2-relation dictionary
        never reaches ``hierarchy_scores``, whose narrow sort key would wrap
        256 and 65,536 to relation 0: the store refuses it when it is built."""
        rows = np.array([[0, 0, 1], [2, bad, 0], [1, 0, 2], [1, 1, 2]])
        with pytest.raises(IdLookupError, match=f"relation id {bad} out of range"):
            TripleStore(["a", "b", "c"], ["r0", "r1"], rows, rows[:0], rows[:0])

    def test_relations_that_share_entities(self):
        """One numbering table serves every relation of a call: a chain, a
        cycle over two of its nodes and a third node, a star into the chain's
        head and a relation without edges, each as scored alone."""
        store = store_from(
            [("a", "chain", "b"), ("b", "chain", "c"), ("c", "chain", "d"),
             ("c", "ring", "d"), ("d", "ring", "e"), ("e", "ring", "c"),
             ("x", "star", "a"), ("y", "star", "a"), ("d", "star", "a")]
        )
        store = replace(store, relation_names=[*store.relation_names, "none"])
        expected = [1.0, 0.0, 1.0, None]
        assert scores_or_none(store) == expected
        assert hierarchy_scores(store) == expected

    @settings(max_examples=200, deadline=None)
    @given(store=relation_graphs())
    def test_random_relations_that_share_entities(self, store):
        assert hierarchy_scores(store) == scores_or_none(store)

    @settings(max_examples=200, deadline=None)
    @given(store=relation_graphs() | walk_graphs(), data=st.data())
    def test_scores_ignore_which_ids_the_entities_have(self, store, data):
        """Entity ids permuted within a larger dictionary change no score."""
        size = store.n_entities + data.draw(st.integers(0, 40))
        ids = np.asarray(data.draw(st.permutations(range(size))), dtype=np.int64)

        def moved(split):
            out = split.copy()
            out[:, ::2] = ids[split[:, ::2]]
            return out

        other = TripleStore([f"x{i}" for i in range(size)], store.relation_names,
                            moved(store.train), moved(store.valid), moved(store.test))
        expected = scores_or_none(store)
        assert scores_or_none(other) == expected
        assert hierarchy_scores(other) == expected


def walk_counts(pairs, n):
    """``_walk_counts`` of edges ``pairs`` over nodes ``0..n-1``, tried as
    given and then transposed, as :func:`krackhardt_score` tries them."""
    from ukge.kgdata import _walk_counts

    heads, tails = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return _walk_counts(heads, tails, n) or _walk_counts(tails, heads, n)


class TestWalkCounts:
    """Pair counts of the doubling, whose loops stop at their fixed point,
    against BFS from every node."""

    def check(self, pairs):
        n = 1 + max(max(pair) for pair in pairs)
        heads, tails = zip(*pairs)
        assert walk_counts(pairs, n) == bfs_pair_counts(heads, tails)

    def test_disjoint_cycles_without_tails(self):
        """Every node has a predecessor, so the landing is skipped."""
        pairs, start = [], 0
        for length in (2, 3, 5, 8, 1 << 5):
            pairs += [(start + i, start + (i + 1) % length) for i in range(length)]
            start += length
        self.check(pairs)

    @pytest.mark.parametrize("tail, cycle", [(1, 2), (5, 3), (9, 2), (2, 7), (16, 4), (33, 31)])
    def test_a_tail_running_into_a_cycle(self, tail, cycle):
        ring = [(tail + i, tail + (i + 1) % cycle) for i in range(cycle)]
        self.check([(i, i + 1) for i in range(tail)] + ring)

    def test_tails_of_many_lengths_into_two_cycles(self):
        """A rho with branches of depth 1 to 12 into a 3-cycle, and a chain
        of 40 into a 2-cycle."""
        pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
        node = 5
        for depth in range(1, 13):
            path = [node + i for i in range(depth)]
            pairs += list(zip(path, path[1:] + [depth % 3]))
            node += depth
        pairs += [(node + i, node + i + 1) for i in range(39)] + [(node + 39, 3)]
        self.check(pairs)

    @pytest.mark.parametrize("inward", [True, False])
    def test_a_star_of_depth_one(self, inward):
        pairs = [(leaf, 0) if inward else (0, leaf) for leaf in range(1, 30)]
        assert walk_counts(pairs, 30) == (29, 29)
        self.check(pairs)

    def test_a_long_chain_does_not_stop_early(self):
        """TestKrackhardtScale's 20,000-node chain: every one of its n(n - 1)/2
        pairs is one-way, which a doubling left a round early undercounts."""
        n = 20_000
        pairs = [(i, i + 1) for i in range(n - 1)]
        assert walk_counts(pairs, n) == (n * (n - 1) // 2, n * (n - 1) // 2)
        assert walk_counts(pairs[::-1], n) == (n * (n - 1) // 2, n * (n - 1) // 2)


class TestKrackhardtScale:
    """Cost checks that need no clock."""

    def test_ring_memory_is_not_quadratic(self):
        # the BFS keeps all 4096 * 4096 reachable pairs: about 514 MB
        store = cycle_or_chain(4096, closed=True)
        tracemalloc.start()
        try:
            assert krackhardt_score(store, 0) == 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_long_chain_needs_no_recursion(self):
        # 20,000 nested calls would pass Python's default recursion limit
        assert krackhardt_score(cycle_or_chain(20_000, closed=False), 0) == 1.0

    def test_ring_memory_grows_linearly(self):
        """Four times the nodes, at most 4.5 times the peak."""

        def peak(n):
            store = cycle_or_chain(n, closed=True)
            tracemalloc.start()
            try:
                assert krackhardt_score(store, 0) == 0.0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(50_000), peak(200_000)
        assert large <= 4.5 * small, (small, large)


class TestKrackhardtPaths:
    """Which of the two counts runs is chosen by the graph."""

    def test_walk_shaped_relations_never_enter_tarjan(self, monkeypatch):
        """A child->parent tree and a ring, the same tree parent->child (one
        predecessor each) and a 20,000-node chain."""
        from ukge import kgdata

        monkeypatch.setattr(kgdata, "_tarjan", never_tarjan)
        store = make_synthetic(levels=7, branching=4)
        assert hierarchy_scores(store) == [1.0, 0.0]
        up = store.all_triples()
        down = up[up[:, 1] == 0][:, ::-1]
        assert krackhardt_score(replace(store, train=down, valid=down[:0], test=down[:0]), 0) == 1.0
        assert krackhardt_score(cycle_or_chain(20_000, closed=False), 0) == 1.0

    def test_two_successors_and_two_predecessors_enter_tarjan(self, monkeypatch):
        from ukge import kgdata

        calls = []
        real = kgdata._tarjan

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kgdata, "_tarjan", counting)
        # a has successors b and c, and c has predecessors a and d
        store = store_from([("a", "r", "b"), ("a", "r", "c"), ("d", "r", "c")])
        assert krackhardt_score(store, 0) == krackhardt_bfs_oracle(store, 0) == 1.0
        assert len(calls) == 1


class TestStatsCsvQuoting:
    def test_names_with_commas_and_quotes(self):
        store = store_from([("a", "part of, whole", "b"), ("b", 'say "hi"', "c")])
        out = stats_csv(store, relation_counts(store), hierarchy_scores(store))
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [
            ["relation", "count", "khs"],
            ["part of, whole", "1", "1.000000"],
            ['say "hi"', "1", "1.000000"],
        ]


class TestSynthetic:
    def test_default_shape(self):
        store = make_synthetic()
        assert store.n_entities == 13  # 1 + 3 + 9
        assert list(store.entity_names) == [f"n{i}" for i in range(13)]
        assert list(store.relation_names) == ["isa", "next"]
        assert store.train.shape == (16, 3)
        assert store.valid.shape == (2, 3)
        assert store.test.shape == (3, 3)

    def test_edge_content(self):
        store = make_synthetic()
        rows = {tuple(r) for r in store.all_triples()}
        assert len(rows) == 21
        isa = {r for r in rows if r[1] == 0}
        ring = {r for r in rows if r[1] == 1}
        assert len(isa) == 12 and len(ring) == 9
        # every non-root has exactly one parent; children 1..3 point at n0
        assert (1, 0, 0) in isa and (4, 0, 1) in isa and (12, 0, 3) in isa
        # the ring walks the leaves n4..n12 and closes
        assert (4, 1, 5) in ring and (12, 1, 4) in ring

    def test_khs_by_relation(self):
        store = make_synthetic()
        assert krackhardt_score(store, 0) == 1.0  # tree
        assert krackhardt_score(store, 1) == 0.0  # ring

    def test_seed_determinism(self):
        a, b = make_synthetic(seed=5), make_synthetic(seed=5)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)
        c = make_synthetic(seed=6)
        assert not np.array_equal(a.train, c.train)

    def test_partial_cycle(self):
        store = make_synthetic(cycle=4)
        ring = [tuple(r) for r in store.all_triples() if r[1] == 1]
        assert len(ring) == 4
        touched = {r[0] for r in ring} | {r[2] for r in ring}
        assert touched == {4, 5, 6, 7}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_synthetic(levels=1)
        with pytest.raises(ConfigurationError):
            make_synthetic(branching=0)
        with pytest.raises(ConfigurationError):
            make_synthetic(cycle=1)
        with pytest.raises(ConfigurationError):
            make_synthetic(cycle=10)
        with pytest.raises(ConfigurationError):
            make_synthetic(seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("levels", 2.5), ("levels", True), ("branching", 2.0), ("seed", 1.5), ("cycle", 2.5),
    ])
    def test_sizes_and_seed_must_be_integers(self, name, value):
        """A float size or seed is refused, not rounded: ``cycle=2.5`` once
        built a ring of 3 leaves."""
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            make_synthetic(**{name: value})

    def test_one_child_per_node_names_branching(self):
        """One leaf cannot carry a ring: the error names ``branching``, not
        the ``cycle`` the caller never gave."""
        with pytest.raises(ConfigurationError, match="branching must be >= 2, got 1"):
            make_synthetic(branching=1)

    def test_two_levels(self):
        store = make_synthetic(levels=2, branching=4)
        assert store.n_entities == 5
        rows = store.all_triples()
        assert rows.shape == (8, 3)  # 4 isa + 4 ring


class TestStoreBasics:
    def test_all_triples_concatenates(self):
        store = store_from(
            [("a", "r", "b")], valid=[("b", "r", "c")], test=[("c", "r", "a")]
        )
        assert store.all_triples().shape == (3, 3)

    def test_counts(self):
        store = store_from([("a", "r", "b"), ("b", "s", "c")])
        assert store.n_entities == 3
        assert store.n_relations == 2


def two_entity_store(train=((0, 0, 1),), test=None):
    """A store of entities ``a`` and ``b`` and relation ``r``, splits as given."""
    empty = np.empty((0, 3), dtype=np.int64)
    return TripleStore(["a", "b"], ["r"], train, empty, empty if test is None else test)


def write_into_train():
    two_entity_store().train[0, 0] = 1


#: (case, build, error, message): each ``build`` is refused where a store is built
BAD_STORES = [
    ("float ids", lambda: two_entity_store(np.array([[0.0, 0.0, 1.0]])), IdLookupError,
     "entity ids must be integers, got float64"),
    ("(n, 2) rows", lambda: two_entity_store(np.array([[0, 1], [1, 0]])), DimensionError,
     r"\(head, relation, tail\) rows, got shape \(2, 2\)"),
    ("a 1-D (3,) split", lambda: two_entity_store(np.array([0, 0, 1])), DimensionError,
     r"\(head, relation, tail\) rows, got shape \(3,\)"),
    ("a negative id", lambda: two_entity_store([[0, 0, 1], [-1, 0, 1]]), IdLookupError,
     r"entity id -1 out of range \[0, 2\)"),
    ("a head past the entities", lambda: two_entity_store([[2, 0, 1]]), IdLookupError,
     r"entity id 2 out of range \[0, 2\)"),
    ("a relation past the relations", lambda: two_entity_store([[0, 1, 1]]), IdLookupError,
     r"relation id 1 out of range \[0, 1\)"),
    ("a tail past the entities", lambda: two_entity_store([[0, 0, 2]]), IdLookupError,
     r"entity id 2 out of range \[0, 2\)"),
    ("a bool among a list's ints", lambda: two_entity_store([[0, True, 1]]), IdLookupError,
     "triple ids must be integers, got bool"),
    ("[[0, 5, 9]] augmented",  # once passed on as [[0, 5, 9], [9, 6, 0]]
     lambda: augment_inverse(two_entity_store([[0, 5, 9]])), IdLookupError,
     r"entity id 9 out of range \[0, 2\)"),
    ("a write into store.train", write_into_train, ValueError, "read-only"),
    ("replace(store, test=bad)", lambda: replace(two_entity_store(), test=[[0, 0, 7]]),
     IdLookupError, r"entity id 7 out of range \[0, 2\)"),
]


class TestStoreChecks:
    """A store checks its splits when it is built, and holds them read-only."""

    @pytest.mark.parametrize("case, build, error, message", BAD_STORES,
                             ids=[case[0] for case in BAD_STORES])
    def test_bad_stores_are_refused_where_they_are_built(self, case, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_splits_are_read_only_int64_rows(self):
        store = two_entity_store(np.array([[0, 0, 1]], dtype=np.int32),
                                 np.empty((0, 3)))  # float, as np.empty makes it
        for split in (store.train, store.valid, store.test):
            assert split.dtype == np.int64 and split.ndim == 2 and split.shape[1] == 3
            assert not split.flags.writeable
        train = np.array([[0, 0, 1]])
        store = two_entity_store(train)
        train[0, 2] = 0  # the caller's array stays writable; the store holds a view
        assert store.train.base is train

    def test_float_empty_splits_beside_int_rows(self):
        """An int64 train split beside ``np.empty((0, 3))`` valid and test
        splits made a float64 ``all_triples``, which ``hierarchy_scores``
        and ``relation_counts`` refused as float ids."""
        empty = np.empty((0, 3))
        store = TripleStore(["a", "b"], ["r"], np.array([[0, 0, 1]]), empty, empty)
        assert store.all_triples().dtype == np.int64
        assert hierarchy_scores(store) == [1.0]
        assert relation_counts(store).tolist() == [1]

    def test_a_store_without_relations_scores_to_nothing(self):
        empty = np.empty((0, 3), dtype=np.int64)
        assert hierarchy_scores(TripleStore(["a"], [], empty, empty, empty)) == []


class TestLineEndings:
    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path):
        text = "a\tr\tb\nb\tr\tc\nc\ts\ta\n"
        lf = write(tmp_path / "lf.tsv", text)
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        a = load_triples(lf)
        b = load_triples(str(crlf))
        assert b.entity_names == a.entity_names and list(a.entity_names) == ["a", "b", "c"]
        assert b.relation_names == a.relation_names
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(b.split(split), a.split(split))

    def test_bom_file_loads_like_its_plain_twin(self, tmp_path):
        text = "a\tr\tb\nb\tr\ta\n"
        plain = write(tmp_path / "plain.tsv", text)
        bom = tmp_path / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        a = load_triples(plain)
        b = load_triples(str(bom))
        assert b.entity_names == a.entity_names and list(a.entity_names) == ["a", "b"]
        assert b.relation_names == a.relation_names
        np.testing.assert_array_equal(b.train, a.train)


#: names that only whole-name byte equality tells apart: longer than one
#: 8-byte word, byte prefixes of each other, multi-byte characters across a
#: word boundary (bytes 7-8 of "abcdefg\u00e9", 6-8 of "abcdef\u20ac", 5-8
#: of "abcde\U0001f600"), NULs
WORD_NAMES = [
    "abcdefgh", "abcdefghi", "abcdefgh\x00", "a\x00", "\x00", "\x00a",
    "abcdefg\u00e9", "abcdefgh\u00e9", "abcdef\u20ac", "abcdef\u20acx",
    "\u20ac" * 6, "abcde\U0001f600", "abcde\U0001f600 and more", "x" * 40,
]
names = st.one_of(
    st.text(alphabet="abxy", min_size=1, max_size=2),
    st.sampled_from(WORD_NAMES),
    st.text(alphabet="ab\x00\u00e9\u20ac", min_size=1, max_size=12),
)
name_triples = st.tuples(names, st.sampled_from(["r", "s", "t"]), names)


@st.composite
def tsv_splits(draw, min_size=0):
    """Rows of one split with some repeated, and its TSV text with a random
    LF or CRLF ending per line (the last line may have none)."""
    rows = draw(st.lists(name_triples, min_size=min_size, max_size=8))
    if rows:
        repeats = draw(st.lists(st.sampled_from(rows), max_size=4))
        rows = draw(st.permutations(rows + repeats))
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in rows]
    if endings and draw(st.booleans()):
        endings[-1] = ""
    return rows, "".join("\t".join(row) + end for row, end in zip(rows, endings))


def load_oracle(splits):
    """The loading spec, spelled out: dedupe each split keeping first
    occurrences, number train, valid, test in order by first appearance,
    and list test names that train and valid never mention."""
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    arrays = []
    for rows in splits:
        unique = []
        for row in rows:
            if row not in unique:
                unique.append(row)
        for h, r, t in unique:
            for name in (h, t):
                if name not in entities:
                    entities[name] = len(entities)
            if r not in relations:
                relations[r] = len(relations)
        arrays.append([(entities[h], relations[r], entities[t]) for h, r, t in unique])
    before_test = {name for rows in splits[:2] for h, _, t in rows for name in (h, t)}
    test_names = {name for h, _, t in splits[2] for name in (h, t)}
    return list(entities), list(relations), arrays, sorted(test_names - before_test)


class TestNotUtf8:
    """Bytes outside UTF-8 are an input error at their line, not a
    UnicodeDecodeError traceback."""

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("load", [load_triples, load_names])
    def test_reported_at_its_line(self, tmp_path, bom, load):
        path = tmp_path / "t.tsv"
        path.write_bytes(bom + b"a\tr\tb\n\xff\tr\tc\n")
        with pytest.raises(ParseError) as exc:
            load(str(path))
        assert str(exc.value) == f"{path}:2: not valid UTF-8"

    def test_a_bad_line_ahead_is_reported_first(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tr\tb\r\na\tr\r\nb\tr\tc\n" * 100 + b"\xc3\tr\ta\n")
        with pytest.raises(ParseError) as exc:
            load_triples(str(path))
        assert exc.value.line == 2
        path.write_bytes(b"a\tr\tb\r\n" * 5000 + b"a\tr\t\xe2\x82\r\n")
        with pytest.raises(ParseError, match=":5001: not valid UTF-8"):
            load_triples(str(path))


#: names without tab, LF or CR; the line loop ends lines at LF and CR only,
#: so NEL, LS, FF and a BOM inside a line are parts of a name
RAW_NAMES = ["a", "b", "c", "\u00e9", "x\x85", "\u2028", "\ufeffd", "e\x0cf", *WORD_NAMES]


@st.composite
def raw_tsvs(draw):
    """Bytes of a TSV file, mostly well-formed: LF, CRLF or mixed endings
    with lone CRs, repeated rows, an optional BOM and final newline, and
    now and then an empty line, a 2- or 4-field line, an empty field or a
    byte that breaks UTF-8."""
    style = draw(st.sampled_from(["lf", "lf", "crlf", "mixed"]))
    endings = {"lf": ["\n"], "crlf": ["\r\n"], "mixed": ["\n", "\r\n", "\r"]}[style]
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [draw(st.sampled_from(RAW_NAMES)) for _ in range(3)]
        flaw = draw(st.sampled_from([None] * 12 + ["two", "four", "empty", "blank"]))
        if flaw == "two":
            fields.pop()
        elif flaw == "four":
            fields.append("a")
        elif flaw == "empty":
            fields[draw(st.integers(0, 2))] = ""
        elif flaw == "blank":
            fields = []
        lines.append("\t".join(fields) + draw(st.sampled_from(endings)))
        if draw(st.integers(0, 4)) == 0:
            lines.append(lines[-1])
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    data = "".join(lines).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + data[at:]
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


class TestWholeFileReader:
    @settings(max_examples=300, deadline=None)
    @given(data=raw_tsvs())
    def test_matches_the_line_loop(self, data):
        """The bulk check and split give the line loop's fields, and hand
        every file it does not accept to the loop for the same error."""
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "t.tsv")
            with open(path, "wb") as fh:
                fh.write(data)
            loop = outcome(lambda: [f for row in _parse_file(path) for f in row])
            assert outcome(read_fields, path) == loop

    def test_bulk_path_skips_the_line_loop(self, tmp_path, monkeypatch):
        """Well-formed files with LF, CRLF or mixed line ends, lone CRs
        among them, never reach the line loop."""
        path = write(tmp_path / "t.tsv", "a\tr\tb\nb\tr\u00e9\tc")
        forbid_line_loop(monkeypatch)
        assert read_fields(path) == ["a", "r", "b", "b", "r\u00e9", "c"]
        assert read_fields(write(tmp_path / "e.tsv", "")) == []
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(b"a\tr\tb\r\nb\tr\xc3\xa9\tc\r\n")
        assert read_fields(str(crlf)) == ["a", "r", "b", "b", "r\u00e9", "c"]
        mixed = tmp_path / "mixed.tsv"
        mixed.write_bytes(b"\xef\xbb\xbfa\tr\tb\rb\tr\tc\r\nc\tr\ta\nd\tr\te\r")
        assert read_fields(str(mixed)) == ["a", "r", "b", "b", "r", "c", "c", "r", "a", "d", "r", "e"]

    @pytest.mark.parametrize("text, line", [("a\tb\nc\n", 1), ("a\tr\tb\nc\td\ne\n", 2)])
    def test_short_lines_that_add_up_to_three_fields(self, tmp_path, text, line):
        """A line of two fields then one of one end in tab, LF, LF, as many
        ends as one line of three fields: the bulk check refuses them, and
        the line loop reports the first short line."""
        with pytest.raises(ParseError, match="expected 3 tab-separated fields") as exc:
            read_fields(write(tmp_path / "t.tsv", text))
        assert exc.value.line == line

    def test_loaders_skip_the_line_loop_on_long_names(self, tmp_path, monkeypatch):
        """A well-formed LF file of 9- to 40-byte names never reaches the
        line loop, in either loader, and numbers its names as the spec does."""
        rng = np.random.default_rng(0)
        name = lambda: "n" * int(rng.integers(8, 40)) + str(rng.integers(4))
        splits = [
            [(name(), "relation_" + str(rng.integers(3)), name()) for _ in range(size)]
            for size in (300, 60, 60)
        ]
        paths = [
            write(tmp_path / f"{split}.tsv", "".join("\t".join(row) + "\n" for row in rows))
            for split, rows in zip(("train", "valid", "test"), splits)
        ]
        forbid_line_loop(monkeypatch)
        store = load_triples(*paths)
        entities, relations, arrays, test_only = load_oracle(splits)
        assert {len(name.encode()) for name in entities} <= set(range(9, 41))
        assert list(store.entity_names) == entities and list(store.relation_names) == relations
        assert store.test_only_entities == test_only
        for split, expected in zip(("train", "valid", "test"), arrays):
            assert store.split(split).tolist() == [list(row) for row in expected]
        assert load_names(*paths) == (entities, relations, len(entities) - len(test_only))


def read_fields(path):
    """The fields of :func:`_read_fields`, decoded, in file order."""
    data, ends = _read_fields(path)
    starts = np.concatenate([[0], ends[:-1] + 1])
    return [data[a:b].decode("utf-8") for a, b in zip(starts.tolist(), ends.tolist())]


def forbid_line_loop(monkeypatch):
    import ukge.kgdata as kgdata

    def no_loop(path):
        raise AssertionError("took the line loop")

    monkeypatch.setattr(kgdata, "_parse_file", no_loop)


class TestByteNumbering:
    """Names are numbered by their whole UTF-8 bytes."""

    def test_a_nul_byte_makes_another_name(self, tmp_path):
        path = write(tmp_path / "t.tsv", "a\tr\ta\x00\na\x00\tr\x00\ta\n")
        store = load_triples(path)
        assert list(store.entity_names) == ["a", "a\x00"]
        assert list(store.relation_names) == ["r", "r\x00"]
        assert store.train.tolist() == [[0, 0, 1], [1, 1, 0]]
        assert load_names(path) == (["a", "a\x00"], ["r", "r\x00"], 2)

    def test_word_keys_number_like_packed_keys(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 3, size=(50, 3))
        first, ids = _first_seen(rows)
        packed_first, packed_ids = _first_seen((rows[:, 0] * 3 + rows[:, 1]) * 3 + rows[:, 2])
        assert first.tolist() == packed_first.tolist()
        assert ids.tolist() == packed_ids.tolist()
        seen = list(dict.fromkeys(map(tuple, rows.tolist())))
        assert [seen.index(tuple(row)) for row in rows.tolist()] == ids.tolist()


def first_seen_oracle(keys):
    """``(first, ids)`` of :func:`_first_seen` by a dict of first sightings."""
    seen = {}
    for row, key in enumerate(keys):
        seen.setdefault(key, row)
    first = list(seen.values())
    return first, [first.index(seen[key]) for key in keys]


#: names whose keys are one word with the top bit set, several words, or
#: hold NUL bytes (equal to a shorter name once zero-padded)
KEY_NAMES = ["a", "b", "ab", "\u00e9", "\u00e9" * 4, "\u00ff" * 4, "\u65e5\u672c", "a" * 8,
             "a" * 9, "\u00e9" * 5, "x" * 17, "a\x00", "\x00", "a\x00\x00", "\x00" * 9]


@st.composite
def boundary_keys(draw):
    """1-D integer keys whose largest key's bits plus the largest row's bits
    make exactly 64 (one packed word) or 65 (too many for one), as uint64,
    or as int64 now and then with negative keys."""
    n = draw(st.integers(1, 40))
    total = draw(st.sampled_from([64, 65] if n > 1 else [64]))
    key_bits = total - (n - 1).bit_length()
    top = 1 << (key_bits - 1)
    pool = [v for v in (top, top + 1, top | 1 << (key_bits - 2), 0, 1, 2**32, 7)
            if v.bit_length() <= key_bits]
    keys = [draw(st.sampled_from(pool)) for _ in range(n)]
    keys[draw(st.integers(0, n - 1))] = top + 1  # the largest key: key_bits bits
    signed = key_bits < 63 and draw(st.booleans())
    if signed:
        keys = [-key if draw(st.booleans()) else key for key in keys]
    return np.array(keys, dtype=np.int64 if signed else np.uint64)


class TestPackedKeyGroups:
    """:func:`_first_seen` and :func:`_first_rows` number keys by first
    sighting, whether key and row share one sorted word or not."""

    @settings(max_examples=300, deadline=None)
    @given(keys=boundary_keys())
    def test_boundary_keys_match_the_oracle(self, keys):
        first, ids = first_seen_oracle(keys.tolist())
        got_first, got_ids = _first_seen(keys)
        assert got_first.tolist() == first and got_ids.tolist() == ids
        assert _first_rows(keys).tolist() == first

    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(st.sampled_from(KEY_NAMES), min_size=1, max_size=60))
    def test_name_keys_match_the_oracle(self, names):
        """Keys of 8-byte names with the top bit set, multi-byte UTF-8,
        names holding NUL and names of several words, read from one buffer
        as the reader lays it out: each name and its LF, then 8 zero bytes."""
        fields = [name.encode("utf-8") for name in names]
        data = b"".join(field + b"\n" for field in fields) + bytes(8)
        lengths = np.array([len(field) for field in fields])
        starts = np.concatenate([[0], np.cumsum(lengths + 1)[:-1]])
        keys = _name_keys(np.frombuffer(data, dtype=np.uint8), starts, lengths,
                          any(b"\0" in field for field in fields))
        first, ids = first_seen_oracle(fields)
        got_first, got_ids = _first_seen(keys)
        assert got_first.tolist() == first and got_ids.tolist() == ids
        assert _first_rows(keys).tolist() == first

    def test_one_word_keys_sort_packed(self, monkeypatch):
        """Query-22k's 76,456 entity fields pack key and row into one word,
        so no argsort runs."""
        import ukge.kgdata as kgdata

        fields = [b"n%d" % (i % 21845) for i in range(76456)]
        lengths = np.array([len(field) for field in fields])
        starts = np.concatenate([[0], np.cumsum(lengths + 1)[:-1]])
        data = b"".join(field + b"\n" for field in fields) + bytes(8)
        keys = _name_keys(np.frombuffer(data, dtype=np.uint8), starts, lengths, False)
        monkeypatch.setattr(kgdata.np, "argsort", None)
        assert _first_rows(keys).tolist() == list(range(21845))


class TestOnePassReader:
    """The splits are joined and scanned once; a refused buffer is read
    again file by file for the first bad file's error."""

    @pytest.mark.parametrize("load", [load_triples, load_names])
    def test_a_valid_split_that_starts_with_a_tab(self, tmp_path, load):
        train = write(tmp_path / "train.tsv", "a\tr\tb\n")
        valid = write(tmp_path / "valid.tsv", "\tr\tb\n")
        with pytest.raises(ParseError) as exc:
            load(train, valid)
        assert str(exc.value) == f"{valid}:1: expected 3 tab-separated fields"

    @pytest.mark.parametrize("load", [load_triples, load_names])
    def test_a_train_split_whose_last_line_has_no_lf(self, tmp_path, load):
        """Joined as read, ``c<TAB>r`` and ``<TAB>b`` would make one good line."""
        train = write(tmp_path / "train.tsv", "a\tr\tb\nc\tr")
        valid = write(tmp_path / "valid.tsv", "\tb\n")
        with pytest.raises(ParseError) as exc:
            load(train, valid)
        assert str(exc.value) == f"{train}:2: expected 3 tab-separated fields"

    @pytest.mark.parametrize("load", [load_triples, load_names])
    def test_a_bad_split_is_reported_before_a_missing_one(self, tmp_path, load):
        train = write(tmp_path / "train.tsv", "a\tr\n")
        missing = str(tmp_path / "valid.tsv")
        with pytest.raises(ParseError, match=":1: expected 3 tab-separated fields"):
            load(train, missing)
        write(tmp_path / "train.tsv", "a\tr\tb\n")
        with pytest.raises(FileNotFoundError):
            load(train, missing)

    def test_memory_grows_with_the_input(self, tmp_path):
        """Counted in bytes under ``tracemalloc``: reading query-22k's names
        peaks at no more than 9 times its TSVs' bytes (10.7 times with a
        copy of the joined bytes and every field's offsets held at once),
        and four times its lines at no more than 4.4 times that."""

        def peak(levels):
            store = make_synthetic(levels, 4, seed=7)
            paths = [str(tmp_path / f"{levels}{split}.tsv") for split in ("train", "valid", "test")]
            for split, path in zip(("train", "valid", "test"), paths):
                write_split_tsv(store, split, path)
            tracemalloc.start()
            try:
                read_names(*paths)
                return tracemalloc.get_traced_memory()[1], sum(map(os.path.getsize, paths))
            finally:
                tracemalloc.stop()

        (one, size), (four, _) = peak(8), peak(9)
        assert one <= 9 * size, (one, size)
        assert four <= 4.4 * one, (one, four)


class TestLoadNames:
    @settings(max_examples=200, deadline=None)
    @given(splits=st.lists(raw_tsvs(), min_size=3, max_size=3), given_=st.sampled_from(
        [(True, True, True), (True, False, True), (True, True, False), (True, False, False)]
    ))
    def test_matches_load_triples(self, splits, given_):
        """The names, their order and the test-only count of
        :func:`load_triples`, or the same error with the same message."""
        with tempfile.TemporaryDirectory() as root:
            paths = []
            for split, data, present in zip(("train", "valid", "test"), splits, given_):
                paths.append(os.path.join(root, f"{split}.tsv") if present else None)
                if present:
                    with open(paths[-1], "wb") as fh:
                        fh.write(data)
            names = outcome(load_names, *paths)
            store = outcome(load_triples, *paths)
        if isinstance(store, TripleStore):
            entities, relations, n_seen = names
            assert entities == list(store.entity_names)
            assert relations == list(store.relation_names)
            assert sorted(entities[n_seen:]) == store.test_only_entities
        else:
            assert names == store

    def test_test_only_entities_counted(self, tmp_path):
        train = write(tmp_path / "tr.tsv", "a\tr\tb\n")
        test = write(tmp_path / "te.tsv", "b\ts\tq\nz\tr\ta\n")
        assert load_names(train, None, test) == (["a", "b", "q", "z"], ["r", "s"], 2)


class TestReadNames:
    """:func:`read_names` holds the names of :func:`load_triples` as UTF-8
    bytes: their digest is the digest of the decoded names, and each name
    is found and read alone."""

    @settings(max_examples=200, deadline=None)
    @given(train=tsv_splits(min_size=1), valid=tsv_splits(),
           raw=st.lists(st.tuples(*[st.sampled_from(RAW_NAMES)] * 3), max_size=6),
           bom=st.booleans())
    def test_bytes_are_the_loaded_names(self, train, valid, raw, bom):
        test = "".join("\t".join(row) + "\n" for row in raw)
        with tempfile.TemporaryDirectory() as root:
            paths = []
            for split, text in zip(("train", "valid", "test"), (train[1], valid[1], test)):
                paths.append(os.path.join(root, f"{split}.tsv"))
                with open(paths[-1], "wb") as fh:
                    fh.write(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
            entities, relations, n_seen = read_names(*paths)
            store = load_triples(*paths)
            names = load_names(*paths)
        assert n_seen == store.n_entities - len(store.test_only_entities)
        assert names == (list(store.entity_names), list(store.relation_names), n_seen)
        for got, expected in ((entities, store.entity_names), (relations, store.relation_names)):
            assert got == expected
            digest = hashlib.sha256("\n".join(expected).encode("utf-8")).hexdigest()
            assert model.dictionary_digest(got) == digest
            assert len(got) == len(expected) and list(got) == list(expected)
            for i, name in enumerate(expected):
                assert got[i] == name and got.index(name) == i
            for absent in {name[:-1] for name in expected} | {name + "\n" for name in expected}:
                if absent not in expected:
                    with pytest.raises(ValueError):
                        got.index(absent)
            if len(expected) > 1:
                with pytest.raises(ValueError):
                    got.index("\n".join(expected[:2]))


class TestLoadMatchesSpec:
    @settings(max_examples=150, deadline=None)
    @given(train=tsv_splits(min_size=1), valid=tsv_splits(), test=tsv_splits())
    def test_against_oracle(self, train, valid, test):
        with tempfile.TemporaryDirectory() as root:
            paths = []
            for split, (_, text) in zip(("train", "valid", "test"), (train, valid, test)):
                paths.append(os.path.join(root, f"{split}.tsv"))
                with open(paths[-1], "wb") as fh:
                    fh.write(text.encode("utf-8"))
            store = load_triples(*paths)
        entities, relations, arrays, test_only = load_oracle(
            [rows for rows, _ in (train, valid, test)]
        )
        assert list(store.entity_names) == entities
        assert list(store.relation_names) == relations
        assert store.test_only_entities == test_only
        for split, expected in zip(("train", "valid", "test"), arrays):
            got = store.split(split)
            assert got.dtype == np.int64 and got.shape == (len(expected), 3)
            assert got.tolist() == [list(row) for row in expected]


class TestLazyNameMaps:
    """Name lookups read the store's current name lists."""

    def stores(self):
        base = store_from([("a", "r", "b"), ("b", "s", "c")])
        return {
            "base": base,
            "augmented": augment_inverse(base),
            "replaced": replace(base, entity_names=["x", "y", "z"]),
        }

    def test_lookups_match_the_name_lists(self):
        for kind, store in self.stores().items():
            for i, name in enumerate(store.entity_names):
                assert store.entity_id(name) == i, kind
            for i, name in enumerate(store.relation_names):
                assert store.relation_id(name) == i, kind
            with pytest.raises(NameLookupError):
                store.entity_id("nobody")
            with pytest.raises(NameLookupError):
                store.relation_id("nothing")
        assert self.stores()["augmented"].relation_id("s_inv") == 3

    def test_replace_after_a_lookup_maps_the_new_names(self):
        base = self.stores()["base"]
        assert base.entity_id("a") == 0
        renamed = replace(base, entity_names=["x", "y", "z"])
        assert renamed.entity_id("z") == 2
        with pytest.raises(NameLookupError):
            renamed.entity_id("a")


class TestStoreNames:
    """A store holds each dictionary as :class:`Names`: one given as strings
    is encoded once, when the store is built, and a :class:`Names` is held
    as it is."""

    TRAIN = np.array([[0, 0, 1]], dtype=np.int64)

    def build(self, entities, relations=("r",)):
        return TripleStore(entities, list(relations), self.TRAIN, self.TRAIN[:0], self.TRAIN[:0])

    def test_an_lf_in_a_name_is_refused_when_the_store_is_built(self):
        """Entities ``['a\\nb', 'c']`` and ``['a', 'b\\nc']`` had one size and
        one digest, so a checkpoint trained on one passed the digest check
        against the other, and ``['a', 'b\\nc']`` digested like ``['a', 'b',
        'c']``."""
        for entities, bad in ((["a\nb", "c"], "a\nb"), (["a", "b\nc"], "b\nc")):
            with pytest.raises(PreconditionError) as exc:
                self.build(entities)
            assert str(exc.value) == f"entity name {bad!r} cannot be a TSV field"

    def test_a_lone_surrogate_is_refused_when_the_store_is_built(self):
        """``['a', 'b\\udcff']`` built a store whose entity digest raised a
        bare ``UnicodeEncodeError``."""
        with pytest.raises(PreconditionError) as exc:
            self.build(["a", "b\udcff"])
        assert str(exc.value) == "entity name 'b\\udcff' cannot be a TSV field"

    def test_strings_and_bytes_make_one_dictionary(self, tmp_path):
        """A store built from strings holds the bytes that loading its
        written split gives, and a replaced or augmented store shares the
        loaded dictionaries, not a copy."""
        built = self.build(["a", "b\u00e9"], ["r"])
        path = str(tmp_path / "train.tsv")
        write_split_tsv(built, "train", path)
        loaded = load_triples(path)
        assert loaded.entity_names == built.entity_names
        assert loaded.relation_names == built.relation_names
        assert replace(loaded, train=loaded.train[:0]).entity_names is loaded.entity_names
        augmented = augment_inverse(loaded)
        assert augmented.entity_names is loaded.entity_names
        assert augmented.relation_names == encode_names(["r", "r_inv"], "relation")

    def test_slices_decode_their_range(self):
        names = ["a", "bc", "d\u00e9", "e"]
        held = encode_names(names, "entity")
        for part in (slice(None), slice(1, 3), slice(2, None), slice(3, 1), slice(-2, None),
                     slice(None, None, 2), slice(None, None, -1), slice(10, None)):
            assert held[part] == names[part], part
        empty = encode_names([], "entity")
        assert len(empty) == 0 and empty[:] == [] and list(empty) == []

    def test_equal_by_bytes_and_unhashable(self):
        ab = encode_names(["a", "b"], "entity")
        assert ab == encode_names(["a", "b"], "relation")
        assert ab != encode_names(["b", "a"], "entity")
        assert ab != ["a", "b"] and list(ab) == ["a", "b"]
        with pytest.raises(TypeError):
            hash(ab)


@st.composite
def writable_stores(draw):
    """A store of 1-8 entity names (multi-byte UTF-8 and NULs among them)
    and 1-3 relation names, with up to 10 triples per split, some repeated;
    a split may be empty."""
    entities = draw(st.lists(names, min_size=1, max_size=8))
    relations = draw(st.lists(names, min_size=1, max_size=3))
    ids = st.tuples(st.integers(0, len(entities) - 1), st.integers(0, len(relations) - 1),
                    st.integers(0, len(entities) - 1))

    def split():
        rows = draw(st.lists(ids, max_size=10))
        if rows:
            rows = draw(st.permutations(rows + draw(st.lists(st.sampled_from(rows), max_size=4))))
        return np.array(rows, dtype=np.int64).reshape(-1, 3)

    return TripleStore(entities, relations, split(), split(), split())


class TestWriteSplitTsv:
    """The bulk writer writes the bytes of the line loop in ``tsv_oracle``
    and refuses, before the file is opened, what no TSV can hold."""

    @staticmethod
    def assert_writes_like_the_line_loop(store, root):
        from tsv_oracle import write_split_lines

        for split in ("train", "valid", "test"):
            expected, got = os.path.join(root, "lines.tsv"), os.path.join(root, "bulk.tsv")
            write_split_lines(store, split, expected)
            write_split_tsv(store, split, got)
            with open(expected, "rb") as a, open(got, "rb") as b:
                assert a.read() == b.read(), split

    @settings(max_examples=150, deadline=None)
    @given(store=writable_stores(), lines=st.sampled_from([1, 2, 3, 4096]))
    def test_bytes_match_the_line_loop(self, store, lines):
        """Also in chunks of 1-3 lines, so that chunk edges fall anywhere."""
        from unittest import mock

        from ukge import kgdata

        with tempfile.TemporaryDirectory() as root, mock.patch.object(
                kgdata, "WRITE_LINES", lines):
            self.assert_writes_like_the_line_loop(store, root)

    def test_query_scale_splits_match_the_line_loop(self, tmp_path):
        """``make_synthetic(8, 4, seed=7)``: 21,845 names and 30,582 train
        lines, so several chunks and a last partial one."""
        store = make_synthetic(8, 4, seed=7)
        assert store.train.shape[0] == 30_582 and store.n_entities == 21_845
        self.assert_writes_like_the_line_loop(store, str(tmp_path))

    @pytest.mark.parametrize("row", [(0, 0, -1), (-1, 0, 1), (0, 0, 3), (0, 1, 2), (0, -1, 2)])
    def test_ids_outside_the_dictionaries_are_refused(self, tmp_path, row):
        """``(0, 0, -1)`` once wrote the last entity's name, and an id past
        the end raised a bare ``IndexError``; the store now refuses both when
        it is built, so no writer can reach the old file, which keeps its bytes."""
        path = tmp_path / "train.tsv"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(IdLookupError, match="out of range"):
            TripleStore(["a", "b", "c"], ["r"], np.array([[0, 0, 1], row]),
                        np.empty((0, 3), dtype=np.int64), np.empty((0, 3), dtype=np.int64))
        assert path.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "", "b\ud800", "\udcff"])
    @pytest.mark.parametrize("kind", ["entity", "relation"])
    def test_names_no_tsv_can_hold_are_refused(self, tmp_path, bad, kind):
        """A tab, CR or empty name once wrote a file that ``load_triples``
        refuses, and a lone surrogate left the file half written; the store
        now refuses such a name when it is built or replaced, so no writer
        can reach the old file, which keeps its bytes."""
        entities, relations = ["a", "b"], ["r"]
        (entities if kind == "entity" else relations).append(bad)
        train = np.array([[0, 0, 1]] * 3, dtype=np.int64)
        path = tmp_path / "train.tsv"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(PreconditionError) as exc:
            TripleStore(entities, relations, train, train[:0], train[:0])
        assert str(exc.value) == f"{kind} name {bad!r} cannot be a TSV field"
        good = TripleStore(["a", "b", "c"], ["r", "s"], train, train[:0], train[:0])
        with pytest.raises(PreconditionError) as exc:
            replace(good, **{f"{kind}_names": entities if kind == "entity" else relations})
        assert str(exc.value) == f"{kind} name {bad!r} cannot be a TSV field"
        assert path.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("kind", ["entity", "relation"])
    def test_a_leading_byte_order_mark_is_refused(self, tmp_path, kind):
        """Entities ``["\\ufeffa", "b"]`` once wrote ``ef bb bf 61 09 ...``,
        which ``load_triples`` skips as a byte order mark, so they loaded
        back as ``['a', 'b']``; a store built from strings now refuses the
        name when it is built, so the old file keeps its bytes."""
        bad = "\ufeff" + ("a" if kind == "entity" else "r")
        entities, relations = (["a", "b"], [bad]) if kind == "relation" else ([bad, "b"], ["r"])
        train = np.array([[0, 0, 1]], dtype=np.int64)
        path = tmp_path / "train.tsv"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(PreconditionError) as exc:
            TripleStore(entities, relations, train, train[:0], train[:0])
        assert str(exc.value) == f"{kind} name {bad!r} cannot be a TSV field"
        assert path.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("kind, line", [("entity", "\ufeffc\tr\td\n"),
                                            ("relation", "c\t\ufeffr\td\n")])
    def test_a_loaded_name_led_by_a_byte_order_mark_is_refused(self, tmp_path, kind, line):
        """A line after the first may start a name with U+FEFF, which
        ``load_triples`` keeps as it is; the writer refuses that name before
        it opens the file, which keeps its bytes."""
        store = load_triples(write(tmp_path / "in.tsv", "a\tr\tb\n" + line))
        bad = "\ufeff" + ("c" if kind == "entity" else "r")
        assert bad in list(getattr(store, f"{kind}_names"))
        path = tmp_path / "train.tsv"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(PreconditionError) as exc:
            write_split_tsv(store, "train", str(path))
        assert str(exc.value) == f"{kind} name {bad!r} cannot be a TSV field"
        assert path.read_bytes() == b"old bytes\n"

    def test_a_byte_order_mark_inside_a_name_loads_back(self, tmp_path):
        train = np.array([[0, 0, 1]], dtype=np.int64)
        store = TripleStore(["a\ufeff", "b"], ["r\ufeffs"], train, train[:0], train[:0])
        path = str(tmp_path / "train.tsv")
        write_split_tsv(store, "train", path)
        loaded = load_triples(path)
        assert list(loaded.entity_names) == ["a\ufeff", "b"]
        assert list(loaded.relation_names) == ["r\ufeffs"]
        np.testing.assert_array_equal(loaded.train, train)

    def test_memory_does_not_grow_with_the_split(self, tmp_path):
        """Counted in bytes under ``tracemalloc``: writing query-22k's train
        split peaks at no more than 3 MB, and four times its lines with the
        same names at no more than 1.1 times that."""
        store = make_synthetic(8, 4, seed=7)
        longer = replace(store, train=np.tile(store.train, (4, 1)))

        def peak(s):
            tracemalloc.start()
            try:
                write_split_tsv(s, "train", str(tmp_path / "train.tsv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(store), peak(longer)
        assert one <= 3 * 2**20, one
        assert four <= 1.1 * one, (one, four)
        assert os.path.getsize(tmp_path / "train.tsv") > 4 * store.train.shape[0] * 10
