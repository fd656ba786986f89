"""Triple-store tests: parsing, augmentation, statistics, synthesis."""

from __future__ import annotations

import csv
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

from ukge.errors import (
    ConfigurationError,
    EmptySplitError,
    IdLookupError,
    ParseError,
    PreconditionError,
    StateError,
    UndefinedMetricError,
)
from ukge.kgdata import (
    TripleStore,
    _parse_file,
    _read_fields,
    augment_inverse,
    hierarchy_scores,
    inverse_names,
    krackhardt_score,
    load_names,
    load_triples,
    make_synthetic,
    relation_counts,
    stats_csv,
    write_split_tsv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
        assert store.entity_names == ["a", "b", "c"]
        assert store.relation_names == ["r"]
        np.testing.assert_array_equal(store.train, [[0, 0, 1], [1, 0, 2]])
        np.testing.assert_array_equal(store.valid, [[2, 0, 0]])
        assert store.test.shape == (0, 3)

    def test_first_seen_id_order(self, tmp_path):
        train = write(tmp_path / "t.tsv", "z\tr2\ty\ny\tr1\tx\n")
        store = load_triples(train)
        assert store.entity_names == ["z", "y", "x"]
        assert store.relation_names == ["r2", "r1"]
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
        with pytest.raises(IdLookupError):
            store.entity_id("nope")
        with pytest.raises(IdLookupError):
            store.relation_id("nope")

    def test_unknown_split_name(self, tmp_path):
        store = load_triples(write(tmp_path / "t.tsv", "a\tr\tb\n"))
        with pytest.raises(ConfigurationError):
            store.split("dev")

    def test_tsv_roundtrip(self, tmp_path):
        original = make_synthetic(seed=3)
        path = str(tmp_path / "out.tsv")
        write_split_tsv(original, "train", path)
        back = load_triples(path)
        names = {
            (original.entity_names[h], original.relation_names[r], original.entity_names[t])
            for h, r, t in original.train
        }
        names_back = {
            (back.entity_names[h], back.relation_names[r], back.entity_names[t])
            for h, r, t in back.train
        }
        assert names == names_back


class TestAugmentation:
    def test_inverse_ids_and_names(self):
        store = store_from([("a", "r0", "b"), ("b", "r1", "c")])
        aug = augment_inverse(store)
        assert aug.relation_names == ["r0", "r1", "r0_inv", "r1_inv"]
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
        assert store.relation_names == ["r"]
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
            inverse_names(relations)

    def test_inverse_names_are_the_augmented_tail(self):
        store = store_from([("a", "x", "b"), ("b", "y", "a")])
        assert inverse_names(store.relation_names) == ["x_inv", "y_inv"]
        assert augment_inverse(store).relation_names == ["x", "y", "x_inv", "y_inv"]


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
    adj: dict[int, list[int]] = {}
    nodes: set[int] = set()
    for h, _, t in edges:
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
    if total == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} connects no ordered pairs"
        )
    return one_way / total


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
        store.relation_names.append("r1")
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

    def test_counts_all_splits(self):
        store = store_from(
            [("a", "r0", "b"), ("b", "r1", "c")],
            valid=[("c", "r0", "a")],
            test=[("a", "r0", "c")],
        )
        np.testing.assert_array_equal(relation_counts(store), [3, 1])

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


class TestKrackhardtMatchesBfs:
    @settings(max_examples=300, deadline=None)
    @given(store=relation_graphs())
    def test_random_digraphs(self, store):
        for relation in range(store.n_relations):
            assert_matches_bfs(store, relation)

    def test_synthetic_stores(self):
        for store in (
            make_synthetic(),
            make_synthetic(levels=5, branching=4, seed=1),
            make_synthetic(levels=4, branching=3, cycle=5, seed=2),
        ):
            assert hierarchy_scores(store) == [
                krackhardt_bfs_oracle(store, r) for r in range(store.n_relations)
            ]


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
        assert store.entity_names == [f"n{i}" for i in range(13)]
        assert store.relation_names == ["isa", "next"]
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


class TestLineEndings:
    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path):
        text = "a\tr\tb\nb\tr\tc\nc\ts\ta\n"
        lf = write(tmp_path / "lf.tsv", text)
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        a = load_triples(lf)
        b = load_triples(str(crlf))
        assert b.entity_names == a.entity_names == ["a", "b", "c"]
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
        assert b.entity_names == a.entity_names == ["a", "b"]
        assert b.relation_names == a.relation_names
        np.testing.assert_array_equal(b.train, a.train)


names = st.text(alphabet="abxy", min_size=1, max_size=2)
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
RAW_NAMES = ["a", "b", "c", "\u00e9", "x\x85", "\u2028", "\ufeffd", "e\x0cf"]


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
            assert outcome(_read_fields, path) == loop

    def test_bulk_path_skips_the_line_loop(self, tmp_path, monkeypatch):
        import ukge.kgdata as kgdata

        def no_loop(path):
            raise AssertionError("took the line loop")

        path = write(tmp_path / "t.tsv", "a\tr\tb\nb\tr\u00e9\tc")
        monkeypatch.setattr(kgdata, "_parse_file", no_loop)
        assert _read_fields(path) == ["a", "r", "b", "b", "r\u00e9", "c"]
        assert _read_fields(write(tmp_path / "e.tsv", "")) == []


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
            assert entities == store.entity_names
            assert relations == store.relation_names
            assert sorted(entities[n_seen:]) == store.test_only_entities
        else:
            assert names == store

    def test_test_only_entities_counted(self, tmp_path):
        train = write(tmp_path / "tr.tsv", "a\tr\tb\n")
        test = write(tmp_path / "te.tsv", "b\ts\tq\nz\tr\ta\n")
        assert load_names(train, None, test) == (["a", "b", "q", "z"], ["r", "s"], 2)


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
        assert store.entity_names == entities
        assert store.relation_names == relations
        assert store.test_only_entities == test_only
        for split, expected in zip(("train", "valid", "test"), arrays):
            got = store.split(split)
            assert got.dtype == np.int64 and got.shape == (len(expected), 3)
            assert got.tolist() == [list(row) for row in expected]


class TestLazyNameMaps:
    """Name -> id maps are built on the first lookup, once per store."""

    def stores(self):
        base = store_from([("a", "r", "b"), ("b", "s", "c")])
        return {
            "base": base,
            "augmented": augment_inverse(base),
            "replaced": replace(base, entity_names=["x", "y", "z"]),
        }

    def test_construction_builds_no_map(self):
        for store in self.stores().values():
            assert "_entity_ids" not in vars(store)
            assert "_relation_ids" not in vars(store)

    def test_lookups_match_the_name_lists(self):
        for kind, store in self.stores().items():
            for i, name in enumerate(store.entity_names):
                assert store.entity_id(name) == i, kind
            for i, name in enumerate(store.relation_names):
                assert store.relation_id(name) == i, kind
            with pytest.raises(IdLookupError):
                store.entity_id("nobody")
            with pytest.raises(IdLookupError):
                store.relation_id("nothing")
        assert self.stores()["augmented"].relation_id("s_inv") == 3

    def test_replace_after_a_lookup_maps_the_new_names(self):
        base = self.stores()["base"]
        assert base.entity_id("a") == 0
        renamed = replace(base, entity_names=["x", "y", "z"])
        assert renamed.entity_id("z") == 2
        with pytest.raises(IdLookupError):
            renamed.entity_id("a")

    def test_map_built_once(self):
        store = self.stores()["base"]
        store.entity_id("a")
        first = vars(store)["_entity_ids"]
        store.entity_id("c")
        assert vars(store)["_entity_ids"] is first
