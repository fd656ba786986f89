"""Triple stores: loading, inverse augmentation, graph statistics, synthesis.

Input files are UTF-8 TSV with one ``head<TAB>relation<TAB>tail`` triple per
line (LF or CRLF endings, no header; a leading byte order mark is skipped;
bytes that are not UTF-8 are an error at their line).
Dictionaries number the deduplicated train, valid and test splits, in that
order, by first appearance, so ids are dense and stable for a fixed input.
Stores are treated as immutable after construction; :func:`augment_inverse`
returns a new store with an inverse relation (and reversed triples) added
for every base relation, which is how head prediction is realised
downstream.  The inverse of ``x`` is named ``x_inv``, so a store holding
both ``x`` and ``x_inv`` is refused.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    EmptySplitError,
    IdLookupError,
    ParseError,
    PreconditionError,
    StateError,
    UndefinedMetricError,
)

SPLITS = ("train", "valid", "test")

#: suffix appended to a relation name to form its inverse's name
INVERSE_SUFFIX = "_inv"


@dataclass
class TripleStore:
    """Entity/relation dictionaries plus integer triple arrays per split."""

    entity_names: list[str]
    relation_names: list[str]
    train: np.ndarray  # (n, 3) int64 rows (h, r, t)
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False
    test_only_entities: list[str] = field(default_factory=list)

    # name -> id maps, built on the first lookup rather than per construction
    @cached_property
    def _entity_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.entity_names)}

    @cached_property
    def _relation_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.relation_names)}

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLITS:
            raise ConfigurationError(f"unknown split {name!r}")
        return getattr(self, name)

    def entity_id(self, name: str) -> int:
        try:
            return self._entity_ids[name]
        except KeyError:
            raise IdLookupError(f"unknown entity {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_ids[name]
        except KeyError:
            raise IdLookupError(f"unknown relation {name!r}") from None

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)


#: the characters that ``errors="surrogateescape"`` decodes bytes outside UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def text_lines(path: str):
    """``(line number, line)`` for each line of a UTF-8 text file, ending
    kept.  A line ends at LF, CRLF or a lone CR; a leading byte order mark
    is skipped.  A line that is not valid UTF-8 raises :class:`ParseError`
    naming the file and line."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii() and _UNDECODED.search(line):
                raise ParseError(path, lineno, "not valid UTF-8")
            yield lineno, line


def _parse_file(path: str) -> list[tuple[str, ...]]:
    """One ``(head, relation, tail)`` row per line, duplicates kept.  A
    line without three non-empty tab-separated fields once its LF or CRLF
    ending is stripped raises :class:`ParseError` naming the file and line,
    as does one that is not valid UTF-8."""
    rows: list[tuple[str, ...]] = []
    for lineno, line in text_lines(path):
        fields = tuple(line.rstrip("\r\n").split("\t"))
        if len(fields) != 3 or "" in fields:
            raise ParseError(path, lineno, "expected 3 tab-separated fields")
        rows.append(fields)
    return rows


def _read_fields(path: str) -> list[str]:
    """The fields of a TSV file in file order, three per line: ``h0, r0, t0,
    h1, ...``, duplicates kept.

    The whole file is read once and checked in bulk: valid UTF-8, no CR,
    and every line two tabs around three non-empty fields.  Any other file
    goes through :func:`_parse_file`'s line loop, which reads CRLF and lone
    CR endings and raises the :class:`ParseError` for a bad line."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    if not data:
        return []
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf == 9) | (buf == 10))  # the byte after each field
    if (
        b"\r" not in data
        and ends.size % 3 == 0
        and np.all(buf[ends].reshape(-1, 3) == (9, 9, 10))
        and np.diff(ends, prepend=-1).min() > 1
    ):
        try:
            return data[:-1].decode("utf-8").replace("\n", "\t").split("\t")
        except UnicodeDecodeError:
            pass
    return [field for row in _parse_file(path) for field in row]


def _read_splits(train_path, valid_path, test_path) -> list[list[str]]:
    """:func:`_read_fields` of each given split (``[]`` for a missing one);
    every file is read before an empty train split is refused."""
    splits = [_read_fields(path) if path else [] for path in (train_path, valid_path, test_path)]
    if not splits[0]:
        raise EmptySplitError(f"{train_path}: train split is empty")
    return splits


def load_triples(
    train_path: str,
    valid_path: str | None = None,
    test_path: str | None = None,
) -> TripleStore:
    """Load up to three TSV splits into one store.

    Every file is parsed before any split is checked, so a malformed line
    in any split is reported ahead of an empty train split.  Duplicate
    triples are dropped within each split (first occurrence kept), then the
    splits are numbered in train, valid, test order with first-seen ids.
    Entities appearing only in the test split are therefore exactly the
    ones numbered last; they are allowed but recorded, sorted by name, in
    ``test_only_entities`` so callers can flag them.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    arrays = []
    for fields in _read_splits(train_path, valid_path, test_path):
        n_seen = len(entity_ids)  # ends as the entity count before test
        ids = [
            (entity_ids.setdefault(h, len(entity_ids)),
             relation_ids.setdefault(r, len(relation_ids)),
             entity_ids.setdefault(t, len(entity_ids)))
            for h, r, t in dict.fromkeys(zip(fields[0::3], fields[1::3], fields[2::3]))
        ]
        arrays.append(np.asarray(ids, dtype=np.int64).reshape(len(ids), 3))
    entity_names = list(entity_ids)
    return TripleStore(
        entity_names, list(relation_ids), *arrays,
        test_only_entities=sorted(entity_names[n_seen:]),
    )


def load_names(
    train_path: str,
    valid_path: str | None = None,
    test_path: str | None = None,
) -> tuple[list[str], list[str], int]:
    """``(entity names, relation names, entities seen before the test
    split)`` of :func:`load_triples` on the same files, with the same
    errors, without building the triples.  Deduplication keeps first
    occurrences, so it never changes the first-seen order of names."""
    entities: dict[str, None] = {}
    relations: dict[str, None] = {}
    for fields in _read_splits(train_path, valid_path, test_path):
        n_seen = len(entities)
        relations.update(dict.fromkeys(fields[1::3]))
        del fields[1::3]  # heads and tails, interleaved in file order
        entities.update(dict.fromkeys(fields))
    return list(entities), list(relations), n_seen


def inverse_names(relation_names: list[str]) -> list[str]:
    """The inverse relation's name for each of ``relation_names``, in order
    (``x`` -> ``x_inv``).  A relation named like an inverse, ``x`` beside
    ``x_inv``, raises :class:`PreconditionError`."""
    inverses = [name + INVERSE_SUFFIX for name in relation_names]
    clash = sorted(set(inverses).intersection(relation_names))
    if clash:
        base = clash[0].removesuffix(INVERSE_SUFFIX)
        raise PreconditionError(f"relation {clash[0]!r} clashes with the inverse of {base!r}")
    return inverses


def augment_inverse(store: TripleStore) -> TripleStore:
    """Return a store with an inverse relation per base relation.

    The relation dictionary keeps base relations first, then their inverses
    in the same order (inverse id = base id + n_base).  Every split gains the
    reversed copy of each of its triples, so training sees both directions
    and evaluation can realise head prediction as tail prediction under the
    inverse relation.  A relation named like an inverse (``x`` and ``x_inv``)
    raises :class:`PreconditionError`.
    """
    if store.augmented:
        raise StateError("store is already augmented with inverse relations")
    inverses = inverse_names(store.relation_names)
    n_base = store.n_relations
    def reverse(arr: np.ndarray) -> np.ndarray:
        if arr.size == 0:
            return arr
        rev = np.stack([arr[:, 2], arr[:, 1] + n_base, arr[:, 0]], axis=1)
        return np.concatenate([arr, rev], axis=0)
    return TripleStore(
        entity_names=list(store.entity_names),
        relation_names=list(store.relation_names) + inverses,
        train=reverse(store.train),
        valid=reverse(store.valid),
        test=reverse(store.test),
        augmented=True,
        test_only_entities=list(store.test_only_entities),
    )


# --- graph statistics -------------------------------------------------------


def _csr(heads: np.ndarray, tails: np.ndarray, n: int):
    """Distinct edges over nodes ``0..n-1`` as ``(start, succ)`` arrays: the
    successors of ``v`` are ``succ[start[v]:start[v + 1]]``, in ascending order."""
    # a sort, not np.unique: its hash path is slower at these sizes and
    # imports numpy.ma on its first call, about 15 ms once per process
    keys = np.sort(heads * n + tails)
    heads, succ = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)  # keys >= 0
    return np.searchsorted(heads, np.arange(n + 1)), succ


def _tarjan(start: list[int], succ: list[int]) -> tuple[list[int], int]:
    """Strongly connected components of a CSR digraph by Tarjan's algorithm,
    iterative so that long chains need no recursion.  Returns each node's
    component number and the component count; components are numbered in
    emission order, which is reverse topological order: every edge between
    two components points to the lower number."""
    n = len(start) - 1
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    cursor = start[:-1]  # next edge to scan per node
    stack: list[int] = []  # visited nodes not yet in a component
    visited = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [root]  # the DFS path
        while work:
            v = work[-1]
            i = cursor[v]
            if i < start[v + 1]:
                cursor[v] = i + 1
                w = succ[i]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append(w)
                elif comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1]]:
                low[work[-1]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return comp, n_comp


def krackhardt_score(store: TripleStore, relation: int) -> float:
    """Hierarchy score of one relation's directed graph.

    Over the subgraph induced by the relation's edges, consider every ordered
    pair (u, v) with u != v such that v is reachable from u along directed
    edges; the score is the fraction of those pairs where u is *not*
    reachable back from v.  Self-loops and repeated edges change nothing.
    Chains score 1.0, cycles 0.0.

    Counted over the strongly connected components (SCCs): the s(s - 1)
    ordered pairs inside a component of size s are mutual, and every
    reachable pair across components is one-way.  An iterative Tarjan pass
    finds the components in O(V + E) time.  One pass over them in Tarjan's
    emission order (successors first) then builds each component's reach
    set as a Python ``int`` bitset, the OR of its successor components' sets:
    one OR of at most V bits per edge of the component DAG.  A set is freed
    once its last predecessor has read it, so memory never grows with the
    number of reachable pairs.  Both counts are exact integers, so the score
    is the same float a BFS from every node gives.
    """
    if not 0 <= relation < store.n_relations:
        raise IdLookupError(f"relation id {relation} out of range")
    triples = store.all_triples()
    edges = triples[triples[:, 1] == relation]
    if edges.shape[0] == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} has no edges"
        )
    nodes, dense = np.unique(edges[:, [0, 2]], return_inverse=True)
    heads, tails = dense.reshape(-1, 2).T
    start, succ = _csr(heads, tails, len(nodes))
    comp, n_comp = _tarjan(start.tolist(), succ.tolist())
    # the condensation DAG: distinct edges between components
    comp = np.asarray(comp)
    cu, cv = comp[heads], comp[tails]
    across = cu != cv
    dag_start, dag_succ = _csr(cu[across], cv[across], n_comp)
    sizes = np.bincount(comp, minlength=n_comp)
    offsets = (np.cumsum(sizes) - sizes).tolist()
    readers = np.bincount(dag_succ, minlength=n_comp).tolist()
    sizes = sizes.tolist()
    dag_start, dag_succ = dag_start.tolist(), dag_succ.tolist()
    # below[c]: bits of the nodes of c and of everything c reaches, kept
    # until the last component with an edge into c has read it
    below: dict[int, int] = {}
    total = one_way = 0
    for c in range(n_comp):
        reach = 0
        for d in dag_succ[dag_start[c] : dag_start[c + 1]]:
            reach |= below[d]
            readers[d] -= 1
            if readers[d] == 0:
                del below[d]
        s = sizes[c]
        across_pairs = s * reach.bit_count()
        total += s * (s - 1) + across_pairs
        one_way += across_pairs
        if readers[c]:
            below[c] = reach | (((1 << s) - 1) << offsets[c])
    if total == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} connects no ordered pairs"
        )
    return one_way / total


def relation_counts(store: TripleStore) -> np.ndarray:
    """Triple count per relation over all splits."""
    counts = np.zeros(store.n_relations, dtype=np.int64)
    triples = store.all_triples()
    if triples.size:
        ids, freq = np.unique(triples[:, 1], return_counts=True)
        counts[ids] = freq
    return counts


def hierarchy_scores(store: TripleStore) -> list[float | None]:
    """:func:`krackhardt_score` per relation id, ``None`` where undefined."""
    scores: list[float | None] = []
    for rid in range(store.n_relations):
        try:
            scores.append(krackhardt_score(store, rid))
        except UndefinedMetricError:
            scores.append(None)
    return scores


def stats_csv(store: TripleStore, counts: np.ndarray, khs: list[float | None]) -> str:
    """Per-relation statistics as CSV: relation, count, khs, from the
    :func:`relation_counts` and :func:`hierarchy_scores` of ``store``.  An
    undefined score is an empty cell; a name with a comma, quote or line
    break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["relation", "count", "khs"])
    for rid, name in enumerate(store.relation_names):
        cell = "" if khs[rid] is None else f"{khs[rid]:.6f}"
        writer.writerow([name, counts[rid], cell])
    return out.getvalue()


# --- synthetic data -----------------------------------------------------------


def make_synthetic(
    levels: int = 3,
    branching: int = 3,
    cycle: int | None = None,
    seed: int = 0,
) -> TripleStore:
    """Balanced-tree-plus-ring toy knowledge graph.

    Builds a balanced tree of the given depth and branching factor whose
    child->parent edges carry relation ``isa``, plus a directed ring under
    relation ``next`` over the first ``cycle`` leaves (default: all leaves).
    The union of edges is shuffled with the seed and split 80/10/10 into
    train/valid/test.
    """
    if levels < 2:
        raise ConfigurationError("make_synthetic: need at least 2 levels")
    if branching < 1:
        raise ConfigurationError("make_synthetic: branching must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"make_synthetic: seed must be >= 0, got {seed}")
    # nodes numbered level by level: node c's parent is (c - 1) // branching,
    # and the leaves are the last branching**(levels - 1) ids
    n_leaves = branching ** (levels - 1)
    n_nodes = sum(branching**k for k in range(levels))
    if cycle is None:
        cycle = n_leaves
    if not 2 <= cycle <= n_leaves:
        raise ConfigurationError(
            f"make_synthetic: cycle must be in [2, {n_leaves}], got {cycle}"
        )
    child = np.arange(1, n_nodes, dtype=np.int64)
    ring = np.arange(n_nodes - n_leaves, n_nodes - n_leaves + cycle, dtype=np.int64)
    triples = np.concatenate([
        np.stack([child, np.zeros_like(child), (child - 1) // branching], axis=1),
        np.stack([ring, np.ones_like(ring), np.roll(ring, -1)], axis=1),
    ])
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(triples))
    triples = triples[perm]
    n = len(triples)
    n_train = int(n * 0.8)
    n_valid = int(n * 0.1)
    return TripleStore(
        entity_names=[f"n{i}" for i in range(n_nodes)],
        relation_names=["isa", "next"],
        train=triples[:n_train],
        valid=triples[n_train : n_train + n_valid],
        test=triples[n_train + n_valid :],
    )


def write_split_tsv(store: TripleStore, split: str, path: str) -> None:
    """Write one split back to TSV (names, LF endings)."""
    rows = store.split(split)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for h, r, t in rows:
            fh.write(
                f"{store.entity_names[h]}\t{store.relation_names[r]}\t"
                f"{store.entity_names[t]}\n"
            )
