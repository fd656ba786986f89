"""Triple stores: loading, inverse augmentation, graph statistics, synthesis.

Input files are UTF-8 TSV with one ``head<TAB>relation<TAB>tail`` triple per
line (LF, CRLF or lone CR endings, read alike; no header; a leading byte
order mark is skipped; bytes that are not UTF-8 are an error at their line).
Dictionaries number the deduplicated train, valid and test splits, in that
order, by first appearance, so ids are dense and stable for a fixed input.
The splits are joined into one buffer, scanned once for their tabs and LFs
and checked in bulk; only splits that fail go back, one by one, to a line
loop for the first bad line.  Names are numbered by their UTF-8 bytes in
numpy (:func:`_name_keys`, :func:`_key_groups`), which for valid UTF-8 is
the numbering string keys would give: :func:`load_triples` numbers every
field, :func:`read_names`, which ``predict`` calls, none.  Each dictionary
is one :class:`Names`, the distinct names' UTF-8 bytes with an LF after
each, decoded a name or a slice at a time.  A :class:`TripleStore` holds
two, encoding names given as strings once, and checks its ids once, when
it is built; :func:`write_split_tsv` gathers each line's names from those
bytes.  :func:`augment_inverse` returns a new store with an inverse
relation (and reversed triples) added for every base relation, which is
how head prediction is realised downstream.  The inverse of ``x`` is named
``x_inv``, so a store with both ``x`` and ``x_inv`` is refused.
"""

from __future__ import annotations

import codecs
import csv
import difflib
import io
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
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
from .geometry import check_int
from .model import check_ids, check_triples

SPLITS = ("train", "valid", "test")

#: suffix appended to a relation name to form its inverse's name
INVERSE_SUFFIX = "_inv"


class Names(Sequence):
    """A name dictionary held as the UTF-8 bytes of its names: ``data`` is
    an LF, then each name in id order followed by an LF, and ``bounds`` the
    offsets of those LFs, so name ``i`` is ``data[bounds[i] + 1:bounds[i +
    1]]``.  No name holds an LF.  A name is decoded when it is read, a slice
    or all of them in one call; :meth:`index` finds a name among the bytes,
    so :func:`name_id` decodes nothing for a known name.  Dictionaries are
    equal when their bytes are."""

    def __init__(self, data: bytes, bounds: np.ndarray):
        self.data, self.bounds = data, bounds

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, i):
        ids = range(len(self))[i]  # an id, or a slice's ids
        if not isinstance(ids, range):
            return self.data[self.bounds[ids] + 1 : self.bounds[ids + 1]].decode("utf-8")
        if ids.step != 1 or not ids:
            return [self[k] for k in ids]
        lo, hi = self.bounds[ids.start] + 1, self.bounds[ids.stop]
        return self.data[lo:hi].decode("utf-8").split("\n")

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        return self.data == other.data if isinstance(other, Names) else NotImplemented

    __hash__ = None

    def __add__(self, other: Names) -> Names:
        return Names(self.data + other.data[1:],
                     np.concatenate([self.bounds, other.bounds[1:] + self.bounds[-1]]))

    @property
    def joined(self) -> memoryview:
        """The names' UTF-8 bytes in id order joined by LF, not copied."""
        return memoryview(self.data)[1:-1]

    def index(self, name: str) -> int:
        """The id of ``name``; :class:`ValueError` when no name has its
        UTF-8 bytes, and for a ``name`` that holds an LF or that UTF-8
        cannot encode (a lone surrogate, whose bytes no name holds)."""
        key = name.encode("utf-8", "surrogatepass")
        # an LF on both sides matches whole names only
        at = -1 if b"\n" in key else self.data.find(b"\n" + key + b"\n")
        if at < 0:
            raise ValueError(f"{name!r} is not a name")
        return int(np.searchsorted(self.bounds, at))


@dataclass
class TripleStore:
    """Entity/relation dictionaries plus int64 triple rows per split, checked once, when the
    store is built or replaced, then held read-only: a split not of ``(n, 3)`` rows raises
    :class:`DimensionError`, an id not an integer or outside them :class:`IdLookupError`.
    Dictionaries given as strings are held as their :func:`encode_names`, a :class:`Names` as is."""

    entity_names: Names
    relation_names: Names
    train: np.ndarray  # (n, 3) int64 rows (h, r, t)
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False
    test_only_entities: list[str] = field(default_factory=list)

    def __post_init__(self):  # a view when a split is int64, so no copy
        for kind in ("entity", "relation"):
            if not isinstance(names := getattr(self, f"{kind}_names"), Names):
                setattr(self, f"{kind}_names", encode_names(names, kind))
        for name in SPLITS:
            check_triples(getattr(self, name), self.n_entities, self.n_relations)
            rows = np.asarray(getattr(self, name)).astype(np.int64, copy=False).view()
            if rows.ndim != 2:
                raise DimensionError(f"triples are (head, relation, tail) rows, got shape {rows.shape}")
            rows.flags.writeable = False
            setattr(self, name, rows)

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
        return name_id(name, self.entity_names, "entity")

    def relation_id(self, name: str) -> int:
        return name_id(name, self.relation_names, "relation")

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)


def name_id(name: str, names: Names, kind: str) -> int:
    """Id of ``name`` in ``names``; an unknown name raises
    :class:`NameLookupError` listing up to three close matches."""
    try:
        return names.index(name)
    except ValueError:
        close = difflib.get_close_matches(name, names, n=3)
        hint = f"; close matches: {', '.join(close)}" if close else ""
        raise NameLookupError(f"unknown {kind} {name!r}{hint}") from None


#: a name no TSV field can hold: empty, led by U+FEFF, which starts a file as
#: a byte order mark, or with a tab, LF, CR or a lone surrogate (not UTF-8)
_NOT_A_FIELD = re.compile(r"\A(?:\ufeff|\Z)|[\t\n\r\ud800-\udfff]")


def _writable(names: Names, kind: str, given: Sequence[str] | None = None) -> Names:
    """``names``, if a TSV field can hold each, checked in bulk on their
    bytes; else :class:`PreconditionError` naming ``kind`` and the first
    refused of them, or of ``given``, the strings they were encoded from."""
    data, given = names.data, names if given is None else given
    # one byte first, by memchr: a search for four bytes is far slower
    if (len(given) != len(names) or np.any(np.diff(names.bounds) == 1) or b"\t" in data
            or b"\r" in data or (b"\xef" in data and b"\n" + codecs.BOM_UTF8 in data)
            or not _is_utf8(data)):
        bad = next(name for name in given if _NOT_A_FIELD.search(name))
        raise PreconditionError(f"{kind} name {bad!r} cannot be a TSV field")
    return names


def encode_names(names: Sequence[str], kind: str) -> Names:
    """``names`` encoded once, as :class:`Names`, if a TSV field can hold
    each of them (:func:`_writable`)."""
    data = "\n".join(["", *names, ""]).encode("utf-8", "surrogatepass")
    return _writable(Names(data, np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)),
                     kind, names)


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


def _file_bytes(path: str) -> bytes:
    """A TSV split's bytes as LF-ended lines: a leading byte order mark
    dropped, CRLF and lone CR endings made LF as :func:`text_lines` ends
    lines, and an LF added after a last line that has none."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    return data


def _separators(data: bytes) -> np.ndarray | None:
    """The offset of each tab and LF of ``data``, LF-ended lines, if every
    line is two tabs around three non-empty fields and ``data`` is UTF-8;
    ``None`` if not.  One scan finds them, and the checks run in bulk."""
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = buf - np.uint8(9)  # tab and LF to 0 and 1, every other byte above
    sep = np.less(sep, 2, out=sep.view(bool))
    ends = np.flatnonzero(sep)
    if (
        ends.size % 3 == 0
        and buf[ends].tobytes() == b"\t\t\n" * (ends.size // 3)
        # no empty field: no separator first, and none beside another
        and not sep[:1].any() and not (sep[1:] & sep[:-1]).any()
        and _is_utf8(data)
    ):
        return ends
    return None


def _read_fields(path: str) -> tuple[bytes, np.ndarray]:
    """``(data, ends)`` of a TSV split: its :func:`_file_bytes` and their
    :func:`_separators`, three per line, duplicates kept.  A file refused
    goes through :func:`_parse_file`'s line loop only for the
    :class:`ParseError` of its first bad line."""
    data = _file_bytes(path)
    ends = _separators(data)
    if ends is not None:
        return data, ends
    _parse_file(path)
    raise AssertionError(f"{path}: refused in bulk but read line by line")


def _is_utf8(data: bytes) -> bool:
    """Whether ``data`` decodes as UTF-8, ASCII checked first."""
    if data.isascii():
        return True
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _read_splits(train_path, valid_path, test_path):
    """The fields of the given splits, one after another: ``(buf, rows, nul,
    entities, relations)``.  ``buf`` is every split's :func:`_file_bytes`
    and 8 zero bytes, joined and scanned once by :func:`_separators` (each
    split ends in LF, so it ends a line); ``entities`` is the ``(starts,
    lengths)`` of the head and tail fields in file order, heads first in a
    line, ``relations`` that of the relation fields, a field being
    ``buf[start:start + length]``; ``rows`` counts each split's lines, 0 if
    missing; ``nul`` tells whether a field holds a NUL byte.  Refused or
    unreadable splits are read again alone, in order, for the first error;
    every file is read before an empty train split is refused."""
    paths = (train_path, valid_path, test_path)
    splits: list[bytes] = []
    for path in paths:
        try:
            splits.append(_file_bytes(path) if path else b"")
        except OSError:  # raised again below, after an earlier split's error
            break
    data = b"".join([*splits, bytes(8)])
    ends = _separators(data)
    if ends is None or len(splits) < len(paths):
        for path in filter(None, paths):
            _read_fields(path)
        raise AssertionError("splits refused together but read one by one")
    # each split's lines: a third of the separators before its end
    rows = np.diff(np.searchsorted(ends, np.cumsum([len(split) for split in splits])) // 3,
                   prepend=0).tolist()
    if not rows[0]:
        raise EmptySplitError(f"{train_path}: train split is empty")
    lines = ends.reshape(-1, 3)
    # a head starts after the last line's LF, a relation and a tail after a tab
    starts = np.empty((lines.shape[0], 2), dtype=np.intp)
    starts[0, 0] = 0
    np.add(lines[:-1, 2], 1, out=starts[1:, 0])
    np.add(lines[:, 1], 1, out=starts[:, 1])
    relation_starts = lines[:, 0] + 1
    buf = np.frombuffer(data, dtype=np.uint8)
    entities = (starts.ravel(), (lines[:, 0::2] - starts).ravel())
    relations = (relation_starts, lines[:, 1] - relation_starts)
    return buf, rows, any(b"\0" in split for split in splits), entities, relations


#: ``_MASKS[n]`` keeps the first ``n`` bytes of a little-endian uint64 word
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _name_keys(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, nul: bool) -> np.ndarray:
    """One key per field, equal for two fields exactly when their bytes are:
    the bytes as little-endian uint64 words, zero-padded to the longest
    field's word count, then the length if any field holds a NUL byte (zero
    padding alone makes ``a`` and ``a\\0`` equal).  A key of one word is a
    1-D array, a longer one a (fields, words) array.  ``buf`` ends in 8
    bytes past the last field's separator."""
    width = -(-int(lengths.max()) // 8)  # the words the longest field fills
    # every offset of buf read as a little-endian word, unaligned
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    if width == 1 and not nul:
        keys = words[starts]
        keys &= _MASKS[lengths]
        return keys
    keys = np.empty((starts.size, width + nul), dtype=np.uint64)
    for k in range(width):
        # a word past a field's end is masked to 0, wherever it is read
        at = np.minimum(starts + 8 * k, words.size - 1)
        keys[:, k] = words[at] & _MASKS[np.clip(lengths - 8 * k, 0, 8)]
    if nul:
        keys[:, width] = lengths
    return keys[:, 0] if keys.shape[1] == 1 else keys


def _key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, new, first)`` of ``keys``, a non-empty 1-D array or one
    key per row: the rows sorted by key, where each run of equal keys
    starts in that order, and each distinct key's first row, by key."""
    bits = (len(keys) - 1).bit_length()  # of the largest row number
    packs = keys.ndim == 1 and keys.min() >= 0 and int(keys.max()).bit_length() + bits <= 64
    if packs:  # key and row in one word: one sort orders rows by key, then row
        packed = np.left_shift(keys, bits, dtype=np.uint64, casting="unsafe")
        packed |= np.arange(len(keys), dtype=np.uint64)
        packed.sort()
        order = (packed & np.uint64((1 << bits) - 1)).view(np.intp)
        ranked = np.right_shift(packed, bits, out=packed)
    else:
        order = np.argsort(keys) if keys.ndim == 1 else np.lexsort(keys.T)
        ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    changed = ranked[1:] != ranked[:-1]
    new[1:] = changed if keys.ndim == 1 else changed.any(axis=1)
    # packed, a run's rows ascend; argsort is not stable: take the least
    return order, new, order[new] if packs else np.minimum.reduceat(order, np.flatnonzero(new))


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """The index of each distinct key's first row in ``keys``, a 1-D array
    or one key per row, in ascending order: the ``first`` of
    :func:`_first_seen`, without an id for every row."""
    if not len(keys):
        return np.empty(0, dtype=np.intp)
    return np.sort(_key_groups(keys)[2])


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, ids)`` of the rows of ``keys``, a 1-D array or one key per
    row: ``first`` holds the index of each distinct key's first row, in
    ascending order, and ``ids`` gives each row the position of its key in
    ``first``, so keys are numbered 0, 1, ... by first appearance."""
    if not len(keys):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    order, new, first = _key_groups(keys)
    by_sight = np.argsort(first)
    rank = np.empty_like(by_sight)
    rank[by_sight] = np.arange(by_sight.size)
    ids = np.empty_like(order)
    ids[order] = rank[np.cumsum(new) - 1]
    return first[by_sight], ids


def _gather(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """``(chunk, bounds)``: the spans ``buf[start:start + length]``, one or
    more, joined in one new array, and 0 then the offset ending each span."""
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return buf[np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths)], bounds


def _names(buf: np.ndarray, fields: tuple[np.ndarray, np.ndarray], first: np.ndarray) -> Names:
    """The fields of ``fields`` (starts, lengths) at the indices ``first``,
    in that order, gathered from ``buf`` into one :class:`Names`."""
    starts, lengths = fields[0][first], fields[1][first]
    spans = lengths + 1  # each name with the tab or LF after it
    chunk, bounds = _gather(buf, starts, spans)
    chunk[bounds[1:] - 1] = 10
    return Names(b"\n" + chunk.tobytes(), bounds)


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
    buf, rows, nul, entity_fields, relation_fields = _read_splits(
        train_path, valid_path, test_path
    )
    first, entity_ids = _first_seen(_name_keys(buf, *entity_fields, nul))
    relation_first, relation_ids = _first_seen(_name_keys(buf, *relation_fields, nul))
    entities = _names(buf, entity_fields, first)
    relations = _names(buf, relation_fields, relation_first)
    n_seen = int(np.searchsorted(first, 2 * (rows[0] + rows[1])))
    triples = np.empty((relation_ids.size, 3), dtype=np.int64)
    triples[:, 0::2] = entity_ids.reshape(-1, 2)
    triples[:, 1] = relation_ids
    n_e, n_r = len(entities), len(relations)
    arrays = []
    packed = n_e * n_r * n_e <= 2**63  # (h, r, t) fits one int64 key
    for part in np.split(triples, np.cumsum(rows)[:-1]):
        keys = (part[:, 0] * n_r + part[:, 1]) * n_e + part[:, 2] if packed else part
        arrays.append(part[_first_rows(keys)])
    return TripleStore(
        entities, relations, *arrays, test_only_entities=sorted(entities[n_seen:])
    )


def read_names(
    train_path: str,
    valid_path: str | None = None,
    test_path: str | None = None,
) -> tuple[Names, Names, int]:
    """The two dictionaries of :func:`load_triples` on the same files, with
    the same errors, and the count of entities seen before the test split.
    It builds no triples and numbers no field, only finding each distinct
    name's first field, which deduplication never moves."""
    buf, rows, nul, entity_fields, relation_fields = _read_splits(
        train_path, valid_path, test_path
    )
    first = _first_rows(_name_keys(buf, *entity_fields, nul))
    relation_first = _first_rows(_name_keys(buf, *relation_fields, nul))
    n_seen = int(np.searchsorted(first, 2 * (rows[0] + rows[1])))
    return (
        _names(buf, entity_fields, first), _names(buf, relation_fields, relation_first), n_seen
    )


def inverse_names(relation_names: Names) -> Names:
    """The inverse relation's name for each of ``relation_names``, in order
    (``x`` -> ``x_inv``), made from their bytes.  A relation named like an
    inverse, ``x`` beside ``x_inv``, raises :class:`PreconditionError`."""
    clash = sorted({name + INVERSE_SUFFIX for name in relation_names}.intersection(relation_names))
    if clash:
        base = clash[0].removesuffix(INVERSE_SUFFIX)
        raise PreconditionError(f"relation {clash[0]!r} clashes with the inverse of {base!r}")
    suffix = INVERSE_SUFFIX.encode("utf-8")  # each LF after a name moves by its length
    return Names(b"\n" + relation_names.data[1:].replace(b"\n", suffix + b"\n"),
                 relation_names.bounds + len(suffix) * np.arange(relation_names.bounds.size))


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
    relations = store.relation_names + inverse_names(store.relation_names)
    n_base = store.n_relations
    splits = [np.concatenate([rows, np.stack([rows[:, 2], rows[:, 1] + n_base, rows[:, 0]], axis=1)])
              for rows in (store.train, store.valid, store.test)]
    return TripleStore(store.entity_names, relations, *splits, augmented=True,
                       test_only_entities=list(store.test_only_entities))


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


def _walk_counts(heads: np.ndarray, tails: np.ndarray, n: int) -> tuple[int, int] | None:
    """``(total, one_way)`` pair counts of :func:`krackhardt_score` for edges
    over nodes ``0..n-1``, without self-loops, that give each node at most
    one successor, by numpy pointer doubling: squarings of the successor map
    land every node on its cycle (skipped where every node has a predecessor:
    the map is then a permutation), and a second doubling gives each node
    its cycle's least id and its steps to that cycle.  Each stops once a
    squaring changes nothing, within ``ceil(log2 n)`` rounds, so a tree takes
    about ``log2`` of its depth.  ``None`` for any other graph."""
    step = np.arange(n)  # a node without a successor is its own
    step[heads] = tails
    if not np.array_equal(step[heads], tails):
        return None  # some node has two successors
    rounds = (n - 1).bit_length()  # 2**rounds >= n steps end every walk on its cycle
    tail = np.bincount(step, minlength=n) == 0  # no predecessor, so on no cycle
    rho = tail.any()  # else every node is on a cycle, and every steps count 0
    if rho:
        land = step
        for _ in range(rounds):
            land, last = land[land], land
            if np.array_equal(land, last):  # every walk has landed
                break
        tail = np.bincount(land, minlength=n) == 0  # the nodes on no cycle
    least, steps = np.where(tail, n, np.arange(n)), tail.astype(np.int64)
    for _ in range(rounds):
        more = np.minimum(least, least[step])
        if np.array_equal(more, least):
            break  # every walk has met its cycle, so its steps are counted too
        if rho:
            steps += steps[step]
        least, step = more, step[step]
    length = np.bincount(least[~tail], minlength=n)  # each cycle's, at its least id
    # a tail node reaches steps - 1 more tail nodes and all L of its cycle, none back
    one_way = int(np.sum(steps[tail] - 1 + length[least[tail]]))
    return int(length @ (length - 1)) + one_way, one_way


def _reach_counts(heads: np.ndarray, tails: np.ndarray, n: int) -> tuple[int, int]:
    """``(total, one_way)`` pair counts of :func:`krackhardt_score` for any
    edges over nodes ``0..n-1``, over the strongly connected components:
    the s(s - 1) ordered pairs inside one of size s are mutual, and every
    reachable pair across components is one-way.  An iterative Tarjan pass
    finds them in O(V + E) time.  One pass in its emission order (successors
    first) builds each component's reach set as a Python ``int`` bitset, the
    OR of its successor components' sets, and frees it once its last
    predecessor has read it, so memory never grows with the reachable pairs."""
    start, succ = _csr(heads, tails, n)
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
    return total, one_way


def krackhardt_score(store: TripleStore, relation: int, *, _slot: np.ndarray | None = None) -> float:
    """Hierarchy score of one relation's directed graph.

    Over the subgraph induced by the relation's edges, consider every ordered
    pair (u, v) with u != v such that v is reachable from u along directed
    edges; the score is the fraction of those pairs where u is *not*
    reachable back from v.  Self-loops and repeated edges change nothing.
    Chains score 1.0, cycles 0.0.

    The graph picks how the pairs are counted.  Where every node has at
    most one successor other than itself (a child->parent tree, a chain, a
    ring, tails running into cycles), :func:`_walk_counts` follows the walks
    by pointer doubling.  Where every node has at most one predecessor (a
    parent->child tree), it follows them in the transposed graph Gᵀ, which
    scores the same: u reaches v in G exactly when v reaches u in Gᵀ.  Any
    other graph, where a node reaches a union of sets rather than one walk,
    goes to :func:`_reach_counts`.  Both count exact integers, so the score
    is the same float a BFS from every node gives.

    Nodes are numbered in time linear in the edges, with no sort: each end
    of an edge writes its field position into ``_slot``, an intp table over
    entity ids whose contents do not matter (:func:`hierarchy_scores` lends
    one), and the fields that read their own position back are numbered in
    field order.  Pair counts do not depend on the numbering.  The store
    checked its edges when it was built; ``relation`` is checked here.
    """
    if np.ndim(relation) != 0:
        raise IdLookupError(f"relation must be one id, got shape {np.shape(relation)}")
    check_ids(relation, store.n_relations, "relation")
    triples = store.all_triples()
    on = triples[:, 1] == relation
    edges = triples if on.all() else triples[on]  # hierarchy_scores lends its own rows
    if edges.shape[0] == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} has no edges"
        )
    slot = np.empty(store.n_entities, dtype=np.intp) if _slot is None else _slot
    ends, field = edges[:, ::2].ravel(), np.arange(2 * edges.shape[0])
    slot[ends] = field  # which write a repeated id keeps does not matter
    named = np.flatnonzero(slot[ends] == field)  # one field per node, in field order
    slot[ends[named]] = np.arange(named.size)
    heads, tails = slot[ends].reshape(-1, 2).T
    moves = heads != tails
    heads, tails, n = heads[moves], tails[moves], named.size
    total, one_way = (_walk_counts(heads, tails, n) or _walk_counts(tails, heads, n)
                      or _reach_counts(heads, tails, n))
    if total == 0:
        raise UndefinedMetricError(
            f"relation {store.relation_names[relation]!r} connects no ordered pairs"
        )
    return one_way / total


def relation_counts(store: TripleStore) -> np.ndarray:
    """Triple count per relation over all splits."""
    return np.bincount(store.all_triples()[:, 1], minlength=store.n_relations)


def hierarchy_scores(store: TripleStore) -> list[float | None]:
    """:func:`krackhardt_score` per relation id, ``None`` where undefined,
    each on a store of its relation's edges alone, split by one stable (radix)
    sort of a narrow relation key; every call borrows one numbering table."""
    triples, n = store.all_triples(), store.n_relations
    key = triples[:, 1].astype(np.min_scalar_type(n))
    rows = triples[np.argsort(key, kind="stable")]
    bounds = np.cumsum(np.bincount(key, minlength=n))
    slot = np.empty(store.n_entities, dtype=np.intp)
    scores: list[float | None] = []
    empty = rows[:0]
    for rid, own in enumerate(np.split(rows, bounds)[:-1]):
        try:
            scores.append(krackhardt_score(replace(store, train=own, valid=empty, test=empty), rid,
                                           _slot=slot))
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
    train/valid/test.  A bad size or seed raises :class:`ConfigurationError`.
    """
    check_int(levels=levels, branching=branching, seed=seed, cycle=0 if cycle is None else cycle)
    if levels < 2:
        raise ConfigurationError("make_synthetic: need at least 2 levels")
    if branching < 2:  # one leaf cannot carry a ring
        raise ConfigurationError(f"make_synthetic: branching must be >= 2, got {branching}")
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


#: lines that :func:`write_split_tsv` gathers and writes at a time
WRITE_LINES = 4096


def write_split_tsv(store: TripleStore, split: str, path: str) -> None:
    """Write one split back to TSV (names, LF endings), :data:`WRITE_LINES`
    lines at a time, each gathered from the names' UTF-8 bytes as three
    spans, a name and the LF after it each, the first two LFs made tabs.
    A name no TSV field can hold (a loaded one may start with U+FEFF)
    raises :class:`PreconditionError` before the file is opened; the store
    checked its ids when it was built."""
    rows = store.split(split)
    names = _writable(store.entity_names, "entity") + _writable(store.relation_names, "relation")
    buf = np.frombuffer(names.data, dtype=np.uint8)
    starts, lengths = names.bounds[:-1] + 1, np.diff(names.bounds)  # each name with its LF
    with open(path, "wb") as fh:
        for at in range(0, len(rows), WRITE_LINES):
            ids = np.add(rows[at : at + WRITE_LINES], [0, store.n_entities, 0], dtype=np.intp)
            chunk, bounds = _gather(buf, starts[ids.ravel()], lengths[ids.ravel()])
            chunk[bounds[1::3] - 1] = 9
            chunk[bounds[2::3] - 1] = 9
            fh.write(chunk)
