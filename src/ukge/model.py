"""Embedding model: parameters, scoring, and checkpoint (de)serialisation.

Entities are free parameters in ``R^d`` (space block then time block) that
:func:`ukge.geometry.phi` carries onto the pseudo-hyperboloid; each also
carries a head-role and a tail-role bias scalar.  :func:`init` lifts their
time norms to the floor with :func:`ukge.geometry.apply_time_guard`, as
``ultra`` training does after each step.  Relations act through the O(d)
operators of :mod:`ukge.operators`.  A triple (h, r, t) scores

    s = -dist(f_r(phi(e_h)), phi(e_t))^2 + b_h + b_t + delta,

with ``delta`` a global margin.  Every score is one coordinate-major
forward in two halves, :func:`move_heads` then :func:`meet_tails` against
the tails that :func:`candidate_tails` lays out.  All three return
``(value, saved)``, ``saved`` the intermediates that the training kernel's
gradients read, and callers after values alone take ``[0]``.  Training
runs both on blocks of triples, evaluation on the (query, tail) pairs
whose order against the gold its filter (:mod:`ukge.evaluation`) cannot
tell, so a triple gets the same bits wherever it is scored.  The
``geometry="euclidean"`` variant is a baseline at identical parameter
count: the same Givens stages act on the raw parameter vectors, boosts
are pinned to zero, and the distance is plain Euclidean.

The entity table is coordinate-major in memory and row-major on disk:
``m.entities`` is the float64, F-ordered ``(N, d)`` view of a C-ordered
``(d, N)`` buffer, which every scoring path reads in place as
``m.entities.T`` and :func:`coordinate_major` fills in blocks once, when a
:class:`Model` is built or loaded.  A checkpoint is a regular file: magic
``UKGE``, a little-endian u32 format version, a u32 header length, a
canonical JSON header, then raw little-endian float64 row-major payload
arrays in :func:`layout` order.  Loading checks the prefix, every header
field and the promised payload size against the file's size before it
allocates, reads the payload into one array, the entity table a block of
rows at a time into its coordinate-major slice, and rejects non-finite
values; saving replaces the target atomically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import stat
import struct
import uuid
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, operators
from .errors import (
    ConfigurationError,
    CorruptHeaderError,
    CorruptPayloadError,
    DimensionError,
    IdLookupError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .geometry import Signature, apply_time_guard, check_int

MAGIC = b"UKGE"
FORMAT_VERSION = 1

GEOMETRIES = ("ultra", "euclidean")

#: rows of the entity table that :func:`coordinate_major` transposes at a
#: time: a (1024, d) block stays in cache, where one strided copy of the
#: whole table does not
TRANSPOSE_BLOCK = 1024


def layout(sig: Signature, n_entities: int, n_relations: int) -> dict[str, tuple]:
    """Shape of each parameter family, in checkpoint payload order.

    Entities are points of R^{p,q} with a head-role and a tail-role bias;
    each relation has d/2 + d/2 Givens angles (U and V stages) and q boosts;
    ``delta`` is the one global scalar.
    """
    half = sig.d // 2
    return {
        "entities": (n_entities, sig.d),
        "biases": (n_entities, 2),
        "theta": (n_relations, half),
        "phi": (n_relations, half),
        "mu": (n_relations, sig.q),
        "delta": (),
    }


@dataclass
class Model:
    """All trainable state of one embedding run; array shapes follow
    :func:`layout`."""

    sig: Signature
    entities: np.ndarray  # free parameters, space then time, coordinate-major
    biases: np.ndarray  # column 0 head-role, column 1 tail-role
    theta: np.ndarray  # U-stage Givens angles
    phi: np.ndarray  # V-stage Givens angles
    mu: np.ndarray  # boost magnitudes
    delta: float  # global margin
    operator: str = "rotref"
    geometry: str = "ultra"
    entity_digest: str = ""
    relation_digest: str = ""

    def __post_init__(self):
        operators.require_even(self.sig)
        if self.operator not in operators.OPERATOR_MODES:
            raise ConfigurationError(f"unknown operator flavour {self.operator!r}")
        if self.geometry not in GEOMETRIES:
            raise ConfigurationError(f"unknown geometry {self.geometry!r}")
        shapes = layout(self.sig, self.n_entities, self.n_relations)
        for name, value in parameters(self).items():
            if np.shape(value) != shapes[name]:
                raise DimensionError(
                    f"{name} has shape {np.shape(value)}, expected {shapes[name]}"
                )
        e = self.entities
        if e.dtype != np.float64 or not e.T.flags.c_contiguous:
            self.entities = coordinate_major(lambda lo, hi: e[lo:hi], np.empty(e.shape[::-1]))

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.theta.shape[0]

    def clone(self) -> "Model":
        arrays = {k: v.copy(order="K") for k, v in parameters(self).items() if k != "delta"}
        return replace(self, **arrays)


def coordinate_major(rows, out: np.ndarray) -> np.ndarray:
    """``out.T``: the ``(n, d)`` table whose rows ``lo`` to ``hi`` are
    ``rows(lo, hi)``, copied :data:`TRANSPOSE_BLOCK` rows at a time into
    ``out``, a C-ordered ``(d, n)`` float64 buffer."""
    n = out.shape[1]
    for lo in range(0, n, TRANSPOSE_BLOCK):
        out[:, lo : lo + TRANSPOSE_BLOCK] = rows(lo, min(lo + TRANSPOSE_BLOCK, n)).T
    return out.T


def check_ids(ids, n: int, kind: str) -> None:
    """Raise :class:`IdLookupError` naming the first of ``ids`` (an id or an
    array of them) that lies outside ``[0, n)``, or when they are not of an
    integer type (``bool`` and ``float`` are not)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" and ids.size:
        raise IdLookupError(f"{kind} ids must be integers, got {ids.dtype}")
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise IdLookupError(f"{kind} id {bad.flat[0]} out of range [0, {n})")


def check_triples(triples, n_entities: int, n_relations: int) -> None:
    """The one rule for (head, relation, tail) ids: a last axis of 3, else
    :class:`DimensionError`, then :func:`check_ids` of heads and tails below
    ``n_entities`` and relations below ``n_relations``.  Input that is not an
    array is also refused for a bool among its ints, which ``np.asarray`` reads as 0 or 1.
    Four reductions, the least id and each column's largest, pass valid ids without a mask."""
    ids = np.asarray(triples)
    if ids.shape[-1:] != (3,):
        raise DimensionError(f"triples are (head, relation, tail) rows, got shape {ids.shape}")
    if not isinstance(triples, np.ndarray) and ids.dtype.kind in "iu" and any(
            np.asarray(v).dtype == bool for v in np.asarray(triples, dtype=object).flat):
        raise IdLookupError("triple ids must be integers, got bool")
    rows = ids.reshape(-1, 3)
    if rows.size and not (ids.dtype.kind in "iu" and rows.min() >= 0 and rows[:, 1].max() < n_relations
                          and max(rows[:, 0].max(), rows[:, 2].max()) < n_entities):
        check_ids(ids[..., ::2], n_entities, "entity")
        check_ids(ids[..., 1], n_relations, "relation")


def check_store(m: Model, store) -> None:
    """Raise :class:`IdLookupError` if ``store``'s dictionaries outnumber
    ``m``'s rows; the store checked its ids against them when it was built."""
    if store.n_entities > m.n_entities or store.n_relations > m.n_relations:
        raise IdLookupError(
            f"store has {store.n_entities} entities / {store.n_relations} "
            f"relations, model {m.n_entities} / {m.n_relations}"
        )


def joined_digest(joined) -> str:
    """The digest of a name dictionary given as ``joined``, the UTF-8 bytes
    of its names in id order joined by LF: their SHA-256, in hex."""
    return hashlib.sha256(joined).hexdigest()


def dictionary_digest(names: list[str]) -> str:
    """Stable digest of a name dictionary in id order (:func:`joined_digest`
    of the names joined by LF)."""
    return joined_digest("\n".join(names).encode("utf-8"))


def check_margin(delta: float) -> None:
    """Raise :class:`ConfigurationError` unless the margin ``delta`` is finite."""
    if not math.isfinite(delta):
        raise ConfigurationError(f"margin must be finite, got {delta}")


def init(
    sig: Signature,
    n_entities: int,
    n_relations: int,
    *,
    delta: float = 6.0,
    seed: int = 0,
    operator: str = "rotref",
    geometry: str = "ultra",
    entity_digest: str = "",
    relation_digest: str = "",
) -> Model:
    """Seed-determined initial model.

    Entity space and time parts are drawn from N(0, 0.01^2) and the first
    time coordinate is shifted by +1 so the time-norm floor holds; biases
    start at zero; Givens angles are uniform on (-pi, pi); boosts are
    N(0, 0.01^2) (zero for the Euclidean baseline, which never uses them).
    A non-finite ``delta``, a negative ``seed``, or counts or a seed that
    are not integers raise :class:`ConfigurationError`.
    """
    check_int(n_entities=n_entities, n_relations=n_relations, seed=seed)
    if n_entities < 1 or n_relations < 1:
        raise ConfigurationError("need at least one entity and one relation")
    check_margin(delta)
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    # fixed draw order: entity space, entity time, theta, phi, mu
    space = rng.normal(0.0, 0.01, (n_entities, sig.p))
    time = rng.normal(0.0, 0.01, (n_entities, sig.q))
    time[:, 0] += 1.0
    shapes = layout(sig, n_entities, n_relations)
    theta = rng.uniform(-np.pi, np.pi, shapes["theta"])
    phi = rng.uniform(-np.pi, np.pi, shapes["phi"])
    mu = rng.normal(0.0, 0.01, shapes["mu"])
    if geometry == "euclidean":
        mu = np.zeros_like(mu)
    entities = coordinate_major(lambda lo, hi: np.concatenate([space[lo:hi], time[lo:hi]], axis=1),
                                np.empty((sig.d, n_entities)))
    apply_time_guard(entities, sig)
    return Model(sig, entities, np.zeros(shapes["biases"]), theta, phi, mu, float(delta),
                 operator=operator, geometry=geometry, entity_digest=entity_digest,
                 relation_digest=relation_digest)


# --- scoring -------------------------------------------------------------------


def parameters(m: Model) -> dict[str, np.ndarray]:
    """The model's parameter families by name in :func:`layout` order,
    ``delta`` as a 0-d scalar."""
    return {
        name: np.float64(m.delta) if name == "delta" else getattr(m, name)
        for name in layout(m.sig, m.n_entities, m.n_relations)
    }


def candidate_tails(m: Model, candidates=None) -> tuple:
    """``((side, tail biases), saved)`` of the candidate tails (default:
    all), the tail side of :func:`meet_tails`, from their free parameters,
    ``m.entities.T`` itself for all, else its gathered columns: for ultra
    their :func:`geometry.point_terms_columns` and the intermediates that
    :func:`geometry.phi_columns_vjp` reads, for euclidean the parameters
    and None.  :func:`ukge.evaluation.evaluate` builds it once for every
    query, the training kernel once per block."""
    side, saved, cand = m.entities.T, None, slice(None)
    if candidates is not None:
        cand = np.asarray(candidates)
        check_ids(cand, m.n_entities, "entity")
        cand = cand.astype(np.int64, copy=False).reshape(-1)
        side = np.take(side, cand, axis=1)
    if m.geometry == "ultra":
        side, saved = geometry.point_terms_columns(side, m.sig)
    return (side, m.biases[cand, 1]), saved


def move_heads(m: Model, h, r) -> tuple:
    """``((x, b_h), (ops, point))``: the heads ``h`` moved under the
    relations ``r`` (id arrays of one length), a column each with its sums
    from :func:`geometry.dot_columns`, so the same bits in a block of any
    width, and their head biases.  Ultra moves by phi
    (:func:`geometry.point_terms_columns`), then the relation operator
    (:func:`operators.transform_columns`), and ``x`` is the
    :func:`geometry.terms_columns` of the result; euclidean moves the raw
    vector with the boosts pinned to 0.  ``ops`` are the operator's
    intermediates and ``point`` phi's terms and intermediates (None for
    euclidean), what :func:`ukge.training._row_grads` reads."""
    z, point = np.take(m.entities.T, h, axis=1), None
    if m.geometry == "ultra":
        point = geometry.point_terms_columns(z, m.sig)
        z = np.concatenate(point[0][:2])
    mu = np.zeros_like(m.mu) if point is None else m.mu
    x, ops = operators.transform_columns(m.theta, m.phi, mu, r, z, m.sig, m.operator)
    if m.geometry == "ultra":
        x = geometry.terms_columns(x, m.sig)
    return (x, m.biases[h, 0]), (ops, point)


def columns(pair: tuple, cols) -> tuple:
    """Columns ``cols`` of moved heads (:func:`move_heads`) or tails (:func:`candidate_tails`)."""
    x, b = pair
    return (tuple(a[..., cols] for a in x) if isinstance(x, tuple) else x[..., cols]), b[cols]


def meet_tails(m: Model, x, b_h, side, b_t):
    """``(s, (d, saved))``: the scores ``s = -d^2 + b_h + b_t + delta`` of
    the moved heads ``x, b_h`` (:func:`move_heads`) against the tails
    ``side, b_t`` of :func:`candidate_tails`, one column per pair, or one
    head column that meets every tail, by
    :func:`geometry.manhattan_legs_columns` or the Euclidean distance ``d``;
    ``saved`` is the legs' intermediates or the euclidean difference."""
    if m.geometry == "ultra":
        dist, saved = geometry.manhattan_legs_columns(x, side, m.sig)
    else:
        saved = x - side
        dist = np.sqrt(geometry.dot_columns(saved, saved))
    return -dist * dist + b_h + b_t + m.delta, (dist, saved)


def score_candidates(m: Model, h, r, *, tails=None, _head=None) -> np.ndarray:
    """:func:`meet_tails` of (h, r, e) for every tail ``e`` of ``tails``
    (the value of :func:`candidate_tails`, default: all entities): the head
    is one ``(d, 1)`` column of :func:`move_heads`' value, or ``_head`` if
    moved already.  1-d id arrays ``h`` and ``r`` of the tails' length pair
    up with them, a triple a column, each with the bits of the one-head
    call (:func:`geometry.dot_columns` adds alike at any width); other
    arrays raise :class:`DimensionError`."""
    if _head is None:  # a moved head's ids were checked where they entered
        check_ids(h, m.n_entities, "entity")
        check_ids(r, m.n_relations, "relation")
    tails = candidate_tails(m)[0] if tails is None else tails
    if (np.ndim(h) or np.ndim(r)) and not np.shape(h) == np.shape(r) == tails[1].shape:
        raise DimensionError(f"score_candidates: heads {np.shape(h)} and relations "
                             f"{np.shape(r)} do not pair with {tails[1].size} tails")
    head = move_heads(m, np.atleast_1d(h), np.atleast_1d(r))[0] if _head is None else _head
    return meet_tails(m, *head, *tails)[0]


def score(m: Model, h: int, r: int, t: int) -> float:
    """Score of one triple (see module docstring for the formula)."""
    return float(score_candidates(m, h, r, tails=candidate_tails(m, [t])[0])[0])


# --- checkpoints -----------------------------------------------------------------

#: header field -> accepted JSON value types (bools are rejected separately)
_HEADER_TYPES = dict(
    p=int, q=int, alpha=(int, float), n_entities=int, n_relations=int,
    operator=str, geometry=str, entity_digest=str, relation_digest=str,
)


def _check_finite(families: dict, path: str) -> None:
    """Raise :class:`CorruptPayloadError` naming the first family that holds
    a NaN or Inf; :func:`save` and :func:`load` share it."""
    for name, arr in families.items():
        if not np.all(np.isfinite(arr)):
            raise CorruptPayloadError(
                f"{path}: non-finite value in parameter family {name!r}"
            )


def save(m: Model, path: str) -> None:
    """Write a deterministic binary checkpoint (see module docstring).

    A model with a non-finite value raises :class:`CorruptPayloadError`
    before anything is written, since :func:`load` would refuse the file.
    The bytes go to a temporary file beside ``path`` that is synced to disk
    and then renamed over it, so ``path`` never holds a partial write.
    """
    header = {key: getattr(m.sig if hasattr(m.sig, key) else m, key) for key in _HEADER_TYPES}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _check_finite(parameters(m), path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
            fh.write(blob)
            for arr in parameters(m).values():  # row-major: the entity table is copied
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_header(blob: bytes, path: str) -> tuple[Signature, dict]:
    """The header's signature and its other fields, every field checked."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptHeaderError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict) or set(header) != set(_HEADER_TYPES):
        raise CorruptHeaderError(f"{path}: header fields are not {sorted(_HEADER_TYPES)}")
    for key, kinds in _HEADER_TYPES.items():
        if isinstance(header[key], bool) or not isinstance(header[key], kinds):
            raise CorruptHeaderError(f"{path}: header field {key!r} has the wrong type")
    if header["n_entities"] < 1 or header["n_relations"] < 1:
        raise CorruptHeaderError(f"{path}: entity and relation counts must be >= 1")
    try:
        sig = Signature(header.pop("p"), header.pop("q"), float(header.pop("alpha")))
        operators.require_even(sig)
    except (ConfigurationError, OverflowError) as exc:
        raise CorruptHeaderError(f"{path}: {exc}") from exc
    return sig, header


def load(path: str) -> Model:
    """Read a checkpoint in the order the module docstring gives, verifying
    magic, version, header, payload size and that every value is finite."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CorruptHeaderError(f"{path}: not a regular file")
        size = info.st_size
        prefix = fh.read(12)
        if len(prefix) < 12 or prefix[:4] != MAGIC:
            raise CorruptHeaderError(f"{path}: not a UKGE checkpoint")
        version, hlen = struct.unpack_from("<II", prefix, 4)
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"{path}: format version {version}, expected {FORMAT_VERSION}"
            )
        if size < 12 + hlen:
            raise CorruptHeaderError(f"{path}: header block cut short")
        sig, header = _read_header(fh.read(hlen), path)
        shapes = layout(sig, header.pop("n_entities"), header.pop("n_relations"))
        need = sum(math.prod(s) for s in shapes.values()) * 8
        held = size - 12 - hlen
        if held < need:
            raise TruncatedPayloadError(
                f"{path}: payload holds {held} bytes, header promises {need}"
            )
        if held > need:
            raise CorruptHeaderError(f"{path}: {held - need} trailing bytes")

        def read(out):  # the payload's next out.size values, native
            if fh.readinto(memoryview(out).cast("B")) < out.nbytes:  # the file shrank since fstat
                raise TruncatedPayloadError(
                    f"{path}: payload holds {fh.tell() - 12 - hlen} bytes, header promises {need}"
                )
            return out.astype(np.float64, copy=False)  # no copy on little-endian hosts

        # one array, as in the file: a table-sized one of its own raised the peak RSS
        n, d = shapes.pop("entities")
        payload = np.empty(need // 8, dtype="<f8")
        block = np.empty((min(n, TRANSPOSE_BLOCK), d), dtype="<f8")
        table = payload[: n * d].reshape(d, n)
        arrays = {"entities": coordinate_major(lambda lo, hi: read(block[: hi - lo]), table)}
        rest = read(payload[n * d :])
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    arrays |= {k: a.reshape(s) for (k, s), a in zip(shapes.items(), np.split(rest, ends[:-1]))}
    _check_finite(arrays, path)
    try:
        return Model(sig=sig, delta=float(arrays.pop("delta")), **arrays, **header)
    except ConfigurationError as exc:  # unknown operator or geometry
        raise CorruptHeaderError(f"{path}: {exc}") from exc
