"""Embedding model: parameters, scoring, and checkpoint (de)serialisation.

Entities are free parameters in ``R^d`` (space block then time block) that
:func:`ukge.geometry.phi` carries onto the pseudo-hyperboloid; each also
carries a head-role and a tail-role bias scalar.  :func:`init` lifts their
time norms to the floor with :func:`ukge.geometry.apply_time_guard`, as
``ultra`` training does after each step.  Relations act through the O(d)
operators of :mod:`ukge.operators`.  A triple (h, r, t) scores

    s = -dist(f_r(phi(e_h)), phi(e_t))^2 + b_h + b_t + delta,

with ``delta`` a global margin.  Ranking scores one query against all
candidate tails: :func:`candidate_tails` lays the tails' terms out
coordinate-major once, and :func:`score_candidates` gets each candidate the
bits of the row-wise score that training computes.  The
``geometry="euclidean"`` variant is a baseline at identical parameter
count: the same Givens stages act on the raw parameter vectors, boosts are
pinned to zero, and the distance is plain Euclidean.

Checkpoints are a small binary format: magic ``UKGE``, a little-endian u32
format version, a u32 header length, a canonical JSON header, then raw
little-endian float64 payload arrays in :func:`layout` order.  Loading
checks every header field and rejects non-finite payloads; saving replaces
the target atomically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
import uuid
from concurrent.futures import ThreadPoolExecutor
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
from .geometry import Signature, apply_time_guard

MAGIC = b"UKGE"
FORMAT_VERSION = 1

GEOMETRIES = ("ultra", "euclidean")


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
    entities: np.ndarray  # free parameters, space then time
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

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.theta.shape[0]

    def clone(self) -> "Model":
        arrays = {k: v.copy() for k, v in parameters(self).items() if k != "delta"}
        return replace(self, **arrays)


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


def check_store(m: Model, store) -> None:
    """Raise :class:`IdLookupError` when ``store`` numbers more entities or
    relations than ``m`` has rows for, or a triple of a split holds an id
    outside the store's dictionaries."""
    if store.n_entities > m.n_entities or store.n_relations > m.n_relations:
        raise IdLookupError(
            f"store has {store.n_entities} entities / {store.n_relations} "
            f"relations, model {m.n_entities} / {m.n_relations}"
        )
    for split in (store.train, store.valid, store.test):
        check_ids(split[:, ::2], store.n_entities, "entity")
        check_ids(split[:, 1], store.n_relations, "relation")


def dictionary_digest(names: list[str]) -> str:
    """Stable digest of a name dictionary in id order."""
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()


def check_margin(delta: float) -> None:
    """Raise :class:`ConfigurationError` unless the margin ``delta`` is finite."""
    if not math.isfinite(delta):
        raise ConfigurationError(f"margin must be finite, got {delta}")


def check_threads(threads: int) -> None:
    """Raise :class:`ConfigurationError` unless ``threads`` is at least 1."""
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")


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
    A non-finite ``delta`` or a negative ``seed`` raises
    :class:`ConfigurationError`.
    """
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
    entities = np.concatenate([space, time], axis=1)
    apply_time_guard(entities, sig)
    return Model(
        sig=sig,
        entities=entities,
        biases=np.zeros(shapes["biases"]),
        theta=theta,
        phi=phi,
        mu=mu,
        delta=float(delta),
        operator=operator,
        geometry=geometry,
        entity_digest=entity_digest,
        relation_digest=relation_digest,
    )


# --- scoring -------------------------------------------------------------------


def parameters(m: Model) -> dict[str, np.ndarray]:
    """The model's parameter families by name in :func:`layout` order,
    ``delta`` as a 0-d scalar."""
    return {
        name: np.float64(m.delta) if name == "delta" else getattr(m, name)
        for name in layout(m.sig, m.n_entities, m.n_relations)
    }


def candidate_tails(m: Model, candidates=None) -> tuple:
    """``(side, tail biases)`` of the candidate tails (default: all).  For
    ultra, ``side`` is the :func:`geometry.point_terms_columns` of their
    free parameters, coordinate-major, built from one transposed copy of
    their rows; for euclidean it is their raw vectors.  It is the same for
    every query, so :func:`ukge.evaluation.evaluate` builds it once per
    call."""
    if candidates is None:
        cand = slice(None)
    else:
        cand = np.asarray(candidates)
        check_ids(cand, m.n_entities, "entity")
        cand = cand.astype(np.int64, copy=False)
    if m.geometry == "ultra":
        side = geometry.point_terms_columns(m.entities.T[:, cand].copy(), m.sig)
    else:
        side = m.entities[cand]
    return side, m.biases[cand, 1]


def score_candidates(m: Model, h: int, r: int, *, tails=None) -> np.ndarray:
    """Scores ``s = -d^2 + b_h + b_t + delta`` of (h, r, e) for every tail
    ``e`` of ``tails`` (:func:`candidate_tails`, default: all entities).

    The head is moved by phi, then the relation operator (ultra), or by the
    operator on its raw vector with the boosts pinned to 0 (euclidean).  The
    training kernel's forward pass (:mod:`ukge.training`) runs the same
    stages on whole batches, so one triple gets the same bits from both.
    """
    check_ids(h, m.n_entities, "entity")
    check_ids(r, m.n_relations, "relation")
    side, b_t = candidate_tails(m) if tails is None else tails
    z_h, th, ph = m.entities[[h]], m.theta[[r]], m.phi[[r]]
    if m.geometry == "ultra":
        head = geometry.phi(z_h, m.sig)
        moved = operators.relation_transform(th, ph, m.mu[[r]], head, m.sig, m.operator)
        dist = geometry.manhattan_legs_columns(geometry.point_terms(moved, m.sig), side, m.sig)
    else:
        mu0 = np.zeros((1, m.sig.q))
        moved = operators.relation_transform(th, ph, mu0, z_h, m.sig, m.operator)
        dist = geometry.norm(moved - side)
    return -dist * dist + m.biases[h, 0] + b_t + m.delta


def score(m: Model, h: int, r: int, t: int) -> float:
    """Score of one triple (see module docstring for the formula)."""
    return float(score_candidates(m, h, r, tails=candidate_tails(m, [t]))[0])


def map_row_blocks(fn, n_rows: int, threads: int) -> list:
    """``fn(rows)`` for each of ``min(threads, n_rows)`` contiguous row slices
    (``np.array_split`` sizes), results in block order; the blocks run on a
    thread pool, a single block inline.  ``threads`` below 1 raises
    :class:`ConfigurationError` (see :func:`check_threads`)."""
    check_threads(threads)
    k = max(1, min(threads, n_rows))
    if k == 1:
        return [fn(slice(0, n_rows))]
    blocks = [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(n_rows), k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, blocks))


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
    header = {
        "p": m.sig.p,
        "q": m.sig.q,
        "alpha": m.sig.alpha,
        "n_entities": m.n_entities,
        "n_relations": m.n_relations,
        "operator": m.operator,
        "geometry": m.geometry,
        "entity_digest": m.entity_digest,
        "relation_digest": m.relation_digest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _check_finite(parameters(m), path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
            fh.write(blob)
            for arr in parameters(m).values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
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
    """Read a checkpoint, verifying magic, version, header, payload size and
    that every payload value is finite."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CorruptHeaderError(f"{path}: not a UKGE checkpoint")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    (hlen,) = struct.unpack_from("<I", raw, 8)
    if len(raw) < 12 + hlen:
        raise CorruptHeaderError(f"{path}: header block cut short")
    sig, header = _read_header(raw[12 : 12 + hlen], path)
    shapes = layout(sig, header.pop("n_entities"), header.pop("n_relations"))
    need = sum(math.prod(s) for s in shapes.values()) * 8
    payload = raw[12 + hlen :]
    if len(payload) < need:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, header promises {need}"
        )
    if len(payload) > need:
        raise CorruptHeaderError(f"{path}: {len(payload) - need} trailing bytes")
    arrays = {}
    offset = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        arrays[name] = (
            np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += count * 8
    _check_finite(arrays, path)
    try:
        return Model(sig=sig, delta=float(arrays.pop("delta")), **arrays, **header)
    except ConfigurationError as exc:  # unknown operator or geometry
        raise CorruptHeaderError(f"{path}: {exc}") from exc
