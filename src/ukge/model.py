"""Embedding model: parameters, scoring, and checkpoint (de)serialisation.

Entities are free parameters in ``R^d`` (space block then time block) that
:func:`ukge.geometry.phi` carries onto the pseudo-hyperboloid; each also
carries a head-role and a tail-role bias scalar.  Relations act through the
O(d) operators of :mod:`ukge.operators`.  A triple (h, r, t) scores

    s = -dist(f_r(phi(e_h)), phi(e_t))^2 + b_h + b_t + delta,

with ``delta`` a global margin.  The ``geometry="euclidean"`` variant is a
baseline at identical parameter count: the same Givens stages act on the raw
parameter vectors, boosts are pinned to zero, and the distance is plain
Euclidean.

Checkpoints are a small binary format: magic ``UKGE``, a little-endian u32
format version, a u32 header length, a canonical JSON header, then raw
little-endian float64 payload arrays in the order entities, biases, theta,
phi, mu, delta.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import geometry, operators
from .errors import (
    ConfigurationError,
    CorruptHeaderError,
    DimensionError,
    IdLookupError,
    SignatureMismatchError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .geometry import EPS_TIME, Signature
from .operators import RelationParams

MAGIC = b"UKGE"
FORMAT_VERSION = 1

GEOMETRIES = ("ultra", "euclidean")


@dataclass
class Model:
    """All trainable state of one embedding run."""

    sig: Signature
    entities: np.ndarray  # (n_entities, d) free parameters, space then time
    biases: np.ndarray  # (n_entities, 2): column 0 head-role, column 1 tail-role
    theta: np.ndarray  # (n_relations, d/2) U-stage angles
    phi: np.ndarray  # (n_relations, d/2) V-stage angles
    mu: np.ndarray  # (n_relations, q) boost magnitudes
    delta: float  # global margin
    operator: str = "rotref"
    geometry: str = "ultra"
    entity_digest: str = ""
    relation_digest: str = ""

    def __post_init__(self):
        if self.operator not in operators.OPERATOR_MODES:
            raise ConfigurationError(f"unknown operator flavour {self.operator!r}")
        if self.geometry not in GEOMETRIES:
            raise ConfigurationError(f"unknown geometry {self.geometry!r}")
        n, d = self.entities.shape
        half = self.sig.d // 2
        if d != self.sig.d:
            raise DimensionError("entities array width disagrees with signature")
        if self.biases.shape != (n, 2):
            raise DimensionError("biases must have shape (n_entities, 2)")
        r = self.theta.shape[0]
        if self.theta.shape != (r, half) or self.phi.shape != (r, half):
            raise DimensionError("Givens angle arrays must have shape (n_relations, d/2)")
        if self.mu.shape != (r, self.sig.q):
            raise DimensionError("mu must have shape (n_relations, q)")

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.theta.shape[0]

    def relation_params(self, r: int) -> RelationParams:
        _check_id(r, self.n_relations, "relation")
        return RelationParams(self.theta[r], self.phi[r], self.mu[r])

    def clone(self) -> "Model":
        return replace(
            self,
            entities=self.entities.copy(),
            biases=self.biases.copy(),
            theta=self.theta.copy(),
            phi=self.phi.copy(),
            mu=self.mu.copy(),
        )


def _check_id(i: int, n: int, kind: str) -> None:
    if not 0 <= int(i) < n:
        raise IdLookupError(f"{kind} id {i} out of range [0, {n})")


def dictionary_digest(names: list[str]) -> str:
    """Stable digest of a name dictionary in id order."""
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()


def apply_time_guard(entities: np.ndarray, sig: Signature) -> None:
    """In place: lift any time component whose norm fell below the floor."""
    time = entities[:, sig.p :]
    small = np.linalg.norm(time, axis=-1) < EPS_TIME
    if np.any(small):
        time[small, 0] += EPS_TIME


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
    """
    if n_entities < 1 or n_relations < 1:
        raise ConfigurationError("need at least one entity and one relation")
    rng = np.random.default_rng(seed)
    # fixed draw order: entity space, entity time, theta, phi, mu
    space = rng.normal(0.0, 0.01, (n_entities, sig.p))
    time = rng.normal(0.0, 0.01, (n_entities, sig.q))
    time[:, 0] += 1.0
    half = sig.d // 2
    theta = rng.uniform(-np.pi, np.pi, (n_relations, half))
    phi = rng.uniform(-np.pi, np.pi, (n_relations, half))
    mu = rng.normal(0.0, 0.01, (n_relations, sig.q))
    if geometry == "euclidean":
        mu = np.zeros_like(mu)
    entities = np.concatenate([space, time], axis=1)
    apply_time_guard(entities, sig)
    return Model(
        sig=sig,
        entities=entities,
        biases=np.zeros((n_entities, 2)),
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
    """The model's parameter families by name, ``delta`` as a 0-d scalar."""
    return {
        "entities": m.entities,
        "biases": m.biases,
        "theta": m.theta,
        "phi": m.phi,
        "mu": m.mu,
        "delta": np.float64(m.delta),
    }


def score_triples(m: Model, h, r, t, leaves: dict | None = None):
    """Scores of the triples given by broadcastable 1-d id arrays ``h, r, t``.

    ``leaves`` maps the names of :func:`parameters` to autodiff tensors and
    makes the result differentiable; without it the model's own arrays are
    read.  Training, evaluation and predict all score through here.  The
    head's entity map and relation operator run once per row of ``h`` and
    ``r``, so a one-against-all query passes those with length 1.
    """
    params = parameters(m) if leaves is None else leaves
    z_h = ad.take(params["entities"], h)
    z_t = ad.take(params["entities"], t)
    th = ad.take(params["theta"], r)
    ph = ad.take(params["phi"], r)
    if m.geometry == "ultra":
        head = geometry.phi(z_h, m.sig)
        mu = ad.take(params["mu"], r)
        moved = operators.relation_transform(th, ph, mu, head, m.sig, m.operator)
        tails = geometry.phi(z_t, m.sig)
        dist = geometry.dist_manhattan(moved, tails, m.sig)
    else:
        # Euclidean baseline: same stages on raw vectors, boosts pinned to 0
        mu0 = np.zeros(np.shape(r) + (m.sig.q,))
        moved = operators.relation_transform(th, ph, mu0, z_h, m.sig, m.operator)
        dist = ad.norm(moved - z_t, axis=-1)
    b_h = ad.take(params["biases"][:, 0], h)
    b_t = ad.take(params["biases"][:, 1], t)
    return -dist * dist + b_h + b_t + params["delta"]


def score_candidates(m: Model, h: int, r: int, candidates=None) -> np.ndarray:
    """Scores of (h, r, e) for every candidate tail ``e`` (default: all)."""
    _check_id(h, m.n_entities, "entity")
    _check_id(r, m.n_relations, "relation")
    if candidates is None:
        cand = np.arange(m.n_entities)
    else:
        cand = np.asarray(candidates, dtype=np.int64)
        if cand.size and (cand.min() < 0 or cand.max() >= m.n_entities):
            raise IdLookupError("candidate entity id out of range")
    return score_triples(m, np.array([h]), np.array([r]), cand)


def score(m: Model, h: int, r: int, t: int) -> float:
    """Score of one triple (see module docstring for the formula)."""
    _check_id(t, m.n_entities, "entity")
    return float(score_candidates(m, h, r, np.array([t]))[0])


# --- checkpoints -----------------------------------------------------------------


def save(m: Model, path: str) -> None:
    """Write a deterministic binary checkpoint (see module docstring)."""
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
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    for arr in (m.entities, m.biases, m.theta, m.phi, m.mu):
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    buf.write(np.float64(m.delta).astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load(path: str, expected_sig: Signature | None = None) -> Model:
    """Read a checkpoint, verifying magic, version, and payload size."""
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
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
        sig = Signature(int(header["p"]), int(header["q"]), float(header["alpha"]))
        n_e = int(header["n_entities"])
        n_r = int(header["n_relations"])
        operator = header["operator"]
        geom = header["geometry"]
        entity_digest = header["entity_digest"]
        relation_digest = header["relation_digest"]
    except (KeyError, ValueError, ConfigurationError, UnicodeDecodeError) as exc:
        raise CorruptHeaderError(f"{path}: malformed header ({exc})") from exc
    if expected_sig is not None and sig != expected_sig:
        raise SignatureMismatchError(
            f"{path}: checkpoint signature ({sig.p},{sig.q},alpha={sig.alpha}) "
            f"!= requested ({expected_sig.p},{expected_sig.q},"
            f"alpha={expected_sig.alpha})"
        )
    half = sig.d // 2
    shapes = [
        ("entities", (n_e, sig.d)),
        ("biases", (n_e, 2)),
        ("theta", (n_r, half)),
        ("phi", (n_r, half)),
        ("mu", (n_r, sig.q)),
        ("delta", (1,)),
    ]
    need = sum(int(np.prod(s)) for _, s in shapes) * 8
    payload = raw[12 + hlen :]
    if len(payload) < need:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, header promises {need}"
        )
    if len(payload) > need:
        raise CorruptHeaderError(f"{path}: {len(payload) - need} trailing bytes")
    arrays = {}
    offset = 0
    for name, shape in shapes:
        count = int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += count * 8
    return Model(
        sig=sig,
        entities=arrays["entities"],
        biases=arrays["biases"],
        theta=arrays["theta"],
        phi=arrays["phi"],
        mu=arrays["mu"],
        delta=float(arrays["delta"][0]),
        operator=operator,
        geometry=geom,
        entity_digest=entity_digest,
        relation_digest=relation_digest,
    )
