"""Relation operators: block Givens stages and hyperbolic rotations.

A relation acts on ambient points through three O(d) stages,

    f(x) = U_theta( H_mu( V_phi(x) ) ),

where ``U`` and ``V`` are block-diagonal 2x2 Givens transforms over
consecutive coordinate pairs (rotations preserve orientation, reflections
flip it and are involutions) and ``H`` couples space coordinate ``i`` with
time coordinate ``p + i`` through a cosh/sinh shear.  All three stages
preserve the signature scalar product, so they map the pseudo-hyperboloid to
itself; :func:`block_orthogonal_apply` is a Givens stage and
:func:`hyper_rot_apply` the boost.  The operator family comes in three
flavours: the default uses a rotation stage for ``U`` and a reflection
stage for ``V``; the ablation variants use rotations or reflections for
both stages.

Dense d x d realisations are only materialised for verification
(:func:`as_dense`, :func:`j_orth_defect`); the apply path touches O(d)
elements per point, which :func:`count_operations` blocks, nested or not,
measure.  Each stage is computed once, on coordinate-major points, one
row per coordinate, by :func:`transform_columns`, which every score
(:func:`ukge.model.move_heads`) runs and which returns their
intermediates with its value; training gets their gradients from
:func:`transform_columns_vjp`.  The public stages run the same kernels
on points laid out by :func:`ukge.geometry.to_columns`; the tests hold
them to the row-wise copies that the tape differentiates
(``tests/tape_oracle.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .geometry import Signature, batch_of, to_columns, to_rows

ROTATION = "rotation"
REFLECTION = "reflection"

#: operator flavour -> (U-stage mode, V-stage mode)
OPERATOR_MODES = {
    "rotref": (ROTATION, REFLECTION),
    "rot": (ROTATION, ROTATION),
    "ref": (REFLECTION, REFLECTION),
}


# --- element-operation accounting -------------------------------------------

#: the counters of the open :func:`count_operations` blocks, outermost first
_counters: list = []


class OperationCounter:
    """Tally of array elements written by the apply-path primitives."""

    def __init__(self):
        self.elements = 0


@contextmanager
def count_operations():
    """Context manager measuring elements touched by apply-path calls.
    Blocks nest: every open block counts, and its counter keeps its tally
    after it closes."""
    counter = OperationCounter()
    _counters.append(counter)
    try:
        yield counter
    finally:
        _counters.remove(counter)


def _count(n: int) -> None:
    for counter in _counters:
        counter.elements += int(n)


# --- parameters ---------------------------------------------------------------


@dataclass
class RelationParams:
    """Angles and boosts of one relation operator.

    ``theta`` and ``phi`` each hold (p+q)/2 Givens angles (for the U and V
    stages respectively); ``mu`` holds the q hyperbolic rotation magnitudes.
    Total parameter count is therefore d + q.
    """

    theta: np.ndarray
    phi: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        for name, arr in (("theta", self.theta), ("phi", self.phi), ("mu", self.mu)):
            if arr.ndim != 1:
                raise DimensionError(f"RelationParams.{name} must be 1-d")
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"RelationParams.{name} must be finite")

    @property
    def n_params(self) -> int:
        return self.theta.size + self.phi.size + self.mu.size

    def validate(self, sig: Signature) -> None:
        half = sig.d // 2
        if self.theta.size != half or self.phi.size != half:
            raise DimensionError(
                f"expected {half} Givens angles per stage for signature "
                f"({sig.p},{sig.q}), got {self.theta.size}/{self.phi.size}"
            )
        if self.mu.size != sig.q:
            raise DimensionError(
                f"expected {sig.q} boost magnitudes, got {self.mu.size}"
            )

    @classmethod
    def random(cls, sig: Signature, rng: np.random.Generator):
        """Angles uniform on (-pi, pi), boosts standard normal."""
        half = sig.d // 2
        return cls(
            theta=rng.uniform(-np.pi, np.pi, half),
            phi=rng.uniform(-np.pi, np.pi, half),
            mu=rng.normal(0.0, 1.0, sig.q),
        )


def relation_param_count(sig: Signature) -> int:
    """Parameters per relation: (p+q)/2 + (p+q)/2 + q = d + q."""
    return sig.d + sig.q


# --- the three stages ----------------------------------------------------------


def _givens(c, s, a, b, mode: str):
    """The 2x2 Givens blocks with cosines ``c`` and sines ``s`` applied to
    the pairs (a, b): rotation blocks give ``(a c - b s, a s + b c)``,
    reflection blocks ``(a c + b s, a s - b c)``."""
    if mode == ROTATION:
        a2, b2 = c * a - s * b, s * a + c * b
    else:
        a2, b2 = c * a + s * b, s * a - c * b
    _count(2 * np.size(c) + 2 * np.size(a2) + 2 * np.size(a))
    return a2, b2


def _givens_columns(c, s, v, mode: str) -> np.ndarray:
    """A Givens stage on coordinate-major points ``v`` of shape (d, N): rows
    ``2i`` and ``2i + 1`` pair, with cosines and sines of shape (d/2, N)."""
    out = np.empty(v.shape)
    out[0::2], out[1::2] = _givens(c, s, v[0::2], v[1::2], mode)
    return out


def _givens_columns_vjp(c, s, v, g, mode: str):
    """Gradients of angles and input of :func:`_givens_columns` given the
    output gradient ``g``, with the tape's products and sums."""
    a, b = v[0::2], v[1::2]
    ga, gb = g[0::2], g[1::2]
    g_v = np.empty(v.shape)
    out_a, out_b = g_v[0::2], g_v[1::2]
    np.multiply(ga, c, out=out_a)
    out_a += gb * s
    if mode == ROTATION:
        g_c = ga * a + gb * b
        g_s = gb * a - ga * b
        np.multiply(gb, c, out=out_b)
        out_b -= ga * s
    else:
        g_c = ga * a - gb * b
        g_s = ga * b + gb * a
        np.multiply(ga, s, out=out_b)
        out_b -= gb * c
    g_s *= c
    g_s -= g_c * s
    return g_s, g_v


def require_even(sig: Signature) -> None:
    """Raise :class:`ConfigurationError` unless ``p`` and ``q`` are even: the
    Givens stages pair consecutive coordinates, space and time apart."""
    if sig.p % 2 or sig.q % 2:
        raise ConfigurationError(
            f"relation operators need even p and q, got p={sig.p}, q={sig.q}"
        )


def block_orthogonal_apply(angles, x, sig: Signature, mode: str):
    """Apply the block Givens stage (see :func:`_givens`) over consecutive
    pairs of full ambient points; the batch axes of ``angles`` and ``x``
    broadcast.

    Requires ``p`` and ``q`` even; because pairing is consecutive and ``p`` is
    even, the space and time blocks are handled in one pass — the first p/2
    angles act on space pairs and the remaining q/2 on time pairs.
    """
    if mode not in (ROTATION, REFLECTION):
        raise ConfigurationError(f"unknown Givens mode {mode!r}")
    require_even(sig)
    batch = batch_of("block_orthogonal_apply", (angles, sig.d // 2), (x, sig.d))
    a = to_columns(angles, batch)
    return to_rows(batch, _givens_columns(np.cos(a), np.sin(a), to_columns(x, batch), mode))


def hyper_rot_apply(mu, x, sig: Signature):
    """Hyperbolic rotation: shear space dim ``i`` with time dim ``p + i``.

    Each coupled pair transforms by ``[[cosh m, sinh m], [sinh m, cosh m]]``;
    space dims beyond ``q`` pass through unchanged.  The batch axes of
    ``mu`` and ``x`` broadcast.
    """
    batch = batch_of("hyper_rot_apply", (mu, sig.q), (x, sig.d))
    m = to_columns(mu, batch)
    return to_rows(batch, _boost_columns(np.cosh(m), np.sinh(m), to_columns(x, batch), sig))


def _shear(ch, sh, a, mid, t, axis: int):
    """The boosted blocks ``(ch a + sh t, mid, sh a + ch t)`` joined along
    ``axis``: the coupled pairs (a, t) and the rows ``mid`` left as they are."""
    a2, t2 = ch * a + sh * t, sh * a + ch * t
    _count(2 * np.size(ch) + 2 * np.size(a2) + np.size(a) + np.size(mid) + np.size(t))
    return np.concatenate([a2, mid, t2], axis=axis)


def _boost_columns(ch, sh, x, sig: Signature) -> np.ndarray:
    """The boost on coordinate-major points ``x`` of shape (d, N): rows
    ``i`` and ``p + i`` couple, with ``cosh`` and ``sinh`` of shape (q, N)."""
    return _shear(ch, sh, x[: sig.q], x[sig.q : sig.p], x[sig.p :], 0)


def _boost_columns_vjp(ch, sh, x, g, sig: Signature, mu_grad: bool):
    """Gradients of magnitudes (None unless ``mu_grad``) and input of
    :func:`_boost_columns` given the output gradient ``g``, with the tape's
    products and sums.  The input gradient is written into ``g``'s own
    buffer: the untouched middle rows are their gradient already."""
    a, t = x[: sig.q], x[sig.p :]
    ga, gt = g[: sig.q], g[sig.p :]
    g_mu = None
    if mu_grad:
        g_mu = (ga * a + gt * t) * sh
        g_mu += (ga * t + gt * a) * ch
    g_a = ga * ch + gt * sh
    gt[...] = ga * sh + gt * ch
    ga[...] = g_a
    return g_mu, g


def relation_transform(theta, phi, mu, x, sig: Signature, operator: str = "rotref"):
    """Apply ``U_theta . H_mu . V_phi`` to points, in O(d) per point.

    ``theta``, ``phi`` and ``mu`` are raw parameter arrays whose batch axes
    broadcast with the points'; ``operator`` selects the stage modes.  This
    is :func:`transform_columns` with one relation per point.
    """
    if operator not in OPERATOR_MODES:
        raise ConfigurationError(f"unknown operator flavour {operator!r}")
    require_even(sig)
    half = sig.d // 2
    batch = batch_of("relation_transform", (theta, half), (phi, half), (mu, sig.q), (x, sig.d))
    params = (to_columns(v, batch).T for v in (theta, phi, mu))
    rows = np.arange(np.prod(batch, dtype=int))
    return to_rows(batch, transform_columns(*params, rows, to_columns(x, batch), sig, operator)[0])


def transform_columns(theta, phi, mu, rows, x, sig: Signature, operator: str):
    """:func:`relation_transform` of coordinate-major points ``x`` of shape
    (d, N) under the relations ``rows``, given per-relation parameter
    arrays, with the intermediates :func:`transform_columns_vjp` reads:
    each stage's input and the cosines and sines of its angles or boosts.

    The cosines and sines are taken of the smaller of the relation table
    and the gathered columns; being elementwise, they carry the same bits
    either way.
    """
    u_mode, v_mode = OPERATOR_MODES[operator]
    few = np.size(rows) < len(theta)

    def gather(fn, values):
        return fn(values[rows].T) if few else np.take(fn(values).T, rows, axis=1)

    cv, sv = gather(np.cos, phi), gather(np.sin, phi)
    y1 = _givens_columns(cv, sv, x, v_mode)
    ch, sh = gather(np.cosh, mu), gather(np.sinh, mu)
    y2 = _boost_columns(ch, sh, y1, sig)
    cu, su = gather(np.cos, theta), gather(np.sin, theta)
    return _givens_columns(cu, su, y2, u_mode), ((cv, sv, x), (ch, sh, y1), (cu, su, y2))


def transform_columns_vjp(saved, g, sig: Signature, operator: str, mu_grad: bool):
    """Per-column gradients ``(theta, phi, mu, x)`` of
    :func:`transform_columns` given the gradient ``g`` of its output, stage
    by stage in reverse: U, H, V.  Each stage replays the products and sums
    that the autodiff tape records when it differentiates :func:`_givens`
    and :func:`_shear`, so the result matches the tape bit for bit.  Boosts
    held constant (the Euclidean baseline pins them to 0) take
    ``mu_grad=False`` and get None."""
    u_mode, v_mode = OPERATOR_MODES[operator]
    (cv, sv, x), (ch, sh, y1), (cu, su, y2) = saved
    g_theta, g = _givens_columns_vjp(cu, su, y2, g, u_mode)
    g_mu, g = _boost_columns_vjp(ch, sh, y1, g, sig, mu_grad)
    g_phi, g = _givens_columns_vjp(cv, sv, x, g, v_mode)
    return g_theta, g_phi, g_mu, g


def relation_apply(r: RelationParams, x, sig: Signature, operator: str = "rotref"):
    """Apply one relation's operator to points (see :func:`relation_transform`)."""
    r.validate(sig)
    return relation_transform(r.theta, r.phi, r.mu, x, sig, operator)


# --- dense verification helpers -------------------------------------------------


def as_dense(r: RelationParams, sig: Signature, operator: str = "rotref") -> np.ndarray:
    """Materialise the d x d matrix of a relation operator.

    Column ``i`` is the image of basis vector ``e_i``; this is O(d^2) and
    intended for verification only.
    """
    basis = np.eye(sig.d)
    return np.asarray(relation_apply(r, basis, sig, operator)).T


def signature_matrix(sig: Signature) -> np.ndarray:
    """Diagonal metric matrix J = diag(I_p, -I_q)."""
    return np.diag(np.concatenate([np.ones(sig.p), -np.ones(sig.q)]))


def j_orth_defect(matrix: np.ndarray, sig: Signature) -> float:
    """Max-norm deviation of ``M^T J M`` from ``J``."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (sig.d, sig.d):
        raise DimensionError(f"j_orth_defect: expected a {sig.d}x{sig.d} matrix")
    j = signature_matrix(sig)
    return float(np.max(np.abs(m.T @ j @ m - j)))
