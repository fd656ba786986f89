"""Pseudo-hyperboloid geometry.

Points live in ``R^{p,q}``: the first ``p`` coordinates carry positive metric
signature ("space"), the last ``q`` carry negative signature ("time"), and the
scalar product is

    <x, y>_q = sum_{i<=p} x_i y_i - sum_{j>p} x_j y_j.

The manifold of interest is the pseudo-hyperboloid of radius ``alpha``,

    U = { x : <x, x>_q = -alpha^2 },

which degenerates to the hyperbolic hyperboloid for ``q = 1`` and to a sphere
for ``p = 0``.  Free optimisation parameters are points of
``R^p x (R^q minus 0)``; :func:`phi` carries them onto the manifold by rescaling
the time component, and :func:`psi` / :func:`psi_inv` factor that map through
an intermediate "space x sphere" representation.  :data:`EPS_TIME` floors
the time norm: :func:`phi` bumps a row below it by :func:`floor_shift`, and
:func:`apply_time_guard` lifts the same rows of a parameter table in place.

:func:`dist_manhattan` takes the cheaper of two routes, each a great-circle
arc between time directions at fixed space component plus a hyperboloid
geodesic between conic sections, with both legs in closed form.  The conic
projection :func:`project_conic` and the legs :func:`dist_sphere` and
:func:`dist_hyper` spell the same construction out step by step, checking
their preconditions; they are the reference the closed form is tested against.

All functions are plain numpy, with point coordinates along the last axis
and batch axes in front, except the ``*_columns`` functions of scoring,
which the training kernel and one-against-all evaluation share: they keep
points coordinate-major, one row per coordinate, and :func:`dot_columns`
sums their dot products over whole rows in the order ``np.sum`` adds one
C-ordered row, so each point gets the bits the row-wise functions give
it.  Scoring takes a point's terms from :func:`terms_columns` (points on
the manifold) or :func:`point_terms_columns` (free parameters) and the
distance from :func:`manhattan_legs_columns`; the last two keep, when
asked, the intermediates that the kernel's vector-Jacobian products
(:func:`phi_columns_vjp`, :func:`point_terms_columns_vjp`,
:func:`manhattan_legs_columns_vjp`) read.  The row-wise :func:`phi` and
:func:`dist_manhattan` return their values alone: they are the reference
that the autodiff tape differentiates and the tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePointError,
    DimensionError,
    PreconditionError,
)

#: Absolute tolerance on |<x,x>_q + alpha^2| for manifold membership checks.
TOL_MANIFOLD = 1e-9

#: Lower bound enforced on the norm of free time components.
EPS_TIME = 1e-8

# Tolerances for precondition checks on the reference distance legs.
_SPHERE_RTOL = 1e-8  # |norm(u) - alpha| <= alpha * _SPHERE_RTOL in psi_inv
_SPACE_ATOL = 1e-8  # shared-space check in dist_sphere
_PARALLEL_RTOL = 1e-8  # same-direction check in dist_hyper


@dataclass(frozen=True)
class Signature:
    """Ambient signature (p, q) and manifold radius alpha.

    ``p`` counts space dimensions, ``q`` time dimensions; ``p >= q >= 1`` and
    ``alpha > 0``.  Relation operators additionally require ``p`` and ``q``
    even, a rule that :func:`ukge.operators.require_even` states.
    """

    p: int
    q: int
    alpha: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ConfigurationError("signature dimensions must be integers")
        if self.q < 1 or self.p < self.q:
            raise ConfigurationError(
                f"signature requires p >= q >= 1, got p={self.p}, q={self.q}"
            )
        check_alpha(self.alpha)

    @property
    def d(self) -> int:
        """Ambient dimension p + q."""
        return self.p + self.q


def check_alpha(alpha: float) -> None:
    """Raise :class:`ConfigurationError` unless the radius ``alpha`` is
    positive and finite."""
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ConfigurationError(f"alpha must be positive, got {alpha}")


def norm(x, keepdims: bool = False):
    """Euclidean norm ``sqrt(sum(x * x))`` along the last axis.  Not
    ``np.linalg.norm``, which rounds differently."""
    return np.sqrt(np.sum(x * x, axis=-1, keepdims=keepdims))


#: numpy's pairwise summation sums a row of 8 to this many elements with
#: eight accumulators, and halves a longer row
_PAIRWISE_BLOCK = 128


def dot_columns(x, y):
    """``np.sum(x.T * y.T, axis=-1)``, bit for bit, for coordinate-major
    operands: ``x`` and ``y`` are 2-d arrays with one row per coordinate,
    ``k`` rows each, and ``N`` or 1 columns.

    The products of a column are added in the order numpy's pairwise
    summation adds one C-ordered row: below 8 in sequence from ``+0.0``; up
    to :data:`_PAIRWISE_BLOCK`, eight partial sums over the coordinates
    ``j mod 8``, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then
    the rest in order and ``+0.0`` last; above it, each half alike.  Only a
    NaN's sign may differ, as numpy's compiled loop picks which of two NaNs
    an addition keeps.  (``np.sum`` of an F-ordered product would add in
    sequence instead.)  ``tests/test_geometry.py`` pins this order to the
    installed numpy's.
    """
    k, n = x.shape
    if n == 1:
        n = y.shape[1]
    if n == 1:  # one column: a C-ordered row, summed by np.sum itself
        return np.sum(x.T * y.T, axis=-1)
    if k > _PAIRWISE_BLOCK:
        half = k // 2 - (k // 2) % 8
        return dot_columns(x[:half], y[:half]) + dot_columns(x[half:], y[half:])
    prod = np.empty(n)

    def term(j):
        return np.multiply(x[j], y[j], out=prod)

    if k < 8:
        out = np.zeros(prod.shape)
        for j in range(k):
            out += term(j)
        return out
    acc = [x[j] * y[j] for j in range(8)]
    end = k - k % 8
    for j in range(8, end):
        acc[j % 8] += term(j)
    r0, r1, r2, r3, r4, r5, r6, r7 = acc
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) in place: acc holds fresh arrays
    r0 += r1
    r2 += r3
    r0 += r2
    r4 += r5
    r6 += r7
    r4 += r6
    out = r0 + r4
    for j in range(end, k):
        out += term(j)
    out += 0.0  # the reduction's start value: a -0.0 sum becomes +0.0
    return out


def _check_last_dim(x, expect: int, name: str) -> None:
    shape = np.shape(x)
    if len(shape) == 0 or shape[-1] != expect:
        raise DimensionError(f"{name}: expected last dimension {expect}, got shape {shape}")


def split_spacetime(x, sig: Signature):
    """Split points into (space, time) components along the last axis."""
    _check_last_dim(x, sig.d, "split_spacetime")
    return x[..., : sig.p], x[..., sig.p :]


def qdot(x, y, sig: Signature):
    """Scalar product of signature (p, q): space dot minus time dot."""
    _check_last_dim(x, sig.d, "qdot")
    _check_last_dim(y, sig.d, "qdot")
    xs, xt = x[..., : sig.p], x[..., sig.p :]
    ys, yt = y[..., : sig.p], y[..., sig.p :]
    return np.sum(xs * ys, axis=-1) - np.sum(xt * yt, axis=-1)


def space_radius(space, sig: Signature):
    """Radius ``sqrt(alpha^2 + |space|^2)`` of the time sphere over ``space``.

    This is the single shared implementation used by :func:`phi`,
    :func:`psi_inv`, :func:`dist_manhattan` (as the sphere-leg radius) and the
    reference legs :func:`project_conic` and :func:`dist_sphere`, so that
    coincident inputs produce bitwise-identical radii.
    """
    return np.sqrt(np.sum(space * space, axis=-1) + sig.alpha * sig.alpha)


def manifold_defect(x, sig: Signature) -> np.ndarray:
    """Absolute deviation ``| <x,x>_q + alpha^2 |`` (diagnostic, plain arrays)."""
    v = np.asarray(x, dtype=np.float64)
    _check_last_dim(v, sig.d, "manifold_defect")
    return np.abs(qdot(v, v, sig) + sig.alpha * sig.alpha)


def on_manifold(x, sig: Signature):
    """Whether ``x`` satisfies the manifold equation within :data:`TOL_MANIFOLD`."""
    return manifold_defect(x, sig) <= TOL_MANIFOLD


# --- diffeomorphism with the free parameter space ---------------------------


def psi(x, sig: Signature):
    """Map a manifold point to its (space, sphere-time) factorisation.

    Returns the pair ``(s, alpha * t / |t|)``; the second factor lives on the
    radius-``alpha`` sphere in the time block.
    """
    s, t = split_spacetime(x, sig)
    tn = np.asarray(norm(t))
    if np.any(tn == 0.0) or not np.all(np.isfinite(tn)):
        raise DegeneratePointError("psi: zero-norm time component")
    unit = t / norm(t, keepdims=True)
    return s, unit * sig.alpha


def psi_inv(z, sig: Signature):
    """Inverse of :func:`psi`: lift (space, sphere-time) back to the manifold."""
    v, u = z
    _check_last_dim(u, sig.q, "psi_inv")
    un = np.asarray(norm(u))
    if np.any(np.abs(un - sig.alpha) > _SPHERE_RTOL * sig.alpha):
        raise PreconditionError(
            "psi_inv: time factor must lie on the sphere of radius alpha"
        )
    radius = space_radius(v, sig)
    scale = np.reshape(radius, np.shape(radius) + (1,)) / sig.alpha
    return np.concatenate([v, u * scale], axis=-1)


def phi(z, sig: Signature):
    """Carry a free parameter (s, t) onto the manifold.

    Computes ``(s, sqrt(alpha^2 + |s|^2) * t / |t|)`` — the composition of
    :func:`psi` (extended to all of ``R^p x R^q_*``) with :func:`psi_inv`.
    Rows whose time norm has fallen below :data:`EPS_TIME` get that amount
    added to their first time coordinate, with the coordinate's sign
    (:func:`floor_shift`), before mapping, so the map never divides by a
    norm below the floor during optimisation.
    """
    _check_last_dim(z, sig.d, "phi")
    s, t = z[..., : sig.p], z[..., sig.p :]
    tn = norm(t, keepdims=True)
    small = (tn < EPS_TIME)[..., 0]
    if np.any(small):
        bump = np.zeros(np.shape(t))
        bump[..., 0] = np.where(small, floor_shift(t[..., 0]), 0.0)
        t = t + bump
        tn = norm(t, keepdims=True)
    # normalise first: for q = 1 this makes the time coordinate exactly
    # +/- radius, so projections of coincident points collapse exactly
    unit = t / tn
    radius = space_radius(s, sig)
    scale = np.reshape(radius, np.shape(radius) + (1,))
    return np.concatenate([s, unit * scale], axis=-1)


def floor_shift(t0):
    """The shift that lifts a time block below :data:`EPS_TIME` with first
    coordinate ``t0``: ``EPS_TIME`` with the sign of ``t0`` (``+`` for
    ``-0.0``), so the shifted norm is at least the floor."""
    return np.where(t0 < 0.0, -EPS_TIME, EPS_TIME)


def apply_time_guard(entities: np.ndarray, sig: Signature) -> None:
    """In place: shift the first time coordinate of each row whose time norm
    fell below :data:`EPS_TIME` by :func:`floor_shift`, the rows
    :func:`phi` bumps."""
    time = entities[:, sig.p :]
    small = norm(time) < EPS_TIME
    if np.any(small):
        time[small, 0] += floor_shift(time[small, 0])


# --- conic projection and distances -----------------------------------------


def project_conic(x, y, sig: Signature):
    """Project ``y`` onto the conic section through ``x``.

    The result keeps ``x``'s space component and points ``y``'s time component
    in the same direction, rescaled so the result satisfies the manifold
    equation: its time norm equals ``sqrt(|x_p|^2 + alpha^2)``.
    """
    xs, _ = split_spacetime(x, sig)
    _, yt = split_spacetime(y, sig)
    radius = space_radius(xs, sig)
    unit = yt / norm(yt, keepdims=True)
    time = unit * np.reshape(radius, np.shape(radius) + (1,))
    batch = np.broadcast_shapes(np.shape(xs)[:-1], np.shape(time)[:-1])
    xs_b = np.broadcast_to(xs, batch + (sig.p,))
    time_b = np.broadcast_to(time, batch + (sig.q,))
    return np.concatenate([xs_b, time_b], axis=-1)


def dist_sphere(a, b, sig: Signature):
    """Great-circle distance between the time components of ``a`` and ``b``.

    Both points must share the same space component (the projected
    configuration); the arc lives on the time sphere of radius
    ``r = sqrt(|a_p|^2 + alpha^2)`` and the angle is computed from the
    normalised cosine of the time components, clamped into [-1, 1].
    """
    as_, at = split_spacetime(a, sig)
    bs, bt = split_spacetime(b, sig)
    gap = np.max(np.abs(np.asarray(as_) - np.asarray(bs))) if np.size(as_) else 0.0
    if gap > _SPACE_ATOL:
        raise PreconditionError(f"dist_sphere: space components differ by {gap:.3e}")
    r = space_radius(as_, sig)
    cosang = np.sum(at * bt, axis=-1) / (norm(at) * norm(bt))
    return r * np.arccos(np.clip(cosang, -1.0, 1.0))


def cosh_argument(a, b, sig: Signature):
    """Pre-clamp argument ``-<a,b>_q / alpha^2`` of the hyperbolic leg."""
    return -qdot(a, b, sig) / (sig.alpha * sig.alpha)


def dist_hyper(a, b, sig: Signature):
    """Hyperboloid geodesic distance ``alpha * arccosh(-<a,b>_q / alpha^2)``.

    Valid for points whose time components are parallel with the same sense
    (the projected configuration); the argument is clamped into [1, inf) to
    absorb roundoff.
    """
    at = np.asarray(a)[..., sig.p :]
    bt = np.asarray(b)[..., sig.p :]
    dot = np.sum(at * bt, axis=-1)
    nn = np.linalg.norm(at, axis=-1) * np.linalg.norm(bt, axis=-1)
    if np.any(dot < nn * (1.0 - _PARALLEL_RTOL)):
        raise PreconditionError(
            "dist_hyper: time components must be parallel with equal sense"
        )
    arg = np.clip(cosh_argument(a, b, sig), 1.0, None)
    return sig.alpha * np.arccosh(arg)


def terms_columns(x, sig: Signature):
    """The terms of :func:`dist_manhattan` that depend on one point only,
    for on-manifold points ``x`` held coordinate-major as ``(d, N)``:
    ``(space, time, r, n)``, with ``r`` the :func:`space_radius` and ``n``
    the time :func:`norm` of each column, both of shape ``(N,)`` and from
    :func:`dot_columns`, so each column gets the bits its row would."""
    s, t = x[: sig.p], x[sig.p :]
    return s, t, np.sqrt(dot_columns(s, s) + sig.alpha * sig.alpha), np.sqrt(dot_columns(t, t))


def point_terms_columns(z, sig: Signature, keep: bool = False):
    """:func:`terms_columns` of :func:`phi` of the free parameters ``z``,
    all coordinate-major: ``z`` is ``(d, N)``, one row per coordinate, and the
    result is ``(space, time, r, n)`` with ``space`` of shape ``(p, N)``,
    ``time`` of shape ``(q, N)`` and ``r``, ``n`` of shape ``(N,)``.  With
    ``keep`` it comes with the intermediates that :func:`phi_columns_vjp`
    reads: the (bumped) time block, its norm and its direction.

    The arithmetic is :func:`phi`'s and :func:`terms_columns`', with every
    sum of squares from :func:`dot_columns`, so each column gets the bits
    that :func:`phi`, :func:`space_radius` and :func:`norm` give its row.
    As in :func:`phi`, a column below the time-norm floor makes the bump
    add ``+0.0`` to every time coordinate of the batch.
    """
    s, t = z[: sig.p], z[sig.p :]
    tn = np.sqrt(dot_columns(t, t))
    small = tn < EPS_TIME
    if np.any(small):
        bump = np.zeros(t.shape)
        bump[0] = np.where(small, floor_shift(t[0]), 0.0)
        t = t + bump
        tn = np.sqrt(dot_columns(t, t))
    r = np.sqrt(dot_columns(s, s) + sig.alpha * sig.alpha)
    unit = t / tn
    time = unit * r
    terms = s, time, r, np.sqrt(dot_columns(time, time))
    return (terms, (t, tn, unit)) if keep else terms


def point_terms_columns_vjp(terms, g_terms, sig: Signature) -> np.ndarray:
    """Gradient with respect to a coordinate-major point, ``(d, N)``, given
    its ``terms`` ``(space, time, r, n)`` and the gradients ``g_terms`` of
    them that :func:`manhattan_legs_columns_vjp` returns.

    The order of the additions is the tape's: in the space block the two
    factors of ``|space|^2`` come before the legs' share, in the time block
    the legs' share comes before the two factors of ``|time|^2``.
    """
    xs, xt, r, n = terms
    g_space, g_time, g_r, g_n = g_terms
    g_x = np.empty((sig.d,) + np.shape(r))
    g_s, g_t = g_x[: sig.p], g_x[sig.p :]
    np.multiply(g_r * (0.5 / r), xs, out=g_s)
    g_s += g_s
    g_s += g_space
    g_tt = (g_n * (0.5 / n)) * xt
    np.add(g_time, g_tt, out=g_t)
    g_t += g_tt
    return g_x


def phi_columns_vjp(terms, saved, g: np.ndarray, sig: Signature) -> np.ndarray:
    """Gradient with respect to the free parameters ``z`` of
    :func:`point_terms_columns` given the gradient ``g``, ``(d, N)``, of the
    point ``phi(z)``; ``terms`` and ``saved`` are what it returned with
    ``keep``.

    The products and sums are those of the autodiff tape's reverse sweep
    over :func:`phi`, in its order, with each sum over a block from
    :func:`dot_columns`: each block receives its direct share first and then
    both factors of its own sum of squares, so the result matches the tape
    bit for bit.  The ``EPS_TIME`` bump is a constant shift and passes the
    time gradient through unchanged.
    """
    s, _, r, _ = terms
    t, tn, unit = saved
    g_s, g_ut = g[: sig.p], g[sig.p :]
    g_unit = g_ut * r
    g_scale = dot_columns(g_ut, unit)
    # x * 1.0 is x: dot_columns sums the terms in np.sum's order
    g_norm = dot_columns(-g_unit * t / (tn * tn), np.ones((sig.q, 1)))
    g_tt = (g_norm * (0.5 / tn)) * t
    g_ss = (g_scale * (0.5 / r)) * s
    g_z = np.empty(g.shape)
    np.add(g_s, g_ss, out=g_z[: sig.p])
    g_z[: sig.p] += g_ss
    np.add(g_unit / tn, g_tt, out=g_z[sig.p :])
    g_z[sig.p :] += g_tt
    return g_z


def manhattan_legs_columns(tx, side, sig: Signature, keep: bool = False):
    """:func:`dist_manhattan` between points and their candidates, from
    coordinate-major terms: ``side`` is ``(space, time, r, n)`` of ``N``
    candidates as :func:`point_terms_columns` gives them, and ``tx`` either
    the same of ``N`` points or the :func:`terms_columns` of one point, a
    ``(d, 1)`` column that every candidate then meets.  :func:`dot_columns`
    gives both dot products the row-wise bits, so every distance equals the
    row-wise one.  With ``keep`` it comes with the intermediates that
    :func:`manhattan_legs_columns_vjp` reads (see :func:`_legs_forward`)."""
    xs, xt, rx, nx = tx
    ys, yt, ry, ny = side
    same = ys[0] == xs[0]
    if np.any(same):
        same &= np.all(ys == xs, axis=0)
        same &= np.all(yt == xt, axis=0)
    dot, s = dot_columns(xt, yt), dot_columns(xs, ys)
    dist, saved = _legs_forward(dot, s, rx, nx, ry, ny, same, sig)
    return (dist, saved) if keep else dist


def _legs_forward(dot, s, rx, nx, ry, ny, same, sig: Signature):
    """The distance of :func:`dist_manhattan` given the time dot product
    ``dot``, the space dot product ``s``, both points' radii ``r`` and time
    norms ``n`` and the coincident rows ``same``, with the intermediates of
    its legs.  These include every guard's input: the cosine before its
    ``arccos`` clamp, the two ``arccosh`` arguments before theirs, the
    branch choice ``first`` (the x -> y order is taken, ties included) and
    ``same`` (None when there are none).

    The shorter leg is ``np.minimum``'s, which equals ``np.where(first,
    leg_xy, leg_yx)`` wherever neither leg is NaN (legs are never -0.0).
    Where one is, the pick falls back to that ``np.where``, which takes
    ``leg_yx`` beside a NaN ``leg_xy``; ``np.minimum`` would keep the NaN."""
    nn = nx * ny
    cos = dot / nn
    angle = np.arccos(np.clip(cos, -1.0, 1.0))
    a2 = sig.alpha * sig.alpha
    arg_xy = (rx * ny - s) / a2
    arg_yx = (ry * nx - s) / a2
    leg_xy = rx * angle + sig.alpha * np.arccosh(np.clip(arg_xy, 1.0, None))
    leg_yx = ry * angle + sig.alpha * np.arccosh(np.clip(arg_yx, 1.0, None))
    first = leg_xy <= leg_yx
    best = np.minimum(leg_xy, leg_yx)
    if not np.all(best == best):  # np.minimum keeps a NaN leg_xy
        best = np.where(first, leg_xy, leg_yx)
    if np.any(same):
        best = np.where(same, np.zeros(np.shape(same)), best)
    else:
        same = None
    return best, (dot, nn, cos, angle, arg_xy, arg_yx, first, same)


def _arccosh_leg_vjp(g_leg, arg, sig: Signature):
    """Gradient of ``alpha * arccosh(clip(arg, 1))`` at ``arg``: zero where
    the clamp holds ``arg`` at 1."""
    c = np.clip(arg, 1.0, None)
    t = c * c - 1.0
    d = np.where(t > 0.0, 1.0 / np.sqrt(np.where(t > 0.0, t, 1.0)), 0.0)
    return (g_leg * sig.alpha) * d * (arg > 1.0)


def manhattan_legs_columns_vjp(tx, ty, saved, g: np.ndarray, sig: Signature):
    """Gradients of the coordinate-major terms of both points given the
    gradient ``g`` of the distance; ``saved`` comes from
    :func:`manhattan_legs_columns` with ``keep``.

    Returns two ``(space, time, r, n)`` tuples for
    :func:`point_terms_columns_vjp`.  A clamped ``arccos`` or ``arccosh``
    passes zero gradient, the branch not taken gets none, and coincident
    points get none at all, as on the tape.
    """
    xs, xt, rx, nx = tx
    ys, yt, ry, ny = ty
    dot, nn, cos, angle, arg_xy, arg_yx, first, same = saved
    if same is not None:
        g = np.where(same, 0.0, g)
    g_xy = np.where(first, g, 0.0)
    g_yx = np.where(first, 0.0, g)
    a2 = sig.alpha * sig.alpha
    g_d1 = _arccosh_leg_vjp(g_xy, arg_xy, sig) / a2
    g_d2 = _arccosh_leg_vjp(g_yx, arg_yx, sig) / a2
    g_angle = g_xy * rx + g_yx * ry
    c = np.clip(cos, -1.0, 1.0)
    t = 1.0 - c * c
    d = np.where(t > 0.0, -1.0 / np.sqrt(np.where(t > 0.0, t, 1.0)), 0.0)
    g_cos = g_angle * d * ((cos > -1.0) & (cos < 1.0))
    g_dot = g_cos / nn
    g_nn = -g_cos * dot / (nn * nn)
    g_s = -g_d1 - g_d2
    return (
        (g_s * ys, g_dot * yt, g_xy * angle + g_d1 * ny, g_nn * ny + g_d2 * ry),
        (g_s * xs, g_dot * xt, g_yx * angle + g_d2 * nx, g_nn * nx + g_d1 * rx),
    )


def dist_manhattan(x, y, sig: Signature):
    """Two-leg manifold distance, minimised over the projection order.

    Each order is a spherical arc at fixed space component followed by a
    hyperboloid geodesic, and both legs have closed forms in the points'
    components.  With ``r`` the :func:`space_radius` of a point, ``n`` the
    norm of its time component, ``s = <x_s, y_s>`` and ``angle`` the angle
    between the time components, the (x -> y) order costs

        r_x * angle + alpha * arccosh((r_x * n_y - s) / alpha^2),

    which equals ``dist_sphere(x, p) + dist_hyper(p, y)`` for the conic
    projection ``p = project_conic(x, y)``; the (y -> x) order swaps the
    roles.  Exact ties between the two orders take the (x -> y) branch.
    Symmetric by construction and nonnegative.  Coordinatewise-identical
    pairs short-circuit to exactly zero: the inverse trigonometric legs lose
    half the float precision near coincidence, so without the short circuit
    d(x, x) lands near 1e-7 instead of 0.  The per-point terms are
    :func:`terms_columns`' row by row, and the legs come from
    :func:`_legs_forward`, which :func:`manhattan_legs_columns` shares.
    """
    xs, xt = split_spacetime(x, sig)
    rx, nx = space_radius(xs, sig), norm(xt)
    ys, yt = split_spacetime(y, sig)
    ry, ny = space_radius(ys, sig), norm(yt)
    # coincident rows share their first coordinate: compare whole rows only
    # where that column matches
    same = xs[..., 0] == ys[..., 0]
    if np.any(same):
        same &= np.all(xs == ys, axis=-1)
        same &= np.all(xt == yt, axis=-1)
    dot, s = np.sum(xt * yt, axis=-1), np.sum(xs * ys, axis=-1)
    return _legs_forward(dot, s, rx, nx, ry, ny, same, sig)[0]
