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
the time norm: :func:`phi` bumps a row below it, and :func:`apply_time_guard`
lifts the same rows of a parameter table in place.

:func:`dist_manhattan` takes the cheaper of two routes, each a great-circle
arc between time directions at fixed space component plus a hyperboloid
geodesic between conic sections, with both legs in closed form.  The conic
projection :func:`project_conic` and the legs :func:`dist_sphere` and
:func:`dist_hyper` spell the same construction out step by step, checking
their preconditions; they are the reference the closed form is tested against.

All functions are plain numpy, with point coordinates along the last axis
and batch axes in front.  The training kernel's vector-Jacobian products
(:func:`phi_vjp`, :func:`point_terms_vjp`, :func:`manhattan_legs_vjp`) take
the intermediates that :func:`phi_forward` and :func:`manhattan_legs_forward`
keep.  Scoring takes every Euclidean norm from :func:`norm`, so training,
evaluation and the autodiff tape round them alike.
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
    added to their first time coordinate before mapping, so the map never
    divides by zero during optimisation.
    """
    return phi_forward(z, sig)[0]


def phi_forward(z, sig: Signature):
    """:func:`phi` and the intermediates :func:`phi_vjp` reads: the space
    block, the (bumped) time block, its norm and direction, and the radius as
    a column."""
    _check_last_dim(z, sig.d, "phi")
    s, t = z[..., : sig.p], z[..., sig.p :]
    tn = norm(t, keepdims=True)
    small = (tn < EPS_TIME)[..., 0]
    if np.any(small):
        bump = np.zeros(np.shape(t))
        bump[..., 0] = np.where(small, EPS_TIME, 0.0)
        t = t + bump
        tn = norm(t, keepdims=True)
    # normalise first: for q = 1 this makes the time coordinate exactly
    # +/- radius, so projections of coincident points collapse exactly
    unit = t / tn
    radius = space_radius(s, sig)
    scale = np.reshape(radius, np.shape(radius) + (1,))
    return np.concatenate([s, unit * scale], axis=-1), (s, t, tn, unit, scale)


def apply_time_guard(entities: np.ndarray, sig: Signature) -> None:
    """In place: add :data:`EPS_TIME` to the first time coordinate of each
    row whose time norm fell below it, the rows :func:`phi_forward` bumps."""
    time = entities[:, sig.p :]
    small = norm(time) < EPS_TIME
    if np.any(small):
        time[small, 0] += EPS_TIME


def phi_vjp(saved, g: np.ndarray, sig: Signature) -> np.ndarray:
    """Gradient with respect to the free parameters ``z`` given the gradient
    ``g`` of :func:`phi_forward`'s output; ``saved`` is its intermediates.

    The products and sums are those of the autodiff tape's reverse sweep
    over :func:`phi_forward`, in its order: each block receives its direct
    share first and then both factors of its own sum of squares, so the
    result matches the tape bit for bit.  The ``EPS_TIME`` bump is a
    constant shift and passes the time gradient through unchanged.
    """
    s, t, norm, unit, scale = saved
    g_s, g_ut = g[..., : sig.p], g[..., sig.p :]
    g_unit = g_ut * scale
    g_scale = (g_ut * unit).sum(axis=-1, keepdims=True)
    g_norm = (-g_unit * t / (norm * norm)).sum(axis=-1, keepdims=True)
    g_tt = (g_norm * (0.5 / norm)) * t
    g_ss = (g_scale * (0.5 / scale)) * s
    g_z = np.empty(g.shape)
    np.add(g_s, g_ss, out=g_z[..., : sig.p])
    g_z[..., : sig.p] += g_ss
    np.add(g_unit / norm, g_tt, out=g_z[..., sig.p :])
    g_z[..., sig.p :] += g_tt
    return g_z


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


def point_terms(x, sig: Signature):
    """The terms of :func:`dist_manhattan` that depend on one point only:
    ``(space, time, r, n)``, with ``r`` the :func:`space_radius` and ``n``
    the time norm.  One-against-all scoring computes them once for every
    candidate tail and hands them to :func:`manhattan_legs` per query."""
    xs, xt = split_spacetime(x, sig)
    return xs, xt, space_radius(xs, sig), norm(xt)


def point_terms_vjp(terms, g_terms, sig: Signature) -> np.ndarray:
    """Gradient with respect to the point given :func:`point_terms`'
    ``terms`` and the gradients ``g_terms`` of them that
    :func:`manhattan_legs_vjp` returns.

    The order of the additions is the tape's: in the space block the two
    factors of ``|space|^2`` come before the legs' share, in the time block
    the legs' share comes before the two factors of ``|time|^2``.
    """
    xs, xt, r, n = terms
    g_space, g_time, g_r, g_n = g_terms
    g_x = np.empty(xs.shape[:-1] + (sig.d,))
    g_s, g_t = g_x[..., : sig.p], g_x[..., sig.p :]
    np.multiply((g_r * (0.5 / r))[..., None], xs, out=g_s)
    g_s += g_s
    g_s += g_space
    g_tt = (g_n * (0.5 / n))[..., None] * xt
    np.add(g_time, g_tt, out=g_t)
    g_t += g_tt
    return g_x


def manhattan_legs(tx, ty, sig: Signature):
    """:func:`dist_manhattan` of two points given by their :func:`point_terms`."""
    return manhattan_legs_forward(tx, ty, sig)[0]


def manhattan_legs_forward(tx, ty, sig: Signature):
    """:func:`manhattan_legs` and the intermediates
    :func:`manhattan_legs_vjp` reads.  These include every guard's input:
    the cosine before its ``arccos`` clamp, the two ``arccosh`` arguments
    before theirs, the branch choice ``first`` (the x -> y order is taken,
    ties included) and the coincident rows ``same`` (None when there are
    none)."""
    xs, xt, rx, nx = tx
    ys, yt, ry, ny = ty
    dot = np.sum(xt * yt, axis=-1)
    nn = nx * ny
    cos = dot / nn
    angle = np.arccos(np.clip(cos, -1.0, 1.0))
    s = np.sum(xs * ys, axis=-1)
    a2 = sig.alpha * sig.alpha
    arg_xy = (rx * ny - s) / a2
    arg_yx = (ry * nx - s) / a2
    leg_xy = rx * angle + sig.alpha * np.arccosh(np.clip(arg_xy, 1.0, None))
    leg_yx = ry * angle + sig.alpha * np.arccosh(np.clip(arg_yx, 1.0, None))
    first = leg_xy <= leg_yx
    best = np.where(first, leg_xy, leg_yx)
    # coincident rows share their first coordinate: compare whole rows only
    # where that column matches
    same = xs[..., 0] == ys[..., 0]
    if np.any(same):
        same &= np.all(xs == ys, axis=-1)
        same &= np.all(xt == yt, axis=-1)
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


def manhattan_legs_vjp(tx, ty, saved, g: np.ndarray, sig: Signature):
    """Gradients of the :func:`point_terms` of both points given the
    gradient ``g`` of the distance; ``saved`` comes from
    :func:`manhattan_legs_forward`.

    Returns two ``(space, time, r, n)`` tuples for :func:`point_terms_vjp`.
    A clamped ``arccos`` or ``arccosh`` passes zero gradient, the branch not
    taken gets none, and coincident rows get none at all, as on the tape.
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
    g_dot = (g_cos / nn)[..., None]
    g_nn = -g_cos * dot / (nn * nn)
    g_s = (-g_d1 - g_d2)[..., None]
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
    d(x, x) lands near 1e-7 instead of 0.  The per-point terms come from
    :func:`point_terms` and the legs from :func:`manhattan_legs`.
    """
    return manhattan_legs(point_terms(x, sig), point_terms(y, sig), sig)
