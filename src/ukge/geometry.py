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
an intermediate "space x sphere" representation.

:func:`dist_manhattan` takes the cheaper of two routes, each a great-circle
arc between time directions at fixed space component plus a hyperboloid
geodesic between conic sections, with both legs in closed form.  The conic
projection :func:`project_conic` and the legs :func:`dist_sphere` and
:func:`dist_hyper` spell the same construction out step by step, checking
their preconditions; they are the reference the closed form is tested against.

All functions accept plain float64 arrays or :class:`~ukge.autodiff.Tensor`
nodes, with point coordinates along the last axis and arbitrary batch axes in
front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
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
    even, which is enforced where those operators are built.
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
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")

    @property
    def d(self) -> int:
        """Ambient dimension p + q."""
        return self.p + self.q


def _check_last_dim(x, expect: int, name: str) -> None:
    shape = value_of(x).shape
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
    return ad.sum_(xs * ys, axis=-1) - ad.sum_(xt * yt, axis=-1)


def sq_space_radius(space, sig: Signature):
    """``alpha^2 + |space|^2`` — squared radius of the conic section."""
    return ad.sumsq(space, axis=-1) + sig.alpha * sig.alpha


def space_radius(space, sig: Signature):
    """Radius ``sqrt(alpha^2 + |space|^2)`` of the time sphere over ``space``.

    This is the single shared implementation used by :func:`phi`,
    :func:`psi_inv`, :func:`dist_manhattan` (as the sphere-leg radius) and the
    reference legs :func:`project_conic` and :func:`dist_sphere`, so that
    coincident inputs produce bitwise-identical radii.
    """
    return ad.sqrt(sq_space_radius(space, sig))


def manifold_defect(x, sig: Signature) -> np.ndarray:
    """Absolute deviation ``| <x,x>_q + alpha^2 |`` (diagnostic, plain arrays)."""
    v = value_of(x)
    _check_last_dim(v, sig.d, "manifold_defect")
    return np.abs(qdot(v, v, sig) + sig.alpha * sig.alpha)


def on_manifold(x, sig: Signature, tol: float = TOL_MANIFOLD):
    """Whether ``x`` satisfies the manifold equation within ``tol``."""
    return manifold_defect(x, sig) <= tol


# --- diffeomorphism with the free parameter space ---------------------------


def psi(x, sig: Signature):
    """Map a manifold point to its (space, sphere-time) factorisation.

    Returns the pair ``(s, alpha * t / |t|)``; the second factor lives on the
    radius-``alpha`` sphere in the time block.
    """
    s, t = split_spacetime(x, sig)
    tn = value_of(ad.norm(t, axis=-1))
    if np.any(tn == 0.0) or not np.all(np.isfinite(tn)):
        raise DegeneratePointError("psi: zero-norm time component")
    unit = t / ad.norm(t, axis=-1, keepdims=True)
    return s, unit * sig.alpha


def psi_inv(z, sig: Signature):
    """Inverse of :func:`psi`: lift (space, sphere-time) back to the manifold."""
    v, u = z
    _check_last_dim(u, sig.q, "psi_inv")
    un = value_of(ad.norm(u, axis=-1))
    if np.any(np.abs(un - sig.alpha) > _SPHERE_RTOL * sig.alpha):
        raise PreconditionError(
            "psi_inv: time factor must lie on the sphere of radius alpha"
        )
    radius = space_radius(v, sig)
    scale = ad.reshape(radius, value_of(radius).shape + (1,)) / sig.alpha
    return ad.concat([v, u * scale], axis=-1)


def phi(z, sig: Signature):
    """Carry a free parameter (s, t) onto the manifold.

    Computes ``(s, sqrt(alpha^2 + |s|^2) * t / |t|)`` — the composition of
    :func:`psi` (extended to all of ``R^p x R^q_*``) with :func:`psi_inv`.
    Rows whose time norm has fallen below :data:`EPS_TIME` get that amount
    added to their first time coordinate before mapping, so the map never
    divides by zero during optimisation.
    """
    _check_last_dim(z, sig.d, "phi")
    s, t = z[..., : sig.p], z[..., sig.p :]
    tval = value_of(t)
    small = np.linalg.norm(tval, axis=-1) < EPS_TIME
    if np.any(small):
        bump = np.zeros_like(tval)
        bump[..., 0] = np.where(small, EPS_TIME, 0.0)
        t = t + bump
    # normalise first: for q = 1 this makes the time coordinate exactly
    # +/- radius, so projections of coincident points collapse exactly
    unit = t / ad.norm(t, axis=-1, keepdims=True)
    radius = space_radius(s, sig)
    scale = ad.reshape(radius, value_of(radius).shape + (1,))
    return ad.concat([s, unit * scale], axis=-1)


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
    unit = yt / ad.norm(yt, axis=-1, keepdims=True)
    time = unit * ad.reshape(radius, value_of(radius).shape + (1,))
    batch = np.broadcast_shapes(value_of(xs).shape[:-1], value_of(time).shape[:-1])
    xs_b = ad.broadcast_to(xs, batch + (sig.p,))
    time_b = ad.broadcast_to(time, batch + (sig.q,))
    return ad.concat([xs_b, time_b], axis=-1)


def dist_sphere(a, b, sig: Signature):
    """Great-circle distance between the time components of ``a`` and ``b``.

    Both points must share the same space component (the projected
    configuration); the arc lives on the time sphere of radius
    ``r = sqrt(|a_p|^2 + alpha^2)`` and the angle is computed from the
    normalised cosine of the time components, clamped into [-1, 1].
    """
    as_, at = split_spacetime(a, sig)
    bs, bt = split_spacetime(b, sig)
    gap = np.max(np.abs(value_of(as_) - value_of(bs))) if value_of(as_).size else 0.0
    if gap > _SPACE_ATOL:
        raise PreconditionError(f"dist_sphere: space components differ by {gap:.3e}")
    r = space_radius(as_, sig)
    cosang = ad.sum_(at * bt, axis=-1) / (ad.norm(at, axis=-1) * ad.norm(bt, axis=-1))
    return r * ad.arccos(ad.clip(cosang, -1.0, 1.0))


def cosh_argument(a, b, sig: Signature):
    """Pre-clamp argument ``-<a,b>_q / alpha^2`` of the hyperbolic leg."""
    return -qdot(a, b, sig) / (sig.alpha * sig.alpha)


def dist_hyper(a, b, sig: Signature):
    """Hyperboloid geodesic distance ``alpha * arccosh(-<a,b>_q / alpha^2)``.

    Valid for points whose time components are parallel with the same sense
    (the projected configuration); the argument is clamped into [1, inf) to
    absorb roundoff.
    """
    at = value_of(a)[..., sig.p :]
    bt = value_of(b)[..., sig.p :]
    dot = np.sum(at * bt, axis=-1)
    nn = np.linalg.norm(at, axis=-1) * np.linalg.norm(bt, axis=-1)
    if np.any(dot < nn * (1.0 - _PARALLEL_RTOL)):
        raise PreconditionError(
            "dist_hyper: time components must be parallel with equal sense"
        )
    arg = ad.clip(cosh_argument(a, b, sig), 1.0, None)
    return sig.alpha * ad.arccosh(arg)


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
    d(x, x) lands near 1e-7 instead of 0.
    """
    same = np.all(value_of(x) == value_of(y), axis=-1)
    xs, xt = split_spacetime(x, sig)
    ys, yt = split_spacetime(y, sig)
    rx, ry = space_radius(xs, sig), space_radius(ys, sig)
    nx, ny = ad.norm(xt, axis=-1), ad.norm(yt, axis=-1)
    angle = ad.arccos(ad.clip(ad.sum_(xt * yt, axis=-1) / (nx * ny), -1.0, 1.0))
    s = ad.sum_(xs * ys, axis=-1)
    a2 = sig.alpha * sig.alpha
    leg_xy = rx * angle + sig.alpha * ad.arccosh(ad.clip((rx * ny - s) / a2, 1.0, None))
    leg_yx = ry * angle + sig.alpha * ad.arccosh(ad.clip((ry * nx - s) / a2, 1.0, None))
    best = ad.minimum(leg_xy, leg_yx)
    if not np.any(same):
        return best
    return ad.where(same, np.zeros(np.shape(same)), best)
