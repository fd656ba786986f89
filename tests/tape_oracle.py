"""The autodiff tape version of the model: the oracle that the
coordinate-major stages of :mod:`ukge.geometry` and :mod:`ukge.operators`
and the hand-written kernel of :mod:`ukge.training` are tested against.

It holds the row-wise copies of the stages, points along the last axis
and batch axes in front: :func:`phi`, :func:`dist_manhattan`, the Givens
stage of :func:`givens_apply`, the boost of :func:`boost_apply` and their
composition :func:`relation_transform`.  They sum along the last axis
where the package sums coordinate-major rows, and reuse its shared pieces
for the rest (``geometry.norm``, ``geometry.space_radius``,
``geometry.floor_shift``, ``geometry._legs_forward``, ``operators._givens``
and ``operators._shear``), so the legs, the Givens blocks and the shear
are written once, in the package.  The public stages there must give
these functions' bits on C-ordered input.
The tape records the stages through NumPy's dispatch protocols, so
:func:`score_triples` with tensor leaves differentiates them and
:func:`_summed_loss` gives the loss and its gradients by one reverse sweep
of :meth:`ukge.autodiff.Tensor.backward`.
"""

from __future__ import annotations

import numpy as np

from ukge import autodiff as ad
from ukge import geometry, operators
from ukge.autodiff import Tensor
from ukge.geometry import EPS_TIME, Signature
from ukge.model import Model, parameters
from ukge.training import PROB_CLAMP


def phi(z, sig: Signature):
    """``geometry.phi`` row by row: ``(s, sqrt(alpha^2 + |s|^2) t / |t|)``,
    after the ``EPS_TIME`` bump of the batch's rows below the floor."""
    s, t = z[..., : sig.p], z[..., sig.p :]
    tn = geometry.norm(t, keepdims=True)
    small = (tn < EPS_TIME)[..., 0]
    if np.any(small):
        bump = np.zeros(np.shape(t))
        bump[..., 0] = np.where(small, geometry.floor_shift(t[..., 0]), 0.0)
        t = t + bump
        tn = geometry.norm(t, keepdims=True)
    # normalise first: for q = 1 this makes the time coordinate exactly
    # +/- radius, so projections of coincident points collapse exactly
    unit = t / tn
    radius = geometry.space_radius(s, sig)
    scale = np.reshape(radius, np.shape(radius) + (1,))
    return np.concatenate([s, unit * scale], axis=-1)


def dist_manhattan(x, y, sig: Signature):
    """``geometry.dist_manhattan`` row by row: each point's radius and time
    norm, the coincident rows and the two dot products along the last axis,
    then the legs of ``geometry._legs_forward``."""
    xs, xt = x[..., : sig.p], x[..., sig.p :]
    ys, yt = y[..., : sig.p], y[..., sig.p :]
    rx, nx = geometry.space_radius(xs, sig), geometry.norm(xt)
    ry, ny = geometry.space_radius(ys, sig), geometry.norm(yt)
    # coincident rows share their first coordinate: compare whole rows only
    # where that column matches
    same = xs[..., 0] == ys[..., 0]
    if np.any(same):
        same &= np.all(xs == ys, axis=-1)
        same &= np.all(xt == yt, axis=-1)
    dot, s = np.sum(xt * yt, axis=-1), np.sum(xs * ys, axis=-1)
    return geometry._legs_forward(dot, s, rx, nx, ry, ny, same, sig)[0]


def givens_apply(angles, x, mode: str):
    """``operators.block_orthogonal_apply`` row by row: the coordinates
    reshaped into consecutive pairs, one angle a pair."""
    shape = np.shape(x)
    pairs = np.reshape(x, shape[:-1] + (shape[-1] // 2, 2))
    a2, b2 = operators._givens(np.cos(angles), np.sin(angles), pairs[..., 0], pairs[..., 1], mode)
    return np.reshape(np.stack([a2, b2], axis=-1), shape)


def boost_apply(mu, x, sig: Signature):
    """``operators.hyper_rot_apply`` row by row: space coordinate ``i``
    sheared with time coordinate ``p + i``."""
    return operators._shear(np.cosh(mu), np.sinh(mu), x[..., : sig.q], x[..., sig.q : sig.p],
                            x[..., sig.p :], -1)


def relation_transform(theta, phi, mu, x, sig: Signature, operator: str = "rotref"):
    """``operators.relation_transform`` row by row: ``U_theta . H_mu .
    V_phi``, with the stage modes of ``operator``."""
    u_mode, v_mode = operators.OPERATOR_MODES[operator]
    y = givens_apply(phi, x, v_mode)
    return givens_apply(theta, boost_apply(mu, y, sig), u_mode)


def tape_grad(fn, *values):
    """The gradient of the sum of ``fn``'s output with respect to each of
    ``values``, by one reverse sweep over tensor leaves that hold them."""
    leaves = [Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for v in values]
    np.sum(fn(*leaves)).backward()
    return [leaf.grad for leaf in leaves]


def score_triples(m: Model, h, r, t, leaves: dict | None = None):
    """Scores of the triples given by broadcastable 1-d id arrays ``h, r, t``.

    ``leaves`` maps the names of :func:`ukge.model.parameters` to arrays
    that stand in for the model's own (default: the model's arrays); tensor
    leaves put the scoring on the tape.  The stages and the score formula
    are those of :func:`ukge.model.move_heads` and
    :func:`ukge.model.meet_tails`, the forward of training, evaluation and
    ``predict``, which the tests hold to these bits.
    """
    p = parameters(m) if leaves is None else leaves
    z_h, th, ph = p["entities"][h], p["theta"][r], p["phi"][r]
    if m.geometry == "ultra":
        head = phi(z_h, m.sig)
        moved = relation_transform(th, ph, p["mu"][r], head, m.sig, m.operator)
        dist = dist_manhattan(moved, phi(p["entities"][t], m.sig), m.sig)
    else:  # boosts pinned to 0, Euclidean distance on the raw vectors
        mu0 = np.zeros(np.shape(r) + (m.sig.q,))
        moved = relation_transform(th, ph, mu0, z_h, m.sig, m.operator)
        dist = geometry.norm(moved - p["entities"][t])
    b_t = p["biases"][:, 1][t]
    return -dist * dist + p["biases"][:, 0][h] + b_t + p["delta"]


def _leaves(m: Model) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in parameters(m).items()}


def _loss_sum(m: Model, leaves: dict, pos: np.ndarray, neg: np.ndarray):
    """Unnormalised loss sum -(sum log p + sum log(1 - p~)) on the tape."""
    n_pos = pos.shape[0]
    stacked = np.concatenate([pos, neg.reshape(-1, 3)], axis=0)
    scores = score_triples(m, stacked[:, 0], stacked[:, 1], stacked[:, 2], leaves)
    p = np.clip(ad.sigmoid(scores), PROB_CLAMP, 1.0 - PROB_CLAMP)
    p_pos = p[:n_pos]
    p_neg = p[n_pos:]
    total = -(np.sum(np.log(p_pos)))
    if neg.size:
        total = total - np.sum(np.log(1.0 - p_neg))
    return total


def _summed_loss(m: Model, pos: np.ndarray, neg: np.ndarray):
    """Unnormalised loss of one batch and its gradient per leaf family
    (zeros for families the loss does not reach)."""
    leaves = _leaves(m)
    total = _loss_sum(m, leaves, pos, neg)
    total.backward()
    return float(total.value), {
        name: np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad
        for name, leaf in leaves.items()
    }
