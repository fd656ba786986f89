"""The autodiff tape version of the training loss: the oracle that the
hand-written kernel in :mod:`ukge.training` is tested against.

It scores through :func:`score_triples` with tensor leaves, so the tape
records the package's own numpy stages (``geometry.phi``,
``operators.relation_transform``, ``geometry.dist_manhattan``) through
NumPy's dispatch protocols, and differentiates by one reverse sweep of
:meth:`ukge.autodiff.Tensor.backward`.
"""

from __future__ import annotations

import numpy as np

from ukge import autodiff as ad
from ukge import geometry, operators
from ukge.autodiff import Tensor
from ukge.model import Model, parameters
from ukge.training import PROB_CLAMP


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
        head = geometry.phi(z_h, m.sig)
        moved = operators.relation_transform(th, ph, p["mu"][r], head, m.sig, m.operator)
        dist = geometry.dist_manhattan(moved, geometry.phi(p["entities"][t], m.sig), m.sig)
    else:  # boosts pinned to 0, Euclidean distance on the raw vectors
        mu0 = np.zeros(np.shape(r) + (m.sig.q,))
        moved = operators.relation_transform(th, ph, mu0, z_h, m.sig, m.operator)
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
