"""Training: negative sampling, binary cross-entropy loss, optimisers, fit.

Each positive triple is paired with ``k`` corruptions that independently
replace the head or the tail (fair coin) with a uniformly drawn entity — no
filtering of accidental true triples.  With ``p = sigmoid(score)`` clamped
into [1e-12, 1 - 1e-12], a batch of N positives with negatives N_i minimises

    L = -(1/N) * sum_i [ log p_i + sum_j log(1 - p_ij) ].

Gradients flow through the full score pipeline (manifold map, relation
operator, two-leg distance with its clamps and branch selection) by
reverse-mode differentiation; clamped values contribute zero gradient and
distance-branch ties follow the first branch.  The global margin ``delta``
is a hyperparameter: its gradient is reported by :func:`gradients` but
:func:`fit` never updates it.

Determinism: given a seed and fixed worker partitioning, shuffles, negative
draws, loss traces, and final parameters are reproducible bit for bit.
Multi-threaded batches shard rows in fixed order, so a given thread count is
deterministic too (different counts may differ in float summation order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    ConfigurationError,
    DivergenceError,
    EmptySplitError,
    NonFiniteGradientError,
)
from .kgdata import TripleStore
from .model import Model, apply_time_guard, map_row_blocks, parameters, score_triples

PROB_CLAMP = 1e-12

PARAM_FAMILIES = ("entity_space", "entity_time", "biases", "theta", "phi", "mu", "delta")


@dataclass
class TrainConfig:
    """Hyperparameters of one optimisation run."""

    batch_size: int = 500
    neg_samples: int = 50
    learning_rate: float = 5e-3
    epochs: int = 200
    optimizer: str = "adam"
    seed: int = 0
    threads: int = 1

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.neg_samples < 1:
            raise ConfigurationError("neg_samples must be >= 1")
        if not (0.0 < self.learning_rate and np.isfinite(self.learning_rate)):
            raise ConfigurationError("learning_rate must be positive")
        if not 0 <= self.epochs <= 1000:
            raise ConfigurationError("epochs must lie in [0, 1000]")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


# --- negative sampling ------------------------------------------------------


def sample_negatives(
    triple, k: int, n_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """``k`` corruptions of one triple: head or tail (fair coin) replaced
    by a uniform entity.  Deterministic under a fixed generator state."""
    row = np.asarray(triple, dtype=np.int64).reshape(1, 3)
    return _sample_negatives_batch(row, k, n_entities, rng)[0]


def _sample_negatives_batch(
    triples: np.ndarray, k: int, n_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """(B, k, 3) corruptions; one coin draw block then one entity block."""
    b = triples.shape[0]
    corrupt_head = rng.random((b, k)) < 0.5
    repl = rng.integers(0, n_entities, (b, k))
    out = np.empty((b, k, 3), dtype=np.int64)
    out[:, :, 0] = np.where(corrupt_head, repl, triples[:, None, 0])
    out[:, :, 1] = triples[:, None, 1]
    out[:, :, 2] = np.where(corrupt_head, triples[:, None, 2], repl)
    return out


# --- loss graph ---------------------------------------------------------------


def _leaves(m: Model) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in parameters(m).items()}


def _loss_sum(m: Model, leaves: dict, pos: np.ndarray, neg: np.ndarray):
    """Unnormalised loss sum: -(sum log p + sum log(1 - p~)).  ``leaves`` are
    tensors (:func:`_leaves`) for a differentiable sum, or the plain
    :func:`parameters` for its value alone."""
    n_pos = pos.shape[0]
    stacked = np.concatenate([pos, neg.reshape(-1, 3)], axis=0)
    scores = score_triples(m, stacked[:, 0], stacked[:, 1], stacked[:, 2], leaves)
    p = ad.clip(ad.sigmoid(scores), PROB_CLAMP, 1.0 - PROB_CLAMP)
    p_pos = p[:n_pos]
    p_neg = p[n_pos:]
    total = -(ad.sum_(ad.log(p_pos)))
    if neg.size:
        total = total - ad.sum_(ad.log(1.0 - p_neg))
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


def _as_batch(positives, negatives, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) positives and (N, k, 3) negatives, k = 0 when none are given."""
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    if pos.shape[0] == 0:
        raise EmptySplitError(f"{caller}: batch holds no positive triples")
    neg = (
        np.asarray(negatives, dtype=np.int64).reshape(pos.shape[0], -1, 3)
        if negatives is not None and np.asarray(negatives).size
        else np.empty((pos.shape[0], 0, 3), dtype=np.int64)
    )
    return pos, neg


def bce_loss(m: Model, positives: np.ndarray, negatives: np.ndarray | None = None) -> float:
    """Mean binary cross-entropy of a batch, scored on the plain parameter
    arrays, so no tape is built."""
    pos, neg = _as_batch(positives, negatives, "bce_loss")
    return float(_loss_sum(m, parameters(m), pos, neg)) / pos.shape[0]


def gradients(
    m: Model, positives: np.ndarray, negatives: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Loss gradients for every parameter family.

    Returns arrays keyed by :data:`PARAM_FAMILIES`; entity gradients are
    split into their space and time blocks.
    """
    pos, neg = _as_batch(positives, negatives, "gradients")
    inv_n = 1.0 / pos.shape[0]
    out = {k: g * inv_n for k, g in _summed_loss(m, pos, neg)[1].items()}
    ent = out.pop("entities")
    out["entity_space"] = ent[:, : m.sig.p]
    out["entity_time"] = ent[:, m.sig.p :]
    out["delta"] = np.float64(out["delta"])
    return out


# --- optimisers -----------------------------------------------------------------


class Adam:
    """Adam with the standard bias-corrected moments."""

    def __init__(self, shapes: dict[str, tuple], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            p -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


class Adagrad:
    """Adagrad with per-coordinate accumulated squared gradients."""

    def __init__(self, shapes: dict[str, tuple], lr: float, eps: float = 1e-10):
        self.lr = lr
        self.eps = eps
        self.acc = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for k, p in params.items():
            g = grads[k]
            self.acc[k] += g * g
            p -= self.lr * g / (np.sqrt(self.acc[k]) + self.eps)


OPTIMIZERS = {"adam": Adam, "adagrad": Adagrad}


# --- fit -------------------------------------------------------------------------


def _batch_grads(m: Model, pos: np.ndarray, neg: np.ndarray, threads: int):
    """Summed (not averaged) loss value and gradients for one batch."""
    parts = map_row_blocks(
        lambda rows: _summed_loss(m, pos[rows], neg[rows]), pos.shape[0], threads
    )
    loss, grads = parts[0]
    for part_loss, part_grads in parts[1:]:
        loss += part_loss
        grads = {k: grads[k] + part_grads[k] for k in grads}
    return loss, grads


def fit(
    m: Model,
    store: TripleStore,
    cfg: TrainConfig,
    *,
    epoch_callback=None,
) -> tuple[Model, list[float]]:
    """Optimise a copy of ``m`` on ``store.train``; returns it with the
    per-epoch mean-loss trace.

    The input model is left untouched.  Losses going non-finite abort with
    :class:`DivergenceError` carrying the last epoch's parameters; non-finite
    gradients abort naming the offending parameter family.
    """
    cfg.validate()
    triples = store.train
    if triples.shape[0] == 0:
        raise EmptySplitError("fit: train split is empty")
    trained = m.clone()
    rng = np.random.default_rng(cfg.seed)
    # delta is a hyperparameter; the Euclidean baseline never uses its boosts
    frozen = ("delta",) if trained.geometry == "ultra" else ("delta", "mu")
    params = {k: v for k, v in parameters(trained).items() if k not in frozen}
    shapes = {k: v.shape for k, v in params.items()}
    opt = OPTIMIZERS[cfg.optimizer](shapes, cfg.learning_rate)
    trace: list[float] = []
    last_good = trained.clone()
    n = triples.shape[0]
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = triples[perm[start : start + cfg.batch_size]]
            neg = _sample_negatives_batch(
                batch, cfg.neg_samples, trained.n_entities, rng
            )
            loss_sum, grads = _batch_grads(trained, batch, neg, cfg.threads)
            if not np.isfinite(loss_sum):
                raise DivergenceError(
                    f"loss became non-finite in epoch {epoch}",
                    last_good=last_good,
                    epoch=epoch,
                )
            inv_b = 1.0 / batch.shape[0]
            scaled = {k: grads[k] * inv_b for k in params}
            for k in params:
                if not np.all(np.isfinite(scaled[k])):
                    raise NonFiniteGradientError(
                        f"non-finite gradient in parameter family {k!r} "
                        f"(epoch {epoch})"
                    )
            opt.step(params, scaled)
            if trained.geometry == "ultra":
                apply_time_guard(trained.entities, trained.sig)
            epoch_loss += loss_sum
        for k, v in params.items():
            if not np.all(np.isfinite(v)):
                raise DivergenceError(
                    f"parameter family {k!r} became non-finite in epoch {epoch}",
                    last_good=last_good,
                    epoch=epoch,
                )
        trace.append(epoch_loss / n)
        last_good = trained.clone()
        if epoch_callback is not None:
            epoch_callback(epoch, trace[-1], trained)
    return trained, trace
