"""Training: negative sampling, binary cross-entropy loss, optimisers, fit.

Each positive triple is paired with ``k`` corruptions that independently
replace the head or the tail (fair coin) with a uniformly drawn entity — no
filtering of accidental true triples.  With ``p = sigmoid(score)`` clamped
into [1e-12, 1 - 1e-12], a batch of N positives with negatives N_i minimises

    L = -(1/N) * sum_i [ log p_i + sum_j log(1 - p_ij) ].

Gradients flow through the full score pipeline (manifold map, relation
operator, two-leg distance with its clamps and branch selection) by a
hand-written kernel: one forward pass on the plain parameter arrays keeps
its intermediates, then the vector-Jacobian product of each stage runs in
reverse, each one next to its forward in :mod:`ukge.geometry` and
:mod:`ukge.operators`.  Clamped values contribute zero gradient and
distance-branch ties follow the first branch.  The reverse-mode tape of
:mod:`ukge.autodiff` differentiates the same numpy forward code through
NumPy's dispatch protocols; the kernel replays the operations it records in
its order, so its loss and gradients equal the tape's bit for bit.  The
tape itself is only the tests' oracle (``tests/tape_oracle.py``) and no
production module imports it.  The global margin ``delta`` is a
hyperparameter: its gradient is reported by :func:`gradients` but
:func:`fit` never updates it.

A batch is scored in blocks of positives, each with its negatives, of at most
:data:`BLOCK_ROWS` scored rows, so that the hundred or so elementwise passes
of the forward and VJP stages run on cache-sized arrays.  Every stage is
row-wise, so a block's per-row results are those of one pass over the whole
batch; they are written into the batch's row order, and the loss sums and
the gradient scatters then run once over those arrays.  Each float
operation is thus the unblocked pass's, in its order, and the block size
moves no bit of the loss or the gradients.  The one batch-wide step of the
forward, the ``EPS_TIME`` bump of :func:`geometry.phi_forward`, adds
``+0.0`` to the other rows of its block; that changes only an exact
``-0.0`` time coordinate into ``+0.0``, a sign of zero that no later
operation turns into a different value.

Determinism: given a seed, shuffles, negative draws, loss traces and final
parameters are reproducible bit for bit.  Threads score contiguous runs of
the blocks, at least one block per thread, so every thread count gives the
same bits too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, operators
from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EmptySplitError,
    NonFiniteGradientError,
)
from .kgdata import TripleStore
from .model import Model, apply_time_guard, check_ids, check_store, check_threads
from .model import map_row_blocks, parameters

PROB_CLAMP = 1e-12

# Scored rows per block of _scored_rows: a block's (rows x d) float64
# intermediates (512 KB at d = 32) stay in a core's L2 cache.
BLOCK_ROWS = 2048

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
        check_threads(self.threads)
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


# --- loss kernel --------------------------------------------------------------


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so that ``exp`` never overflows."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _loss_sum(m: Model, params: dict, pos: np.ndarray, neg: np.ndarray):
    """Unnormalised loss sum -(sum log p + sum log(1 - p~)) of a batch scored
    on the plain arrays ``params`` (:func:`parameters`), and the intermediates
    :func:`_row_grads` reads.

    The scores are those of the tape oracle (``tests/tape_oracle.py``), bit
    for bit: the same stages run here in the same order, keeping what their
    VJPs need.
    """
    sig = m.sig
    n_pos = pos.shape[0]
    stacked = np.concatenate([pos, neg.reshape(-1, 3)], axis=0)
    h, r, t = stacked[:, 0], stacked[:, 1], stacked[:, 2]
    z_h, z_t = params["entities"][h], params["entities"][t]
    if m.geometry == "ultra":
        z_h, phi_h = geometry.phi_forward(z_h, sig)
        mu = params["mu"]
    else:  # boosts pinned to 0, as tests/tape_oracle.py scores them
        mu = np.zeros_like(params["mu"])
    moved, ops = operators.transform_forward(
        params["theta"], params["phi"], mu, r, z_h, sig, m.operator
    )
    if m.geometry == "ultra":
        tail, phi_t = geometry.phi_forward(z_t, sig)
        tx, ty = geometry.point_terms(moved, sig), geometry.point_terms(tail, sig)
        dist, legs = geometry.manhattan_legs_forward(tx, ty, sig)
        side = (phi_h, phi_t, tx, ty, legs)
    else:
        side = moved - z_t
        dist = geometry.norm(side)
    b_h, b_t = params["biases"][h, 0], params["biases"][t, 1]
    prob = _sigmoid(-dist * dist + b_h + b_t + params["delta"])
    p = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return _log_loss(p, n_pos), (h, r, t, n_pos, p, prob, dist, ops, side)


def _log_loss(p: np.ndarray, n_pos: int):
    """-(sum log p + sum log(1 - p~)) of clamped probabilities, the
    ``n_pos`` positives first."""
    return -np.sum(np.log(p[:n_pos])) - np.sum(np.log(1.0 - p[n_pos:]))


def _scatter_rows(idx: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Rows of ``g`` summed into ``n_rows`` rows by ``idx``: one flat
    ``bincount``, which adds in row order exactly as ``np.add.at`` does."""
    cols = g.shape[1]
    flat = (idx[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * cols).reshape(
        n_rows, cols
    )


def _row_grads(m: Model, saved):
    """Per-row gradients of :func:`_loss_sum`'s total, from its
    intermediates ``saved``: ``(g_score, g_head, g_tail, g_theta, g_phi,
    g_mu)``, one row per scored triple in the order :func:`_loss_sum` stacks
    them (``g_mu`` is None where the boosts are pinned).

    The VJPs run in reverse: probability clamp and sigmoid, score, distance,
    the operator's U, H and V stages, then ``phi``.  Each replays, in order,
    the operations that the autodiff tape records when the oracle of
    ``tests/tape_oracle.py`` scores on tensor leaves, so the gradients equal
    the tape's bit for bit.  Clamped values pass zero gradient.
    """
    sig = m.sig
    h, r, t, n_pos, p, prob, dist, ops, side = saved
    # d total / d p: -1/p for positives, 1/(1 - p) for negatives
    g_p = np.concatenate([-(1.0 / p[:n_pos]), 1.0 / (1.0 - p[n_pos:])])
    inside = (prob > PROB_CLAMP) & (prob < 1.0 - PROB_CLAMP)
    g_score = g_p * inside * (prob * (1.0 - prob))
    # the score's (-d) * d: d gets g * (-d) from the product and -(g * d)
    # through the negation, two equal terms
    g_dist = g_score * -dist
    g_dist = g_dist + g_dist
    if m.geometry == "ultra":
        phi_h, phi_t, tx, ty, legs = side
        g_tx, g_ty = geometry.manhattan_legs_vjp(tx, ty, legs, g_dist, sig)
        g_moved = geometry.point_terms_vjp(tx, g_tx, sig)
        g_tail = geometry.point_terms_vjp(ty, g_ty, sig)
    else:
        # d = norm(side): one term per factor of side * side
        g_moved = (g_dist * (0.5 / dist))[:, None] * side
        g_moved = g_moved + g_moved
        g_tail = -g_moved
    g_theta, g_phi, g_mu, g_head = operators.transform_vjp(
        ops, g_moved, sig, m.operator, mu_grad=m.geometry == "ultra"
    )
    if m.geometry == "ultra":
        g_head = geometry.phi_vjp(phi_h, g_head, sig)
        g_tail = geometry.phi_vjp(phi_t, g_tail, sig)
    return g_score, g_head, g_tail, g_theta, g_phi, g_mu


def _scored_rows(m: Model, pos: np.ndarray, neg: np.ndarray, threads: int = 1,
                 grads: bool = True) -> list:
    """The one cut of a batch (module docstring): per-row ``p`` of
    :func:`_loss_sum` and, with ``grads``, the per-row gradients of
    :func:`_row_grads`, in batch order, positives first.  Each thread of
    :func:`map_row_blocks` scores a contiguous run of blocks into disjoint
    slices of these arrays."""
    params = parameters(m)
    n_pos, k = neg.shape[:2]
    widths = [()]
    if grads:  # g_score, g_head, g_tail, g_theta, g_phi, g_mu (None if pinned)
        ent = m.entities.shape[1:]
        widths += [(), ent, ent, m.theta.shape[1:], m.phi.shape[1:],
                   m.mu.shape[1:] if m.geometry == "ultra" else None]
    rows = [None if w is None else np.empty((n_pos * (k + 1),) + w) for w in widths]
    step = max(1, min(BLOCK_ROWS // (k + 1), -(-n_pos // threads)))

    def run(blocks: slice) -> None:
        for i in range(blocks.start * step, blocks.stop * step, step):
            j = min(i + step, n_pos)
            _, saved = _loss_sum(m, params, pos[i:j], neg[i:j])
            block = (saved[4],) + (_row_grads(m, saved) if grads else ())
            for out, b in zip(rows, block):
                if out is not None:
                    out[i:j] = b[: j - i]
                    out[n_pos + i * k : n_pos + j * k] = b[j - i :]

    map_row_blocks(run, -(-n_pos // step), threads)
    return rows


def _batch_grads(m: Model, pos: np.ndarray, neg: np.ndarray, threads: int = 1):
    """Unnormalised loss of one batch and its gradient per family of
    :func:`parameters` (zeros for families the loss does not reach): the
    sums and scatters run once over :func:`_scored_rows`' arrays."""
    p, g_score, g_head, g_tail, g_theta, g_phi, g_mu = _scored_rows(m, pos, neg, threads)
    stacked = np.concatenate([pos, neg.reshape(-1, 3)], axis=0)
    h, r, t = stacked[:, 0], stacked[:, 1], stacked[:, 2]
    n, n_rel = m.n_entities, m.n_relations
    return float(_log_loss(p, pos.shape[0])), {
        "entities": _scatter_rows(h, g_head, n) + _scatter_rows(t, g_tail, n),
        "biases": np.stack(
            [np.bincount(h, g_score, n), np.bincount(t, g_score, n)], axis=1
        ),
        "theta": _scatter_rows(r, g_theta, n_rel),
        "phi": _scatter_rows(r, g_phi, n_rel),
        "mu": np.zeros_like(m.mu) if g_mu is None else _scatter_rows(r, g_mu, n_rel),
        "delta": g_score.sum(),
    }


def _as_batch(m: Model, positives, negatives, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) positives and (N, k, 3) negatives, k = 0 when none are given.

    Positives that are not whole triples, or negatives that are not whole
    triples for each positive, raise :class:`DimensionError`; an id outside
    ``m``, or not an integer, raises :class:`IdLookupError`."""
    pos = np.asarray(positives)
    if pos.size % 3:
        raise DimensionError(
            f"{caller}: positives of shape {pos.shape} are not whole (h, r, t) triples"
        )
    pos = pos.reshape(-1, 3)
    if pos.shape[0] == 0:
        raise EmptySplitError(f"{caller}: batch holds no positive triples")
    neg = np.asarray([] if negatives is None else negatives)
    if neg.size % (3 * pos.shape[0]):
        raise DimensionError(
            f"{caller}: negatives of shape {neg.shape} do not split into the same "
            f"number of (h, r, t) triples for each of {pos.shape[0]} positives"
        )
    if not neg.size:
        neg = np.empty((pos.shape[0], 0, 3), dtype=np.int64)
    neg = neg.reshape(pos.shape[0], -1, 3)
    for ids in (pos, neg.reshape(-1, 3)):
        check_ids(ids[:, ::2], m.n_entities, "entity")
        check_ids(ids[:, 1], m.n_relations, "relation")
    return pos.astype(np.int64, copy=False), neg.astype(np.int64, copy=False)


def bce_loss(m: Model, positives: np.ndarray, negatives: np.ndarray | None = None) -> float:
    """Mean binary cross-entropy of a batch: the loss kernel's forward pass
    alone."""
    pos, neg = _as_batch(m, positives, negatives, "bce_loss")
    (p,) = _scored_rows(m, pos, neg, grads=False)
    return float(_log_loss(p, pos.shape[0])) / pos.shape[0]


def gradients(
    m: Model, positives: np.ndarray, negatives: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Loss gradients for every parameter family.

    Returns arrays keyed by :data:`PARAM_FAMILIES`; entity gradients are
    split into their space and time blocks.
    """
    pos, neg = _as_batch(m, positives, negatives, "gradients")
    inv_n = 1.0 / pos.shape[0]
    out = {k: g * inv_n for k, g in _batch_grads(m, pos, neg)[1].items()}
    ent = out.pop("entities")
    out["entity_space"] = ent[:, : m.sig.p]
    out["entity_time"] = ent[:, m.sig.p :]
    out["delta"] = np.float64(out["delta"])
    return out


# --- optimisers -----------------------------------------------------------------


class Adam:
    """Adam with the standard bias-corrected moments."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, shapes: dict[str, tuple], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self._work = {k: (np.empty(s), np.empty(s)) for k, s in shapes.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update in place, with the operations and rounding of
        ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g`` and
        ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``."""
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            a, b = self._work[k]
            m *= self.BETA1
            m += np.multiply(1.0 - self.BETA1, g, out=a)
            v *= self.BETA2
            np.multiply(1.0 - self.BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, b1c, out=a)
            a *= self.lr
            np.divide(v, b2c, out=b)
            np.sqrt(b, out=b)
            b += self.EPS
            p -= np.divide(a, b, out=a)


class Adagrad:
    """Adagrad with per-coordinate accumulated squared gradients."""

    EPS = 1e-10

    def __init__(self, shapes: dict[str, tuple], lr: float):
        self.lr = lr
        self.acc = {k: np.zeros(s) for k, s in shapes.items()}
        self._work = {k: (np.empty(s), np.empty(s)) for k, s in shapes.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update in place, with the operations and rounding of
        ``acc += g * g`` and ``p -= lr * g / (sqrt(acc) + eps)``."""
        for k, p in params.items():
            g, acc = grads[k], self.acc[k]
            a, b = self._work[k]
            acc += np.multiply(g, g, out=a)
            np.multiply(self.lr, g, out=a)
            np.sqrt(acc, out=b)
            b += self.EPS
            p -= np.divide(a, b, out=a)


OPTIMIZERS = {"adam": Adam, "adagrad": Adagrad}


# --- fit -------------------------------------------------------------------------


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
    gradients abort naming the offending parameter family.  A store with more
    entities or relations than ``m`` raises :class:`IdLookupError` up front.
    """
    cfg.validate()
    check_store(m, store)
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
