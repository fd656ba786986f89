"""Training: negative sampling, binary cross-entropy loss, optimisers, fit.

Each positive triple is paired with ``k`` corruptions that independently
replace the head or the tail (fair coin) with a uniformly drawn entity — no
filtering of accidental true triples.  With ``p = sigmoid(score)`` clamped
into [1e-12, 1 - 1e-12], a batch of N positives with negatives N_i minimises

    L = -(1/N) * sum_i [ log p_i + sum_j log(1 - p_ij) ].

Gradients flow through the full score pipeline (manifold map, relation
operator, two-leg distance with its clamps and branch selection) by a
hand-written kernel: its forward pass is :func:`model.move_heads` then
:func:`model.meet_tails`, the forward that evaluation and ``predict``
score with, run on a block of triples with its intermediates kept, one row
per coordinate and one column per scored triple, as the entity table, its
gradient and its optimizer moments lie in memory: :mod:`ukge.model` holds
the table row-major only on disk and transposes it in blocks once, when it
builds or loads a model.  Then the vector-Jacobian
product of each stage runs in reverse, each one next to its forward in
:mod:`ukge.geometry` and :mod:`ukge.operators`.  Clamped values
contribute zero gradient and distance-branch ties follow the first
branch.  The reverse-mode tape of
:mod:`ukge.autodiff` differentiates the row-wise reference stages through
NumPy's dispatch protocols; the kernel replays the operations it records in
its order, so its loss and gradients equal the tape's bit for bit.  The
tape itself is only the tests' oracle (``tests/tape_oracle.py``) and no
production module imports it.  The global margin ``delta`` is a
hyperparameter: its gradient is reported by :func:`gradients` but
:func:`fit` never updates it.

A batch is walked in blocks of at most :data:`BLOCK_ROWS` scored triples,
positives first, then negatives, in batch order, so that the hundred or so
elementwise passes of the forward and VJP stages run on cache-sized arrays.
Every stage acts on each scored triple alone, so a block's per-triple
results are those of one pass over the whole batch.  Each block's gradients
are added at once into per-fit arrays, one ``np.add.at`` per coordinate,
which from zeros adds each entry's terms in batch order, as ``bincount``
does (heads and tails apart, then added); the loss, the bias ``bincount``s
and the ``delta`` sum run once over the batch's ``p`` and ``g_score``.  Each
float operation is thus the unblocked pass's, in its order, and the block
size moves no bit of the loss or the gradients.  The one batch-wide step of
the forward, the ``EPS_TIME`` bump of :func:`geometry.point_terms_columns`,
adds ``+0.0`` to the other triples of its block; that changes only an exact
``-0.0`` time coordinate into ``+0.0``, a sign of zero that no later
operation turns into a different value.

:func:`fit` holds the entity table, the optimizer's moments, two gradient
accumulators, one block's intermediates and the last epoch's copy of the
model, none of which grows with the batch; only the ids, ``p`` and
``g_score`` hold one entry per scored triple.
The optimizers step in flat slices of :data:`STEP_CHUNK` elements.

Determinism: given a seed, shuffles, negative draws, loss traces and final
parameters are reproducible bit for bit.
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
from .geometry import apply_time_guard, check_int
from .kgdata import TripleStore
from .model import Model, candidate_tails, check_store, check_triples, meet_tails
from .model import move_heads, parameters

PROB_CLAMP = 1e-12

# Scored triples per block of _walk: a block's (d x triples) float64
# intermediates (512 KB at d = 32) stay in a core's L2 cache.
BLOCK_ROWS = 2048

# Elements per slice of an optimizer step: its operands and two work
# buffers (128 KB each) stay in a core's L2 cache.
STEP_CHUNK = 1 << 14

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
    threads: int = 1  # accepts only 1, for callers that still pass threads=1

    def validate(self) -> None:
        check_int(**{k: getattr(self, k) for k in ("batch_size", "neg_samples", "epochs", "seed")})
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
        if self.threads != 1:
            raise ConfigurationError("threads was removed: training runs one thread")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


# --- negative sampling ------------------------------------------------------


def sample_negatives(
    triple, k: int, n_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """``k`` corruptions of one triple: head or tail (fair coin) replaced
    by a uniform entity.  Deterministic under a fixed generator state.
    Sizes that are not integers, ``k < 0`` or ``n_entities < 1`` raise
    :class:`ConfigurationError` and a triple not of three ids :class:`DimensionError`;
    its ids go through :func:`check_triples`, with no upper bound on the relation."""
    check_int(k=k, n_entities=n_entities)
    if k < 0 or n_entities < 1:
        raise ConfigurationError(f"sample_negatives: k={k} or n_entities={n_entities} too small")
    if np.shape(triple) != (3,):
        raise DimensionError(f"a triple is (head, relation, tail), got shape {np.shape(triple)}")
    check_triples(triple, n_entities, np.iinfo(np.int64).max)
    return _sample_negatives_batch(np.array([triple], np.int64), k, n_entities, rng)[0]


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
    """Unnormalised loss sum -(sum log p + sum log(1 - p~)) of a batch and
    the intermediates :func:`_row_grads` reads, coordinate-major: one row
    per coordinate, one column per scored triple, positives first.

    The scores are :func:`model.meet_tails` of the triples' heads and
    relations, moved by :func:`model.move_heads`, against their tails,
    built by :func:`model.candidate_tails`; this adds the sigmoid, the
    clamp and the log loss.  The intermediates start with ``p`` and hold
    the tails' phi ones as ``tail_phi`` (None for euclidean).  ``params`` is
    :func:`parameters` of ``m``, whose arrays the forward reads from ``m``.
    """
    n_pos = pos.shape[0]
    stacked = np.concatenate([pos, neg.reshape(-1, 3)], axis=0)
    (side, b_t), tail_phi = candidate_tails(m, stacked[:, 2])
    (x, b_h), (ops, point) = move_heads(m, stacked[:, 0], stacked[:, 1])
    scores, (dist, met) = meet_tails(m, x, b_h, side, b_t)
    prob = _sigmoid(scores)
    p = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return _log_loss(p, n_pos), (p, n_pos, prob, dist, ops, point, side, tail_phi, x, met)


def _log_loss(p: np.ndarray, n_pos: int):
    """-(sum log p + sum log(1 - p~)) of clamped probabilities, the
    ``n_pos`` positives first."""
    return -np.sum(np.log(p[:n_pos])) - np.sum(np.log(1.0 - p[n_pos:]))


def _row_grads(m: Model, saved):
    """Per-triple gradients of :func:`_loss_sum`'s total, from its
    intermediates ``saved``, one tuple for either geometry: ``(g_score,
    g_head, g_tail, g_theta, g_phi, g_mu)``, one column per scored triple in
    the order :func:`_loss_sum` stacks them and one row per coordinate
    (``g_mu`` is None where the boosts are pinned).

    The VJPs run in reverse: probability clamp and sigmoid, score, distance,
    the operator's U, H and V stages, then ``phi``.  Each replays, in order,
    the operations that the autodiff tape records when the oracle of
    ``tests/tape_oracle.py`` scores on tensor leaves, so the gradients equal
    the tape's bit for bit.  Clamped values pass zero gradient.
    """
    sig = m.sig
    p, n_pos, prob, dist, ops, point, ty, tail_phi, tx, met = saved
    # d total / d p: -1/p for positives, 1/(1 - p) for negatives
    g_p = np.concatenate([-(1.0 / p[:n_pos]), 1.0 / (1.0 - p[n_pos:])])
    inside = (prob > PROB_CLAMP) & (prob < 1.0 - PROB_CLAMP)
    g_score = g_p * inside * (prob * (1.0 - prob))
    # the score's (-d) * d: d gets g * (-d) from the product and -(g * d)
    # through the negation, two equal terms
    g_dist = g_score * -dist
    g_dist = g_dist + g_dist
    if m.geometry == "ultra":
        g_tx, g_ty = geometry.manhattan_legs_columns_vjp(tx, ty, met, g_dist, sig)
        g_moved = geometry.point_terms_columns_vjp(tx, g_tx, sig)
        g_tail = geometry.phi_columns_vjp(
            ty, tail_phi, geometry.point_terms_columns_vjp(ty, g_ty, sig), sig
        )
    else:
        # d = norm(met): one term per factor of met * met
        g_moved = (g_dist * (0.5 / dist)) * met
        g_moved = g_moved + g_moved
        g_tail = -g_moved
    g_theta, g_phi, g_mu, g_head = operators.transform_columns_vjp(
        ops, g_moved, sig, m.operator, mu_grad=m.geometry == "ultra"
    )
    if m.geometry == "ultra":
        g_head = geometry.phi_columns_vjp(*point, g_head, sig)
    return g_score, g_head, g_tail, g_theta, g_phi, g_mu


def _grad_arrays(m: Model) -> dict[str, np.ndarray]:
    """Uninitialised gradient accumulators of ``m``, one per family but
    ``delta``, and ``tails``, the entity gradient of the tail role, each
    coordinate-major as the entity table: a coordinate's entries lie together."""
    grads = {k: np.empty(v.shape[::-1]).T for k, v in parameters(m).items() if k != "delta"}
    return grads | {"tails": np.empty_like(grads["entities"])}


def _walk(m: Model, stacked: np.ndarray, n_pos: int, grads: dict | None = None):
    """The one walk of a batch (module docstring) over ``stacked``, its
    ``n_pos`` positives then its negatives: the ``p`` of :func:`_loss_sum`,
    one entry per scored triple, and with ``grads`` the ``g_score`` of
    :func:`_row_grads`, its other gradients added into ``grads`` block by
    block by :func:`_scatter`."""
    params = parameters(m)
    p = np.empty(stacked.shape[0])
    g_score = None if grads is None else np.empty_like(p)
    cuts = [*range(0, n_pos, BLOCK_ROWS), *range(n_pos, p.size, BLOCK_ROWS), p.size]
    for lo, hi in zip(cuts, cuts[1:]):
        block, none = stacked[lo:hi], stacked[:0]
        saved = _loss_sum(m, params, *((block, none) if lo < n_pos else (none, block)))[1]
        p[lo:hi] = saved[0]
        if grads is not None:
            g_score[lo:hi] = _scatter(grads, block, *_row_grads(m, saved))
        del saved  # so that one block's intermediates are alive at a time
    return p, g_score


def _scatter(grads: dict, block: np.ndarray, g_score, *block_grads) -> np.ndarray:
    """``g_score``, once the block's other gradients of :func:`_row_grads`
    are added into ``grads`` by the block's ids (module docstring)."""
    h, r, t = block.T.copy()  # add.at reads contiguous ids faster
    for name, idx, g in zip(("entities", "tails", "theta", "phi", "mu"), (h, t, r, r, r),
                            block_grads):
        if g is not None:  # g_mu is None where the boosts are pinned
            for out, row in zip(grads[name].T, g):
                np.add.at(out, idx, row)
    return g_score


def _batch_grads(m: Model, pos: np.ndarray, neg: np.ndarray, grads: dict | None = None):
    """Unnormalised loss of one batch and its gradient per family of
    :func:`parameters` (zeros for families the loss does not reach), summed
    into ``grads``, :func:`_grad_arrays` of ``m`` (fresh ones by default),
    which it zeroes first and whose arrays it returns."""
    grads = _grad_arrays(m) if grads is None else grads
    for g in grads.values():
        g.fill(0.0)
    stacked = np.concatenate([pos, neg.reshape(-1, 3)], axis=0)
    p, g_score = _walk(m, stacked, pos.shape[0], grads)
    h, t = stacked[:, 0], stacked[:, 2]
    grads["entities"] += grads["tails"]  # heads and tails apart, then added
    grads["biases"][:, 0] = np.bincount(h, g_score, m.n_entities)
    grads["biases"][:, 1] = np.bincount(t, g_score, m.n_entities)
    families = {k: grads[k] for k in ("entities", "biases", "theta", "phi", "mu")}
    return float(_log_loss(p, pos.shape[0])), families | {"delta": g_score.sum()}


def _as_batch(m: Model, positives, negatives, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) positives and (N, k, 3) negatives, k = 0 when none are given.

    Positives that are not whole triples, or negatives that are not whole
    triples for each positive, raise :class:`DimensionError`; then both must
    pass :func:`check_triples` against ``m``."""
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
    for ids in (positives, negatives) if neg.size else (positives,):
        check_triples(ids, m.n_entities, m.n_relations)
    neg = neg.reshape(pos.shape[0], -1, 3) if neg.size else np.empty((pos.shape[0], 0, 3), np.int64)
    return pos.astype(np.int64, copy=False), neg.astype(np.int64, copy=False)


def bce_loss(m: Model, positives: np.ndarray, negatives: np.ndarray | None = None) -> float:
    """Mean binary cross-entropy of a batch: the loss kernel's forward pass
    alone."""
    pos, neg = _as_batch(m, positives, negatives, "bce_loss")
    p, _ = _walk(m, np.concatenate([pos, neg.reshape(-1, 3)], axis=0), pos.shape[0])
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
    out["entity_space"], out["entity_time"] = np.split(out.pop("entities"), [m.sig.p], axis=1)
    out["delta"] = np.float64(out["delta"])
    return out


# --- optimisers -----------------------------------------------------------------


def _chunks(p: np.ndarray, *others: np.ndarray):
    """Flat slices of at most :data:`STEP_CHUNK` elements of ``p``, a C- or
    Fortran-contiguous array, in its memory order, each with the matching
    slices of ``others``, arrays of its shape (copied if laid out otherwise)."""
    order = "F" if p.flags.f_contiguous and not p.flags.c_contiguous else "C"
    if not p.flags[order + "_CONTIGUOUS"]:
        raise DimensionError(f"an optimizer steps contiguous parameters, got strides {p.strides}")
    flat = [a.reshape(-1, order=order) for a in (p, *others)]
    for lo in range(0, p.size, STEP_CHUNK):
        yield [a[lo : lo + STEP_CHUNK] for a in flat]


class Adam:
    """Adam with the standard bias-corrected moments, each laid out as its
    parameter, stepped in :func:`_chunks` through two chunk-sized buffers."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self._chunk = (np.empty(STEP_CHUNK), np.empty(STEP_CHUNK))

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update in place, with the operations and rounding of
        ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g`` and
        ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``."""
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for k, param in params.items():
            for p, m, v, g in _chunks(param, self.m[k], self.v[k], grads[k]):
                a, b = (w[: p.size] for w in self._chunk)
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
    """Adagrad with per-coordinate squared-gradient sums, laid out as their
    parameters, stepped in :func:`_chunks` through two chunk-sized buffers."""

    EPS = 1e-10

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.acc = {k: np.zeros_like(p) for k, p in params.items()}
        self._chunk = (np.empty(STEP_CHUNK), np.empty(STEP_CHUNK))

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update in place, with the operations and rounding of
        ``acc += g * g`` and ``p -= lr * g / (sqrt(acc) + eps)``."""
        for k, param in params.items():
            for p, acc, g in _chunks(param, self.acc[k], grads[k]):
                a, b = (w[: p.size] for w in self._chunk)
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
    gradients abort naming the offending parameter family.  The store's ids
    were checked when it was built; a store with more entities or relations
    than ``m`` raises :class:`IdLookupError` up front.
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
    opt = OPTIMIZERS[cfg.optimizer](params, cfg.learning_rate)
    grad_arrays = _grad_arrays(trained)
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
            loss_sum, grads = _batch_grads(trained, batch, neg, grad_arrays)
            if not np.isfinite(loss_sum):
                raise DivergenceError(
                    f"loss became non-finite in epoch {epoch}",
                    last_good=last_good,
                    epoch=epoch,
                )
            inv_b = 1.0 / batch.shape[0]
            for k in params:  # in place: the arrays are fit's own
                grads[k] *= inv_b
                if not np.all(np.isfinite(grads[k])):
                    raise NonFiniteGradientError(
                        f"non-finite gradient in parameter family {k!r} "
                        f"(epoch {epoch})"
                    )
            opt.step(params, grads)
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
