"""Filtered ranking evaluation: MRR and Hits@K, globally and per relation.

Every triple of the chosen split is scored as a tail-prediction task: all
entities are ranked as candidate tails of (h, r, ?).  Known true tails from
the filter splits (train, valid, test by default) are removed from the
candidate set — except the gold tail itself — and ties are resolved
pessimistically: the rank counts every unfiltered competitor not scoring
strictly below the gold tail.  A non-finite score therefore never improves
a rank: a NaN gold ranks last and a NaN competitor counts against the gold.
Tails are filtered, then verified (:func:`_verify_block`): only those that
the proven margins (:func:`legs_margin`) of their scores from matrix
products (:func:`approx_scores`, float32 for ultra) cannot place against
the gold are scored exactly, and one outside its margin raises
:class:`NumericError`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, EmptySplitError, NumericError, PreconditionError
from .geometry import Signature
from .kgdata import TripleStore
from .model import TRANSPOSE_BLOCK, Model, candidate_tails, check_ids, check_store, check_triples
from .model import columns, move_heads, score_candidates

HITS_KS = (1, 3, 10)

APPROX_BLOCK = 16  #: heads per matrix product in :func:`evaluate`: 1.4 MB at 21,845 tails
APPROX_ROWS = 4  #: rows that each pass of :func:`approx_scores` takes at once
F32_BIAS = 2.0**60  #: largest ``|b_t|`` and ``|b_h + delta|`` that :func:`approx_scores` rounds

#: radii, time norms and ``alpha`` within which :func:`legs_margin` holds for
#: float32 arithmetic: no product overflows and underflow stays negligible
F32_RANGE = (2.0**-20, 2.0**30)

#: ulps of error that :func:`legs_margin` allows float32 and float64
#: ``np.arccos`` and ``np.arccosh``; ``tests/test_geometry.py`` pins numpy's
ULPS = 4


@dataclass
class RelationMetrics:
    mrr: float
    hits: dict[int, float]
    count: int


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    triple_count: int
    per_relation: dict[int, RelationMetrics] = field(default_factory=dict)


def build_filter_index(store: TripleStore, splits, keys) -> dict[tuple[int, int], np.ndarray]:
    """Map each (head, relation) row of ``keys``, an (n, 2) array, to the
    sorted array of its known true tails in ``splits``; a pair without a
    known tail has no entry."""
    if isinstance(splits, str):
        raise ConfigurationError(f"filter_splits must be split names, not the string {splits!r}")
    triples = np.concatenate(
        [store.split(name) for name in splits] + [np.empty((0, 3), dtype=np.int64)]
    )
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    # each (head, relation) pair as one integer, head * width + relation
    width = 1 + max(int(triples[:, 1].max(initial=0)), int(keys[:, 1].max(initial=0)))
    pairs = triples[:, 0] * width + triples[:, 1]
    triples = triples[np.isin(pairs, keys[:, 0] * width + keys[:, 1])]
    rows = np.unique(triples, axis=0)  # sorted by head, relation, tail
    starts = np.flatnonzero(np.any(np.diff(rows[:, :2], axis=0, prepend=-1) != 0, axis=1))
    return {
        (h, r): known
        for (h, r), known in zip(rows[starts, :2].tolist(), np.split(rows[:, 2], starts[1:]))
    }


def cos_shrink(sig: Signature) -> float:
    """``1 - 2 g(q) - 4u`` (:func:`legs_margin`'s notation): the factor on
    the tails' float32 time directions that keeps every float32 cosine of
    :func:`approx_scores` inside ``[-1, 1]``, so that no clamp is needed."""
    u = 2.0**-24
    return 1.0 - 2.0 * sig.q * u / (1.0 - sig.q * u) - 4.0 * u


def legs_margin(rx, nx, ry, ny, skew, sig: Signature):
    """``((a, k_c, f_c), (b, k_a, f_a), e, dd)``: per head of radius ``rx``
    and time norm ``nx`` (arrays or scalars), the terms of a per-tail bound
    on how far ``L*L``, the float32 one leg of :func:`approx_scores`
    squared, lies from ``d*d`` of :func:`ukge.geometry._legs_forward`,

        |L*L - d*d| <= a / max(k_c - |c|, f_c) + b / max(A - k_a, f_a) + e,

    with ``c`` the pass's float32 cosine and ``A`` its float32 ``arccosh``
    argument before the clamp; ``ry``, ``ny`` are the tails' largest radius
    and time norm, ``skew`` their largest ``|ny - ry|``, and ``L*L, d*d <=
    dd``.  Every radius, time norm and ``alpha`` lies in :data:`F32_RANGE`,
    and no tail coincides with the head.

    Take ``u = 2**-24``, ``w = 2**-53``, ``g(k) = k u / (1 - k u)`` (``G(k)``
    with ``w``), ``HR = max(rx, nx) max(ry, ny) / alpha^2``, about 1 or more
    as ``r >= alpha``, ``T = max(rx, ry)``, ``W = arccosh(2 HR (1 + 2^-20) + dA)`` above every
    ``arccosh`` of either path and ``L = (T pi + alpha W) (1 + 2^-20)`` above
    either leg, and compare both paths with the true distances of the
    float64 inputs.  ``c`` is one float32 product, in any order, of ``x_t /
    nx`` and ``y_t / ny`` times :func:`cos_shrink`, each coordinate rounded
    once from float64; by Higham (*Accuracy and Stability of Numerical
    Algorithms*, 2002, §3.1), with ``|x_t| / nx <= 1 + 2^-40``, ``|c| < 1``
    and ``c`` lies within ``dc = (3 g(q) + 7u) (1 + 2^-20)`` of the true
    cosine.  ``A`` is one float32 product of ``(-x_s / alpha^2, rx)`` and
    ``(y_s, ny / alpha^2)``, whose terms' magnitudes sum to at most ``2 HR``,
    so it lies within ``dA = (2 g(p + 1) + 5u + (p + 1) 2^-52) (1 + 2^-20)
    HR`` of the true ``A``; the ``2^-52`` term, and the ``u`` it adds to
    ``dc``, cover underflow (``2^-124`` a coordinate) in the range.
    ``arccos`` is Lipschitz with ``1 / sqrt(1 - y^2) <= 1 / (1 - y)`` on
    ``[-y, y]``, so where ``y = |c| + dc < 1`` the angle moves by at most
    ``dc / (1 - dc - |c|)``, and it is ½-Hölder, ``|arccos a - arccos b| <=
    arccos(1 - |a - b|) <= pi sqrt(|a - b| / 2)``, everywhere.  With ``k_c =
    1 - dc`` and ``f_c = dc / (pi sqrt(dc / 2))``, ``dc / max(k_c - |c|,
    f_c)`` is the Lipschitz bound where that lies below the Hölder one, and
    the Hölder one elsewhere.  Likewise ``arccosh`` moves by at most ``dA /
    (A - 1 - dA)`` where ``A - dA > 1``, as ``sqrt(y^2 - 1) >= y - 1``, and
    by ``arccosh(1 + dA) <= sqrt(2 dA)`` everywhere: ``k_a = 1 + dA``, ``f_a
    = sqrt(dA / 2)``.  The leg ``min(rx, ry) angle + alpha arccosh`` takes
    :data:`ULPS` ulps an ``arccos`` and an ``arccosh`` (``8u pi`` and ``8u
    W``) and three roundings, ``g(3) L``.  The true one leg lies within
    ``e_s = alpha sqrt(2 a_s)`` of the shorter of the two, ``a_s = (rx skew
    + ry |rx - nx|) / alpha^2`` bounding ``|A_xy - A_yx| = |rx ny - ry nx| /
    alpha^2``: it is ``leg_xy`` where ``rx <= ry`` and ``leg_yx`` with the
    other ``arccosh`` otherwise.  The float64 distance, fed dot products in
    any order, lies within ``e_64 = T pi (sqrt(G(q) + 1.5w) + 8w) + alpha
    (sqrt(2 (2 G(p) + 9w) HR) + 8w W) + 7w L`` of the true one: its cosine
    is within ``G(q) + 2w``, its argument within ``(G(p) + 5w) HR``, with
    :data:`ULPS` ulps a function and ``arccos``, ``arccosh`` ½-Hölder as
    above.  So ``|L - d| <= rx angle + alpha arccosh + e_l`` with those
    moves and ``e_l = 8u (rx pi + alpha W) + g(3) L + e_s + e_64``, and
    ``|L*L - d*d| <= 2 L`` times that: ``a = 2 L rx dc``, ``b = 2 L alpha
    dA``, ``e = 2 L e_l``, ``dd = L^2``.  ``a``, ``b`` and ``e`` carry a
    factor ``1 + 2^-16`` for the bound's own float32 arithmetic and the
    window's comparisons in :func:`_verify_block`; ``k_c`` is lowered by
    ``3u``, ``k_a`` raised and the floors lowered so that their float32
    roundings keep the bound."""
    u, w, alpha = 2.0**-24, 2.0**-53, sig.alpha
    a2, up = alpha * alpha, 1.0 + 2.0**-20
    g3, g_p, g_q, big_p, big_q = (k * e / (1.0 - k * e) for k, e in (
        (3, u), (sig.p + 1, u), (sig.q, u), (sig.p, w), (sig.q, w)))
    dc = (3.0 * g_q + 7.0 * u) * up
    hr = np.maximum(rx, nx) * max(ry, ny) / a2
    da = (2.0 * g_p + 5.0 * u + (sig.p + 1) * 2.0**-52) * up * hr
    wide = np.arccosh(np.maximum(2.0 * hr * up + da, 1.0))
    top = np.maximum(rx, ry)
    legs = (top * np.pi + alpha * wide) * up
    ulp_w, ulp_u = 2 * ULPS * w, 2 * ULPS * u
    e_64 = (top * np.pi * (np.sqrt(big_q + 1.5 * w) + ulp_w)
            + alpha * (np.sqrt(2.0 * (2.0 * big_p + 9.0 * w) * hr) + ulp_w * wide) + 7.0 * w * legs)
    e_s = alpha * np.sqrt(2.0 * (rx * skew + ry * np.abs(rx - nx)) / a2)
    e_l = ulp_u * (rx * np.pi + alpha * wide) + g3 * legs + e_s + e_64
    scale = 2.0 * legs * (1.0 + 2.0**-16)
    cos = (scale * rx * dc, 1.0 - dc - 3.0 * u, np.sqrt(2.0 * dc) / np.pi * (1.0 - 2.0**-16))
    arg = (scale * alpha * da, (1.0 + da) * up, np.sqrt(0.5 * da) * (1.0 - 2.0**-16))
    return cos, arg, scale * e_l, legs * legs


def _in_f32_range(r, n, bias, sig: Signature) -> np.ndarray:
    """Whether radii ``r``, time norms ``n``, ``bias`` and ``alpha`` lie where the margin holds."""
    lo, hi = F32_RANGE
    keep = (r >= lo) & (r <= hi) & (n >= lo) & (n <= hi) & (np.abs(bias) <= F32_BIAS)
    return keep & (lo <= sig.alpha <= hi)


def approx_side(m: Model, tails) -> tuple:
    """The tail side of :func:`approx_scores` from the value ``tails`` of
    :func:`candidate_tails`, with work arrays for :data:`APPROX_BLOCK`
    heads a call: ``(cols, b_t, first, bad, bounds, work)``.  Ultra rounds
    the tails' terms to float32 once, the operands of the cosine and the
    ``arccosh`` argument, ``cols = (y_t / ny, (y_s, ny / alpha^2), ry)``;
    ``bad`` lists the tails whose ``ry`` or ``ny`` lies outside
    :data:`F32_RANGE`, or whose bias exceeds :data:`F32_BIAS`, rounded as
    harmless stand-ins, and ``bounds`` holds the others' largest ``ry``,
    ``ny``, ``|ny - ry|`` and ``|b_t|``.  Euclidean keeps its float64
    columns with their squared norms, ``bad`` the non-finite ones, and
    ``bounds`` holds the largest norm and ``|b_t|``.  ``first`` is every
    tail's first coordinate in float64, and the same sorted."""
    side, b_t = tails
    n = b_t.size
    if m.geometry == "ultra":
        ys, yt, ry, ny = side
        keep = _in_f32_range(ry, ny, b_t, m.sig)
        bad = np.flatnonzero(~keep)
        if bad.size:
            ys, yt, b_t = (np.where(keep, a, 0.0) for a in (ys, yt, b_t))
            ry, ny = (np.where(keep, a, 1.0) for a in (ry, ny))
        cos, arg = np.empty(yt.shape, np.float32), np.empty((m.sig.p + 1, n), np.float32)
        np.multiply(yt, cos_shrink(m.sig) / ny, out=cos)
        arg[:-1] = ys
        np.divide(ny, m.sig.alpha * m.sig.alpha, out=arg[-1])
        cols = (cos, arg, ry.astype(np.float32))
        bounds = tuple(np.max(a, initial=0.0) for a in (ry, ny, np.abs(ny - ry), np.abs(b_t)))
        dtype, first, blocks = np.float32, side[0][0], 3
    else:
        yy = np.einsum("ij,ij->j", side, side)
        keep = np.isfinite(yy) & np.isfinite(b_t)
        bad, cols = np.flatnonzero(~keep), (side, yy)
        bounds = tuple(np.max(a, initial=0.0, where=keep) for a in (np.sqrt(yy), np.abs(b_t)))
        dtype, first, blocks = np.float64, side[0], 1
    work = ([np.empty((APPROX_BLOCK, n), dtype) for _ in range(blocks)],
            np.empty((2, APPROX_ROWS, n), dtype))
    return cols, b_t.astype(dtype), (first, np.sort(first)), bad, bounds, work


def approx_scores(m: Model, x, b_h, side) -> tuple:
    """``(s, ceiling, terms)``: :func:`ukge.model.meet_tails` of a few moved
    heads ``x, b_h`` against the tails of :func:`approx_side`, from matrix
    products, a row per head, in ``side``'s work arrays; until the next call
    overwrites them, :func:`approx_margins` of ``terms`` bounds ``|s -
    exact|`` at any (row, tail) pair, and each row's ceiling its margins.

    Ultra runs in float32 and takes one leg of the two, one ``arccosh`` a
    tail: on the manifold a point's time norm equals its radius up to
    rounding, and the margin covers how far that leg lies from the shorter.
    One product gives the cosines ``c = <x_t / nx, y_t / ny>``, another the
    ``arccosh`` arguments ``A = <(-x_s / alpha^2, rx), (y_s, ny /
    alpha^2)>``, both kept in ``terms``, and each row takes one leg,
    ``min(rx, ry) arccos(c) + alpha arccosh(max(A, 1))``, in about ten
    in-place calls on :data:`APPROX_ROWS` rows at a time.  A margin is the
    bound of :func:`legs_margin` on ``d*d``, ``a_c / max(k_c - |c|, f_c) +
    a_a / max(A - k_a, f_a) + e``, whose ``e`` also takes ``2u dd + 3u (|b_h
    + delta| + max |b_t|)`` for the float32 score's roundings and ``4w (dd +
    |b_h| + max |b_t| + |delta|)`` for the exact path's (``u = 2**-24``, ``w
    = 2**-53``), with the same factor ``1 + 2^-16``.  The ceiling is that
    float32 expression with each ``max(., f)`` replaced by its floor ``f``:
    as ``a >= 0``, ``max(., f) >= f``, and correctly rounded division and
    addition are monotone, it is at least every margin of its row; a NaN
    margin takes a NaN ``c`` or ``A``, so a NaN score, or an infinite
    ``a_a``, so an infinite ceiling.  Euclidean stays in float64 and takes
    ``|x|^2 + |y|^2 - 2 <x, y>``, within ``(g(d) + 3w) (|x| + |y|)^2`` of
    ``|x - y|^2`` as the exact path is within ``g(d) + 8w`` (``g`` of
    :func:`legs_margin` with ``w``), doubled, plus ``8w (d*d + |b_h| + |b_t|
    + |delta|)`` for three additions a path and the window of
    :func:`_verify_block`, one margin for all of a head's tails and its
    ceiling.  A head outside the range of :func:`approx_side` or with a
    non-finite margin scores NaN with an infinite ceiling, and a tail in its
    ``bad`` NaN with an infinite margin.  Any other score the margin does
    not cover is NaN too: non-finite, or its tail shares the head's first
    coordinate."""
    cols, b_t, (first, ordered), bad, bounds, (blocks, (c, t)) = side
    k, n, u, w = b_h.size, b_t.size, 2.0**-24, 2.0**-53
    blocks = [a[:k] if k <= a.shape[0] else np.empty((k, n), a.dtype) for a in blocks]
    if m.geometry == "ultra":
        (xs, xt, rx, nx), (y_cos, y_arg, ry), alpha = x, cols, m.sig.alpha
        bias = b_h + m.delta
        ok = _in_f32_range(rx, nx, bias, m.sig)
        rx, nx, bias = (np.where(ok, a, 1.0) for a in (rx, nx, bias))  # stand-ins, scored NaN
        cos, arg, err, dd = legs_margin(rx, nx, *bounds[:3], m.sig)
        err = np.where(ok, err + (1.0 + 2.0**-16) * (  # a head out of range: every margin inf
            2.01 * u * dd + 3.01 * u * (np.abs(bias) + bounds[3])
            + 4.01 * w * (dd + np.abs(b_h) + bounds[3] + abs(m.delta))), np.inf)
        x_cos = np.where(ok, xt / nx, 0.0).astype(np.float32)
        x_arg = np.where(ok, np.concatenate([xs / -(alpha * alpha), rx[None]]), 0.0).astype(np.float32)
        dots, args, s = blocks
        np.matmul(x_cos.T, y_cos, out=dots)
        np.matmul(x_arg.T, y_arg, out=args)
        coef = a_c, _, f_c, a_a, _, f_a, err = [np.float32(a) for a in (*cos, *arg, err)]
        ceiling = a_c / f_c + a_a / f_a + err
        rx, bias = (np.asarray(a, dtype=np.float32)[:, None] for a in (rx, bias))
        for i in range(0, k, APPROX_ROWS):
            rows = slice(i, i + APPROX_ROWS)
            leg, tmp = c[: len(s[rows])], t[: len(s[rows])]
            np.arccos(dots[rows], out=leg)
            leg *= np.minimum(ry, rx[rows], out=tmp)
            np.arccosh(np.maximum(args[rows], 1.0, out=tmp), out=tmp)
            if alpha != 1.0:
                tmp *= alpha
            leg += tmp
            leg *= leg
            np.subtract(np.add(b_t, bias[rows], out=tmp), leg, out=s[rows])
        s[~ok] = np.nan
        terms = bad, dots, args, coef
    else:
        (s,), (ys, yy), xs = blocks, cols, x
        xx = np.einsum("ij,ij->j", x, x)
        bound = (np.sqrt(xx) + bounds[0]) ** 2
        err = 2.0 * (2.0 * m.sig.d * w / (1.0 - m.sig.d * w) + 11.0 * w) * bound
        err += 8.0 * w * (bound + np.abs(b_h) + bounds[1] + abs(m.delta))
        ok = np.isfinite(err)
        ceiling = np.where(ok, err, np.inf)
        np.matmul(x.T, ys, out=s)
        for i in range(k):
            s[i] = b_h[i] + m.delta + b_t - (xx[i] + yy - 2.0 * s[i])
        s[np.isinf(s) | ~ok[:, None]] = np.nan
        terms = bad, ceiling
    x0 = xs[0]
    for i in np.flatnonzero(ordered[np.minimum(np.searchsorted(ordered, x0), n - 1)] == x0):
        s[i, first == x0[i]] = np.nan  # NaN stays NaN
    s[:, bad] = np.nan
    return s, ceiling, terms


def approx_margins(terms, rows, cols) -> np.ndarray:
    """The margins of an :func:`approx_scores` call's ``terms`` at the (row,
    tail) pairs ``rows, cols``, in its float32 (euclidean: float64)
    arithmetic, so each has the bits of the margin's expression there;
    infinite for a head outside the range and for a tail in ``bad``."""
    if len(terms) == 2:  # euclidean: one margin a head, its ceiling
        bad, ceiling = terms
        margin = ceiling[rows]
    else:
        bad, dots, args, (a_c, k_c, f_c, a_a, k_a, f_a, err) = terms
        margin = (a_c[rows] / np.maximum(k_c - np.abs(dots[rows, cols]), f_c)
                  + a_a[rows] / np.maximum(args[rows, cols] - k_a[rows], f_a[rows]) + err[rows])
    margin[np.isin(cols, bad)] = np.inf
    return margin


def _verify_block(m: Model, side: tuple, tails: tuple, heads: tuple, queries) -> list:
    """Per query of ``queries``, (h, r, t) rows whose moved heads are
    ``heads``: ``(s, verify, exact)``, its row of :func:`approx_scores`, the
    tails ``e`` for which ``|s_e - s_t| > M_e + M_t`` does not hold (NaNs
    and the gold included) and their exact scores.  :func:`approx_margins`
    gives ``M_e`` only in each row's window, where the test fails with the
    row's ceiling for ``M_e``: as the ceiling bounds every ``M_e`` and
    subtraction is monotone, the window holds every verified tail.  One
    :func:`score_candidates` call scores a block's verified pairs, and each
    exact score must lie within its margin of a non-NaN approximation, or
    :class:`NumericError` names the first query where one does not."""
    s, ceiling, terms = approx_scores(m, *heads, side)
    at = np.arange(len(queries))
    gold, gold_margin = s[at, queries[:, 2]], approx_margins(terms, at, queries[:, 2])
    windows = [np.flatnonzero(~(np.abs(s[i] - gold[i]) - ceiling[i] > gold_margin[i])) for i in at]
    rows, cols = np.repeat(at, [w.size for w in windows]), np.concatenate(windows)
    margin = approx_margins(terms, rows, cols)
    keep = ~(np.abs(s[rows, cols] - gold[rows]) - margin > gold_margin[rows])
    rows, cols, margin = rows[keep], cols[keep], margin[keep]
    exact = score_candidates(m, queries[rows, 0], queries[rows, 1], tails=columns(tails, cols),
                             _head=columns(heads, rows))
    approx = s[rows, cols]
    held = (np.abs(exact - approx) <= margin) | np.isnan(approx)
    if not np.all(held):
        h, r, t = queries[rows[np.argmin(held)]]
        raise NumericError(f"query ({h}, {r}, {t}): an exact score lies outside the margin "
                           f"of its approximation")
    ends = np.searchsorted(rows, np.append(at, at.size))
    return [(s[i], cols[a:b], exact[a:b]) for i, a, b in zip(at, ends, ends[1:])]


def filtered_rank(m: Model, store: TripleStore, triple, filter_splits=("train", "valid", "test"),
                  _index: dict | None = None, _verified: tuple | None = None) -> int:
    """Pessimistic filtered rank of the gold tail among all entities.

    rank = 1 + #{ e != t unfiltered with not score(h, r, e) < score(h, r, t) },
    counted over all entities less the known tails, without a mask.
    Called without ``_index``, it checks ``triple`` (:func:`check_triples`)
    and that ``m`` covers ``store`` (:func:`check_store`), which
    :func:`evaluate` checks once; the store checked its ids when it was built.

    ``_verified`` is this query's entry of :func:`_verify_block`, which a
    standalone call runs on a block of one: the tails it verified are
    ranked by their exact scores, and the rest lie on the side their
    approximation shows.
    """
    if _index is None:  # standalone: check the query and the store, index this pair only
        if np.shape(triple) != (3,):
            raise DimensionError(f"a triple is (head, relation, tail), got shape {np.shape(triple)}")
        check_triples(triple, m.n_entities, m.n_relations)
        check_store(m, store)
        _index = build_filter_index(store, filter_splits, keys=triple[:2])
    h, r, t = (int(i) for i in triple)
    if _verified is None:
        tails = candidate_tails(m)[0]
        _verified, = _verify_block(m, approx_side(m, tails), tails, move_heads(m, [h], [r])[0],
                                   np.array([(h, r, t)]))
    scores, verify, exact = _verified
    gold = exact[np.searchsorted(verify, t)]
    below = scores < scores[t]
    below[verify] = exact < gold  # not gold < gold, even for a NaN gold: it counts itself once
    rank = scores.size - np.count_nonzero(below)
    known = _index.get((h, r))
    if known is not None:
        known = known[known != t]
        rank -= known.size - np.count_nonzero(below[known])
    return int(rank)


def aggregate_ranks(ranks, relations) -> EvalReport:
    """Fold per-triple ranks into global and per-relation MRR and Hits@K for
    each K of :data:`HITS_KS`.  Ranks and relations that are not two 1-d
    arrays of one length raise :class:`DimensionError`, and a rank that is
    not a whole number of at least 1 raises :class:`PreconditionError`, a
    relation id that is negative or not an integer (``bool`` is not)
    :class:`IdLookupError`."""
    ranks, relations = np.asarray(ranks), np.asarray(relations)
    if ranks.ndim != 1 or relations.shape != ranks.shape:
        raise DimensionError(f"aggregate_ranks: ranks of shape {ranks.shape} and relations "
                             f"of shape {relations.shape} are not 1-d and of one length")
    if ranks.size == 0:
        raise EmptySplitError("aggregate_ranks: no ranks to aggregate")
    if not np.all(np.isfinite(ranks) & (ranks >= 1) & (np.floor(ranks) == ranks)):
        raise PreconditionError("aggregate_ranks: ranks must be whole numbers of at least 1")
    check_ids(relations, np.iinfo(np.int64).max, "relation")
    ranks, relations = ranks.astype(np.int64), relations.astype(np.int64)
    rr = 1.0 / ranks
    per_relation: dict[int, RelationMetrics] = {}
    for rel in np.unique(relations):
        sel = relations == rel
        per_relation[int(rel)] = RelationMetrics(
            mrr=float(np.mean(rr[sel])),
            hits={k: float(np.mean(ranks[sel] <= k)) for k in HITS_KS},
            count=int(np.count_nonzero(sel)),
        )
    return EvalReport(
        mrr=float(np.mean(rr)),
        hits={k: float(np.mean(ranks <= k)) for k in HITS_KS},
        triple_count=int(ranks.size),
        per_relation=per_relation,
    )


def evaluate(m: Model, store: TripleStore, split: str = "test",
             filter_splits=("train", "valid", "test")) -> EvalReport:
    """Rank every triple of ``split`` and aggregate the metrics.

    The tail side, its float32 copy (:func:`approx_side`) and the filter
    index are built once per call; heads are moved :data:`TRANSPOSE_BLOCK`
    and verified :data:`APPROX_BLOCK` at a time before
    :func:`filtered_rank` ranks each query.

    For the standard protocol (head and tail prediction) pass a store that
    has been augmented with inverse relations.  Its ids were checked when it
    was built; :func:`check_store` checks that ``m`` covers it, once per call.
    """
    check_store(m, store)
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise EmptySplitError(f"evaluate: split {split!r} is empty")
    index = build_filter_index(store, filter_splits, keys=triples[:, :2])
    tails = candidate_tails(m)[0]  # shared read-only by every query
    side = approx_side(m, tails)
    ranks = []
    for lo in range(0, triples.shape[0], TRANSPOSE_BLOCK):  # bounded head blocks
        hi = min(lo + TRANSPOSE_BLOCK, triples.shape[0])
        heads = move_heads(m, triples[lo:hi, 0], triples[lo:hi, 1])[0]
        for j in range(0, hi - lo, APPROX_BLOCK):
            block = slice(j, j + APPROX_BLOCK)
            verified = _verify_block(m, side, tails, columns(heads, block), triples[lo:hi][block])
            ranks += [filtered_rank(m, store, triples[i], filter_splits, _index=index, _verified=v)
                      for i, v in enumerate(verified, lo + j)]
    return aggregate_ranks(ranks, triples[:, 1])


# --- report rendering ---------------------------------------------------------


def _cells(m: RelationMetrics | EvalReport, digits: int) -> list[str]:
    """MRR then Hits@K for each of :data:`HITS_KS`, to ``digits`` decimals."""
    return [f"{v:.{digits}f}" for v in (m.mrr, *(m.hits[k] for k in HITS_KS))]


def report_csv(report: EvalReport, store: TripleStore) -> str:
    """CSV rows per relation, named from ``store``, plus a TOTAL row.  A name
    with a comma, quote or line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["relation", "count", "mrr", "hits1", "hits3", "hits10"])
    for rel in sorted(report.per_relation):
        rm = report.per_relation[rel]
        writer.writerow([store.relation_names[rel], rm.count, *_cells(rm, 6)])
    writer.writerow(["TOTAL", report.triple_count, *_cells(report, 6)])
    return out.getvalue()


def report_table(report: EvalReport, store: TripleStore) -> str:
    """Human-readable fixed-width table of the same numbers."""
    rows = [("relation", "count", "MRR", "H@1", "H@3", "H@10")]
    for rel in sorted(report.per_relation):
        rm = report.per_relation[rel]
        rows.append((store.relation_names[rel], str(rm.count), *_cells(rm, 4)))
    rows.append(("TOTAL", str(report.triple_count), *_cells(report, 4)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    rows.insert(1, ["-" * w for w in widths])
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)
    return "\n".join(lines) + "\n"
