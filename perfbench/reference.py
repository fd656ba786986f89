"""Independent scoring oracle for the benchmark's output checks.

Plain numpy, written from the model's formulas rather than from ukge's code
path: entities go through the chart ``phi``, the relation acts by the V
Givens stage, the boosts and the U Givens stage, and the two-leg distance
is evaluated in closed form.  Projecting ``y`` onto the conic section of
``x`` leaves a sphere leg ``r_x * angle(x_t, y_t)`` and a hyperbolic leg
``alpha * arccosh((r_x |y_t| - <x_s, y_s>) / alpha^2)``, with
``r_x = sqrt(alpha^2 + |x_s|^2)``; the distance is the smaller of the two
projection orders.  Both forms agree with ukge's to about 1e-12.
"""

from __future__ import annotations

import numpy as np

ROTATION, REFLECTION = "rotation", "reflection"
STAGES = {  # operator flavour -> (U mode, V mode)
    "rotref": (ROTATION, REFLECTION),
    "rot": (ROTATION, ROTATION),
    "ref": (REFLECTION, REFLECTION),
}


def chart(z: np.ndarray, p: int, alpha: float) -> np.ndarray:
    """``(s, sqrt(alpha^2 + |s|^2) * t / |t|)`` row-wise."""
    s, t = z[:, :p], z[:, p:]
    radius = np.sqrt(alpha * alpha + np.sum(s * s, axis=1, keepdims=True))
    return np.concatenate([s, t / np.linalg.norm(t, axis=1, keepdims=True) * radius], axis=1)


def _givens(angles: np.ndarray, x: np.ndarray, mode: str) -> np.ndarray:
    a, b = x[:, 0::2], x[:, 1::2]
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty_like(x)
    if mode == ROTATION:
        out[:, 0::2], out[:, 1::2] = c * a - s * b, s * a + c * b
    else:
        out[:, 0::2], out[:, 1::2] = c * a + s * b, s * a - c * b
    return out


def transform(x: np.ndarray, theta, phi, mu, p: int, q: int, operator: str) -> np.ndarray:
    """``U_theta H_mu V_phi x`` for rows ``x`` sharing one relation."""
    u_mode, v_mode = STAGES[operator]
    y = _givens(phi, x, v_mode)
    ch, sh = np.cosh(mu), np.sinh(mu)
    a, t = y[:, :q].copy(), y[:, p:].copy()
    y[:, :q], y[:, p:] = ch * a + sh * t, sh * a + ch * t
    return _givens(theta, y, u_mode)


class Scorer:
    """Scores of (h, r, every entity) for a fixed ultra-geometry model."""

    def __init__(self, m):
        self.m = m
        self.p, self.q, self.alpha = m.sig.p, m.sig.q, m.sig.alpha
        self.tails = chart(m.entities, self.p, self.alpha)
        self.tail_space = self.tails[:, : self.p]
        self.tail_time = self.tails[:, self.p :]
        self.tail_time_norm = np.linalg.norm(self.tail_time, axis=1)
        self.tail_radius = np.sqrt(
            self.alpha**2 + np.sum(self.tail_space**2, axis=1)
        )

    def scores(self, h: int, r: int) -> np.ndarray:
        m = self.m
        x = transform(
            chart(m.entities[h : h + 1], self.p, self.alpha),
            m.theta[r], m.phi[r], m.mu[r], self.p, self.q, m.operator,
        )[0]
        xs, xt = x[: self.p], x[self.p :]
        x_radius = np.sqrt(self.alpha**2 + xs @ xs)
        x_time_norm = np.sqrt(xt @ xt)
        space_dot = self.tail_space @ xs
        cos = (self.tail_time @ xt) / (x_time_norm * self.tail_time_norm)
        angle = np.arccos(np.clip(cos, -1.0, 1.0))
        a2 = self.alpha * self.alpha

        def hyper(arg):
            return self.alpha * np.arccosh(np.maximum(arg / a2, 1.0))

        leg_xy = x_radius * angle + hyper(x_radius * self.tail_time_norm - space_dot)
        leg_yx = self.tail_radius * angle + hyper(self.tail_radius * x_time_norm - space_dot)
        dist = np.minimum(leg_xy, leg_yx)
        dist[np.all(self.tails == x, axis=1)] = 0.0
        return -dist * dist + m.biases[h, 0] + m.biases[:, 1] + m.delta


def filtered_rank(scores: np.ndarray, gold: int, known: np.ndarray) -> int:
    """1 + unfiltered competitors scoring at least the gold tail."""
    allowed = np.ones(scores.size, dtype=bool)
    allowed[known] = False
    allowed[gold] = False
    return 1 + int(np.count_nonzero(scores[allowed] >= scores[gold]))
