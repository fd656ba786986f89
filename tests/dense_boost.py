"""The dense boost matrix of the one-time-dimension case, which the tests
compare the O(d) boost stage of :mod:`ukge.operators` against."""

from __future__ import annotations

import numpy as np

from ukge.errors import ConfigurationError, DimensionError
from ukge.geometry import Signature


def lorentz_boost(b: np.ndarray, sig: Signature | None = None) -> np.ndarray:
    """Dense boost matrix for the one-time-dimension (q = 1) case.

    Returns ``[[sqrt(I + b b^T), b], [b^T, sqrt(1 + |b|^2)]]`` where the
    matrix square root has the closed form ``I + c b b^T`` with
    ``c = (sqrt(1 + |b|^2) - 1) / |b|^2``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.size == 0:
        raise DimensionError("lorentz_boost: b must be a nonempty vector")
    if sig is not None:
        if sig.q != 1:
            raise ConfigurationError("lorentz_boost requires signature with q = 1")
        if sig.p != b.size:
            raise DimensionError(
                f"lorentz_boost: expected b of length {sig.p}, got {b.size}"
            )
    p = b.size
    nsq = float(b @ b)
    gamma = np.sqrt(1.0 + nsq)
    if nsq == 0.0:
        top = np.eye(p)
    else:
        top = np.eye(p) + ((gamma - 1.0) / nsq) * np.outer(b, b)
    out = np.empty((p + 1, p + 1))
    out[:p, :p] = top
    out[:p, p] = b
    out[p, :p] = b
    out[p, p] = gamma
    return out
