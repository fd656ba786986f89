"""Shared helpers: manifold samplers and a finite-difference oracle."""

from __future__ import annotations

import numpy as np
import pytest

from ukge.geometry import Signature, phi

#: signatures for the one-against-all scoring pins: fewer than 8 space
#: coordinates, and 8 or more space or time coordinates, where numpy sums a
#: row with eight accumulators
SCORING_SIGNATURES = [Signature(6, 2), Signature(10, 2), Signature(16, 8), Signature(28, 4)]


def random_free_params(sig: Signature, n: int, rng, scale: float = 2.0) -> np.ndarray:
    """Unconstrained parameter rows with time norms safely away from zero."""
    z = rng.normal(0.0, scale, (n, sig.d))
    # keep the time block off the degenerate set
    small = np.linalg.norm(z[:, sig.p :], axis=-1) < 1e-3
    z[small, sig.p] += 1.0
    return z


def random_manifold_points(sig: Signature, n: int, rng, scale: float = 2.0) -> np.ndarray:
    return np.asarray(phi(random_free_params(sig, n, rng, scale), sig))


def central_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a float array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + h
        up = f(x)
        xflat[i] = orig - h
        down = f(x)
        xflat[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def assert_close(actual, expected, rtol=1e-10, atol=1e-12):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
