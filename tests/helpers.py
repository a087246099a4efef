"""Shared finite-difference oracles, point generators and reference kernels
for the test suite."""

from __future__ import annotations

import numpy as np

from mirrorcoin.kernels import radial_profile
from mirrorcoin.samplers import hermite_features


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function at a point."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian (m, d) of a vector function at a point."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def rel_err(got, want):
    """Max absolute error scaled by the magnitude of the reference."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(np.max(np.abs(want)), 1e-12)
    return np.max(np.abs(got - want)) / scale


def simplex_interior_points(n, d, rng, margin=0.0):
    """Random points in the open simplex (free coordinates).

    With margin > 0, points are pulled toward the barycenter so every
    category (including the implicit one) stays above margin/(d+1).
    """
    full = rng.dirichlet(np.full(d + 1, 2.0), size=n)
    if margin > 0.0:
        full = (1.0 - margin) * full + margin / (d + 1)
    return full[:, :d]


def orthant_interior_points(n, d, rng, low=0.05, high=3.0):
    return rng.uniform(low, high, size=(n, d))


# ---------------------------------------------------------------------------
# pointwise reference kernels


def base_eval_grad(family: str, h: float, x: np.ndarray, x2: np.ndarray):
    """Kernel value and gradient in the first argument, for point pairs.

    Inputs broadcast over leading axes; the last axis is the coordinate
    axis.  Returns (k, grad_x) with shapes (...,) and (..., d).
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    diff = x - x2
    r2 = (diff * diff).sum(axis=-1)
    f, f1, _, _ = radial_profile(family, r2, h)
    return f, 2.0 * f1[..., None] * diff


def gram(family: str, h: float, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(xa_i, xb_j)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    diff = xa[:, None, :] - xb[None, :, :]
    r2 = (diff * diff).sum(axis=-1)
    f, _, _, _ = radial_profile(family, r2, h)
    return f


def mirrored_eval_grad(mmap, family: str, h: float, y: np.ndarray, y2: np.ndarray):
    """Mirrored kernel value and both dual-space gradients for a point pair.

    k_phi(y, y') = k(x, x') at primal images; the chain rule contributes one
    inverse mirror Hessian per argument:

        grad_y k_phi = [grad^2 phi(x)]^-1 grad_x k.

    Returns (k, grad_y, grad_y2), broadcasting over leading axes.
    """
    x = mmap.dual_to_primal(np.asarray(y, dtype=float))
    x2 = mmap.dual_to_primal(np.asarray(y2, dtype=float))
    k, gx = base_eval_grad(family, h, x, x2)
    grad_y = mmap.hessian_inverse_apply(x, gx)
    grad_y2 = mmap.hessian_inverse_apply(x2, -gx)
    return k, grad_y, grad_y2


def hermite_kernel(ya: np.ndarray, yb: np.ndarray, n_terms: int) -> np.ndarray:
    """Truncated inverse-generator kernel of the 1-D standard Gaussian:
    k(a, b) = sum_{k=1..K} He_k(a) He_k(b) / (k * k!)."""
    Fa = hermite_features(ya, n_terms)[:, 1:]
    Fb = hermite_features(yb, n_terms)[:, 1:]
    inv_eig = 1.0 / np.arange(1.0, n_terms + 1.0)
    return (Fa * inv_eig) @ Fb.T
