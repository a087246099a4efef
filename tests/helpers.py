"""Shared finite-difference oracles, point generators and reference kernels
for the test suite."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.special import logsumexp

from mirrorcoin.kernels import radial_profile
from mirrorcoin.mied import MollifierConfig
from mirrorcoin.samplers import hermite_features
from mirrorcoin.targets import MirroredDensity


# check_run's run integers, each unparsed (None), so that it checks none of them
UNPARSED_COUNTS = dict.fromkeys(
    ("seed", "n_particles", "n_iters", "metric_every", "spectral_terms"))


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


def box_interior_points(n, lo, hi, rng, margin=0.05):
    """Random points in the box, at least margin of its width from each face."""
    return lo + (hi - lo) * rng.uniform(margin, 1.0 - margin, size=(n, len(lo)))


# ---------------------------------------------------------------------------
# the box's mirror map, which defines neither its potential nor a dense
# inverse Hessian


def box_potential(lo, hi, x):
    """phi(x) = 1/2 sum_k [(x_k - lo_k) log(x_k - lo_k) + (hi_k - x_k) log(hi_k - x_k)]."""
    a, b = x - lo, hi - x
    return 0.5 * (a * np.log(a) + b * np.log(b)).sum(axis=-1)


def box_inverse_hessian(lo, hi, x):
    """Dense inverse (d, d) of phi's Hessian diag(1 / (2 (x - lo)) + 1 / (2 (hi - x)))."""
    h = 0.5 / (x - lo) + 0.5 / (hi - x)
    return np.linalg.inv(np.diag(h))


# ---------------------------------------------------------------------------
# pointwise reference kernels


def median_bandwidth(points: np.ndarray) -> float:
    """sqrt(median(d)^2 / log N) with the median taken by np.median."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    med = float(np.median(pdist(points)))
    return float(np.sqrt(med**2 / np.log(points.shape[0])))


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


# ---------------------------------------------------------------------------
# einsum references of the pairwise direction kernels
#
# These build the (N, N, d) pair differences, and the Stein kernel gradient
# its (N, N, d, d) contraction, term by term; the library computes the same
# sums as N x N weights and matrix products and is tested against them.


def msvgd_direction(Y: np.ndarray, md: MirroredDensity, family: str, h: float) -> np.ndarray:
    """Mirrored SVGD update direction for every particle.

    Row i is (1/N) sum_j [ k_phi(y_j, y_i) s(y_j) + grad_{y_j} k_phi(y_j, y_i) ],
    with s the dual score; the kernel gradient chains one inverse mirror
    Hessian onto the base-kernel gradient at the primal images.
    """
    mmap = md.mmap
    n = Y.shape[0]
    X = mmap.dual_to_primal(Y)
    S = md.dual_score_from_primal(X)
    diff = X[:, None, :] - X[None, :, :]          # [j, i] = x_j - x_i
    r2 = np.einsum("jia,jia->ji", diff, diff)
    f, f1, _, _ = radial_profile(family, r2, h)
    drift = np.einsum("ji,ja->ia", f, S)
    gx = 2.0 * f1[..., None] * diff               # grad_{x_j} k(x_j, x_i)
    repulse = mmap.hessian_inverse_apply(X[:, None, :], gx).sum(axis=0)
    return (drift + repulse) / n


def svgd_direction(X: np.ndarray, target, family: str, h: float) -> np.ndarray:
    """Plain primal-space SVGD direction (used by the projected baselines)."""
    n = X.shape[0]
    S = target.score(X)
    diff = X[:, None, :] - X[None, :, :]
    r2 = np.einsum("jia,jia->ji", diff, diff)
    f, f1, _, _ = radial_profile(family, r2, h)
    drift = np.einsum("ji,ja->ia", f, S)
    repulse = (2.0 * f1[..., None] * diff).sum(axis=0)
    return (drift + repulse) / n


# -- Stein kernel of the mirrored target ------------------------------------


def inverse_hessian(mmap, x: np.ndarray) -> np.ndarray:
    """Dense inverse mirror Hessians A(x) = diag(x) - sigma x x^T, (..., d, d)."""
    x = np.asarray(x, dtype=float)
    return x[..., :, None] * np.eye(x.shape[-1]) - mmap.sigma * x[..., :, None] * x[..., None, :]


def score_shift_jacobian(md: MirroredDensity, x: np.ndarray) -> np.ndarray:
    """Dense score-shift Jacobians (N, d, d) at the points x (N, d), from
    ``score_shift_jacobian_apply``: its apply to e_b is column b."""
    n, d = x.shape
    cols = md.score_shift_jacobian_apply(x[:, None, :], np.broadcast_to(np.eye(d), (n, d, d)))
    return np.swapaxes(cols, -1, -2)


def _stein_context(Y, md, family, h):
    mmap = md.mmap
    X = mmap.dual_to_primal(Y)
    A = inverse_hessian(mmap, X)                   # (N,d,d)
    q = md.score_shift(X)                          # (N,d)
    S = np.einsum("nab,nb->na", A, q)              # dual scores
    diff = X[:, None, :] - X[None, :, :]           # [j,i] = x_j - x_i
    r2 = np.einsum("jia,jia->ji", diff, diff)
    f, f1, f2, f3 = radial_profile(family, r2, h)
    P = np.einsum("iab,jib->jia", A, diff)         # A_i (x_j - x_i)
    Q = np.einsum("jab,jib->jia", A, diff)         # A_j (x_j - x_i)
    return X, A, q, S, diff, f, f1, f2, f3, P, Q


def stein_kernel_matrix(Y: np.ndarray, md: MirroredDensity, family: str, h: float) -> np.ndarray:
    """K[j, i] = stein kernel of the mirrored target at (y_j, y_i).

    Four terms: score-score, score-gradient both ways, and the mixed
    second-derivative trace, everything expressed through primal images and
    inverse mirror Hessians.
    """
    _, A, _, S, _, f, f1, f2, _, P, Q = _stein_context(Y, md, family, h)
    ss = np.einsum("ja,ia->ji", S, S)
    t1 = f * ss
    t2 = -2.0 * f1 * np.einsum("ja,jia->ji", S, P)
    t3 = 2.0 * f1 * np.einsum("jia,ia->ji", Q, S)
    trAA = np.einsum("jab,iab->ji", A, A)
    t4 = -2.0 * f1 * trAA - 4.0 * f2 * np.einsum("jia,jia->ji", P, Q)
    return t1 + t2 + t3 + t4


def contract_pieces(x, M):
    """The pieces of dense matrices M (..., d, d) at points x (..., d) that
    ``d_inv_hessian_contract`` takes: diag(M), M x and M^T x."""
    return (np.einsum("...mm->...m", M), np.einsum("...mb,...b->...m", M, x),
            np.einsum("...a,...am->...m", x, M))


def stein_kernel_grad2(Y: np.ndarray, md: MirroredDensity, family: str, h: float) -> np.ndarray:
    """grad of the stein kernel in its second argument: out[j, i] =
    grad_{y_i} K(y_j, y_i), shape (N, N, d).

    Differentiates every term of the kernel through the second argument's
    primal image; derivatives of the inverse mirror Hessian enter via the
    map's Frobenius contraction, and the dual-score Jacobian via the
    score-shift Jacobian.
    """
    mmap = md.mmap
    X, A, q, S, diff, f, f1, f2, f3, P, Q = _stein_context(Y, md, family, h)
    Hq = score_shift_jacobian(md, X)               # (N,d,d)

    # w[j,i] = f * S_j + A_j grad_x k = f S_j + 2 f1 Q
    w = f[..., None] * S[:, None, :] + 2.0 * f1[..., None] * Q

    # One Frobenius contraction <dA/dx_m, M> at x_i collects three sources:
    #   w q_i^T        (dual-score Jacobian, dA part)
    #   S_j (grad_{x'} k)^T = -2 f1 S_j diff^T
    #   A_j Hk = -2 f1 A_j - 4 f2 Q diff^T
    M = np.einsum("jia,ib->jiab", w, q)
    M -= 2.0 * f1[..., None, None] * np.einsum("ja,jib->jiab", S, diff)
    M -= 2.0 * f1[..., None, None] * A[:, None, :, :]
    M -= 4.0 * f2[..., None, None] * np.einsum("jia,jib->jiab", Q, diff)
    g = mmap.d_inv_hessian_contract(X[None, :, :], *contract_pieces(X[None, :, :], M))

    # dual-score Jacobian, A Hq part: Hq_i (A_i w)
    Aw = np.einsum("iab,jib->jia", A, w)
    g += np.einsum("iab,jib->jia", Hq, Aw)

    # (S_j . S_i) grad_{x'} k
    ss = np.einsum("ja,ia->ji", S, S)
    g -= 2.0 * (f1 * ss)[..., None] * diff

    # Hessian-in-second-argument acting on A_i S_j: (2 f1 I + 4 f2 dd^T) v
    v2 = np.einsum("iab,jb->jia", A, S)
    g += 2.0 * f1[..., None] * v2
    g += 4.0 * f2[..., None] * np.einsum("jia,jia->ji", diff, v2)[..., None] * diff

    # mixed Hessian acting on A_j S_i: (-2 f1 I - 4 f2 dd^T) v
    v3 = np.einsum("jab,ib->jia", A, S)
    g -= 2.0 * f1[..., None] * v3
    g -= 4.0 * f2[..., None] * np.einsum("jia,jia->ji", diff, v3)[..., None] * diff

    # trace term: tr[A_j dHk A_i]
    trAA = np.einsum("jab,iab->ji", A, A)
    qp = np.einsum("jia,jia->ji", Q, P)
    g += (4.0 * f2 * trAA + 8.0 * f3 * qp)[..., None] * diff
    g += 4.0 * f2[..., None] * (np.einsum("jab,jib->jia", A, P)
                                + np.einsum("iab,jib->jia", A, Q))

    # chain to dual coordinates through A_i
    return np.einsum("iab,jib->jia", A, g)


def _mollifier_terms(config: MollifierConfig, d: int, diff: np.ndarray,
                     r2: np.ndarray):
    """Log mollifier values and their gradients in the first argument.

    diff[i, j] = x_i - x_j, r2 the squared norms.  Returns (logphi, grad)
    with shapes (N, N) and (N, N, d).
    """
    eps = config.eps
    if config.kind == "riesz":
        s = config.s if config.s is not None else d + 1e-4
        base = r2 + eps * eps
        return -0.5 * s * np.log(base), -s * diff / base[..., None]
    if config.kind == "gaussian":
        return -r2 / (2.0 * eps * eps), -diff / (eps * eps)
    # laplace: -||z|| / eps, gradient 0 at the origin (subgradient choice)
    r = np.sqrt(r2)
    inv = np.zeros_like(r)
    nz = r > 0.0
    inv[nz] = 1.0 / (eps * r[nz])
    return -r / eps, -diff * inv[..., None]


def _log_terms(x: np.ndarray, target, config: MollifierConfig):
    x = np.asarray(x, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ija,ija->ij", diff, diff)
    logphi, grad = _mollifier_terms(config, x.shape[-1], diff, r2)
    logp = target.log_density(x)
    T = logphi - 0.5 * (logp[:, None] + logp[None, :])
    return T, grad, logp


def mie_gradient(x: np.ndarray, target, config: MollifierConfig) -> np.ndarray:
    """grad of log E in every particle.

    With softmax weights w over the term matrix, particle m collects the
    mollifier gradients of its row and column plus a score term weighted by
    its total softmax mass.
    """
    T, gphi, _ = _log_terms(x, target, config)
    w = np.exp(T - logsumexp(T))
    w2 = w + w.T                       # row m pairs (m, j); column (i, m)
    pair = np.einsum("mj,mja->ma", w2, gphi)
    mass = w2.sum(axis=1)
    return pair - 0.5 * mass[:, None] * target.score(x)


def mie_gradient_unfused(x: np.ndarray, target, config: MollifierConfig) -> np.ndarray:
    """The matrix-product MIED gradient with every N x N temporary a fresh
    array; the library computes it in place and must match it bit for bit.

    exp(T_ij) = e_ij a_i a_j exp(shift), with e = phi / phi(0) and
    a = exp(b - max b), b = -log(pi) / 2; c is e times the mollifier's
    gradient scale over its constant factor k."""
    r2 = cdist(x, x, "sqeuclidean")
    eps = config.eps
    if config.kind == "riesz":
        s = config.s if config.s is not None else x.shape[-1] + 1e-4
        u = r2 * (1.0 / (eps * eps)) + 1.0
        c = u ** (-0.5 * s - 1.0)
        e, k = u * c, -s / (eps * eps)
    elif config.kind == "gaussian":
        e = np.exp(r2 * (-0.5 / (eps * eps)))
        c, k = e.copy(), -1.0 / (eps * eps)
    else:
        r = np.sqrt(r2)
        e = np.exp(r * (-1.0 / eps))
        c, k = np.divide(e, r, out=np.zeros_like(r), where=r > 0.0), -1.0 / eps
    b = -0.5 * target.log_density(x)
    a = np.exp(b - b.max())
    ea = e @ a
    c[r2 == 0.0] = 0.0
    p = c @ np.column_stack([a[:, None] * x, a])
    g = k * (p[:, -1:] * x - p[:, :-1]) - (0.5 * ea)[:, None] * target.score(x)
    return (2.0 / (a @ ea)) * a[:, None] * g
