"""Particle samplers on constrained domains.

All samplers share one convention: each iteration computes a per-particle
*direction* array (the negative gradient signal, "ready to be added") and
hands it to a stepper.  Gradient steppers scale it by a learning rate;
coin-betting steppers consume it as an outcome and never take a rate.

Mirrored samplers (msvgd / mksdd / mlawgd / mla and their coin twins) move
dual-space particles ``Y`` and read off primal particles ``X`` through the
mirror map every iteration, as MIED (mied and its coin twin) does with the
box's map.  Projected baselines (svgd_proj and its coin twin) move primal
particles directly and re-project onto the domain after every step.  One
loop, :func:`run_stack`, runs them all: it moves a stack of B runs of one
sampler family, which differ only in seed and stepper, as one (B, N, d)
array, and :func:`run_sampler` is a stack of one.  Every direction takes
leading axes and treats each (N, d) slice as its own cloud, so a run in a
stack gets the same bits it gets alone, and a sweep's grid pays each
array call's overhead once per iteration rather than once per run.  For
the length of a run the loop holds one thread per usable core
(:mod:`mirrorcoin.cores`), over which MIED's pair terms and the energy
metric split their rows.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cores
from .coin import AdaptiveCoin, KTCoin
from .errors import ConfigError, DomainViolation, NumericalFailure
from .geometry import INTERIOR_TOL, MAX_COUNT, make_map
from .kernels import KernelConfig, pair_sum, radial_profile, sq_dists
from .mied import MollifierConfig, mie_gradient
from .rng import substream
from .targets import LogNormalOrthant, MirroredDensity

GRAD_STEPPERS = ("fixed_lr", "rmsprop")
COIN_STEPPERS = ("coin_kt", "coin_adaptive")

MIRRORED_SAMPLERS = ("msvgd", "coin_msvgd", "mksdd", "coin_mksdd",
                     "mlawgd", "coin_mlawgd", "mla")
PROJECTED_SAMPLERS = ("svgd_proj", "coin_svgd_proj")
SAMPLERS = MIRRORED_SAMPLERS + PROJECTED_SAMPLERS + ("mied", "coin_mied")


# ---------------------------------------------------------------------------
# steppers


@dataclass(frozen=True)
class StepperConfig:
    kind: str  # no default: a sampler's is the first of its stepper_kinds
    lr: float | None = None

    def __post_init__(self):
        problems = []
        if self.kind not in GRAD_STEPPERS + COIN_STEPPERS:
            problems.append(f"unknown stepper kind {self.kind!r} "
                            f"(choices: {', '.join(GRAD_STEPPERS + COIN_STEPPERS)})")
        elif self.kind in COIN_STEPPERS:
            if self.lr is not None:
                problems.append(
                    f"stepper {self.kind!r} is learning-rate-free; remove lr"
                )
        elif self.lr is None or not self.lr > 0:
            problems.append(f"stepper {self.kind!r} requires a positive lr")
        if problems:
            raise ConfigError(problems)


class _FixedLR:
    """y + lr c; with ``noise``, a generator per run, the unadjusted Langevin
    step y + lr c + sqrt(2 lr) xi, each run's xi standard normal from its own."""

    def __init__(self, lr, noise=()):
        self.lr = lr
        self.noise = noise

    def step(self, y, c):
        out = y + self.lr * c
        for g, o, lr in zip(self.noise, out, self.lr):
            o += np.sqrt(2.0 * lr) * g.standard_normal(o.shape)
        return out


class _RMSProp:
    """Per-coordinate second-moment scaling: nu <- 0.9 nu + 0.1 c^2."""

    def __init__(self, lr, shape):
        self.lr = lr
        self.nu = np.zeros(shape)

    def step(self, y, c):
        self.nu = 0.9 * self.nu + 0.1 * c * c
        return y + self.lr * c / np.sqrt(self.nu + 1e-8)


def make_stepper(steppers, z0: np.ndarray, noise=()):
    """One engine for a stretch of runs whose ``steppers`` share a kind,
    from their (b, N, d) start ``z0``; the gradient kinds take the runs'
    rates as a (b, 1, 1) column, and ``noise`` (a generator per run) makes
    fixed_lr mla's Langevin step.

    Every engine has ``step(y, c) -> y_next``: ``c`` is the outcome computed
    at ``y``.  The caller owns the positions and may move them between steps
    (a projection, say); the next step starts from the ``y`` it is handed.
    """
    kind = steppers[0].kind
    if kind in COIN_STEPPERS:
        return KTCoin(z0) if kind == "coin_kt" else AdaptiveCoin(z0)
    lr = np.array([s.lr for s in steppers])[:, None, None]
    return _RMSProp(lr, np.shape(z0)) if kind == "rmsprop" else _FixedLR(lr, noise)


# ---------------------------------------------------------------------------
# initialization


@dataclass(frozen=True)
class InitSpec:
    """How the initial primal cloud is drawn, i.i.d. per particle.  The
    target's domain picks the draw and the fields it reads, so ``InitSpec()``
    is every domain's default."""

    alpha: float = 5.0       # simplex: dirichlet concentration (all categories)
    mu: float = 0.0          # orthant: lognormal location
    sigma: float = 1.0       # orthant: lognormal scale
    scale: float = 0.5       # box: uniform on this central fraction of the box


# the InitSpec fields each domain's draw reads, each with the open interval
# its value must lie in
INIT_PARAMS = {"simplex": {"alpha": (0.0, np.inf)},
               "orthant": {"mu": (-np.inf, np.inf), "sigma": (0.0, np.inf)},
               "box": {"scale": (0.0, 1.0)}}


def _init_problems(spec: InitSpec, domain: str) -> list:
    return [f"init.{key} must lie in ({lo:g}, {hi:g}), got {getattr(spec, key)!r}"
            for key, (lo, hi) in INIT_PARAMS[domain].items()
            if not lo < getattr(spec, key) < hi]


def draw_init(spec: InitSpec, target, n: int, rng: np.random.Generator) -> np.ndarray:
    """n initial particles in the domain of ``target``: dirichlet on the
    simplex, lognormal on the orthant, uniform on the central part of a box."""
    problems = _init_problems(spec, target.domain)
    if problems:
        raise ConfigError(problems)
    d = target.d
    if target.domain == "simplex":
        return rng.dirichlet(np.full(d + 1, spec.alpha), size=n)[:, :d]
    if target.domain == "orthant":
        return np.exp(spec.mu + spec.sigma * rng.standard_normal((n, d)))
    mid = 0.5 * (target.lo + target.hi)
    half = 0.5 * (target.hi - target.lo)
    return mid + spec.scale * half * rng.uniform(-1.0, 1.0, size=(n, d))


# ---------------------------------------------------------------------------
# projections (Euclidean, then pulled strictly inside by the interior floor)


def _project_full_simplex(v: np.ndarray) -> np.ndarray:
    """Rows of v onto {z >= 0, sum z = 1} (sort-based exact projection)."""
    d = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, d + 1)
    cond = u + (1.0 - css) / j > 0.0
    rho = d - np.argmax(cond[..., ::-1], axis=-1)
    theta = (1.0 - np.take_along_axis(css, rho[..., None] - 1, axis=-1)) / rho[..., None]
    return np.maximum(v + theta, 0.0)


def project_to_domain(target, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the target's closed domain, then interior floor."""
    x = np.asarray(x, dtype=float)
    if target.domain == "orthant":
        return np.maximum(x, INTERIOR_TOL)
    if target.domain == "box":
        return np.clip(x, target.lo + INTERIOR_TOL, target.hi - INTERIOR_TOL)
    if target.domain != "simplex":
        raise ConfigError(f"unknown domain kind {target.domain!r}")
    d = x.shape[-1]
    pos = np.maximum(x, 0.0)
    over = pos.sum(axis=-1) > 1.0
    out = pos.copy()
    if np.any(over):
        out[over] = _project_full_simplex(x[over])
    out = np.maximum(out, INTERIOR_TOL)
    cap = 1.0 - (d + 1) * INTERIOR_TOL
    s = out.sum(axis=-1)
    scale = np.where(s > cap, cap / s, 1.0)
    out = np.maximum(out * scale[..., None], INTERIOR_TOL)
    return out


# ---------------------------------------------------------------------------
# directions


def _pair_apply(c, X, V, sigma):
    """Row i = sum_j c[j, i] A_j v_i = (c^T X) v_i - sigma sum_j c[j, i] (x_j . v_i) x_j,
    with A_j = diag(x_j) - sigma x_j x_j^T; O(N^2 d), and no A_j is formed."""
    out = (c.mT @ X) * V
    if sigma:
        out -= sigma * ((c * (X @ V.mT)).mT @ X)
    return out


def msvgd_direction(Y: np.ndarray, md: MirroredDensity, family: str, h: float | str,
                    X: np.ndarray | None = None) -> np.ndarray:
    """Mirrored SVGD update direction for every particle.

    Row i is (1/N) sum_j [ k_phi(y_j, y_i) s(y_j) + grad_{y_j} k_phi(y_j, y_i) ],
    with s the dual score; the kernel gradient chains one inverse mirror
    Hessian onto the base-kernel gradient at the primal images, so the
    repulsion sum_j 2 f1[j, i] A_j (x_j - x_i) is f1^T (A x) minus
    sum_j f1[j, i] A_j x_i.  ``X`` is the checked primal image of ``Y``
    when the caller has it; None maps ``Y`` back and checks the image.
    """
    mmap = md.mmap
    if X is None:
        X = mmap.assert_interior(mmap.dual_to_primal(Y))
    S = md.dual_score_from_primal(X)
    f, f1 = radial_profile(family, sq_dists(X), h, order=1)
    repulse = f1.mT @ mmap.hessian_inverse_apply(X, X) - _pair_apply(f1, X, X, mmap.sigma)
    return (f.mT @ S + 2.0 * repulse) / Y.shape[-2]


def svgd_direction(X: np.ndarray, target, family: str, h: float | str) -> np.ndarray:
    """Plain primal-space SVGD direction (used by the projected baselines)."""
    f, f1 = radial_profile(family, sq_dists(X), h, order=1)
    return (f.mT @ target.score(X) + 2.0 * pair_sum(f1, X)) / X.shape[-2]


# -- Stein kernel of the mirrored target ------------------------------------
#
# Matrices indexed [j, i] pair the first argument y_j with the second y_i;
# dx = x_j - x_i is their primal difference and A_j = diag(x_j) - sigma x_j x_j^T
# the inverse mirror Hessian at x_j, with sigma the map's.  Every pair term
# in one or two A's splits into N x N products of the primal coordinates X,
# their squares X2, the dual scores S, and U (row j is A_j x_j): with
# G = X X^T and H = X X2^T (H[j, i] = x_j . x_i^2),
#   tr(A_j A_i)        = G - sigma (H + H^T) + sigma^2 G G
#   x_i^T A_j A_i x_j  = X2 X2^T - sigma G (H + H^T) + sigma^2 G G G
#   x_j^T A_i S_j      = (X S) X^T - sigma G (S X^T)
# and a weighted sum over j of A_j applied to a vector is (c^T X) times that
# vector minus sigma times a product weighted by c (X V^T) (see _pair_apply).
# So nothing larger than N x N or N x d is held, and the cost is O(N^2 d);
# the N x N temporaries are updated in place to keep the peak low.  X, when
# given, is the checked primal image of Y; None maps Y back and checks it.


def _rowdot(a, b):
    """Column of the row-wise dot products a_i . b_i."""
    return (a * b).sum(axis=-1, keepdims=True)


def _stein_context(Y, md, family, h, X=None):
    mmap = md.mmap
    sigma = mmap.sigma
    if X is None:
        X = mmap.assert_interior(mmap.dual_to_primal(Y))
    q = md.score_shift(X)                          # (N,d)
    S = mmap.hessian_inverse_apply(X, q)          # dual scores
    U = mmap.hessian_inverse_apply(X, X)
    X2 = X * X
    f, f1, f2, f3 = radial_profile(family, sq_dists(X), h)
    G = X @ X.mT
    st = G.copy()                                  # tr(A_j A_i)
    cross = X2 @ X2.mT                             # x_i^T A_j A_i x_j
    if sigma:
        t = X @ X2.mT
        t = t + t.mT
        t *= sigma
        st -= t
        t *= G
        cross -= t
        t = G * G
        t *= sigma**2
        st += t
        t *= G
        cross += t
        del t
    # st += dx^T (A_i S_j - A_j S_i), the term that shares its weight with
    # the trace; s4 = dx^T A_i S_j
    s4 = (X * S) @ X.mT
    s4 -= S @ U.mT
    if sigma:
        t = S @ X.mT
        t *= G
        t *= sigma
        s4 -= t
        del t
    st += s4
    st += s4.mT
    del s4
    # qp = dx^T A_j A_i dx = z + z^T - u_j . u_i - cross, z = x_j^T A_j A_i x_j
    z = (U * X) @ X.mT
    if sigma:
        t = U @ X.mT
        t *= G
        t *= sigma
        z -= t
        del t
    qp = z + z.mT
    del z
    qp -= U @ U.mT
    qp -= cross
    del cross
    return X, q, S, U, G, f, f1, f2, f3, S @ S.mT, st, qp


def stein_kernel_matrix(Y: np.ndarray, md: MirroredDensity, family: str,
                        h: float | str) -> np.ndarray:
    """K[j, i] = stein kernel of the mirrored target at (y_j, y_i).

    Four terms: score-score, score-gradient both ways, and the mixed
    second-derivative trace, everything expressed through primal images and
    inverse mirror Hessians.
    """
    _, _, _, _, _, f, f1, f2, _, ss, st, qp = _stein_context(Y, md, family, h)
    return f * ss - 2.0 * f1 * st - 4.0 * f2 * qp


def mksdd_direction(Y: np.ndarray, md: MirroredDensity, family: str, h: float | str,
                    X: np.ndarray | None = None) -> np.ndarray:
    """Descent direction on the squared discrepancy:
    row i = -(1/N^2) sum_j grad_{y_i} K(y_j, y_i).

    Differentiates every term of the kernel through the second argument's
    primal image and sums over j before any contraction: derivatives of the
    inverse mirror Hessian enter via the map's Frobenius contraction, which
    is linear and so is applied once to M_i = sum_j M[j, i], given as
    diag(M_i), M_i x_i and M_i^T x_i; the dual-score Jacobian enters via
    the score-shift Jacobian.  ``X`` is the checked primal image of ``Y``
    when the caller has it; None maps ``Y`` back and checks the image.
    """
    mmap = md.mmap
    sigma = mmap.sigma
    X, q, S, U, G, f, f1, f2, f3, ss, st, qp = _stein_context(Y, md, family, h, X)
    n = X.shape[-2]
    X2 = X * X

    # every term along dx: (S_j . S_i) grad_{x'} k, the Hessians acting on
    # A_i S_j and A_j S_i, and the trace tr[A_j dHk A_i]
    ss *= f1
    ss *= -2.0
    st *= f2
    st *= 4.0
    ss += st
    qp *= f3
    qp *= 8.0
    ss += qp
    del st, qp, f3
    g = pair_sum(ss, X)
    del ss

    # f1Ax_i = sum_j f1 A_j x_i, and likewise for f2; the rank-one part of A
    # brings in the same sums weighted by f1 G, f2 G and f2 G G
    f1X, f1S, f2X2 = f1.mT @ X, f1.mT @ S, f2.mT @ X2
    f1Ax, f2Ax = f1X * X, (f2.mT @ X) * X
    if sigma:
        F = f1 * G
        f1GX, f1GS = F.mT @ X, F.mT @ S
        F = f2 * G
        f2GX, f2GX2, f2GU = F.mT @ X, F.mT @ X2, F.mT @ U
        F *= G
        f2GGX = F.mT @ X
        del F
        f1Ax -= sigma * f1GX
        f2Ax -= sigma * f2GX
    f2Adx = f2.mT @ U - f2Ax                       # sum_j f2 A_j dx
    # W_i = sum_j w[j,i], w = f S_j + A_j grad_x k = f S_j + 2 f1 A_j dx
    W = f.mT @ S + 2.0 * (f1.mT @ U - f1Ax)
    del f

    # One Frobenius contraction <dA/dx_m, M> at x_i collects three sources:
    #   w q_i^T        (dual-score Jacobian, dA part)
    #   S_j (grad_{x'} k)^T = -2 f1 S_j dx^T
    #   A_j Hk = -2 f1 A_j - 4 f2 A_j dx dx^T
    # with sum_j f2 A_j dx dx^T = sum_j f2 u_j x_j^T - C_i - f2Adx x_i^T and
    # C_i = sum_j f2 (A_j x_i) x_j^T = diag(x_i) P_i - sigma Q_i, where
    # P_i = sum_j f2 x_j x_j^T and Q_i = sum_j f2 G x_j x_j^T.  M_i x_i and
    # M_i^T x_i come from the rank-one part of A and the contraction scales
    # them by sigma, so with sigma = 0 they are left at zero.
    diag = (W * q - 2.0 * (f1.mT @ (S * X) - f1S * X) - 2.0 * f1X
            - 4.0 * (f2.mT @ (U * X) - X * f2X2 - f2Adx * X))
    aax = X * f2X2                                 # sum_j f2 A_j A_i x_j
    mx = mtx = 0.0
    if sigma:
        diag += sigma * (2.0 * (f1.mT @ X2) - 4.0 * f2GX2)
        H = X @ X2.mT
        f2HX, f2HtX = (f2 * H).mT @ X, (f2 * H.mT).mT @ X
        del H
        aax -= sigma * (X * f2GX + f2HtX - sigma * f2GGX)
        F = S @ X.mT
        F *= f1
        f1SXX = F.mT @ X                           # sum_j f1 (S_j . x_i) x_j
        F = U @ X.mT
        F *= f2
        f2UXX = F.mT @ X                           # sum_j f2 (u_j . x_i) x_j
        del F
        xx = _rowdot(X, X)
        both = -2.0 * f1Ax - 4.0 * sigma * f2GGX
        mx = (both + W * _rowdot(q, X) - 2.0 * (f1GS - f1S * xx)
              - 4.0 * (f2GU - X * f2GX - f2Adx * xx))
        mtx = (both + q * _rowdot(W, X) - 2.0 * (f1SXX - X * _rowdot(f1S, X))
               - 4.0 * (f2UXX - f2HX - X * _rowdot(f2Adx, X)))
    g += mmap.d_inv_hessian_contract(X, diag, mx, mtx)

    # dual-score Jacobian, A Hq part: Hq_i (A_i W_i)
    g += md.score_shift_jacobian_apply(X, mmap.hessian_inverse_apply(X, W))

    # the Hessians acting on A_i S_j and A_j S_i, identity part
    g += 2.0 * (mmap.hessian_inverse_apply(X, f1S) - _pair_apply(f1, X, S, sigma))

    # trace term, rest: 4 f2 (A_i A_j dx + A_j A_i dx)
    g += 4.0 * (mmap.hessian_inverse_apply(X, f2Adx) + aax - _pair_apply(f2, X, U, sigma))

    # chain to dual coordinates through A_i
    return -mmap.hessian_inverse_apply(X, g) / n**2


# -- spectral (Hermite) kernel flow ------------------------------------------


def hermite_features(y: np.ndarray, n_terms: int) -> np.ndarray:
    """Normalized probabilists' Hermite features He_k(y)/sqrt(k!), k=0..n_terms."""
    y = np.asarray(y, dtype=float).reshape(-1)
    F = np.empty((y.size, n_terms + 1))
    F[:, 0] = 1.0
    if n_terms >= 1:
        F[:, 1] = y
    for k in range(1, n_terms):
        F[:, k + 1] = (y * F[:, k] - np.sqrt(k) * F[:, k - 1]) / np.sqrt(k + 1.0)
    return F


def mlawgd_direction(Y: np.ndarray, n_terms: int) -> np.ndarray:
    """Row i = -(1/N) sum_j d/dy_i k(y_i, y_j) for the Hermite kernel."""
    F = hermite_features(Y, n_terms).reshape(Y.shape[:-1] + (n_terms + 1,))
    ksum = F[..., 1:].sum(axis=-2)                   # sum_j He_k(y_j)/sqrt(k!)
    coef = ksum / np.sqrt(np.arange(1.0, n_terms + 1.0))
    return -(F[..., :n_terms] @ coef[..., None] / Y.shape[-2])


# ---------------------------------------------------------------------------
# run loop


@dataclass
class RunRecord:
    trace: list = field(default_factory=list)  # (iteration, metric, value, wall_ms)
    x_final: np.ndarray | None = None
    y_final: np.ndarray | None = None


# KSD descent holds nine float64 (N, N) matrices at its peak (the four
# radial profiles, G, three pair terms of the Stein kernel and one product
# being formed), and up to about 35 (N, d) arrays of per-particle sums on
# the simplex (about 20 on the orthant, where the rank-one terms drop out);
# it holds no (N, d, d) array.  The estimate counts ten (N, N) matrices and
# forty (N, d) arrays.  Runs whose estimate passes this budget are refused.
# A stack of B runs holds B times as much at once, so a sweep puts no more
# runs in one stack than the budget holds (max_stack).  2 GiB is a quarter
# of an 8 GiB host, so a two-worker sweep stays under half of it.
KSD_DESCENT_BUDGET = 2 * 2**30


def ksd_descent_bytes(n: int, d: int) -> int:
    """Estimated peak bytes of one KSD-descent direction, 8 N (10 N + 40 d)."""
    return 8 * n * (10 * n + 40 * d)


def max_stack(sampler, n_particles, d):
    """The most runs of ``sampler`` one stack may hold: as many KSD-descent
    runs as fit in KSD_DESCENT_BUDGET together, and at least one; any
    number of other runs."""
    if sampler.removeprefix("coin_") != "mksdd":
        return math.inf
    return max(1, KSD_DESCENT_BUDGET // ksd_descent_bytes(n_particles, d))


def stepper_kinds(sampler) -> tuple:
    """The stepper kinds ``sampler`` takes, its default first: a coin
    sampler bets (coin_adaptive or coin_kt), mla takes fixed steps, and
    every other sampler takes rmsprop or fixed_lr."""
    if sampler.startswith("coin_"):
        return ("coin_adaptive", "coin_kt")
    return ("fixed_lr",) if sampler == "mla" else ("rmsprop", "fixed_lr")


def sampler_stepper(sampler, kind=None, **options):
    """StepperConfig(kind, **options), ``kind`` by default the first of the
    :func:`stepper_kinds` of ``sampler``; None when neither ``kind`` nor a
    known ``sampler`` says which.  Refused options raise ConfigError."""
    if kind is None and sampler not in SAMPLERS:
        return None
    return StepperConfig(stepper_kinds(sampler)[0] if kind is None else kind, **options)


def check_run(target, sampler, stepper, init, *, seed, n_particles, n_iters,
              metric_every, spectral_terms) -> list:
    """Every reason ``sampler`` cannot run on ``target`` as configured: the
    integers ``seed``, ``n_particles``, ``n_iters``, ``metric_every`` and
    ``spectral_terms`` below their bounds and the two counts above MAX_COUNT
    (named by their config keys), then the sampler's own rules.  An
    argument given as None (it failed to parse) skips the checks that need
    it."""
    problems = [f"{key} must be >= {low}" for key, value, low in (
        ("seed", seed, 0), ("sampler.n_particles", n_particles, 1),
        ("sampler.n_iters", n_iters, 0), ("sampler.metric_every", metric_every, 1),
        ("spectral.terms", spectral_terms, 1)) if value is not None and value < low]
    problems += [f"{key} must be <= {MAX_COUNT}" for key, value in (
        ("sampler.n_particles", n_particles), ("spectral.terms", spectral_terms))
        if value is not None and value > MAX_COUNT]
    if sampler is None:
        return problems
    if sampler not in SAMPLERS:
        return problems + [f"sampler.kind: unknown sampler {sampler!r} "
                           f"(choices: {', '.join(SAMPLERS)})"]
    kinds = stepper_kinds(sampler)
    if stepper is not None and stepper.kind not in kinds:
        problems.append(f"{sampler} takes stepper {' or '.join(kinds)}, "
                        f"got {stepper.kind!r}")
    if target is None:
        return problems
    if sampler in MIRRORED_SAMPLERS and target.domain == "box":
        problems.append("the box map has no dual score; use svgd_proj or mied")
    if sampler in ("mied", "coin_mied") and target.domain != "box":
        problems.append(f"{sampler} runs on box domains only, "
                        f"not the {target.domain}; use a mirrored sampler")
    if sampler in ("mlawgd", "coin_mlawgd"):
        # the Hermite kernel never reads the target: the flow always aims at
        # a standard normal dual, the dual of the standard lognormal only
        if target.d != 1:
            problems.append("the spectral kernel flow ships only for d = 1")
        elif target.domain != "box" and not (isinstance(target, LogNormalOrthant)
                                             and (target.mu, target.sigma) == (0.0, 1.0)):
            problems.append("the spectral kernel flow aims at a standard normal dual, so it "
                            "runs only on lognormal_orthant with mu 0 and sigma 1")
    if init is not None:
        problems += _init_problems(init, target.domain)
    if sampler in ("mksdd", "coin_mksdd") and n_particles is not None:
        need = ksd_descent_bytes(n_particles, target.d)
        if need > KSD_DESCENT_BUDGET:
            problems.append(
                f"{sampler} at N={n_particles}, d={target.d} needs about "
                f"{need / 2**30:.1f} GiB per direction, over the "
                f"{KSD_DESCENT_BUDGET / 2**30:.0f} GiB budget; use fewer particles")
    return problems


def mirrored_density(target) -> MirroredDensity:
    """The target paired with its domain's mirror map."""
    return MirroredDensity(target, make_map(target))


@dataclass(frozen=True)
class Run:
    """One run of a stack: its sampler, seed and stepper (None takes the
    sampler's default, as in :func:`run_sampler`), and the name a failure
    report gives it, by default its sampler."""

    sampler: str
    seed: int
    stepper: StepperConfig | None = None
    name: str | None = None


def run_sampler(
    *,
    target,
    sampler: str,
    n_particles: int,
    n_iters: int,
    seed: int,
    stepper: StepperConfig | None = None,
    kernel: KernelConfig = KernelConfig(),
    mollifier: MollifierConfig = MollifierConfig(),
    spectral_terms: int = 30,
    init: InitSpec = InitSpec(),
    metric_every: int = 10,
    hooks: dict | None = None,
) -> RunRecord:
    """Run one sampler for ``n_iters`` iterations and return its record:
    :func:`run_stack` with a stack of one run.

    The stepper moves one of two kinds of coordinates, as the sampler
    family says: the dual coordinates of the mirror map of
    ``target.domain`` (:func:`mirrored_density`) for mirrored samplers and
    MIED, or the primal coordinates, projected onto the domain after every
    step, for projected samplers.  The record's ``y_final`` holds the dual
    coordinates (None for projected samplers).

    Each iteration settles the stepped coordinates into a primal cloud
    ``X`` once, and the direction takes that settled ``X`` rather than
    mapping the coordinates back again.  Each cloud is checked once: the
    draw at iteration 0, even when no iteration runs (by ``primal_to_dual``,
    or as its projection for a projected run), and each settled cloud, the
    first image of the draw's dual coordinates included, before a direction
    reads it.  One outside the open domain raises DomainViolation, and a
    non-finite outcome or hook value raises NumericalFailure.  A failure
    names the sampler and the iteration, as in a stack.

    ``stepper`` defaults to ``sampler_stepper(sampler)``, as in a config,
    so a gradient sampler still needs an lr; that default's problems and
    :func:`check_run`'s raise one ConfigError with the messages a config gets.

    ``hooks`` maps metric names to callables ``(x_cloud, y_cloud) -> float``
    evaluated at iteration 0, every ``metric_every`` iterations, and at the
    final iteration.  ``y_cloud`` is None for projected samplers.
    """
    return run_stack([Run(sampler, seed, stepper)], target=target,
                     n_particles=n_particles, n_iters=n_iters, kernel=kernel,
                     mollifier=mollifier, spectral_terms=spectral_terms, init=init,
                     metric_every=metric_every, hooks=hooks)[0]


def run_stack(runs, *, target, n_particles, n_iters, kernel, mollifier,
              spectral_terms, init, metric_every, hooks) -> list:
    """Run a stack of runs as one (B, N, d) array and return their records.

    The runs share every keyword argument of :func:`run_sampler` but
    ``sampler``, ``seed`` and ``stepper``, which each :class:`Run` gives;
    each is given, none has a default.  They share one sampler family
    (msvgd with coin_msvgd, say).  Each run draws its cloud from its own
    seed.  Each stretch of consecutive runs whose steppers share a kind has
    one engine, which steps that stretch's slice of the stack with each
    run's own rate (and mla's noise from each run's seed).  Every array
    op acts on each (N, d) slice as it would on that cloud alone, so each
    record holds the same bits as that run's alone.  The first iteration at
    which an outcome or a hook's value is not finite (NumericalFailure), or a
    cloud leaves the open domain (DomainViolation), ends the stack, and its
    failure names the first run, in stack order, that did; a run's draw (a
    projected run's projection of it) is checked at iteration 0.
    """
    steppers, problems = [], []
    for run in runs:
        stepper = run.stepper
        if stepper is None:
            try:
                stepper = sampler_stepper(run.sampler)
            except ConfigError as exc:
                problems += [f"stepper: {v}" for v in exc.violations]
        steppers.append(stepper)
        problems += check_run(target, run.sampler, stepper, init, seed=run.seed,
                              n_particles=n_particles, n_iters=n_iters,
                              metric_every=metric_every, spectral_terms=spectral_terms)
    if len({run.sampler.removeprefix("coin_") for run in runs}) > 1:
        problems.append("a stack's runs take one sampler family")
    if problems:
        raise ConfigError(list(dict.fromkeys(problems)))
    hooks = hooks or {}
    base = runs[0].sampler.removeprefix("coin_")
    projected = base == "svgd_proj"

    X = np.stack([draw_init(init, target, n_particles, substream(run.seed, "init"))
                  for run in runs])

    def fail(error, ok, clouds, it, what):
        # only a failed check works out which run failed: the first, in
        # stack order, whose slice is not ok
        name = next(run.name or run.sampler for run, cb in zip(runs, clouds) if not ok(cb))
        raise error(f"{name}: {what} at iteration {it}") from None

    # Z is what the stepper moves; settle maps a stepped Z to (Z, X), and
    # direction(Z, X) is the outcome the stepper takes at the pair; inside(X)
    # says a settled cloud is in the open domain (a projected one is, if finite).
    if projected:
        def direction(x, _):
            return svgd_direction(x, target, kernel.family, kernel.bandwidth)

        def settle(z):
            x = project_to_domain(target, z)
            return x, x

        def inside(x):
            return np.isfinite(x).all()

        Z = X
    else:
        md = mirrored_density(target)
        mmap = md.mmap
        direction = {
            "msvgd": lambda y, x: msvgd_direction(y, md, kernel.family, kernel.bandwidth, x),
            "mksdd": lambda y, x: mksdd_direction(y, md, kernel.family, kernel.bandwidth, x),
            "mlawgd": lambda y, _: mlawgd_direction(y, spectral_terms),
            "mla": lambda y, x: md.dual_score_from_primal(x),
            "mied": lambda y, x: -mmap.hessian_inverse_apply(
                x, mie_gradient(x, target, mollifier)),
        }[base]

        def settle(y):
            return y, mmap.dual_to_primal(y)

        inside = mmap.inside
        try:
            Z = mmap.primal_to_dual(X)              # the drawn cloud's one check
        except DomainViolation:
            fail(DomainViolation, inside, X, 0, "particle left the open domain")

    records = [RunRecord() for _ in runs]

    def observe(it, x, z):
        if hooks and (it == 0 or it == n_iters or it % metric_every == 0):
            ms = (time.perf_counter() - t0) * 1e3
            for run, record, xb, zb in zip(runs, records, x, z):
                for name, fn in hooks.items():
                    value = float(fn(xb, None if projected else zb))
                    if not math.isfinite(value):
                        # a metric that overflows fails its run, as an outcome does
                        raise NumericalFailure(f"{run.name or run.sampler}: non-finite "
                                               f"{name} at iteration {it}")
                    record.trace.append((it, name, value, ms))

    def checked(z, it):
        # the loop's interior check, one per settled stack; the directions
        # trust the X it passes
        settled = settle(z)
        if not inside(settled[1]):
            fail(DomainViolation, inside, settled[1], it, "particle left the open domain")
        return settled

    def finite(c, it):
        # one check per stack's outcome: a stepper may read a non-finite one
        # as "no move" (AdaptiveCoin does), which no settled check would see
        if not np.isfinite(c).all():
            fail(NumericalFailure, lambda cb: np.isfinite(cb).all(), c, it, "non-finite outcome")
        return c

    if projected:
        # the projected draw is the run's first cloud, checked even when no
        # iteration runs
        Z, X = checked(Z, 0)

    # one engine per stretch of consecutive runs whose steppers share a
    # kind, stepping its slice of the stack
    engines, start = [], 0
    for _, stretch in itertools.groupby(steppers, lambda s: s.kind):
        stretch = list(stretch)
        part = slice(start, start + len(stretch))
        noise = [substream(run.seed, "mla_noise") for run in runs[part]] if base == "mla" else ()
        engines.append((part, make_stepper(stretch, Z[part], noise)))
        start = part.stop

    def step(z, c):
        return np.concatenate([engine.step(z[part], c[part]) for part, engine in engines])

    t0 = time.perf_counter()
    with cores.run_pool():
        observe(0, X, Z)
        if not projected and n_iters:
            # the drawn cloud and the primal image of its dual coordinates
            # differ in rounding; the first direction sees the image, as all
            # later ones do
            Z, X = checked(Z, 0)
        for it in range(1, n_iters + 1):
            Z, X = checked(step(Z, finite(direction(Z, X), it)), it)
            observe(it, X, Z)

    for record, xb, zb in zip(records, X, Z):
        record.x_final = xb
        record.y_final = None if projected else zb
    return records
