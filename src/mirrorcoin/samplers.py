"""Particle samplers on constrained domains.

All samplers share one convention: each iteration computes a per-particle
*direction* array (the negative gradient signal, "ready to be added") and
hands it to a stepper.  Gradient steppers scale it by a learning rate;
coin-betting steppers consume it as an outcome and never take a rate.

Mirrored samplers (msvgd / mksdd / mlawgd / mla and their coin twins) move
dual-space particles ``Y`` and read off primal particles ``X`` through the
mirror map every iteration.  Projected baselines (svgd_proj and its coin
twin) move primal particles directly and re-project onto the domain after
every step.  MIED (mied and its coin twin) moves the tanh coordinates of a
box.  One loop, :func:`run_sampler`, runs them all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .coin import AdaptiveCoin, KTCoin
from .errors import ConfigError, DomainViolation
from .geometry import INTERIOR_TOL, make_map
from .kernels import KernelConfig, pair_sum, radial_profile, resolve_bandwidth
from .mied import MollifierConfig, TanhBox, mie_gradient
from .rng import substream
from .targets import MirroredDensity

GRAD_STEPPERS = ("fixed_lr", "rmsprop")
COIN_STEPPERS = ("coin_kt", "coin_adaptive")

MIRRORED_SAMPLERS = ("msvgd", "coin_msvgd", "mksdd", "coin_mksdd",
                     "mlawgd", "coin_mlawgd", "mla")
PROJECTED_SAMPLERS = ("svgd_proj", "coin_svgd_proj")
SAMPLERS = MIRRORED_SAMPLERS + PROJECTED_SAMPLERS + ("mied", "coin_mied")

_COIN_TWINS = {
    "msvgd": "coin_msvgd",
    "mksdd": "coin_mksdd",
    "mlawgd": "coin_mlawgd",
    "svgd_proj": "coin_svgd_proj",
    "mied": "coin_mied",
}


def coin_twin(sampler: str) -> str:
    try:
        return _COIN_TWINS[sampler]
    except KeyError:
        raise ConfigError(f"sampler {sampler!r} has no coin twin")


# ---------------------------------------------------------------------------
# steppers


@dataclass(frozen=True)
class StepperConfig:
    kind: str = "coin_adaptive"
    lr: float | None = None
    guard: bool = False

    def __post_init__(self):
        problems = []
        if self.kind not in GRAD_STEPPERS + COIN_STEPPERS:
            problems.append(f"unknown stepper kind {self.kind!r}")
        elif self.kind in COIN_STEPPERS:
            if self.lr is not None:
                problems.append(
                    f"stepper {self.kind!r} is learning-rate-free; remove lr"
                )
        else:
            if self.lr is None or not self.lr > 0:
                problems.append(f"stepper {self.kind!r} requires a positive lr")
            if self.guard:
                problems.append("guard is only meaningful for coin_adaptive")
        if problems:
            raise ConfigError(problems)


class _FixedLR:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, y, c):
        return y + self.lr * c


class _RMSProp:
    """Per-coordinate second-moment scaling: nu <- 0.9 nu + 0.1 c^2."""

    def __init__(self, lr: float, shape):
        self.lr = lr
        self.nu = np.zeros(shape)

    def step(self, y, c):
        self.nu = 0.9 * self.nu + 0.1 * c * c
        return y + self.lr * c / np.sqrt(self.nu + 1e-8)


class _Langevin:
    """Unadjusted Langevin: y + lr c + sqrt(2 lr) xi, xi standard normal."""

    def __init__(self, lr: float, rng: np.random.Generator):
        self.lr = lr
        self.rng = rng

    def step(self, y, c):
        return y + self.lr * c + np.sqrt(2.0 * self.lr) * self.rng.standard_normal(y.shape)


def make_stepper(config: StepperConfig, y0: np.ndarray):
    """The stepper ``config`` names, for positions that start at ``y0``.

    Every stepper has ``step(y, c) -> y_next``: ``c`` is the outcome computed
    at ``y``.  The caller owns the positions and may move them between steps
    (a projection, say); the next step starts from the ``y`` it is handed.
    """
    if config.kind == "fixed_lr":
        return _FixedLR(config.lr)
    if config.kind == "rmsprop":
        return _RMSProp(config.lr, np.shape(y0))
    if config.kind == "coin_kt":
        return KTCoin(y0)
    return AdaptiveCoin(y0, config.guard)


# ---------------------------------------------------------------------------
# initialization


@dataclass(frozen=True)
class InitSpec:
    """How the initial primal cloud is drawn, i.i.d. per particle."""

    kind: str  # "dirichlet" | "lognormal" | "box_uniform"
    alpha: float = 5.0       # dirichlet concentration (all categories)
    mu: float = 0.0          # lognormal location
    sigma: float = 1.0       # lognormal scale
    scale: float = 0.5       # box_uniform: central fraction of the box


# the InitSpec fields each init kind reads, and the domain it draws on
INIT_PARAMS = {"dirichlet": ("alpha",), "lognormal": ("mu", "sigma"),
               "box_uniform": ("scale",)}
INIT_DOMAIN = {"dirichlet": "simplex", "lognormal": "orthant", "box_uniform": "box"}


def default_init(target) -> InitSpec:
    return InitSpec(next(k for k, dom in INIT_DOMAIN.items() if dom == target.domain))


def _init_problems(spec: InitSpec, domain_kind: str) -> list:
    if spec.kind not in INIT_DOMAIN:
        return [f"unknown init kind {spec.kind!r}"]
    if INIT_DOMAIN[spec.kind] != domain_kind:
        return [f"{spec.kind} init needs the {INIT_DOMAIN[spec.kind]} domain, "
                f"not the {domain_kind}"]
    return []


def draw_init(spec: InitSpec, target, n: int, rng: np.random.Generator) -> np.ndarray:
    """n initial particles in the domain of ``target``."""
    problems = _init_problems(spec, target.domain)
    if problems:
        raise ConfigError(problems)
    d = target.d
    if spec.kind == "dirichlet":
        return rng.dirichlet(np.full(d + 1, spec.alpha), size=n)[:, :d]
    if spec.kind == "lognormal":
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


def project_to_domain(target, x: np.ndarray, tol: float = INTERIOR_TOL) -> np.ndarray:
    """Euclidean projection onto the target's closed domain, then interior floor."""
    x = np.asarray(x, dtype=float)
    if target.domain == "orthant":
        return np.maximum(x, tol)
    if target.domain == "box":
        return np.clip(x, target.lo + tol, target.hi - tol)
    if target.domain != "simplex":
        raise ConfigError(f"unknown domain kind {target.domain!r}")
    d = x.shape[-1]
    pos = np.maximum(x, 0.0)
    over = pos.sum(axis=-1) > 1.0
    out = pos.copy()
    if np.any(over):
        out[over] = _project_full_simplex(x[over])
    out = np.maximum(out, tol)
    cap = 1.0 - (d + 1) * tol
    s = out.sum(axis=-1)
    scale = np.where(s > cap, cap / s, 1.0)
    out = np.maximum(out * scale[..., None], tol)
    return out


# ---------------------------------------------------------------------------
# directions


def _apply(B: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i = B_i v_i for a stack of matrices B (N, d, d) and rows v (N, d)."""
    return np.einsum("iab,ib->ia", B, v)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row j = u_j v_j^T, flattened to d*d entries."""
    return (u[:, :, None] * v[:, None, :]).reshape(u.shape[0], -1)


def msvgd_direction(Y: np.ndarray, md: MirroredDensity, family: str, h: float,
                    X: np.ndarray | None = None) -> np.ndarray:
    """Mirrored SVGD update direction for every particle.

    Row i is (1/N) sum_j [ k_phi(y_j, y_i) s(y_j) + grad_{y_j} k_phi(y_j, y_i) ],
    with s the dual score; the kernel gradient chains one inverse mirror
    Hessian onto the base-kernel gradient at the primal images, so the
    repulsion sum_j 2 f1[j, i] A_j (x_j - x_i) is f1^T (A x) minus
    (sum_j f1[j, i] A_j) x_i.  ``X`` is the primal image of ``Y`` when the
    caller has it already; None maps ``Y`` back.
    """
    mmap = md.mmap
    n, d = Y.shape
    if X is None:
        X = mmap.dual_to_primal(Y)
    S = md.dual_score_from_primal(X)
    f, f1 = radial_profile(family, cdist(X, X, "sqeuclidean"), h, order=1)
    f1A = (f1.T @ mmap.inverse_hessian(X).reshape(n, d * d)).reshape(n, d, d)
    repulse = f1.T @ mmap.hessian_inverse_apply(X, X) - _apply(f1A, X)
    return (f.T @ S + 2.0 * repulse) / n


def svgd_direction(X: np.ndarray, target, family: str, h: float) -> np.ndarray:
    """Plain primal-space SVGD direction (used by the projected baselines)."""
    n = X.shape[0]
    f, f1 = radial_profile(family, cdist(X, X, "sqeuclidean"), h, order=1)
    return (f.T @ target.score(X) + 2.0 * pair_sum(f1, X)) / n


# -- Stein kernel of the mirrored target ------------------------------------
#
# Matrices indexed [j, i] pair the first argument y_j with the second y_i;
# dx = x_j - x_i is their primal difference and A_j the inverse mirror
# Hessian at x_j.  Every pair term is an N x N scalar matrix built from matrix
# products, so nothing of size N^2 d is held at once.  X, when given, is the
# primal image of Y.


def _stein_context(Y, md, family, h, X=None):
    mmap = md.mmap
    n, d = Y.shape
    if X is None:
        X = mmap.dual_to_primal(Y)
    A = mmap.inverse_hessian(X)                    # (N,d,d)
    Af = A.reshape(n, d * d)
    q = md.score_shift(X)                          # (N,d)
    S = _apply(A, q)                               # dual scores
    u = _apply(A, X)                               # A_j x_j
    f, f1, f2, f3 = radial_profile(family, cdist(X, X, "sqeuclidean"), h)
    s4 = _outer(X, S) @ Af.T - S @ u.T             # dx^T A_i S_j
    # dx^T (A_i S_j - A_j S_i) + tr(A_j A_i), the two terms that share weights
    st = s4 + s4.T + Af @ Af.T
    z = _outer(u, X) @ Af.T                        # x_j^T A_j A_i x_j
    cross = np.zeros((n, n))                       # x_i^T A_j A_i x_j
    for Ac in A.transpose(1, 0, 2):
        Tc = Ac @ X.T                              # [j, i] = (A_j x_i)_c
        cross += Tc * Tc.T
    qp = z + z.T - u @ u.T - cross                 # dx^T A_j A_i dx
    return X, A, q, S, u, f, f1, f2, f3, S @ S.T, st, qp


def stein_kernel_matrix(Y: np.ndarray, md: MirroredDensity, family: str, h: float) -> np.ndarray:
    """K[j, i] = stein kernel of the mirrored target at (y_j, y_i).

    Four terms: score-score, score-gradient both ways, and the mixed
    second-derivative trace, everything expressed through primal images and
    inverse mirror Hessians.
    """
    _, _, _, _, _, f, f1, f2, _, ss, st, qp = _stein_context(Y, md, family, h)
    return f * ss - 2.0 * f1 * st - 4.0 * f2 * qp


def stein_vstat(Y, md, family, h) -> float:
    """V-statistic (1/N^2) sum_{j,i} K[j, i]; the squared discrepancy."""
    return float(stein_kernel_matrix(Y, md, family, h).mean())


def mksdd_direction(Y: np.ndarray, md: MirroredDensity, family: str, h: float,
                    X: np.ndarray | None = None) -> np.ndarray:
    """Descent direction on the squared discrepancy:
    row i = -(1/N^2) sum_j grad_{y_i} K(y_j, y_i).

    Differentiates every term of the kernel through the second argument's
    primal image and sums over j before any contraction: derivatives of the
    inverse mirror Hessian enter via the map's Frobenius contraction, which
    is linear and so is applied once to sum_j M[j, i], and the dual-score
    Jacobian via the score-shift Jacobian.  ``X`` is the primal image of
    ``Y`` when the caller has it already; None maps ``Y`` back.
    """
    mmap = md.mmap
    n, d = Y.shape
    X, A, q, S, u, f, f1, f2, f3, ss, st, qp = _stein_context(Y, md, family, h, X)
    Af = A.reshape(n, d * d)
    f1A = (f1.T @ Af).reshape(n, d, d)             # sum_j f1 A_j
    f2A = (f2.T @ Af).reshape(n, d, d)
    f1S = f1.T @ S
    f2Adx = f2.T @ u - _apply(f2A, X)              # sum_j f2 A_j dx

    # the terms cubic in A and x: sum_j f2 (A_j x_i) x_j^T and sum_j f2 A_j A_i x_j
    cub = np.empty((n, d, d))
    aax = np.zeros((n, d))
    for c in range(d):
        Tc = A[:, c, :] @ X.T                      # [j, i] = (A_j x_i)_c
        cub[:, c, :] = (f2 * Tc).T @ X
        aax += (f2.T * Tc) @ A[:, :, c]

    # W_i = sum_j w[j,i], w = f S_j + A_j grad_x k = f S_j + 2 f1 A_j dx
    W = f.T @ S + 2.0 * (f1.T @ u - _apply(f1A, X))

    # One Frobenius contraction <dA/dx_m, M> at x_i collects three sources:
    #   w q_i^T        (dual-score Jacobian, dA part)
    #   S_j (grad_{x'} k)^T = -2 f1 S_j dx^T
    #   A_j Hk = -2 f1 A_j - 4 f2 A_j dx dx^T
    M = W[:, :, None] * q[:, None, :]
    M -= 2.0 * ((f1.T @ _outer(S, X)).reshape(n, d, d) - f1S[:, :, None] * X[:, None, :])
    M -= 2.0 * f1A
    M -= 4.0 * ((f2.T @ _outer(u, X)).reshape(n, d, d) - cub
                - f2Adx[:, :, None] * X[:, None, :])
    g = mmap.d_inv_hessian_contract(X, M)

    # dual-score Jacobian, A Hq part: Hq_i (A_i W_i)
    g += _apply(md.score_shift_jacobian(X), _apply(A, W))

    # every term along dx: (S_j . S_i) grad_{x'} k, the Hessians acting on
    # A_i S_j and A_j S_i, and the trace tr[A_j dHk A_i]
    g += pair_sum(-2.0 * f1 * ss + 4.0 * f2 * st + 8.0 * f3 * qp, X)

    # the Hessians acting on A_i S_j and A_j S_i, identity part
    g += 2.0 * _apply(A, f1S) - 2.0 * _apply(f1A, S)

    # trace term, rest: 4 f2 (A_i A_j dx + A_j A_i dx)
    g += 4.0 * (_apply(A, f2Adx) + aax - _apply(f2A, u))

    # chain to dual coordinates through A_i
    return -_apply(A, g) / n**2


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
    n = Y.shape[0]
    F = hermite_features(Y, n_terms)
    ksum = F[:, 1:].sum(axis=0)                      # sum_j He_k(y_j)/sqrt(k!)
    coef = ksum / np.sqrt(np.arange(1.0, n_terms + 1.0))
    per_i = F[:, :n_terms] @ coef
    return -(per_i / n)[:, None]


# ---------------------------------------------------------------------------
# run loop


@dataclass
class RunRecord:
    sampler: str
    n_particles: int
    n_iters: int
    seed: int
    trace: list = field(default_factory=list)  # (iteration, metric, value, wall_ms)
    x_final: np.ndarray | None = None
    y_final: np.ndarray | None = None


# KSD descent holds at most about 13 float64 (N, N) matrices (the radial
# profile, the Stein kernel's scalar pair terms and their weights) and 10
# (N, d, d) stacks (inverse Hessians, their weighted sums and the contraction)
# per direction, 8 N (13 N + 10 d^2) bytes; runs whose estimate passes this
# budget are refused.  2 GiB is a quarter of an 8 GiB host, so a two-worker
# sweep stays under half of it.
KSD_DESCENT_BUDGET = 2 * 2**30


def check_run(target, sampler, stepper, init, n_particles) -> list:
    """Every reason ``sampler`` cannot run on ``target`` as configured.

    An argument given as None (it failed to parse) skips the checks that
    need it; ``init`` None is the domain's default init.
    """
    if sampler is None:
        return []
    if sampler not in SAMPLERS:
        return [f"unknown sampler {sampler!r}"]
    problems = []
    if stepper is not None:
        is_coin = sampler.startswith("coin_")
        if is_coin and stepper.kind not in COIN_STEPPERS:
            problems.append(f"{sampler} requires a coin stepper, got {stepper.kind!r}")
        if not is_coin and stepper.kind in COIN_STEPPERS:
            problems.append(f"{sampler} requires a gradient stepper, got {stepper.kind!r}")
        if sampler == "mla" and stepper.kind != "fixed_lr":
            problems.append("mla uses a fixed step size (stepper fixed_lr)")
    if target is None:
        return problems
    if sampler in MIRRORED_SAMPLERS and target.domain == "box":
        problems.append("no mirror map covers a box domain; use svgd_proj or mied")
    if sampler in ("mied", "coin_mied") and target.domain != "box":
        problems.append(f"{sampler} reparameterizes box domains only, "
                        f"not the {target.domain}; use a mirrored sampler")
    if sampler in ("mlawgd", "coin_mlawgd") and target.d != 1:
        problems.append("the spectral kernel flow ships only for d = 1")
    if init is not None:
        problems += _init_problems(init, target.domain)
    if sampler in ("mksdd", "coin_mksdd") and n_particles is not None:
        need = 8 * n_particles * (13 * n_particles + 10 * target.d**2)
        if need > KSD_DESCENT_BUDGET:
            problems.append(
                f"{sampler} at N={n_particles}, d={target.d} needs about "
                f"{need / 2**30:.1f} GiB per direction, over the "
                f"{KSD_DESCENT_BUDGET / 2**30:.0f} GiB budget; use fewer particles")
    return problems


def mirrored_density(target) -> MirroredDensity:
    """The target paired with its domain's mirror map."""
    return MirroredDensity(target, make_map(target.domain, target.d))


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
    init: InitSpec | None = None,
    metric_every: int = 10,
    hooks: dict | None = None,
) -> RunRecord:
    """Run one sampler for ``n_iters`` iterations and return its record.

    The stepper moves coordinates that follow from the sampler family and
    ``target.domain``: the dual coordinates of the domain's mirror map for
    mirrored samplers, the tanh coordinates of the box for MIED, and the
    primal coordinates, projected onto the domain after every step, for
    projected samplers.  The record's ``y_final`` holds those coordinates
    (None for projected samplers).

    Each iteration settles the stepped coordinates into a primal cloud
    ``X`` once, and the direction takes that settled ``X`` rather than
    mapping the coordinates back again.

    ``stepper`` defaults to the adaptive coin engine, so a gradient sampler
    needs an explicit one; :func:`check_run`'s problems raise ConfigError.

    ``hooks`` maps metric names to callables ``(x_cloud, y_cloud) -> float``
    evaluated at iteration 0, every ``metric_every`` iterations, and at the
    final iteration.  ``y_cloud`` is None for projected samplers.
    """
    stepper = stepper or StepperConfig()
    problems = check_run(target, sampler, stepper, init, n_particles)
    if problems:
        raise ConfigError(problems)
    hooks = hooks or {}
    base = sampler.removeprefix("coin_")
    projected = base == "svgd_proj"

    X = draw_init(init or default_init(target), target, n_particles,
                  substream(seed, "init"))

    # Z is what the stepper moves; settle maps a stepped Z to (Z, X), and
    # direction(Z, X) is the outcome the stepper takes at the pair.
    mmap = None
    if projected:
        def direction(x, _):
            return svgd_direction(x, target, kernel.family,
                                  resolve_bandwidth(kernel, x))

        def settle(z):
            x = project_to_domain(target, z)
            return x, x

        Z = X = project_to_domain(target, X)
    elif base == "mied":
        rep = TanhBox(target.lo, target.hi)

        def direction(w, x):
            return -rep.jacobian_diag(w) * mie_gradient(x, target, mollifier)

        def settle(w):
            return w, rep.to_x(w)

        Z = rep.from_x(X)
    else:
        md = mirrored_density(target)
        mmap = md.mmap
        direction = {
            "msvgd": lambda y, x: msvgd_direction(y, md, kernel.family,
                                                  resolve_bandwidth(kernel, y), x),
            "mksdd": lambda y, x: mksdd_direction(y, md, kernel.family,
                                                  resolve_bandwidth(kernel, y), x),
            "mlawgd": lambda y, _: mlawgd_direction(y, spectral_terms),
            "mla": lambda y, x: md.dual_score_from_primal(x),
        }[base]

        def settle(y):
            return y, mmap.dual_to_primal(y)

        mmap.assert_interior(X)
        Z = mmap.primal_to_dual(X)

    if base == "mla":
        engine = _Langevin(stepper.lr, substream(seed, "mla_noise"))
    else:
        engine = make_stepper(stepper, Z)
    record = RunRecord(sampler, n_particles, n_iters, seed)
    t0 = time.perf_counter()

    def observe(it, x, z):
        if hooks and (it == 0 or it == n_iters or it % metric_every == 0):
            ms = (time.perf_counter() - t0) * 1e3
            for name, fn in hooks.items():
                record.trace.append((it, name, float(fn(x, None if projected else z)), ms))

    observe(0, X, Z)
    if mmap is not None and n_iters:
        # the drawn cloud and the primal image of its dual coordinates differ
        # in rounding; the first direction sees the image, as all later ones do
        X = mmap.dual_to_primal(Z)
    for it in range(1, n_iters + 1):
        Z, X = settle(engine.step(Z, direction(Z, X)))
        if mmap is not None and not np.all(mmap.is_interior(X)):
            raise DomainViolation(
                f"{sampler}: particle left the open domain at iteration {it}"
            )
        observe(it, X, Z)

    record.x_final = X
    record.y_final = None if projected else Z
    return record
