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

from .coin import make_coin
from .errors import ConfigError, DomainViolation
from .geometry import INTERIOR_TOL, make_map
from .kernels import KernelConfig, radial_profile, resolve_bandwidth
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


class _CoinStepper:
    def __init__(self, kind: str, y0, guard: bool):
        self.engine = make_coin(kind, y0, guard=guard)

    def step(self, y, c):
        # y is the position the outcome was computed at; it may differ from
        # the engine's last output when the caller projected it.
        self.engine.set_positions(y)
        return self.engine.step(c)


def make_stepper(config: StepperConfig, y0: np.ndarray):
    if config.kind == "fixed_lr":
        return _FixedLR(config.lr)
    if config.kind == "rmsprop":
        return _RMSProp(config.lr, np.shape(y0))
    return _CoinStepper(config.kind, y0, config.guard)


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


@dataclass(frozen=True)
class Domain:
    kind: str  # "simplex" | "orthant" | "box"
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None


def domain_of(target) -> Domain:
    if target.domain == "box":
        return Domain("box", target.lo, target.hi)
    return Domain(target.domain)


def default_init(domain: Domain) -> InitSpec:
    return InitSpec(next(k for k, dom in INIT_DOMAIN.items() if dom == domain.kind))


def _init_problems(spec: InitSpec, domain_kind: str) -> list:
    if spec.kind not in INIT_DOMAIN:
        return [f"unknown init kind {spec.kind!r}"]
    if INIT_DOMAIN[spec.kind] != domain_kind:
        return [f"{spec.kind} init needs the {INIT_DOMAIN[spec.kind]} domain, "
                f"not the {domain_kind}"]
    return []


def draw_init(spec: InitSpec, domain: Domain, n: int, d: int,
              rng: np.random.Generator) -> np.ndarray:
    problems = _init_problems(spec, domain.kind)
    if problems:
        raise ConfigError(problems)
    if spec.kind == "dirichlet":
        return rng.dirichlet(np.full(d + 1, spec.alpha), size=n)[:, :d]
    if spec.kind == "lognormal":
        return np.exp(spec.mu + spec.sigma * rng.standard_normal((n, d)))
    mid = 0.5 * (domain.lo + domain.hi)
    half = 0.5 * (domain.hi - domain.lo)
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


def project_to_domain(domain: Domain, x: np.ndarray, tol: float = INTERIOR_TOL) -> np.ndarray:
    """Euclidean projection onto the closed domain, then interior floor."""
    x = np.asarray(x, dtype=float)
    if domain.kind == "orthant":
        return np.maximum(x, tol)
    if domain.kind == "box":
        return np.clip(x, domain.lo + tol, domain.hi - tol)
    if domain.kind != "simplex":
        raise ConfigError(f"unknown domain kind {domain.kind!r}")
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


def _stein_context(Y, md, family, h):
    mmap = md.mmap
    X = mmap.dual_to_primal(Y)
    A = mmap.inverse_hessian(X)                    # (N,d,d)
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


def stein_vstat(Y, md, family, h) -> float:
    """V-statistic (1/N^2) sum_{j,i} K[j, i]; the squared discrepancy."""
    return float(stein_kernel_matrix(Y, md, family, h).mean())


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
    Hq = md.score_shift_jacobian(X)                # (N,d,d)

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
    g = mmap.d_inv_hessian_contract(X[None, :, :], M)

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


def mksdd_direction(Y: np.ndarray, md: MirroredDensity, family: str, h: float) -> np.ndarray:
    """Descent direction on the squared discrepancy:
    row i = -(1/N^2) sum_j grad_{y_i} K(y_j, y_i)."""
    n = Y.shape[0]
    return -stein_kernel_grad2(Y, md, family, h).sum(axis=0) / n**2


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


# KSD descent holds about 8 N^2 (4 d^2 + 8 d + 1) bytes of float64 pairwise
# tensors per direction (the (N, N, d, d) contraction and its (N, N, d)
# companions); runs whose estimate passes this budget are refused.  2 GiB is
# a quarter of an 8 GiB host, so a two-worker sweep stays under half of it.
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
        need = 8 * n_particles**2 * (4 * target.d**2 + 8 * target.d + 1)
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

    domain = domain_of(target)
    X = draw_init(init or default_init(domain), domain, n_particles, target.d,
                  substream(seed, "init"))

    # Z is what the stepper moves; settle maps a stepped Z to (Z, X).
    mmap = None
    if projected:
        def direction(x):
            return svgd_direction(x, target, kernel.family,
                                  resolve_bandwidth(kernel, x))

        def settle(z):
            x = project_to_domain(domain, z)
            return x, x

        Z = X = project_to_domain(domain, X)
    elif base == "mied":
        rep = TanhBox(target.lo, target.hi)

        # x is recomputed from w, so the first step sees to_x(from_x(x0))
        def direction(w):
            return -rep.jacobian_diag(w) * mie_gradient(rep.to_x(w), target, mollifier)

        def settle(w):
            return w, rep.to_x(w)

        Z = rep.from_x(X)
    else:
        md = mirrored_density(target)
        mmap = md.mmap
        direction = {
            "msvgd": lambda y: msvgd_direction(y, md, kernel.family,
                                               resolve_bandwidth(kernel, y)),
            "mksdd": lambda y: mksdd_direction(y, md, kernel.family,
                                               resolve_bandwidth(kernel, y)),
            "mlawgd": lambda y: mlawgd_direction(y, spectral_terms),
            "mla": md.dual_score,
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
    for it in range(1, n_iters + 1):
        Z, X = settle(engine.step(Z, direction(Z)))
        if mmap is not None and not np.all(mmap.is_interior(X)):
            raise DomainViolation(
                f"{sampler}: particle left the open domain at iteration {it}"
            )
        observe(it, X, Z)

    record.x_final = X
    record.y_final = None if projected else Z
    return record
