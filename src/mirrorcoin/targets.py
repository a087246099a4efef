"""Target densities on constrained domains, and their dual-space forms.

Every target works with unnormalized log densities.  ``score`` is the
gradient of ``log_density`` in the free coordinates, and
``score_hessian_apply(x, v)`` applies its Jacobian, the symmetric Hessian of
the log density, to v without forming it; both are needed by the
Stein-kernel machinery.  ``no_ground_truth`` is None when
``sample_ground_truth`` can draw an exact reference sample, and otherwise
the reason it raises :class:`~mirrorcoin.errors.Unsupported`.
``from_config`` (or else the constructor) holds the defaults of a target's
config keys and applies the rules that tie them together.

:class:`MirroredDensity` pairs a target with a mirror map.  The pushforward
of the target under ``grad phi`` has negative log density

    W(y) = -log pi(x) + log det grad^2 phi(x),   x = dual_to_primal(y),

and dual score  -grad W(y) = A(x) (score(x) - grad log det grad^2 phi(x))
with A the inverse mirror Hessian.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr

from .errors import ConfigError, Unsupported
from .geometry import as_dimension
from .rng import substream

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _check_finite(**params):
    """Refuse a parameter that holds a NaN or an infinity."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


class SparseDirichlet:
    """Dirichlet posterior from multinomial counts on the open simplex.

    Parameters are per-category: ``alpha`` (prior, all positive) and
    ``counts`` (nonnegative), each of length d+1 where d is the number of
    free coordinates.  A scalar alpha is broadcast to every category.
    """

    domain = "simplex"
    no_ground_truth = None

    def __init__(self, alpha, counts):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 1 or counts.size < 2:
            raise ValueError("counts must be a vector over d+1 >= 2 categories")
        alpha = np.broadcast_to(np.asarray(alpha, dtype=float), counts.shape).copy()
        _check_finite(alpha=alpha, counts=counts)
        if np.any(alpha <= 0):
            raise ValueError("all alpha must be positive")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        self.alpha = alpha
        self.counts = counts
        self.d = counts.size - 1
        # Exponents of the posterior Dirichlet, one per category.
        self._a = counts + alpha - 1.0

    @classmethod
    def from_config(cls, counts, alpha=(1.0,), d=None):
        if d is not None and d != len(counts) - 1:
            raise ValueError("target.d must equal len(target.counts) - 1 when both are given")
        if len(alpha) not in (1, len(counts)):
            raise ValueError(f"target.alpha takes 1 value or one per category "
                             f"({len(counts)}), got {len(alpha)}")
        return cls(alpha=alpha, counts=counts)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rest = 1.0 - x.sum(axis=-1)
        a = self._a
        return (a[: self.d] * np.log(x)).sum(axis=-1) + a[-1] * np.log(rest)

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rest = 1.0 - x.sum(axis=-1)
        a = self._a
        return a[: self.d] / x - (a[-1] / rest)[..., None]

    def score_hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rest = 1.0 - x.sum(axis=-1)
        a = self._a
        return -a[: self.d] * v / x**2 - (a[-1] * v.sum(axis=-1) / rest**2)[..., None]

    def sample_ground_truth(self, n: int, rng: np.random.Generator) -> np.ndarray:
        full = rng.dirichlet(self.counts + self.alpha, size=n)
        return full[:, : self.d]


class QuadraticSimplex:
    """pi(x) proportional to exp(-x^T A x / (2 sigma^2)) on the open simplex."""

    domain = "simplex"

    def __init__(self, A, sigma: float):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.allclose(A, A.T):
            raise ValueError("A must be symmetric")
        _check_finite(sigma=sigma)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.A = A
        self.sigma = float(sigma)
        self.d = as_dimension(A.shape[0])
        self.no_ground_truth = (
            None if self.d <= 3 else "grid ground truth is only available for d <= 3")

    @classmethod
    def random_instance(cls, d: int, sigma: float, rng: np.random.Generator):
        """A = B^T B scaled so its largest-magnitude entry is 1, B ~ U[-1,1]."""
        d = as_dimension(d)
        B = rng.uniform(-1.0, 1.0, size=(d, d))
        M = B.T @ B
        return cls(M / np.max(np.abs(M)), sigma)

    @classmethod
    def from_config(cls, d, sigma=1.0, seed=0):
        return cls.random_instance(d, sigma, substream(seed, "target_synth"))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        quad = np.einsum("...i,ij,...j->...", x, self.A, x)
        return -quad / (2.0 * self.sigma**2)

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -np.einsum("ij,...j->...i", self.A, x) / self.sigma**2

    def score_hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return -np.einsum("ij,...j->...i", self.A, v) / self.sigma**2

    def sample_ground_truth(
        self, n: int, rng: np.random.Generator, resolution: int | None = None
    ) -> np.ndarray:
        """Grid oracle: categorical over interior cells, then in-cell jitter.

        Only available for d <= 3; ``resolution`` is the grid's cells per
        axis, by default 4096, 256 or 64 at d = 1, 2 or 3.
        """
        if self.no_ground_truth:
            raise Unsupported(self.no_ground_truth)
        m = resolution or {1: 4096, 2: 256, 3: 64}[self.d]
        idx = np.stack(
            np.meshgrid(*([np.arange(m)] * self.d), indexing="ij"), axis=-1
        ).reshape(-1, self.d)
        centers = (idx + 0.5) / m
        keep = centers.sum(axis=1) < 1.0
        idx = idx[keep]
        centers = centers[keep]
        logw = self.log_density(centers)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        cells = rng.choice(idx.shape[0], size=n, p=w)
        out = np.empty((n, self.d))
        for row, cell in enumerate(cells):
            for _ in range(100):
                cand = (idx[cell] + rng.uniform(size=self.d)) / m
                if cand.sum() < 1.0 and np.all(cand > 0.0):
                    out[row] = cand
                    break
            else:
                out[row] = centers[cell]
        return out


class UniformBox:
    """Unnormalized density 1 on an axis-aligned open box."""

    domain = "box"
    no_ground_truth = None

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        _check_finite(lo=lo, hi=hi)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("box bounds must satisfy lo < hi componentwise")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                # the box map and the ground-truth draw scale by the width
                raise ValueError("box width hi - lo must be finite")
        self.lo = lo
        self.hi = hi
        self.d = as_dimension(lo.size)

    @classmethod
    def from_config(cls, d, lo=(0.0,), hi=(1.0,)):
        """Each bound is one value for every coordinate or d values."""
        d = as_dimension(d)
        lo, hi = (np.full(d, v[0]) if len(v) == 1 else np.asarray(v) for v in (lo, hi))
        if lo.shape != (d,) or hi.shape != (d,):
            raise ValueError("target.lo / target.hi must be scalars or length-d lists")
        return cls(lo, hi)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def score(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def score_hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(v, dtype=float))

    def sample_ground_truth(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.d))


class ExpOrthant:
    """Independent Exponential(rate) coordinates on the positive orthant."""

    domain = "orthant"
    no_ground_truth = None

    def __init__(self, d: int, rate: float = 1.0):
        _check_finite(rate=rate)
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not np.isfinite(1.0 / float(rate)):
            # the ground-truth draw has scale 1/rate
            raise ValueError("1/rate must be finite")
        self.d = as_dimension(d)
        self.rate = float(rate)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -self.rate * x.sum(axis=-1)

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full_like(x, -self.rate)

    def score_hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(v, dtype=float))

    def sample_ground_truth(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=(n, self.d))


class LogNormalOrthant:
    """Independent LogNormal(mu, sigma) coordinates.

    Under the positive-orthant mirror map the dual target is exactly
    N(mu, sigma^2) per coordinate, which makes this the natural partner for
    the spectral (Hermite) kernel flow.
    """

    domain = "orthant"
    no_ground_truth = None

    def __init__(self, d: int, mu: float = 0.0, sigma: float = 1.0):
        _check_finite(mu=mu, sigma=sigma)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.d = as_dimension(d)
        self.mu = float(mu)
        self.sigma = float(sigma)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.log(x) - self.mu
        return (-0.5 * (z / self.sigma) ** 2 - np.log(x)).sum(axis=-1)

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.log(x) - self.mu
        return -(z / self.sigma**2 + 1.0) / x

    def score_hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.log(x) - self.mu
        return (-1.0 / self.sigma**2 + z / self.sigma**2 + 1.0) / x**2 * v

    def sample_ground_truth(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(self.mu + self.sigma * rng.standard_normal((n, self.d)))


def _log_gauss_interval(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) elementwise, stable in both tails.

    Pairs entirely in the right tail are reflected into the left tail, where
    log_ndtr is accurate, before taking the log-difference.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    flip = lo > 0.0
    a = log_ndtr(np.where(flip, -lo, hi))
    b = log_ndtr(np.where(flip, -hi, lo))
    with np.errstate(divide="ignore"):
        return a + np.log1p(-np.exp(b - a))


class SelectiveLasso:
    """Post-selection density of rescaled active-set magnitudes.

    The randomized lasso with Gaussian perturbation (scale ``tau``) and ridge
    term ``eps_ridge`` selects an active set E with signs z.  Conditioning on
    that event and integrating the inactive subgradients over [-1, 1]
    analytically leaves a density over b = |beta_E| on the open positive
    orthant:

        log g(b) = -||eps_ridge (z*b) - X_E^T (y - X_E (z*b)) + lam z||^2
                   / (2 tau^2)
                   + sum_{j not in E} log[Phi((lam - u_j)/tau)
                                          - Phi((-lam - u_j)/tau)],

    with u_j = X_j^T (y - X_E (z*b)).  The interval terms use log-space
    CDF differences; the score uses pdf/CDF ratios in log space.
    """

    domain = "orthant"
    no_ground_truth = "no tractable sampler for the selective lasso density"

    def __init__(self, X, y, lam: float, active, signs, tau: float = 1.0,
                 eps_ridge: float = 1.0):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        active = np.asarray(active, dtype=int)
        signs = np.asarray(signs, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, p) and y (n,)")
        _check_finite(lam=lam, tau=tau, eps_ridge=eps_ridge)
        if lam <= 0 or tau <= 0 or eps_ridge <= 0:
            raise ValueError("lam, tau, eps_ridge must be positive")
        if active.size == 0 or active.size != signs.size:
            raise ValueError("active set and signs must be nonempty and aligned")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1/-1")
        self.X = X
        self.y = y
        self.lam = float(lam)
        self.tau = float(tau)
        self.eps_ridge = float(eps_ridge)
        self.active = active
        self.signs = signs
        self.d = active.size

        inactive = np.setdiff1d(np.arange(X.shape[1]), active)
        self.inactive = inactive
        XE = X[:, active]
        Xo = X[:, inactive]
        self._M = eps_ridge * np.eye(self.d) + XE.T @ XE
        self._c0 = XE.T @ y - self.lam * signs
        self._G = XE.T @ Xo                      # (q, p-q)
        self._yo = Xo.T @ y                      # (p-q,)

    @classmethod
    def synthetic(cls, rng: np.random.Generator, n: int = 25, p: int = 2,
                  q: int = 1, lam: float = 2.0, tau: float = 1.0,
                  eps_ridge: float = 1.0):
        """A reproducible instance with the first q coordinates active."""
        if not 1 <= q <= p:
            raise ValueError("need 1 <= q <= p")
        X = rng.normal(size=(n, p)) / np.sqrt(n)
        beta = np.zeros(p)
        beta[:q] = rng.choice([-3.0, 3.0], size=q)
        y = X @ beta + 0.5 * rng.standard_normal(n)
        return cls(X, y, lam, np.arange(q), np.sign(beta[:q]), tau, eps_ridge)

    @classmethod
    def from_config(cls, n, p, q, seed=0, **options):  # options: lam, tau, eps_ridge
        if n < 1:
            raise ValueError(f"target.n must be >= 1 observations, got {n}")
        return cls.synthetic(substream(seed, "target_synth"), n=n, p=p, q=q, **options)

    # -- internals --------------------------------------------------------

    def _pieces(self, b: np.ndarray):
        b = np.asarray(b, dtype=float)
        beta = self.signs * b
        r = beta @ self._M - self._c0
        u = self._yo - beta @ self._G
        a_hi = (self.lam - u) / self.tau
        a_lo = (-self.lam - u) / self.tau
        return b, beta, r, u, a_hi, a_lo

    def log_density(self, b: np.ndarray) -> np.ndarray:
        b, _, r, _, a_hi, a_lo = self._pieces(b)
        quad = -(r * r).sum(axis=-1) / (2.0 * self.tau**2)
        if self.inactive.size == 0:
            return quad
        return quad + _log_gauss_interval(a_lo, a_hi).sum(axis=-1)

    def _interval_ratios(self, a_hi, a_lo):
        """d/du log(Phi(a_hi) - Phi(a_lo)) and its u-derivative."""
        logdiff = _log_gauss_interval(a_lo, a_hi)
        t_hi = -0.5 * a_hi**2 - _LOG_SQRT_2PI
        t_lo = -0.5 * a_lo**2 - _LOG_SQRT_2PI
        e_hi = np.exp(t_hi - logdiff)
        e_lo = np.exp(t_lo - logdiff)
        ratio = (e_lo - e_hi) / self.tau
        dratio = (a_lo * e_lo - a_hi * e_hi - (e_lo - e_hi) ** 2) / self.tau**2
        return ratio, dratio

    def score(self, b: np.ndarray) -> np.ndarray:
        b, _, r, _, a_hi, a_lo = self._pieces(b)
        grad = -self.signs * (r @ self._M) / self.tau**2
        if self.inactive.size:
            ratio, _ = self._interval_ratios(a_hi, a_lo)
            grad = grad - self.signs * (ratio @ self._G.T)
        return grad

    def score_hessian_apply(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(-Z M M Z / tau^2 + Z G diag(dratio) G^T Z) v, Z = diag(signs)."""
        b, _, _, _, a_hi, a_lo = self._pieces(b)
        ZM = self.signs[:, None] * self._M
        out = -((v @ ZM) @ ZM.T) / self.tau**2
        if self.inactive.size:
            _, dratio = self._interval_ratios(a_hi, a_lo)
            ZG = self.signs[:, None] * self._G
            out = out + ((v @ ZG) * dratio) @ ZG.T
        return out

    def sample_ground_truth(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise Unsupported(self.no_ground_truth)


class MirroredDensity:
    """A target paired with a compatible mirror map; dual-space quantities."""

    def __init__(self, target, mmap):
        if target.domain != mmap.domain:
            raise ConfigError(
                f"target domain {target.domain!r} does not match "
                f"mirror map domain {mmap.domain!r}"
            )
        if target.d != mmap.d:
            raise ConfigError(
                f"target dimension {target.d} does not match map dimension {mmap.d}"
            )
        self.target = target
        self.mmap = mmap
        self.d = target.d

    def score_shift(self, x: np.ndarray) -> np.ndarray:
        """score(x) - grad log det grad^2 phi(x), the primal-side combo."""
        return self.target.score(x) - self.mmap.grad_log_det_hessian(x)

    def score_shift_jacobian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The Jacobian of ``score_shift`` at x applied to v."""
        return self.target.score_hessian_apply(x, v) - self.mmap.hess_log_det_hessian_apply(x, v)

    def dual_score_from_primal(self, x: np.ndarray) -> np.ndarray:
        return self.mmap.hessian_inverse_apply(x, self.score_shift(x))

    def dual_potential(self, y: np.ndarray) -> np.ndarray:
        """W(y) = -log pi(x) + log det grad^2 phi(x); dual score is -grad W.
        Checks the image x (DomainViolation)."""
        x = self.mmap.assert_interior(self.mmap.dual_to_primal(y))
        return -self.target.log_density(x) + self.mmap.log_det_hessian(x)
