"""Mollified interaction-energy descent.

Particles minimize the log of a pairwise interaction energy

    E = (1/N^2) sum_{ij} phi_eps(x_i - x_j) / sqrt(pi(x_i) pi(x_j)),

computed stably as a logsumexp over the N x N matrix of log terms, diagonal
included.  Box constraints are handled by optimizing unconstrained
coordinates ``w`` with ``x = mid + half * tanh(w)`` (:class:`TanhBox`); the
run loop lives in :func:`mirrorcoin.samplers.run_sampler`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .errors import ConfigError

MOLLIFIERS = ("riesz", "gaussian", "laplace")


@dataclass(frozen=True)
class MollifierConfig:
    """Interaction mollifier.  ``s`` is the riesz exponent and defaults to
    d + 1e-4 at evaluation time; the other families ignore it."""

    kind: str = "riesz"
    eps: float = 1e-8
    s: float | None = None

    def __post_init__(self):
        problems = []
        if self.kind not in MOLLIFIERS:
            problems.append(f"unknown mollifier {self.kind!r}")
        if not self.eps > 0:
            problems.append("mollifier eps must be positive")
        if self.s is not None:
            if self.kind != "riesz":
                problems.append("exponent s only applies to the riesz mollifier")
            elif not self.s > 0:
                problems.append("riesz exponent s must be positive")
        if problems:
            raise ConfigError(problems)


def _mollifier_terms(config: MollifierConfig, d: int, r2: np.ndarray):
    """Log mollifier values and their gradient scale, formed in r2's memory.

    r2[i, j] = ||x_i - x_j||^2 is overwritten.  Returns (logphi, scale),
    where the gradient of logphi[i, j] in x_i is scale[i, j] (x_i - x_j);
    scale is (N, N) or a scalar, and is 0 for the laplace kernel at r2 = 0
    (subgradient choice).
    """
    eps = config.eps
    if config.kind == "riesz":
        s = config.s if config.s is not None else d + 1e-4
        r2 += eps * eps
        logphi = np.log(r2)
        logphi *= -0.5 * s
        return logphi, np.divide(-s, r2, out=r2)
    if config.kind == "gaussian":
        return np.divide(r2, -2.0 * eps * eps, out=r2), -1.0 / (eps * eps)
    # laplace: -||z|| / eps
    r = np.sqrt(r2, out=r2)
    scale = np.divide(-1.0, eps * r, out=np.zeros_like(r), where=r > 0.0)
    np.negative(r, out=r)
    r /= eps
    return r, scale


def _log_terms(x: np.ndarray, target, config: MollifierConfig):
    """The N x N log terms, the mollifier gradient scale and the mask of
    pairs at r2 = 0."""
    x = np.asarray(x, dtype=float)
    r2 = cdist(x, x, "sqeuclidean")
    zero = r2 == 0.0
    logphi, scale = _mollifier_terms(config, x.shape[-1], r2)
    logp = target.log_density(x)
    lp = np.add.outer(logp, logp)
    lp *= 0.5
    logphi -= lp
    return logphi, scale, zero


def mie_log_energy(x: np.ndarray, target, config: MollifierConfig) -> float:
    """log E: logsumexp of all N^2 interaction terms minus 2 log N."""
    T, _, _ = _log_terms(x, target, config)
    n = x.shape[0]
    return float(logsumexp(T) - 2.0 * np.log(n))


def mie_gradient(x: np.ndarray, target, config: MollifierConfig) -> np.ndarray:
    """grad of log E in every particle.

    With softmax weights w over the term matrix, particle m collects the
    mollifier gradients of its row and column plus a score term weighted by
    its total softmax mass.  The weights are formed in place in the term
    matrix, and the mollifier scale in the pair distances.
    """
    T, scale, zero = _log_terms(x, target, config)
    T -= T.max()
    w = np.exp(T, out=T)
    w /= w.sum()
    # row m pairs (m, j), column (i, m); T is bitwise symmetric (so are the
    # pair distances and the log-density sum), so w + w^T is exactly 2 w
    w *= 2.0
    mass = w.sum(axis=1)
    # pair[m] = sum_j c[m, j] (x_m - x_j); at r2 = 0 the difference is 0, so
    # c is too there, whatever the scale (the riesz self term is ~1e16)
    c = np.multiply(w, scale, out=w)
    c[zero] = 0.0
    pair = c.sum(axis=1)[:, None] * x - c @ x
    return pair - 0.5 * mass[:, None] * target.score(x)


# ---------------------------------------------------------------------------
# box reparameterization


class TanhBox:
    """x = mid + half * tanh(w), a bijection from R^d onto the open box."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if not np.all(self.hi > self.lo):
            raise ConfigError("box needs hi > lo in every coordinate")
        self.mid = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)

    def to_x(self, w):
        return self.mid + self.half * np.tanh(w)

    def inside(self, x) -> bool:
        """lo < x < hi in every coordinate (tanh(w) rounds to +-1 at large |w|)."""
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def from_x(self, x):
        return np.arctanh((np.asarray(x, dtype=float) - self.mid) / self.half)

    def jacobian_diag(self, w):
        t = np.tanh(w)
        return self.half * (1.0 - t * t)
