"""Mollified interaction-energy descent.

Particles minimize the log of a pairwise interaction energy

    E = (1/N^2) sum_{ij} phi_eps(x_i - x_j) / sqrt(pi(x_i) pi(x_j)),

diagonal included.  Every mollifier peaks at zero separation, so each term
is taken relative to the largest, as e_ij a_i a_j with e = phi / phi(0) <= 1
and a = exp(b - max b) <= 1, b = -log(pi) / 2: nothing overflows, and the
density stays a vector of N factors.  The particles move in the dual
coordinates of the box's mirror map (:class:`mirrorcoin.geometry.BoxMirrorMap`);
the run loop lives in :func:`mirrorcoin.samplers.run_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import sq_dists

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
            problems.append(f"unknown mollifier {self.kind!r} (choices: {', '.join(MOLLIFIERS)})")
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
    """The mollifier relative to its peak, formed in r2's memory.

    Every mollifier peaks at r2 = 0.  r2[i, j] = ||x_i - x_j||^2 is
    overwritten.  Returns (e, c, k, log_peak): e = phi / phi(0) <= 1, and
    the gradient of log phi[i, j] in x_i is k c[i, j] / e[i, j] (x_i - x_j).
    c is e itself for the gaussian, and 0 for laplace at r2 = 0
    (subgradient choice).
    """
    eps = config.eps
    if config.kind == "riesz":
        s = config.s if config.s is not None else d + 1e-4
        # phi = phi(0) u^(-s/2) and its log's scale is k / u, u = 1 + r2 / eps^2
        u = np.multiply(r2, 1.0 / (eps * eps), out=r2)
        u += 1.0
        c = np.power(u, -0.5 * s - 1.0)
        return np.multiply(u, c, out=u), c, -s / (eps * eps), -s * np.log(eps)
    if config.kind == "gaussian":
        e = np.multiply(r2, -0.5 / (eps * eps), out=r2)
        np.exp(e, out=e)
        return e, e, -1.0 / (eps * eps), 0.0
    # laplace: -||z|| / eps
    r = np.sqrt(r2, out=r2)
    e = np.multiply(r, -1.0 / eps)
    np.exp(e, out=e)
    return e, np.divide(e, r, out=r, where=r > 0.0), -1.0 / eps, 0.0


def _interaction_terms(x: np.ndarray, target, config: MollifierConfig):
    """The interaction terms as exp(log E term ij) = e_ij a_i a_j exp(shift).

    e, c and k are the mollifier terms (see _mollifier_terms), zero the mask
    of pairs at r2 = 0, a = exp(b - max b) <= 1 with b = -log(pi) / 2 the
    density factor of each particle, and shift the largest log term,
    log phi(0) + 2 max b, taken on the diagonal.  A stack of clouds takes
    max b, and so a and shift, per cloud.
    """
    x = np.asarray(x, dtype=float)
    r2 = sq_dists(x)
    zero = r2 == 0.0
    e, c, k, log_peak = _mollifier_terms(config, x.shape[-1], r2)
    b = -0.5 * target.log_density(x)
    bmax = b.max(axis=-1)
    return e, c, k, zero, np.exp(b - bmax[..., None]), log_peak + 2.0 * bmax


def mie_gradient(x: np.ndarray, target, config: MollifierConfig) -> np.ndarray:
    """grad of log E in every particle.

    The softmax weight of term (i, j) is w_ij = e_ij a_i a_j / S.  Particle
    m collects the mollifier gradients of its row and column, which by
    symmetry are 2 k a_m / S sum_j c_mj a_j (x_m - x_j), plus a score term
    weighted by its row mass 2 m_m / S, m = a (e a).  One matrix product
    gives both pair sums, c @ (a [X | 1]), and the constants 2 / S and k
    are applied to N x d arrays.
    """
    x = np.asarray(x, dtype=float)
    e, c, k, zero, a, _ = _interaction_terms(x, target, config)
    a = a[..., None]
    ea = e @ a
    # the pair difference is 0 at r2 = 0, so c is too, whatever the scale
    # (riesz c is 1 there and ~1e-24 at a pair 0.01 apart: left in, its
    # rounding would swamp them); masked only now, since the gaussian's c is e
    np.copyto(c, 0.0, where=zero)
    p = c @ np.concatenate([a * x, a], axis=-1)
    g = p[..., -1:] * x
    g -= p[..., :-1]
    g *= k
    g -= 0.5 * ea * target.score(x)
    g *= (2.0 / (a.mT @ ea)) * a
    return g
