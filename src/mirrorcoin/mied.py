"""Mollified interaction-energy descent.

Particles minimize the log of a pairwise interaction energy

    E = (1/N^2) sum_{ij} phi_eps(x_i - x_j) / sqrt(pi(x_i) pi(x_j)),

diagonal included.  Every mollifier peaks at zero separation, so each term
is taken relative to the largest, as e_ij a_i a_j with e = phi / phi(0) <= 1
and a = exp(b - max b) <= 1, b = -log(pi) / 2: nothing overflows, and the
density stays a vector of N factors.  The N x N terms are formed in row
tiles on the run's threads (:func:`mie_gradient`).  The particles move in
the dual coordinates of the box's mirror map
(:class:`mirrorcoin.geometry.BoxMirrorMap`); the run loop lives in
:func:`mirrorcoin.samplers.run_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import cores
from .errors import ConfigError
from .geometry import check_scale

MOLLIFIERS = ("riesz", "gaussian", "laplace")

# Rows per tile.  A block of more than one row that starts at a multiple of
# 64 gets the bits of its rows of the full N x N products (with OpenBLAS, at
# every N below 578 at d = 2 and below 385 at d = 20), and a block cut
# elsewhere need not, so the tiles are fixed, whatever the core count.
TILE = 64


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
        else:
            try:
                check_scale("mollifier eps", self.eps)
            except ValueError as exc:
                problems.append(str(exc))
        if self.s is not None:
            if self.kind != "riesz":
                problems.append("exponent s only applies to the riesz mollifier")
            elif not self.s > 0:
                problems.append("riesz exponent s must be positive")
        if problems:
            raise ConfigError(problems)


def _mollifier_scales(config: MollifierConfig, d: int):
    """(s, k, log_peak): the riesz exponent s (d + 1e-4 unless set; None for
    the other kinds), the scale k of log phi's gradient (see
    _mollifier_terms) and log phi(0)."""
    eps = config.eps
    if config.kind == "riesz":
        s = config.s if config.s is not None else d + 1e-4
        # phi = phi(0) u^(-s/2) and its log's scale is k / u, u = 1 + r2 / eps^2
        return s, -s / (eps * eps), -s * np.log(eps)
    return None, (-1.0 / (eps * eps) if config.kind == "gaussian" else -1.0 / eps), 0.0


def _mollifier_terms(config: MollifierConfig, s, r2: np.ndarray, out=None):
    """The mollifier relative to its peak at squared distances r2 (a row
    tile's), formed in r2's memory and in ``out`` (a new array if None),
    shaped as r2; s is the riesz exponent.

    Every mollifier peaks at r2 = 0.  r2[i, j] = ||x_i - x_j||^2 is
    overwritten.  Returns (e, c): e = phi / phi(0) <= 1, and the gradient of
    log phi[i, j] in x_i is k c[i, j] / e[i, j] (x_i - x_j), with k from
    _mollifier_scales.  c is e itself for the gaussian, and 0 for laplace
    at r2 = 0 (subgradient choice).
    """
    eps = config.eps
    if config.kind == "riesz":
        u = np.multiply(r2, 1.0 / (eps * eps), out=r2)
        u += 1.0
        c = np.power(u, -0.5 * s - 1.0, out=out)
        return np.multiply(u, c, out=u), c
    if config.kind == "gaussian":
        e = np.multiply(r2, -0.5 / (eps * eps), out=r2)
        np.exp(e, out=e)
        return e, e
    # laplace: -||z|| / eps
    r = np.sqrt(r2, out=r2)
    e = np.multiply(r, -1.0 / eps, out=out)
    np.exp(e, out=e)
    return e, np.divide(e, r, out=r, where=r > 0.0)


def _tiles(n: int) -> list:
    """A cloud's row tiles: TILE rows each from row 0, the last one what is
    left, with a single row left over joined to the tile before it."""
    starts = list(range(0, max(n - 1, 1), TILE))
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def mie_gradient(x: np.ndarray, target, config: MollifierConfig) -> np.ndarray:
    """grad of log E in every particle.

    The softmax weight of term (i, j) is w_ij = e_ij a_i a_j / S.  Particle
    m collects the mollifier gradients of its row and column, which by
    symmetry are 2 k a_m / S sum_j c_mj a_j (x_m - x_j), plus a score term
    weighted by its row mass 2 m_m / S, m = a (e a).  One matrix product
    gives both pair sums, c @ (a [X | 1]), and the constants 2 / S and k
    are applied to N x d arrays.

    The pair terms are formed one row tile of a cloud at a time (see
    TILE), from that tile's own pair distances, and each tile takes its own
    rows of e a and of the product.  The tiles are spread over the run's
    threads (:mod:`mirrorcoin.cores`), each of which forms its terms in one
    tile buffer that this call allocates: no N x N array is held.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape[-2:]
    clouds = x.reshape(-1, n, d)
    b = -0.5 * target.log_density(clouds)
    a = np.exp(b - b.max(axis=-1)[..., None])[..., None]
    ax = np.concatenate([a * clouds, a], axis=-1)
    ea, p = np.empty_like(a), np.empty_like(ax)
    s, k, _ = _mollifier_scales(config, d)

    tiles = [(j, rows) for j in range(len(clouds)) for rows in _tiles(n)]
    parts = min(cores.width(), len(tiles))
    most = max(rows.stop - rows.start for _, rows in tiles)
    r2s, cs = np.empty((2, parts, most, n))
    zeros = np.empty((parts, most, n), dtype=bool)

    def pair_sums(part):
        for j, rows in tiles[part::parts]:
            t = rows.stop - rows.start
            r2 = cdist(clouds[j, rows], clouds[j], "sqeuclidean", out=r2s[part, :t])
            zero = np.equal(r2, 0.0, out=zeros[part, :t])
            e, c = _mollifier_terms(config, s, r2, out=cs[part, :t])
            np.matmul(e, a[j], out=ea[j, rows])
            # the pair difference is 0 at r2 = 0, so c is too, whatever the
            # scale (riesz c is 1 there and ~1e-24 at a pair 0.01 apart: left
            # in, its rounding would swamp them); masked only now, since the
            # gaussian's c is e
            np.copyto(c, 0.0, where=zero)
            np.matmul(c, ax[j], out=p[j, rows])

    cores.spread(pair_sums, parts)
    g = p[..., -1:] * clouds
    g -= p[..., :-1]
    g *= k
    g -= 0.5 * ea * target.score(clouds)
    g *= (2.0 / (a.mT @ ea)) * a
    return g.reshape(x.shape)
