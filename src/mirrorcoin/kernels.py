"""Base kernels and bandwidth selection.

Radial kernels are written as k(x, x') = f(r^2) with r^2 = ||x - x'||^2, and
:func:`radial_profile` returns f together with its first three derivatives in
r^2 (or only the first, for the callers that need no more).  Those
derivatives are what every downstream gradient needs:

    grad_x k = 2 f'(r^2) (x - x')

and similarly for the second- and third-order terms of the Stein kernel.
Sums over particle pairs are written as N x N scalar weights followed by
matrix products (:func:`pair_sum`), so no (N, N, d) difference tensor is
ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ConfigError, DegenerateCloud

FAMILIES = ("imq", "rbf")


@dataclass(frozen=True)
class KernelConfig:
    """Base kernel choice.

    bandwidth is either a positive float or the string "median", in which
    case the bandwidth is re-resolved at every iteration from the cloud the
    sampler moves: the dual cloud for mirrored samplers, the primal cloud
    for projected ones.
    """

    family: str = "imq"
    bandwidth: float | str = "median"

    def __post_init__(self):
        problems = []
        if self.family not in FAMILIES:
            problems.append(f"unknown kernel family {self.family!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                problems.append(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not self.bandwidth > 0:
            problems.append("bandwidth must be positive")
        if problems:
            raise ConfigError(problems)


def median_bandwidth(points: np.ndarray) -> float:
    """sqrt(median(d)^2 / log N) over pairwise Euclidean distances.

    The median is taken as an order statistic: the middle distance, or
    (a + b) / 2 of the two middle ones, bit for bit what np.median returns
    on a finite cloud.

    Raises DegenerateCloud when there are no pairs or the median pairwise
    distance is zero (no usable spread).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n < 2:
        raise DegenerateCloud("median bandwidth needs at least two points")
    pairs = n * (n - 1) // 2
    mid = pairs // 2
    # the lower middle distance is the largest of those left of mid
    dist = np.partition(pdist(points), mid)
    med = float(dist[mid] if pairs % 2 else (dist[:mid].max() + dist[mid]) / 2)
    if med == 0.0:
        raise DegenerateCloud("median pairwise distance is zero")
    return float(np.sqrt(med**2 / np.log(n)))


def resolve_bandwidth(config: KernelConfig, points: np.ndarray) -> float:
    """The configured bandwidth, or the median heuristic on ``points``.

    A singleton or fully collapsed cloud has no usable spread; at zero
    separation the kernel value is 1 and its gradient 0 for any bandwidth,
    so the direction does not depend on the choice.  Use 1.0 and keep going
    rather than aborting the run.
    """
    if config.bandwidth != "median":
        return float(config.bandwidth)
    try:
        return median_bandwidth(points)
    except DegenerateCloud:
        return 1.0


def radial_profile(family: str, r2: np.ndarray, h: float, order: int = 3):
    """Return (f, f1, f2, f3): the kernel profile and d/d(r^2) derivatives,
    or just (f, f1) with ``order`` 1.

    imq: f(u) = (1 + u/h^2)^(-1/2)
    rbf: f(u) = exp(-u/h^2)
    """
    if order not in (1, 3):
        raise ValueError(f"order must be 1 or 3, got {order!r}")
    r2 = np.asarray(r2, dtype=float)
    h2 = h * h
    if family == "imq":
        base = 1.0 + r2 / h2
        out = (base**-0.5, -0.5 / h2 * base**-1.5)
        if order == 3:
            # each derivative is the previous one times -(k + 1/2) / (h^2 base)
            inv = 1.0 / base
            f2 = out[1] * inv
            f2 *= -1.5 / h2
            f3 = f2 * inv
            f3 *= -2.5 / h2
            out += (f2, f3)
        return out
    if family == "rbf":
        f = np.exp(-r2 / h2)
        out = (f, -f / h2)
        if order == 3:
            out += (f / h2**2, -f / h2**3)
        return out
    raise ValueError(f"unknown kernel family {family!r}")


def pair_sum(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i = sum_j c[j, i] (x_j - x_i), as c^T X - colsum(c) x_i."""
    return c.T @ X - c.sum(axis=0)[:, None] * X
