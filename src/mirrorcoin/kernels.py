"""Base kernels and bandwidth selection.

Radial kernels are written as k(x, x') = f(r^2) with r^2 = ||x - x'||^2, and
:func:`radial_profile` returns f together with its first three derivatives in
r^2 (or only the first, for the callers that need no more).  Those
derivatives are what every downstream gradient needs:

    grad_x k = 2 f'(r^2) (x - x')

and similarly for the second- and third-order terms of the Stein kernel.
Sums over particle pairs are written as N x N scalar weights followed by
matrix products (:func:`pair_sum`), so no (N, N, d) difference tensor is
ever built.  Every function takes clouds with leading axes, a stack of
runs, and treats each (N, d) slice as its own cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError

FAMILIES = ("imq", "rbf")


@dataclass(frozen=True)
class KernelConfig:
    """Base kernel choice.

    bandwidth is either a positive float or the string "median", in which
    case it is resolved at every iteration by :func:`median_h` from the
    primal pairwise distances the kernel is evaluated on, for every sampler
    and for the ksd metric.
    """

    family: str = "imq"
    bandwidth: float | str = "median"

    def __post_init__(self):
        problems = []
        if self.family not in FAMILIES:
            problems.append(f"unknown kernel family {self.family!r} "
                            f"(choices: {', '.join(FAMILIES)})")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                problems.append(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not self.bandwidth > 0:
            problems.append("bandwidth must be positive")
        if problems:
            raise ConfigError(problems)


def sq_dists(points: np.ndarray) -> np.ndarray:
    """The N x N squared pairwise distances of each (N, d) cloud in
    ``points``, taken by cdist one cloud at a time."""
    n, d = points.shape[-2:]
    clouds = points.reshape(-1, n, d)
    out = np.empty((len(clouds), n, n))
    for b in range(len(clouds)):
        cdist(clouds[b], clouds[b], "sqeuclidean", out=out[b])
    return out.reshape(points.shape[:-1] + (n,))


def median_h(r2: np.ndarray):
    """The median heuristic from the full N x N matrix of squared pairwise
    distances: h^2 = median of r^2 over the N(N-1)/2 pairs / log N, with
    the midpoint on r^2 of the two middle pairs when their count is even.
    A stack of B > 1 matrices gives one h per matrix, shaped (B, 1, 1) to
    broadcast against it; one matrix (alone or a stack of one) gives a
    float, so a lone run's kernel scales by a scalar.

    r2's diagonal holds N exact zeros and each pair twice (cdist is bitwise
    symmetric), so pair order statistic k sits at flat sorted index N + 2k
    and no pair needs gathering.  A singleton or collapsed cloud (zero
    median) has no usable spread; at zero separation the kernel value is 1
    and its gradient 0 for any bandwidth, so h = 1.0 then.
    """
    n = r2.shape[-1]
    flat = r2.reshape(-1, n * n)
    pairs = n * (n - 1) // 2
    h = [1.0] * len(flat)                          # a singleton has no pair
    if pairs:
        k = n + 2 * (pairs // 2)
        # one kth: numpy's partition at two is several times slower
        flat = np.partition(flat, k, axis=-1)
        med = flat[:, k] if pairs % 2 else (flat[:, :k].max(axis=-1) + flat[:, k]) / 2
        # in Python floats: numpy's ops on a single value cost a lone run more
        log_n = float(np.log(n))
        h = [math.sqrt(m / log_n) if m > 0 else 1.0 for m in med.tolist()]
    return h[0] if len(h) == 1 else np.reshape(h, r2.shape[:-2] + (1, 1))


def median_bandwidth(points: np.ndarray) -> float:
    """:func:`median_h` of a point cloud."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return median_h(cdist(points, points, "sqeuclidean"))


def radial_profile(family: str, r2: np.ndarray, h: float | str, order: int = 3):
    """Return (f, f1, f2, f3): the kernel profile and d/d(r^2) derivatives,
    or just (f, f1) with ``order`` 1.  ``h`` "median" is :func:`median_h`
    of ``r2``, the full matrix of a cloud's squared pairwise distances (or a
    stack of them, each with its own h).

    imq: f(u) = (1 + u/h^2)^(-1/2)
    rbf: f(u) = exp(-u/h^2)
    """
    if order not in (1, 3):
        raise ValueError(f"order must be 1 or 3, got {order!r}")
    r2 = np.asarray(r2, dtype=float)
    if h == "median":
        h = median_h(r2)
    h2 = h * h
    if family == "imq":
        # f = sqrt(1/base), and each derivative is the previous one times
        # -(k + 1/2) / (h^2 base); no power is taken
        inv = h2 / (h2 + r2)
        out = [np.sqrt(inv)]
        for k in range(order):
            out.append(out[-1] * inv)
            out[-1] *= -(k + 0.5) / h2
        return tuple(out)
    if family == "rbf":
        f = np.exp(-r2 / h2)
        out = (f, -f / h2)
        if order == 3:
            out += (f / h2**2, -f / h2**3)
        return out
    raise ValueError(f"unknown kernel family {family!r}")


def pair_sum(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i = sum_j c[j, i] (x_j - x_i), as c^T X - colsum(c) x_i."""
    return c.mT @ X - c.sum(axis=-2)[..., None] * X
