"""Discrepancies between particle clouds and reference samples."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from . import cores
from .kernels import KernelConfig
from .samplers import stein_kernel_matrix


# Pair distances a block of rows holds, or one row if it is longer.
BLOCK = 2**16


def _block_sum(a, b, parts=1):
    """The sum of cdist(a, b) over fixed blocks of BLOCK // len(b) rows of a
    (at least one), each written into a buffer the calling thread allocates.
    The blocks go out over ``parts`` parts of one :func:`cores.spread`, and
    their sums are added in block order, so the value does not depend on
    ``parts``.  A single block is one ``cdist(a, b).sum()``."""
    rows = max(1, BLOCK // len(b))
    starts = range(0, len(a), rows)
    parts = min(parts, len(starts))
    held = [np.empty((min(rows, len(a)), len(b))) for _ in range(parts)]
    sums = [0.0] * len(starts)

    def work(k):
        for i in range(k, len(starts), parts):
            block = a[starts[i]:starts[i] + rows]
            sums[i] = cdist(block, b, out=held[k][:len(block)]).sum()

    cores.spread(work, parts)
    return sum(sums)


def _within(x) -> float:
    """x's mean distance over its ordered pairs, the zero diagonal included."""
    n = len(x)
    if n * (n - 1) // 2 <= 2 * BLOCK:
        return 2.0 * pdist(x).sum() / n**2
    # pdist holds all its pairs at once; the square in blocks holds a block,
    # and measures each pair twice
    return _block_sum(x, x, cores.width()) / n**2


def energy_distance_to(ref: np.ndarray):
    """Energy distance to a fixed reference cloud, as a callable of the other
    cloud; the reference's own mean pairwise distance is computed once.  The
    cross term, and a cloud's own term of more than 2 * BLOCK pairs, are
    summed a block of rows at a time (:func:`_block_sum`)."""
    ref = np.atleast_2d(np.asarray(ref, dtype=float))
    within_ref = _within(ref)

    def distance(a: np.ndarray) -> float:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[-1] != ref.shape[-1]:
            raise ValueError("clouds must share a dimension")
        cross = _block_sum(a, ref, cores.width()) / (len(a) * len(ref))
        return float(2.0 * cross - _within(a) - within_ref)

    return distance


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """V-statistic energy distance 2 E|a-b| - E|a-a'| - E|b-b'|.

    Within-cloud means run over all ordered pairs including the zero
    diagonal, so the statistic is nonnegative and exactly zero for
    identical clouds.
    """
    return energy_distance_to(b)(a)


def ksd_vstat(Y: np.ndarray, md, kernel: KernelConfig = KernelConfig()) -> float:
    """Squared kernel Stein discrepancy of a dual cloud: the V-statistic
    (1/N^2) sum_{j,i} K[j, i] of its Stein kernel matrix."""
    return float(stein_kernel_matrix(Y, md, kernel.family, kernel.bandwidth).mean())


def summary_moments(x: np.ndarray) -> dict:
    """Per-coordinate mean and unbiased variance of a cloud."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ddof = 1 if x.shape[0] > 1 else 0
    return {
        "mean": x.mean(axis=0),
        "var": x.var(axis=0, ddof=ddof),
    }
