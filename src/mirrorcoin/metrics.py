"""Discrepancies between particle clouds and reference samples."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .kernels import KernelConfig
from .samplers import stein_vstat


def energy_distance_to(ref: np.ndarray):
    """Energy distance to a fixed reference cloud, as a callable of the other
    cloud; the reference's own mean pairwise distance is computed once."""
    ref = np.atleast_2d(np.asarray(ref, dtype=float))
    nb = ref.shape[0]
    within_ref = 2.0 * pdist(ref).sum() / nb**2 if nb > 1 else 0.0

    def distance(a: np.ndarray) -> float:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[-1] != ref.shape[-1]:
            raise ValueError("clouds must share a dimension")
        na = a.shape[0]
        cross = cdist(a, ref).mean()
        within_a = 2.0 * pdist(a).sum() / na**2 if na > 1 else 0.0
        return float(2.0 * cross - within_a - within_ref)

    return distance


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """V-statistic energy distance 2 E|a-b| - E|a-a'| - E|b-b'|.

    Within-cloud means run over all ordered pairs including the zero
    diagonal, so the statistic is nonnegative and exactly zero for
    identical clouds.
    """
    return energy_distance_to(b)(a)


def ksd_vstat(Y: np.ndarray, md, kernel: KernelConfig = KernelConfig()) -> float:
    """Squared kernel Stein discrepancy (V-statistic) of a dual cloud."""
    return stein_vstat(Y, md, kernel.family, kernel.bandwidth)


def summary_moments(x: np.ndarray) -> dict:
    """Per-coordinate mean and unbiased variance of a cloud."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ddof = 1 if x.shape[0] > 1 else 0
    return {
        "mean": x.mean(axis=0),
        "var": x.var(axis=0, ddof=ddof),
    }
