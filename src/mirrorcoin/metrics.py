"""Discrepancies between particle clouds and reference samples."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from . import cores
from .kernels import KernelConfig
from .samplers import stein_kernel_matrix


# Values a pair sum holds at once, per thread.  numpy's add reduces a run of
# more than 128 values as the sum of its two halves, cut at a multiple of 8
# (pairwise summation), so a longer run can be summed a leaf at a time with
# the same bits.
LEAF = 2**16


def _halve(start, stop):
    """Where numpy's pairwise sum cuts values start..stop-1."""
    half = (stop - start) // 2
    return start + half - half % 8


def _leaves(start, stop):
    """numpy's halves of values start..stop-1, down to runs of at most LEAF."""
    if stop - start <= LEAF:
        return [(start, stop)]
    return _leaves(start, _halve(start, stop)) + _leaves(_halve(start, stop), stop)


def _longest(n):
    """The length of the longest of n values' leaves."""
    return max(stop - start for start, stop in _leaves(0, n))


def _pairwise_sum(n, fill, parts=1):
    """``np.add.reduce`` of n values, bit for bit, without holding them:
    ``fill(start, stop, out)`` writes values start..stop-1 into ``out``, a
    leaf of at most LEAF values that numpy reduces itself.  The leaves go
    out over ``parts`` parts of one :func:`cores.spread`, each part with a
    buffer the calling thread allocates."""
    leaves = _leaves(0, n)
    parts = min(parts, len(leaves))
    held = [np.empty(_longest(n)) for _ in range(parts)]
    sums = {}

    def work(k):
        for start, stop in leaves[k::parts]:
            out = held[k][:stop - start]
            fill(start, stop, out)
            sums[start] = np.add.reduce(out)

    def add(start, stop):
        if stop - start <= LEAF:
            return sums[start]
        return add(start, _halve(start, stop)) + add(_halve(start, stop), stop)

    cores.spread(work, parts)
    return add(0, n)


def _cross(a, b):
    """The fill of cdist(a, b)'s values in row-major order."""
    nb = len(b)

    def fill(start, stop, out):
        # row i from column j, whole rows i+1..k-1, then row k up to column l
        i, j = divmod(start, nb)
        k, l = divmod(stop, nb)
        if i == k:
            cdist(a[i:i + 1], b[j:l], out=out[None])
            return
        head, tail = nb - j, out.size - l
        cdist(a[i:i + 1], b[j:], out=out[None, :head])
        cdist(a[i + 1:k], b, out=out[head:tail].reshape(-1, nb))
        if l:
            cdist(a[k:k + 1], b[:l], out=out[None, tail:])

    return fill


def _condensed(x):
    """The fill of pdist(x)'s values: row r holds x[r]'s distances to
    x[r + 1:]."""
    n = len(x)
    rows = np.arange(n)
    firsts = rows * n - rows * (rows + 1) // 2    # where each row's values start
    spare = np.empty(_longest(firsts[-1]))       # a leaf's distances past its block

    def fill(start, stop, out):
        # row i from column j, whole rows i+1..k-1, then row k's first values
        i, k = np.searchsorted(firsts, [start, stop], "right") - 1
        j = i + 1 + start - firsts[i]
        if i == k:
            cdist(x[i:i + 1], x[j:j + out.size], out=out[None])
            return
        head, tail = n - j, out.size - (stop - firsts[k])
        cdist(x[i:i + 1], x[j:], out=out[None, :head])
        _whole_rows(x, i + 1, k, out[head:tail], spare)
        cdist(x[k:k + 1], x[k + 1:k + 1 + out.size - tail], out=out[None, tail:])

    return fill


def _whole_rows(x, p, q, out, spare):
    """pdist(x)'s rows p..q-1 into out.  Each row holds its distances within
    x[p:q] (pdist of the block), then those to x[q:] (cdist), so the two
    are interleaved by a mask; rows that run to the end are pdist(x[p:])."""
    if q >= len(x) - 1:
        pdist(x[p:], out=out)
        return
    rows, far = q - p, len(x) - q
    lengths = np.full(2 * rows, far)
    lengths[::2] = np.arange(rows - 1, -1, -1)
    beyond = np.repeat(np.arange(2 * rows) % 2 == 1, lengths)
    out[beyond] = cdist(x[p:q], x[q:], out=spare[:rows * far].reshape(rows, far)).ravel()
    out[~beyond] = pdist(x[p:q])


def _within(x) -> float:
    """x's mean distance over its ordered pairs, the zero diagonal included."""
    n = len(x)
    if n < 2:
        return 0.0
    pairs = n * (n - 1) // 2
    # two leaves or fewer are held whole, since the fill would hold a leaf and
    # a spare one; it runs on the calling thread alone, as it allocates its
    # blocks' pdist and masks
    total = pdist(x).sum() if pairs <= 2 * LEAF else _pairwise_sum(pairs, _condensed(x))
    return 2.0 * total / n**2


def energy_distance_to(ref: np.ndarray):
    """Energy distance to a fixed reference cloud, as a callable of the other
    cloud; the reference's own mean pairwise distance is computed once.  A
    term of more than LEAF pair distances is summed a leaf at a time, with
    the bits of numpy's sum over all of them."""
    ref = np.atleast_2d(np.asarray(ref, dtype=float))
    nb = ref.shape[0]
    within_ref = _within(ref)

    def distance(a: np.ndarray) -> float:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[-1] != ref.shape[-1]:
            raise ValueError("clouds must share a dimension")
        na = a.shape[0]
        if na * nb > LEAF:
            cross = _pairwise_sum(na * nb, _cross(a, ref), cores.width()) / (na * nb)
        else:
            # by rows of a on the run's threads; each pair's distance is the
            # same at any split
            cross = np.empty((na, nb))
            parts = min(cores.width(), na)
            cuts = [na * k // parts for k in range(parts + 1)]
            cores.spread(lambda k: cdist(a[cuts[k]:cuts[k + 1]], ref,
                                         out=cross[cuts[k]:cuts[k + 1]]), parts)
            cross = cross.mean()
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
