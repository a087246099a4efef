"""The direct layer calls that the benchmark's layer grid (perfbench/grid.py)
makes: each still takes the arguments it is given there and returns a finite
value of the right shape."""

import numpy as np
import pytest

from mirrorcoin.geometry import EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.kernels import median_bandwidth
from mirrorcoin.metrics import ksd_vstat
from mirrorcoin.samplers import mksdd_direction, msvgd_direction
from mirrorcoin.targets import ExpOrthant, MirroredDensity, SparseDirichlet


def dirichlet(n, d, rng):
    counts = np.zeros(d + 1)
    counts[:3] = (90.0, 5.0, 5.0)
    mmap = EntropicSimplexMap(d)
    x = rng.dirichlet(np.full(d + 1, 5.0), size=n)[:, :d]
    return MirroredDensity(SparseDirichlet(alpha=0.1, counts=counts), mmap), mmap.primal_to_dual(x)


def orthant(n, d, rng):
    mmap = PositiveOrthantMap(d)
    y = mmap.primal_to_dual(np.exp(rng.standard_normal((n, d))))
    return MirroredDensity(ExpOrthant(d), mmap), y


@pytest.mark.parametrize("d", [2, 20])
def test_grid_calls_return_finite_values_of_the_right_shape(d):
    rng = np.random.default_rng([901, 50, d])
    md, y = dirichlet(50, d, rng)
    h = median_bandwidth(y)
    assert isinstance(h, float) and np.isfinite(h) and h > 0
    got = msvgd_direction(y, md, "imq", h)
    assert got.shape == y.shape and np.isfinite(got).all()

    md, y = orthant(50, d, rng)
    got = mksdd_direction(y, md, "imq", median_bandwidth(y))
    assert got.shape == y.shape and np.isfinite(got).all()
    ksd = ksd_vstat(y, md)
    assert isinstance(ksd, float) and np.isfinite(ksd)
