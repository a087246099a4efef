"""The direction kernels as matrix products against their einsum references.

The library sums over particle pairs through N x N weights and matrix
products; ``helpers`` keeps the term-by-term einsum forms, which build the
(N, N, d) differences and, for KSD descent, the (N, N, d, d) contraction.
"""

import tracemalloc

import numpy as np
import pytest

from mirrorcoin.geometry import EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.mied import MollifierConfig, mie_gradient
from mirrorcoin.samplers import (
    mksdd_direction,
    msvgd_direction,
    stein_kernel_matrix,
    svgd_direction,
)
from mirrorcoin.targets import ExpOrthant, MirroredDensity, SparseDirichlet, UniformBox

import helpers
from helpers import orthant_interior_points, simplex_interior_points

SIZES = [(n, d) for n in (1, 7, 50) for d in (2, 20)]
MOLLIFIERS = [
    MollifierConfig(),
    MollifierConfig(kind="riesz", eps=0.5),
    MollifierConfig(kind="gaussian", eps=0.5),
    MollifierConfig(kind="laplace", eps=0.5),
]


def assert_close(got, want, tol=1e-10):
    """Max absolute difference within tol times the reference's magnitude."""
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def mirrored_cloud(domain, n, d, seed=0):
    rng = np.random.default_rng([seed, n, d])
    if domain == "simplex":
        counts = np.zeros(d + 1)
        counts[:3] = (6.0, 3.0, 1.0)
        target, mmap = SparseDirichlet(alpha=0.5, counts=counts), EntropicSimplexMap(d)
        x = simplex_interior_points(n, d, rng, margin=0.1)
    else:
        target, mmap = ExpOrthant(d, rate=1.3), PositiveOrthantMap(d)
        x = orthant_interior_points(n, d, rng)
    return MirroredDensity(target, mmap), mmap.primal_to_dual(x)


@pytest.mark.parametrize("n,d", SIZES)
@pytest.mark.parametrize("family", ["imq", "rbf"])
@pytest.mark.parametrize("domain", ["simplex", "orthant"])
class TestMirroredKernels:
    def test_msvgd_direction(self, domain, family, n, d):
        md, Y = mirrored_cloud(domain, n, d)
        assert_close(msvgd_direction(Y, md, family, 0.9),
                     helpers.msvgd_direction(Y, md, family, 0.9))

    def test_svgd_direction(self, domain, family, n, d):
        md, Y = mirrored_cloud(domain, n, d)
        X = md.mmap.dual_to_primal(Y)
        assert_close(svgd_direction(X, md.target, family, 0.9),
                     helpers.svgd_direction(X, md.target, family, 0.9))

    def test_stein_kernel_matrix(self, domain, family, n, d):
        md, Y = mirrored_cloud(domain, n, d)
        assert_close(stein_kernel_matrix(Y, md, family, 0.9),
                     helpers.stein_kernel_matrix(Y, md, family, 0.9))

    def test_mksdd_direction(self, domain, family, n, d):
        md, Y = mirrored_cloud(domain, n, d)
        want = -helpers.stein_kernel_grad2(Y, md, family, 0.9).sum(axis=0) / n**2
        assert_close(mksdd_direction(Y, md, family, 0.9), want)


@pytest.mark.parametrize("n,d", SIZES)
@pytest.mark.parametrize("moll", MOLLIFIERS, ids=["riesz", "riesz_wide", "gaussian", "laplace"])
def test_mie_gradient(moll, n, d):
    # a flat target leaves only the pair term of the gradient
    rng = np.random.default_rng([1, n, d])
    box = UniformBox(-np.ones(d), np.ones(d))
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    assert_close(mie_gradient(x, box, moll), helpers.mie_gradient(x, box, moll))


@pytest.mark.parametrize("moll", MOLLIFIERS, ids=["riesz", "riesz_wide", "gaussian", "laplace"])
def test_mie_gradient_coincident_particles(moll):
    # r2 = 0 off the diagonal: the pair difference is exactly 0 there, while
    # the riesz gradient scale is about 1e16
    rng = np.random.default_rng(2)
    box = UniformBox(-np.ones(2), np.ones(2))
    x = rng.uniform(-1.0, 1.0, size=(7, 2))
    x[3] = x[0]
    assert_close(mie_gradient(x, box, moll), helpers.mie_gradient(x, box, moll))


@pytest.mark.parametrize("domain", ["simplex", "orthant"])
def test_mksdd_direction_holds_no_pair_tensor(domain):
    # one float64 (N, N, d, d) tensor at N=300, d=20 is 275 MiB
    n, d = 300, 20
    md, Y = mirrored_cloud(domain, n, d)
    tracemalloc.start()
    try:
        mksdd_direction(Y, md, "imq", 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n * d * d
