"""The direction kernels as matrix products against their einsum references.

The library sums over particle pairs through N x N weights and matrix
products; ``helpers`` keeps the term-by-term einsum forms, which build the
(N, N, d) differences and, for KSD descent, the (N, N, d, d) contraction,
and the MIED gradient with a fresh array for every N x N temporary, which
the in-place library form matches bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from mirrorcoin.geometry import EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.mied import MollifierConfig, mie_gradient
from mirrorcoin.samplers import (
    ksd_descent_bytes,
    mksdd_direction,
    msvgd_direction,
    stein_kernel_matrix,
    svgd_direction,
)
from mirrorcoin.targets import (
    ExpOrthant,
    LogNormalOrthant,
    MirroredDensity,
    QuadraticSimplex,
    SelectiveLasso,
    SparseDirichlet,
    UniformBox,
)

import helpers
from helpers import orthant_interior_points, simplex_interior_points

SIZES = [(n, d) for n in (1, 7, 50) for d in (1, 2, 20)]
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


def mirrored_cloud(kind, n, d, seed=0):
    """A mirrored target and a dual cloud of n points on its domain.

    ``simplex`` and ``orthant`` are a sparse Dirichlet and an exponential
    target, whose score Hessians are diagonal plus rank one and zero; the
    other kinds have score Hessians that are non-constant or dense.
    """
    rng = np.random.default_rng([seed, n, d])
    if kind in ("simplex", "quadratic"):
        mmap = EntropicSimplexMap(d)
        x = simplex_interior_points(n, d, rng, margin=0.1)
    else:
        mmap = PositiveOrthantMap(d)
        x = orthant_interior_points(n, d, rng)
    if kind == "simplex":
        counts = np.zeros(d + 1)
        counts[:3] = (6.0, 3.0, 1.0)[:d + 1]
        target = SparseDirichlet(alpha=0.5, counts=counts)
    elif kind == "quadratic":
        target = QuadraticSimplex.random_instance(d, 0.5, rng)
    elif kind == "orthant":
        target = ExpOrthant(d, rate=1.3)
    elif kind == "lognormal":
        target = LogNormalOrthant(d, mu=0.3, sigma=0.8)
    else:
        target = SelectiveLasso.synthetic(rng, p=d + 2, q=d)
    return MirroredDensity(target, mmap), mmap.primal_to_dual(x)


@pytest.mark.parametrize("n,d", SIZES)
@pytest.mark.parametrize("family", ["imq", "rbf"])
@pytest.mark.parametrize("kind", ["simplex", "orthant", "quadratic", "lognormal", "lasso"])
class TestMirroredKernels:
    def test_msvgd_direction(self, kind, family, n, d):
        md, Y = mirrored_cloud(kind, n, d)
        assert_close(msvgd_direction(Y, md, family, 0.9),
                     helpers.msvgd_direction(Y, md, family, 0.9))

    def test_svgd_direction(self, kind, family, n, d):
        md, Y = mirrored_cloud(kind, n, d)
        X = md.mmap.dual_to_primal(Y)
        assert_close(svgd_direction(X, md.target, family, 0.9),
                     helpers.svgd_direction(X, md.target, family, 0.9))

    def test_stein_kernel_matrix(self, kind, family, n, d):
        md, Y = mirrored_cloud(kind, n, d)
        assert_close(stein_kernel_matrix(Y, md, family, 0.9),
                     helpers.stein_kernel_matrix(Y, md, family, 0.9))

    def test_mksdd_direction(self, kind, family, n, d):
        md, Y = mirrored_cloud(kind, n, d)
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


def traced_peak(direction, domain, n, d):
    """The tracemalloc peak, in bytes, of one direction on a mirrored cloud."""
    md, Y = mirrored_cloud(domain, n, d)
    tracemalloc.start()
    try:
        direction(Y, md, "imq", 0.9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("domain", ["simplex", "orthant"])
def test_mksdd_direction_holds_no_pair_tensor(domain):
    # one float64 (N, N, d, d) tensor at N=300, d=20 is 275 MiB
    n, d = 300, 20
    assert traced_peak(mksdd_direction, domain, n, d) < 8 * n * n * d * d


@pytest.mark.parametrize("direction", [msvgd_direction, mksdd_direction],
                         ids=["msvgd", "mksdd"])
@pytest.mark.parametrize("domain", ["simplex", "orthant"])
def test_direction_holds_no_matrix_per_particle(domain, direction):
    # one float64 (N, d, d) stack at N=200, d=100 is 15.3 MiB
    n, d = 200, 100
    assert traced_peak(direction, domain, n, d) < 8 * n * d * d


@pytest.mark.parametrize("n,d", [(300, 20), (1000, 2), (50, 20), (200, 100)])
@pytest.mark.parametrize("domain", ["simplex", "orthant"])
def test_mksdd_memory_estimate_bounds_peak(domain, n, d):
    # the estimate the KSD-descent budget refuses runs by, against the
    # tracemalloc peak of one direction
    assert traced_peak(mksdd_direction, domain, n, d) <= ksd_descent_bytes(n, d)


class _Tilted:
    """Log density a . x on a box, for a score term that is not 0."""

    def __init__(self, d, scale=1.0, offset=0.0):
        self.a = scale * np.linspace(-1.5, 2.0, d)
        self.offset = offset

    def log_density(self, x):
        return x @ self.a + self.offset

    def score(self, x):
        return np.broadcast_to(self.a, x.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 400])
@pytest.mark.parametrize("tilted", [False, True], ids=["flat", "tilted"])
@pytest.mark.parametrize("moll", MOLLIFIERS, ids=["riesz", "riesz_wide", "gaussian", "laplace"])
def test_mie_gradient_bitwise(moll, tilted, n):
    # the in-place gradient against the same sums with fresh temporaries,
    # bit for bit, with coincident particles where there are two or more
    rng = np.random.default_rng([3, n])
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    x[n // 2] = x[0]
    target = _Tilted(2) if tilted else UniformBox(-np.ones(2), np.ones(2))
    got = mie_gradient(x, target, moll)
    assert got.tobytes() == helpers.mie_gradient_unfused(x, target, moll).tobytes()


def test_mie_gradient_high_dimensional_riesz_peak():
    # at d=40 and eps=1e-8 the riesz peak log phi(0) is about 737, so the
    # unshifted terms would overflow; a tight cluster keeps the pair terms
    # above the underflow threshold
    n, d = 30, 40
    moll = MollifierConfig()
    assert -(d + 1e-4) * np.log(moll.eps) > np.log(np.finfo(float).max)
    x = 0.01 * np.random.default_rng(5).normal(size=(n, d))
    box = UniformBox(-np.ones(d), np.ones(d))
    assert_close(mie_gradient(x, box, moll), helpers.mie_gradient(x, box, moll))


@pytest.mark.parametrize("moll", MOLLIFIERS, ids=["riesz", "riesz_wide", "gaussian", "laplace"])
def test_mie_gradient_density_factors_underflow(moll):
    # the log density spans more than 1500 nats, so exp(-log pi / 2 - max)
    # underflows to 0 for the densest particles, as their softmax weights
    # do; unshifted, exp(-log pi / 2) would overflow for the sparsest
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, size=(60, 2))
    target = _Tilted(2, scale=250.0, offset=-900.0)
    logp = target.log_density(x)
    assert np.ptp(logp) > 1500.0
    assert -0.5 * logp.min() > np.log(np.finfo(float).max)
    assert_close(mie_gradient(x, target, moll), helpers.mie_gradient(x, target, moll))


@pytest.mark.parametrize("moll", MOLLIFIERS, ids=["riesz", "riesz_wide", "gaussian", "laplace"])
def test_mie_gradient_peak_memory(moll):
    # the pair terms live in row tiles: one call peaks near 0.39 x 8 N^2
    # bytes (0.50 MB) for every mollifier, well inside the bound
    n = 400
    x = np.random.default_rng(7).uniform(-1.0, 1.0, size=(n, 2))
    box = UniformBox(-np.ones(2), np.ones(2))
    tracemalloc.start()
    try:
        mie_gradient(x, box, moll)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


@pytest.mark.parametrize("moll", MOLLIFIERS, ids=["riesz", "riesz_wide", "gaussian", "laplace"])
def test_mie_gradient_holds_no_pair_matrix(moll):
    # the pair terms live in row tiles: the peak stays below one N x N array
    n = 2000
    x = np.random.default_rng(7).uniform(-1.0, 1.0, size=(n, 2))
    box = UniformBox(-np.ones(2), np.ones(2))
    tracemalloc.start()
    try:
        mie_gradient(x, box, moll)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n

