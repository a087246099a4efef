"""The layers the benchmark reaches: the direct layer calls that its layer
grid (perfbench/grid.py) makes, each of which still takes the arguments it
is given there and returns a finite value of the right shape, and the layers
its tracer (perfbench/tracer.py) wraps."""

import importlib.util
import sys
from pathlib import Path

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


# Layers the benchmark's tracer names that the package no longer has; its
# files change only with the benchmark itself (ROADMAP, open item 1).
STALE_LAYERS = {
    "mirrorcoin.samplers.stein_kernel_grad2",
    "mirrorcoin.kernels.resolve_bandwidth",
    "mirrorcoin.geometry.EntropicSimplexMap.is_interior",
    "mirrorcoin.geometry.PositiveOrthantMap.is_interior",
    "mirrorcoin.mied.run_mied",
    "mirrorcoin.mied.TanhBox.to_x",
}


class NoOpTracer:
    def wrap(self, name, fn):
        return fn


def test_the_benchmark_finds_every_layer_it_traces_but_the_stale_ones():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import mirrorcoin.cli  # noqa: F401  imports every layer's module

    modules = {name: module for name, module in sys.modules.items()
               if name == "mirrorcoin" or name.startswith("mirrorcoin.")}
    missing = tracer.install(NoOpTracer(), modules)
    assert set(missing) == STALE_LAYERS
