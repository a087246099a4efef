"""Layer size grid: direct calls of single layers as N and d grow.

Every cell (function, N, d) first gets an estimate of its float64 footprint.
A cell whose estimate exceeds BUDGET_MB is recorded as refused and never
allocated; the others record the median wall time of a few calls and the
tracemalloc peak of one call.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc

import numpy as np

SIZES = tuple((n, d) for n in (50, 200, 1000) for d in (2, 20))
REF_N = 1000
BUDGET_MB = 1024
TIMED_S = 0.2     # keep calling a cell until this much time has gone by ...
MAX_CALLS = 5     # ... or it was called this often

# Estimated peak bytes of one call.  The pairwise layers hold a few (N, N)
# arrays per coordinate, or per coordinate pair for the Stein kernel
# gradient's (N, N, d, d) tensor; the coefficients lie at or above the
# tracemalloc peaks measured at N <= 200 and at N = 1000, d = 2.
FOOTPRINT = {
    "samplers.msvgd_direction": lambda n, d: 8 * n * n * (5 * d + 4),
    "samplers.mksdd_direction": lambda n, d: 8 * n * n * (4 * d * d + 8 * d + 1),
    "metrics.ksd_vstat": lambda n, d: 8 * n * n * (4 * d + 12),
    "kernels.median_bandwidth": lambda n, d: 8 * n * n,
    "metrics.energy_distance": lambda n, d: 8 * (n + REF_N) ** 2,
    "mied.mie_gradient": lambda n, d: 8 * n * n * (4 * d + 4),
}


def _layer(name: str):
    module, _, attr = name.rpartition(".")
    try:
        return getattr(importlib.import_module("mirrorcoin." + module), attr, None)
    except ImportError:
        return None


def _dirichlet(n, d, rng):
    from mirrorcoin.geometry import EntropicSimplexMap
    from mirrorcoin.targets import MirroredDensity, SparseDirichlet

    counts = np.zeros(d + 1)
    counts[:3] = (90.0, 5.0, 5.0)
    target = SparseDirichlet(alpha=0.1, counts=counts)
    mmap = EntropicSimplexMap(d)
    x = rng.dirichlet(np.full(d + 1, 5.0), size=n)[:, :d]
    return target, MirroredDensity(target, mmap), x, mmap.primal_to_dual(x)


def _orthant(n, d, rng):
    from mirrorcoin.geometry import PositiveOrthantMap
    from mirrorcoin.targets import ExpOrthant, MirroredDensity

    mmap = PositiveOrthantMap(d)
    y = mmap.primal_to_dual(np.exp(rng.standard_normal((n, d))))
    return MirroredDensity(ExpOrthant(d), mmap), y


def _arguments(name, n, d, rng):
    from mirrorcoin.kernels import median_bandwidth

    if name == "samplers.msvgd_direction":
        _, md, _, y = _dirichlet(n, d, rng)
        return (y, md, "imq", median_bandwidth(y))
    if name == "samplers.mksdd_direction":
        md, y = _orthant(n, d, rng)
        return (y, md, "imq", median_bandwidth(y))
    if name == "metrics.ksd_vstat":
        return tuple(reversed(_orthant(n, d, rng)))
    if name == "kernels.median_bandwidth":
        return (_dirichlet(n, d, rng)[3],)
    if name == "metrics.energy_distance":
        target, _, x, _ = _dirichlet(n, d, rng)
        return (x, target.sample_ground_truth(REF_N, rng))
    if name == "mied.mie_gradient":
        from mirrorcoin.mied import MollifierConfig
        from mirrorcoin.targets import UniformBox

        box = UniformBox(-np.ones(d), np.ones(d))
        return (rng.uniform(-1.0, 1.0, size=(n, d)), box, MollifierConfig())
    raise KeyError(name)


def _measure(fn, args) -> dict:
    tracemalloc.start()
    fn(*args)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    times = []
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (not times or time.perf_counter() - start < TIMED_S):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return {"status": "ok", "ms": 1e3 * statistics.median(times),
            "peak_mb": peak / 2**20, "calls": len(times)}


def run(seed: int) -> dict:
    cells = {}
    for name, footprint in FOOTPRINT.items():
        fn = _layer(name)
        for n, d in SIZES:
            key = f"{name}.n{n}_d{d}"
            est_mb = footprint(n, d) / 2**20
            if fn is None:
                cells[key] = {"status": "missing", "est_mb": est_mb}
            elif est_mb > BUDGET_MB:
                cells[key] = {"status": "refused", "est_mb": est_mb}
            else:
                rng = np.random.default_rng([seed, n, d])
                cells[key] = dict(_measure(fn, _arguments(name, n, d, rng)), est_mb=est_mb)
    return {"budget_mb": BUDGET_MB, "cells": cells}
