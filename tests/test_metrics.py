"""Energy distance, Stein discrepancy wrapper, summary moments."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from mirrorcoin import cores, metrics
from mirrorcoin.geometry import PositiveOrthantMap
from mirrorcoin.harness import build_plan, execute_plan
from mirrorcoin.kernels import KernelConfig
from mirrorcoin.metrics import BLOCK, energy_distance, energy_distance_to, ksd_vstat, summary_moments
from mirrorcoin.rng import substream
from mirrorcoin.samplers import stein_kernel_matrix
from mirrorcoin.targets import ExpOrthant, MirroredDensity


class TestEnergyDistance:
    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 3))
        assert abs(energy_distance(a, a)) < 1e-12

    def test_singletons_hand_value(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert np.isclose(energy_distance(a, b), 10.0)  # 2 * 5

    def test_two_point_hand_value(self):
        # a = {0, 1}, b = {2} on the line:
        # cross = (2 + 1)/2, within_a = 2*1/4, within_b = 0
        a = np.array([[0.0], [1.0]])
        b = np.array([[2.0]])
        assert np.isclose(energy_distance(a, b), 2.0 * 1.5 - 0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(25, 2)) + 0.5
        assert np.isclose(energy_distance(a, b), energy_distance(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_nonnegative(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(na, 2))
        b = rng.normal(size=(nb, 2)) + rng.normal()
        assert energy_distance(a, b) >= -1e-12

    def test_detects_shift(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(100, 2))
        near = rng.normal(size=(100, 2))
        far = rng.normal(size=(100, 2)) + 3.0
        assert energy_distance(a, far) > energy_distance(a, near)


    def test_run_hook_computes_reference_self_distance_once(self, monkeypatch):
        pdist, block_sum = metrics.pdist, metrics._block_sum
        # 300 points take pdist's path, the default 1000 the block path
        for n in (300, 1000):
            plan = build_plan({
                "target.kind": "sparse_dirichlet", "target.alpha": "0.5",
                "target.counts": "6,3,1", "sampler.kind": "coin_msvgd",
                "sampler.n_particles": "8", "sampler.n_iters": "6",
                "sampler.metric_every": "1", "metrics.names": "energy",
                "metrics.ground_truth_n": str(n),
            })
            ref = plan.target.sample_ground_truth(n, substream(plan.seed, "ground_truth"))
            sizes = []

            def own_block_sum(a, b, parts=1):
                if a is b:
                    sizes.append(len(a))
                return block_sum(a, b, parts)

            monkeypatch.setattr(metrics, "pdist", lambda x: sizes.append(len(x)) or pdist(x))
            monkeypatch.setattr(metrics, "_block_sum", own_block_sum)
            rec = execute_plan(plan)
            assert sizes.count(n) == 1 and sizes.count(8) == 7
            monkeypatch.undo()
            last = [v for it, name, v, ms in rec.trace if it == 6]
            assert last == [energy_distance(rec.x_final, ref)]


def materialised_within(x):
    """x's own term with every pair distance held at once."""
    return 2.0 * pdist(x).sum() / len(x)**2 if len(x) > 1 else 0.0


def materialised_energy(a, ref):
    """Every pair distance held at once."""
    return float(2.0 * cdist(a, ref).mean() - materialised_within(a) - materialised_within(ref))


# Stated before the first run: a term summed in blocks is within 8 ulps
# (relative 8 eps) of numpy's sum over all its distances at once.  Both add
# up positive values, each with a rounding error of about an eps at these
# sizes, while a block dropped or counted twice is off by about 1/blocks.
EPS = np.finfo(float).eps


class TestEnergyInLeaves:
    @pytest.mark.parametrize("na,nb,d", [
        (700, 1000, 3),     # every term in several blocks
        (40, 60, 2),
        (400, 1000, 2),     # the box run's hook
        (1, 1000, 3), (700, 1, 3),
        (50, 1000, 20),     # the sparse Dirichlet hook's cross term
        (128, 512, 3),      # a cross term of exactly one block, the largest pdist term
        (512, 128, 2), (1, 512, 3), (512, 1, 3), (1, 1, 2),
    ])
    def test_materialised_bits(self, na, nb, d):
        # a cross term of one block (na <= BLOCK // nb) is one
        # cdist(a, ref).sum(), and an own term of at most 2 * BLOCK pairs
        # (n <= 512) one pdist(x).sum(), on any number of parts; a term of
        # several blocks is within 8 eps of the materialised sum
        rng = np.random.default_rng([10, na, nb, d])
        a, ref = rng.uniform(size=(na, d)), rng.normal(size=(nb, d))
        one_block = na <= max(1, BLOCK // nb)
        cross = cdist(a, ref).mean()
        for parts in (1, 3):
            got = metrics._block_sum(a, ref, parts) / (na * nb)
            assert got == cross if one_block else abs(got - cross) <= 8 * EPS * cross
        for x in (a, ref):
            got, want = metrics._within(x), materialised_within(x)
            assert got == want if len(x) <= 512 else abs(got - want) <= 8 * EPS * want
        distance = energy_distance_to(ref)
        got, want = distance(a), materialised_energy(a, ref)
        assert got == distance(a)
        if one_block and len(a) <= 512 and len(ref) <= 512:
            assert got == want
        else:
            # the terms' 8 eps, and an eps for each of the two subtractions
            scale = 2 * cross + materialised_within(a) + materialised_within(ref)
            assert abs(got - want) <= 10 * EPS * scale

    @pytest.mark.parametrize("na,nb,d", [
        (700, 1000, 3),
        (400, 1000, 2),     # the box run's hook
        (66, 1000, 20),     # a block of 65 rows and one of a single row
        (1000, 3000, 2),
        (3, 70_000, 2),     # rows longer than a block, one at a time
    ])
    def test_multi_block_cross_terms_agree_with_the_materialised_sum(self, na, nb, d):
        rng = np.random.default_rng([12, na, nb, d])
        a, ref = rng.uniform(size=(na, d)), rng.normal(size=(nb, d))
        got, want = metrics._block_sum(a, ref), cdist(a, ref).sum()
        assert abs(got - want) <= 8 * EPS * want
        assert metrics._block_sum(a, ref, 2) == metrics._block_sum(a, ref, 5) == got

    @pytest.mark.parametrize("n,d", [(513, 2), (1000, 2), (1000, 20), (3000, 2)])
    def test_multi_block_own_terms_agree_with_the_materialised_sum(self, n, d):
        x = np.random.default_rng([13, n, d]).normal(size=(n, d))
        got, want = metrics._within(x), materialised_within(x)
        assert abs(got - want) <= 8 * EPS * want

    @pytest.mark.parametrize("d", [2, 20])
    def test_own_term_holds_one_block(self, d):
        # the default reference's own term: one block of BLOCK // 1000 rows,
        # where pdist holds its 499 500 distances (4 MB)
        n = 1000
        x = np.random.default_rng([14, d]).uniform(size=(n, d))
        tracemalloc.start()
        try:
            metrics._within(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * BLOCK + 8 * n

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_holds_no_pair_matrix(self, threads, monkeypatch):
        # a held leaf per thread, or a held and a spare leaf with the fill's
        # masks; the materialised form holds cdist's 48 MB here, and
        # pdist(ref)'s 36 MB
        na, nb = 2000, 3000
        rng = np.random.default_rng(11)
        a, ref = rng.uniform(size=(na, 2)), rng.uniform(size=(nb, 2))
        monkeypatch.setattr(cores, "usable_cores", lambda: threads)
        with cores.run_pool():
            tracemalloc.start()
            try:
                energy_distance(a, ref)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * BLOCK * (threads + 2) + 8 * (na + nb)


class TestKsd:
    def test_is_the_stein_matrix_mean_with_resolved_bandwidth(self):
        rng = np.random.default_rng(3)
        md = MirroredDensity(ExpOrthant(2, rate=1.0), PositiveOrthantMap(2))
        Y = rng.normal(size=(10, 2)) * 0.5
        got = ksd_vstat(Y, md, KernelConfig(bandwidth=0.8))
        assert got == float(stein_kernel_matrix(Y, md, "imq", 0.8).mean())
        assert ksd_vstat(Y, md) >= -1e-8

    def test_smaller_near_target_than_far(self):
        md = MirroredDensity(ExpOrthant(1, rate=1.0), PositiveOrthantMap(1))
        rng = np.random.default_rng(4)
        good = np.log(rng.exponential(size=(80, 1)))
        bad = good + 3.0
        assert ksd_vstat(good, md) < ksd_vstat(bad, md)


class TestMoments:
    def test_hand_values(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        m = summary_moments(x)
        assert np.allclose(m["mean"], [2.0, 4.0])
        assert np.allclose(m["var"], [2.0, 8.0])  # ddof = 1

    def test_singleton_var_zero(self):
        m = summary_moments(np.array([[5.0]]))
        assert np.allclose(m["mean"], [5.0]) and np.allclose(m["var"], [0.0])
