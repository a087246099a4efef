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
from mirrorcoin.metrics import LEAF, energy_distance, energy_distance_to, ksd_vstat, summary_moments
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
        plan = build_plan({
            "target.kind": "sparse_dirichlet", "target.alpha": "0.5",
            "target.counts": "6,3,1", "sampler.kind": "coin_msvgd",
            "sampler.n_particles": "8", "sampler.n_iters": "6",
            "sampler.metric_every": "1", "metrics.names": "energy",
            "metrics.ground_truth_n": "300",
        })
        ref = plan.target.sample_ground_truth(300, substream(plan.seed, "ground_truth"))
        sizes = []
        pdist = metrics.pdist
        monkeypatch.setattr(metrics, "pdist", lambda x: sizes.append(len(x)) or pdist(x))
        rec = execute_plan(plan)
        assert sizes.count(300) == 1 and sizes.count(8) == 7
        monkeypatch.undo()
        last = [v for it, name, v, ms in rec.trace if it == 6]
        assert last == [energy_distance(rec.x_final, ref)]


LENGTHS = [1, 7, 8, 9, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 3, 499_500]


def signed_spread(n, seed):
    """n values of magnitude 1e-8 to 1e8 with random signs."""
    rng = np.random.default_rng([seed, n])
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)


def leaf_sum(v):
    return metrics._pairwise_sum(v.size, lambda start, stop, out: np.copyto(out, v[start:stop]))


class TestPairwiseSum:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_numpys_bits(self, n):
        for seed in range(20):
            v = signed_spread(n, seed)
            assert leaf_sum(v).tobytes() == np.add.reduce(v).tobytes()

    @pytest.mark.parametrize("n", [n for n in LENGTHS if n > LEAF])
    def test_blocks_added_in_turn_are_not_numpys(self, n):
        # the negative control: the leaves must be added up as numpy halves
        def in_turn(v):
            return sum(np.add.reduce(v[k:k + LEAF]) for k in range(0, v.size, LEAF))
        vectors = [signed_spread(n, seed) for seed in range(20)]
        assert any(in_turn(v) != np.add.reduce(v) for v in vectors)

    def test_leaves_hold_at_most_leaf_values(self):
        sizes = []
        metrics._pairwise_sum(499_500, lambda start, stop, out: sizes.append(out.size))
        assert sum(sizes) == 499_500 and max(sizes) <= LEAF and len(sizes) == 8


def materialised_energy(a, ref):
    """Every pair distance held at once: the formula the metric keeps the
    bits of."""
    na, nb = len(a), len(ref)
    within_a = 2.0 * pdist(a).sum() / na**2 if na > 1 else 0.0
    within_ref = 2.0 * pdist(ref).sum() / nb**2 if nb > 1 else 0.0
    return float(2.0 * cdist(a, ref).mean() - within_a - within_ref)


class TestEnergyInLeaves:
    @pytest.mark.parametrize("na,nb,d", [
        (700, 1000, 3),     # every term in several leaves
        (40, 60, 2),        # none
        (400, 1000, 2),     # the box run's hook
        (1, 1000, 3), (700, 1, 3), (1, 1, 2),
    ])
    def test_materialised_bits(self, na, nb, d):
        rng = np.random.default_rng([10, na, nb, d])
        a, ref = rng.uniform(size=(na, d)), rng.normal(size=(nb, d))
        distance = energy_distance_to(ref)
        assert distance(a) == distance(a) == materialised_energy(a, ref)

    @pytest.mark.parametrize("n", [2, 3, 12, 60])
    def test_fills_write_any_run_of_values(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(n, 3)), rng.normal(size=(n + 5, 3))
        for fill, values in [(metrics._condensed(x), pdist(x)),
                             (metrics._cross(x, y), cdist(x, y).ravel())]:
            if n <= 12:                                 # every run
                starts, stops = np.triu_indices(values.size + 1, 1)
            else:
                starts = rng.integers(0, values.size, 3000)
                stops = starts + 1 + rng.integers(0, values.size - starts)
            for start, stop in zip(starts, stops):
                out = np.full(stop - start, np.nan)
                fill(start, stop, out)
                assert out.tobytes() == values[start:stop].tobytes()

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
        assert peak < 8 * LEAF * (threads + 2) + 8 * (na + nb)


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
