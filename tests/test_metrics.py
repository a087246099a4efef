"""Energy distance, Stein discrepancy wrapper, summary moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcoin import metrics
from mirrorcoin.geometry import PositiveOrthantMap
from mirrorcoin.harness import build_plan, execute_plan
from mirrorcoin.kernels import KernelConfig
from mirrorcoin.metrics import energy_distance, ksd_vstat, summary_moments
from mirrorcoin.rng import substream
from mirrorcoin.samplers import stein_vstat
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


class TestKsd:
    def test_wraps_stein_vstat_with_resolved_bandwidth(self):
        rng = np.random.default_rng(3)
        md = MirroredDensity(ExpOrthant(2, rate=1.0), PositiveOrthantMap(2))
        Y = rng.normal(size=(10, 2)) * 0.5
        got = ksd_vstat(Y, md, KernelConfig(bandwidth=0.8))
        assert np.isclose(got, stein_vstat(Y, md, "imq", 0.8))
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
