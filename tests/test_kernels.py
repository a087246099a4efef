"""Kernel values, gradients, bandwidth selection, and the mirrored kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcoin.errors import DegenerateCloud
from mirrorcoin.geometry import EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.kernels import (
    KernelConfig,
    median_bandwidth,
    radial_profile,
    resolve_bandwidth,
)

from helpers import (
    base_eval_grad,
    fd_grad,
    gram,
    median_bandwidth as median_bandwidth_oracle,
    mirrored_eval_grad,
    rel_err,
    simplex_interior_points,
)


class TestBaseKernels:
    def test_imq_hand_value(self):
        # (1 + 1/1)^(-1/2) at unit separation, h = 1
        k, _ = base_eval_grad("imq", 1.0, np.zeros(2), np.array([1.0, 0.0]))
        assert abs(k - 2.0**-0.5) < 1e-15

    def test_rbf_hand_value(self):
        k, _ = base_eval_grad("rbf", 1.0, np.zeros(2), np.array([1.0, 0.0]))
        assert abs(k - np.exp(-1.0)) < 1e-15

    def test_unit_at_coincident_points(self):
        for fam in ("imq", "rbf"):
            k, g = base_eval_grad(fam, 0.7, np.ones(3), np.ones(3))
            assert k == 1.0
            np.testing.assert_array_equal(g, np.zeros(3))

    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_gradient_matches_fd(self, fam):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=3)
            x2 = rng.normal(size=3)
            h = rng.uniform(0.5, 2.0)
            _, g = base_eval_grad(fam, h, x, x2)
            want = fd_grad(lambda z: base_eval_grad(fam, h, z, x2)[0], x, h=1e-6)
            assert rel_err(g, want) < 1e-6

    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_profile_derivative_chain(self, fam):
        """f1, f2, f3 are successive d/d(r^2) derivatives of the profile."""
        r2 = np.linspace(0.0, 9.0, 40)
        h = 1.3
        eps = 1e-6
        f, f1, f2, f3 = radial_profile(fam, r2, h)
        for lvl, (lo, hi) in enumerate(
            [(f, f1), (f1, f2), (f2, f3)]
        ):
            up = radial_profile(fam, r2 + eps, h)[lvl]
            dn = radial_profile(fam, r2 - eps, h)[lvl]
            assert rel_err((up - dn) / (2 * eps), hi) < 1e-5

    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_first_order_profile_is_the_full_one_cut_short(self, fam):
        r2 = np.random.default_rng(3).uniform(0.0, 9.0, size=(7, 7))
        full = radial_profile(fam, r2, 0.8)
        short = radial_profile(fam, r2, 0.8, order=1)
        assert len(short) == 2
        for got, want in zip(short, full):
            assert got.tobytes() == want.tobytes()

    def test_imq_profile_matches_closed_forms(self):
        # f2 and f3 come from f1 and 1/base, not from their own powers
        r2 = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 60)])
        for h in (0.05, 1.3, 40.0):
            base = 1.0 + r2 / h**2
            want = (base**-0.5, -0.5 / h**2 * base**-1.5,
                    0.75 / h**4 * base**-2.5, -1.875 / h**6 * base**-3.5)
            for got, ref in zip(radial_profile("imq", r2, h), want):
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_profile_order_is_one_or_three(self, order):
        with pytest.raises(ValueError, match="order must be 1 or 3"):
            radial_profile("imq", np.ones(3), 1.0, order=order)

    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_symmetry(self, fam):
        rng = np.random.default_rng(1)
        x, x2 = rng.normal(size=(2, 4))
        ka, _ = base_eval_grad(fam, 0.9, x, x2)
        kb, _ = base_eval_grad(fam, 0.9, x2, x)
        assert ka == kb

    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_gram_psd(self, fam):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 3))
        K = gram(fam, 1.1, pts, pts)
        eig = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eig.min() > -1e-10


class TestMedianBandwidth:
    def test_two_point_hand_value(self):
        # median distance 1, N = 2: h = sqrt(1 / log 2)
        h = median_bandwidth(np.array([[0.0], [1.0]]))
        assert abs(h - np.sqrt(1.0 / np.log(2.0))) < 1e-12

    def test_three_point_hand_value(self):
        # distances {1, 1, 2} -> median 1
        h = median_bandwidth(np.array([[0.0], [1.0], [2.0]]))
        assert abs(h - np.sqrt(1.0 / np.log(3.0))) < 1e-12

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloud):
            median_bandwidth(np.zeros((5, 2)))
        with pytest.raises(DegenerateCloud):
            median_bandwidth(np.array([[1.0, 2.0]]))

    def test_resolve(self):
        pts = np.array([[0.0], [1.0]])
        assert resolve_bandwidth(KernelConfig("imq", 2.5), pts) == 2.5
        assert resolve_bandwidth(KernelConfig("imq", "median"), pts) == median_bandwidth(pts)

    # N pairs: 2 -> 1, 3 -> 3, 5 -> 10, 8 -> 28, 9 -> 36, 50 -> 1225
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 50])
    @pytest.mark.parametrize("ties", [False, True], ids=["spread", "ties"])
    def test_order_statistic_matches_np_median_bitwise(self, n, ties):
        rng = np.random.default_rng([n, ties])
        for _ in range(20):
            if ties:
                # integer points on a small grid repeat many distances
                pts = rng.integers(0, 3, size=(n, 2)).astype(float)
                if not np.ptp(pts, axis=0).any():
                    continue
            else:
                pts = rng.normal(size=(n, 3))
            want = median_bandwidth_oracle(pts)
            if want == 0.0:
                with pytest.raises(DegenerateCloud):
                    median_bandwidth(pts)
                continue
            assert median_bandwidth(pts) == want

    def test_even_pair_count_takes_mean_of_middle_two(self):
        # the points 0, 1, 3, 4 on a line are {1, 1, 2, 3, 3, 4} apart; the
        # middle two of the six distances are 2 and 3
        pts = np.array([[0.0], [1.0], [3.0], [4.0]])
        assert median_bandwidth(pts) == float(np.sqrt(2.5**2 / np.log(4.0)))
        assert median_bandwidth(pts) == median_bandwidth_oracle(pts)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_translation_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(12, 3))
        h = median_bandwidth(pts)
        assert abs(median_bandwidth(pts + 7.5) - h) < 1e-9
        perm = rng.permutation(12)
        assert abs(median_bandwidth(pts[perm]) - h) < 1e-12


class TestKernelConfig:
    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            KernelConfig("matern", 1.0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelConfig("imq", -1.0)
        with pytest.raises(ValueError):
            KernelConfig("imq", "mean")


class TestMirroredKernel:
    @pytest.mark.parametrize(
        "mmap",
        [EntropicSimplexMap(3), PositiveOrthantMap(3)],
        ids=["simplex", "orthant"],
    )
    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_value_is_base_on_primal_images(self, mmap, fam):
        rng = np.random.default_rng(3)
        y, y2 = rng.normal(0.0, 1.0, size=(2, 3))
        k, _, _ = mirrored_eval_grad(mmap, fam, 0.8, y, y2)
        x = mmap.dual_to_primal(y)
        x2 = mmap.dual_to_primal(y2)
        want, _ = base_eval_grad(fam, 0.8, x, x2)
        assert abs(k - want) < 1e-14

    @pytest.mark.parametrize(
        "mmap",
        [EntropicSimplexMap(3), PositiveOrthantMap(3)],
        ids=["simplex", "orthant"],
    )
    @pytest.mark.parametrize("fam", ["imq", "rbf"])
    def test_dual_gradients_match_fd(self, mmap, fam):
        rng = np.random.default_rng(4)
        for _ in range(5):
            y, y2 = rng.normal(0.0, 1.0, size=(2, 3))

            def kval(a, b):
                return mirrored_eval_grad(mmap, fam, 0.8, a, b)[0]

            _, g1, g2 = mirrored_eval_grad(mmap, fam, 0.8, y, y2)
            assert rel_err(g1, fd_grad(lambda z: kval(z, y2), y, h=1e-6)) < 1e-5
            assert rel_err(g2, fd_grad(lambda z: kval(y, z), y2, h=1e-6)) < 1e-5

    def test_mirrored_gram_psd(self):
        """The mirrored kernel is a kernel: its Gram matrix is PSD."""
        rng = np.random.default_rng(5)
        mmap = EntropicSimplexMap(2)
        x = simplex_interior_points(25, 2, rng)
        y = mmap.primal_to_dual(x)
        K = gram("imq", 0.5, mmap.dual_to_primal(y), mmap.dual_to_primal(y))
        eig = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eig.min() > -1e-10
