"""Target densities: scores against finite differences, closed forms, and
independent marginalization/quadrature oracles."""

import numpy as np
import pytest
from scipy import integrate, stats

from mirrorcoin.errors import ConfigError, Unsupported
from mirrorcoin.geometry import EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.targets import (
    ExpOrthant,
    LogNormalOrthant,
    MirroredDensity,
    QuadraticSimplex,
    SelectiveLasso,
    SparseDirichlet,
    UniformBox,
    _log_gauss_interval,
)

from helpers import (
    dual_score,
    fd_grad,
    fd_jacobian,
    posterior_mean,
    rel_err,
    simplex_interior_points,
)


def sparse_dirichlet_20():
    counts = np.zeros(21)
    counts[:3] = [90.0, 5.0, 5.0]
    return SparseDirichlet(0.1, counts)


def _test_points(target, n, rng):
    if target.domain == "simplex":
        return simplex_interior_points(n, target.d, rng, margin=0.1)
    if target.domain == "orthant":
        return rng.uniform(0.2, 3.0, size=(n, target.d))
    return rng.uniform(target.lo + 0.1, target.hi - 0.1, size=(n, target.d))


def all_targets(rng):
    return [
        sparse_dirichlet_20(),
        SparseDirichlet([2.0, 3.0, 4.0], [1.0, 0.0, 5.0]),
        QuadraticSimplex.random_instance(5, 0.1, rng),
        UniformBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        ExpOrthant(3, rate=1.5),
        LogNormalOrthant(2, mu=0.3, sigma=0.8),
        SelectiveLasso.synthetic(rng, n=25, p=4, q=2),
    ]


class TestScoresAgainstFiniteDifferences:
    def test_scores(self):
        rng = np.random.default_rng(0)
        for target in all_targets(rng):
            for x in _test_points(target, 8, rng):
                want = fd_grad(lambda z: target.log_density(z), x, h=1e-6)
                assert rel_err(target.score(x), want) < 1e-5, type(target).__name__

    def test_score_hessians(self):
        rng = np.random.default_rng(1)
        for target in all_targets(rng):
            for x in _test_points(target, 4, rng):
                want = fd_jacobian(lambda z: target.score(z), x, h=1e-6)
                v = rng.normal(size=target.d)
                got = target.score_hessian_apply(x, v)
                assert rel_err(got, 0.5 * (want + want.T) @ v) < 1e-4, type(target).__name__

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(2)
        for target in all_targets(rng):
            pts = _test_points(target, 6, rng)
            batch = target.score(pts)
            for i in range(6):
                np.testing.assert_allclose(batch[i], target.score(pts[i]), rtol=1e-13)


class TestSparseDirichlet:
    def test_posterior_mean_hand_value(self):
        # (90 + 0.1) / (100 + 21 * 0.1) for the first coordinate
        t = sparse_dirichlet_20()
        assert abs(posterior_mean(t)[0] - 90.1 / 102.1) < 1e-12

    def test_log_density_matches_direct_sum(self):
        t = SparseDirichlet([0.5, 1.5, 2.5], [4.0, 0.0, 1.0])
        x = np.array([0.3, 0.25])
        full = np.array([0.3, 0.25, 0.45])
        a = np.array([4.5, 1.5, 3.5]) - 1.0
        assert abs(t.log_density(x) - np.sum(a * np.log(full))) < 1e-13

    def test_ground_truth_matches_exact_moments(self):
        t = sparse_dirichlet_20()
        rng = np.random.default_rng(3)
        s = t.sample_ground_truth(4000, rng)
        assert s.shape == (4000, 20)
        w = t.counts + t.alpha
        exact = w[:-1] / w.sum()
        # sd of the mean estimate for coordinate 1 is about 5e-4
        assert np.max(np.abs(s.mean(axis=0) - exact)) < 4e-3
        # tiny-alpha categories can underflow to 0; the closure must hold
        assert np.all(s >= 0) and np.all(s.sum(axis=1) <= 1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseDirichlet(0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            SparseDirichlet(1.0, [-1.0, 2.0])


# one input per constructor refusal, with the message it raises
_X, _Y = np.ones((4, 3)), np.ones(4)


@pytest.mark.parametrize("make,message", [
    (lambda: QuadraticSimplex(np.ones((2, 3)), 1.0), "A must be square"),
    (lambda: QuadraticSimplex(np.ones(3), 1.0), "A must be square"),
    (lambda: QuadraticSimplex(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0), "A must be symmetric"),
    (lambda: SelectiveLasso(_X, np.ones(5), 1.0, [0], [1.0]), "X must be (n, p) and y (n,)"),
    (lambda: SelectiveLasso(np.ones(4), _Y, 1.0, [0], [1.0]), "X must be (n, p) and y (n,)"),
    (lambda: SelectiveLasso(_X, _Y, 1.0, [], []),
     "active set and signs must be nonempty and aligned"),
    (lambda: SelectiveLasso(_X, _Y, 1.0, [0, 1], [1.0]),
     "active set and signs must be nonempty and aligned"),
    # finite parameters whose scale the target cannot represent
    (lambda: QuadraticSimplex(np.eye(2), 1e-160), "1/sigma^2 must be finite"),
    (lambda: QuadraticSimplex(np.eye(2), 1e-300), "1/sigma^2 must be finite"),
    (lambda: SparseDirichlet(0.5, [1e308, 1e308]), "the sum of counts must be finite"),
    (lambda: QuadraticSimplex(np.eye(2), 1e200), "sigma^2 must be finite"),
    (lambda: LogNormalOrthant(2, sigma=1e200), "sigma^2 must be finite"),
    (lambda: LogNormalOrthant(2, sigma=1e-308), "1/sigma^2 must be finite"),
    (lambda: SelectiveLasso(_X, _Y, 1.0, [0], [1.0], tau=1e200), "tau^2 must be finite"),
    (lambda: SelectiveLasso(_X, _Y, 1.0, [0], [1.0], tau=1e-160), "1/tau^2 must be finite"),
], ids=["quadratic_non_square", "quadratic_not_2d", "quadratic_asymmetric",
        "lasso_y_length", "lasso_x_not_2d", "lasso_empty_active", "lasso_misaligned_signs",
        "quadratic_inverse_variance_overflows", "quadratic_variance_underflows",
        "dirichlet_counts_sum_overflows", "quadratic_variance_overflows",
        "lognormal_variance_overflows", "lognormal_variance_underflows",
        "lasso_variance_overflows", "lasso_variance_underflows"])
def test_constructor_refusals(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_scales_just_inside_what_a_target_represents():
    assert QuadraticSimplex(np.eye(2), 1e-150).sigma == 1e-150      # 1/sigma^2 = 1e300
    assert SparseDirichlet(0.5, [1e308, 7e307]).counts.sum() < np.inf
    # sigma^2 = 1e300 and 1/sigma^2 = 1e300
    assert QuadraticSimplex(np.eye(2), 1e150).sigma == 1e150
    for sigma in (1e-150, 1e150):
        assert LogNormalOrthant(2, sigma=sigma).sigma == sigma
        assert SelectiveLasso(_X, _Y, 1.0, [0], [1.0], tau=sigma).tau == sigma


class TestQuadraticSimplex:
    def test_random_instance_normalization(self):
        rng = np.random.default_rng(4)
        t = QuadraticSimplex.random_instance(20, 0.01, rng)
        assert np.allclose(t.A, t.A.T)
        assert abs(np.max(np.abs(t.A)) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(t.A).min() > -1e-10

    def test_grid_ground_truth_1d_against_quadrature(self):
        t = QuadraticSimplex(np.array([[1.0]]), 0.3)
        rng = np.random.default_rng(5)
        s = t.sample_ground_truth(4000, rng, resolution=2048)
        dens = lambda x: np.exp(-x**2 / (2 * 0.3**2))
        z, _ = integrate.quad(dens, 0.0, 1.0)
        m1, _ = integrate.quad(lambda x: x * dens(x), 0.0, 1.0)
        exact_mean = m1 / z
        se = s.std() / np.sqrt(4000)
        assert abs(s.mean() - exact_mean) < 5 * se + 1e-3

    def test_grid_ground_truth_2d_stays_in_simplex(self):
        rng = np.random.default_rng(6)
        t = QuadraticSimplex.random_instance(2, 0.5, rng)
        s = t.sample_ground_truth(500, rng)
        assert np.all(s > 0) and np.all(s.sum(axis=1) < 1)

    def test_unsupported_above_3d(self):
        rng = np.random.default_rng(7)
        t = QuadraticSimplex.random_instance(4, 0.1, rng)
        with pytest.raises(Unsupported):
            t.sample_ground_truth(10, rng)


class TestSimpleTargets:
    def test_uniform_box_ground_truth(self):
        t = UniformBox([-1.0, 0.0], [1.0, 2.0])
        s = t.sample_ground_truth(1000, np.random.default_rng(8))
        assert np.all(s >= t.lo) and np.all(s <= t.hi)
        assert np.max(np.abs(s.mean(axis=0) - [0.0, 1.0])) < 0.1

    def test_exp_orthant_ground_truth(self):
        t = ExpOrthant(2, rate=2.0)
        s = t.sample_ground_truth(8000, np.random.default_rng(9))
        assert np.max(np.abs(s.mean(axis=0) - 0.5)) < 0.03

    def test_lognormal_ground_truth(self):
        t = LogNormalOrthant(1, mu=0.0, sigma=1.0)
        s = t.sample_ground_truth(8000, np.random.default_rng(10))
        logs = np.log(s)
        assert abs(logs.mean()) < 0.05
        assert abs(logs.std() - 1.0) < 0.05


class TestLogGaussInterval:
    @pytest.mark.parametrize(
        "lo,hi",
        [(-1.0, 1.0), (-9.0, -8.0), (8.0, 9.0), (-40.0, -38.0), (38.0, 40.0), (0.0, 0.5)],
    )
    def test_against_high_precision(self, lo, hi):
        import mpmath

        # enough working digits that the CDF difference survives even when
        # both endpoints sit ~1e-350 deep in the same tail
        mpmath.mp.dps = 500
        half = mpmath.mpf(1) / 2
        rt2 = mpmath.sqrt(2)
        diff = half * (mpmath.erfc(lo / rt2) - mpmath.erfc(hi / rt2))
        want = float(mpmath.log(diff))
        got = float(_log_gauss_interval(np.array(lo), np.array(hi)))
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


class TestSelectiveLasso:
    def test_marginalized_density_matches_quadrature(self):
        """q=1, p=2: the closed form equals direct quadrature of the joint
        density over the inactive subgradient, up to the exact constant
        (p - q) * log(sqrt(2 pi) tau / lam)."""
        rng = np.random.default_rng(11)
        t = SelectiveLasso.synthetic(rng, n=25, p=2, q=1, lam=1.5, tau=1.0)
        const = (2 - 1) * np.log(np.sqrt(2 * np.pi) * t.tau / t.lam)
        XE = t.X[:, t.active]
        Xo = t.X[:, t.inactive]

        for b1 in np.linspace(0.05, 4.0, 20):
            b = np.array([b1])
            beta = t.signs * b
            r = t.eps_ridge * beta - XE.T @ (t.y - XE @ beta) + t.lam * t.signs
            u = float((Xo.T @ (t.y - XE @ beta))[0])

            def joint(z):
                return np.exp(-((t.lam * z - u) ** 2) / (2 * t.tau**2))

            integral, err = integrate.quad(joint, -1.0, 1.0, epsabs=1e-14, epsrel=1e-12)
            oracle = -float(r @ r) / (2 * t.tau**2) + np.log(integral)
            got = float(t.log_density(b)) + const
            assert abs(got - oracle) < 1e-6

    def test_score_matches_fd_in_tails(self):
        """Gradient stays accurate where the interval mass is far in a tail."""
        rng = np.random.default_rng(12)
        t = SelectiveLasso.synthetic(rng, n=40, p=5, q=2, lam=0.5, tau=0.3)
        for b in [np.array([0.1, 0.2]), np.array([3.0, 0.5]), np.array([8.0, 9.0])]:
            want = fd_grad(lambda z: t.log_density(z), b, h=1e-6)
            assert rel_err(t.score(b), want) < 1e-5

    def test_no_inactive_branch(self):
        rng = np.random.default_rng(13)
        t = SelectiveLasso.synthetic(rng, n=20, p=2, q=2, lam=1.0)
        b = np.array([0.5, 1.5])
        want = fd_grad(lambda z: t.log_density(z), b, h=1e-6)
        assert rel_err(t.score(b), want) < 1e-6

    def test_validation(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        with pytest.raises(ValueError):
            SelectiveLasso(X, y, -1.0, [0], [1.0])
        with pytest.raises(ValueError):
            SelectiveLasso(X, y, 1.0, [0], [0.5])
        with pytest.raises(Unsupported):
            SelectiveLasso(X, y, 1.0, [0], [1.0]).sample_ground_truth(
                5, np.random.default_rng(0)
            )


class TestMirroredDensity:
    def test_exp_orthant_dual_score_hand_value(self):
        # W(y) = sum(exp(y) - y), so -grad W = 1 - exp(y); at y = log 2: -1.
        md = MirroredDensity(ExpOrthant(3), PositiveOrthantMap(3))
        y = np.full(3, np.log(2.0))
        np.testing.assert_allclose(dual_score(md, y), -np.ones(3), rtol=1e-14)

    def test_dirichlet_dual_score_closed_form(self):
        """Independent route: pushing a Dirichlet through the entropic map
        gives dual score components (counts + alpha)_i - (sum of all
        counts + alpha) * x_i."""
        t = sparse_dirichlet_20()
        md = MirroredDensity(t, EntropicSimplexMap(20))
        rng = np.random.default_rng(15)
        x = simplex_interior_points(20, 20, rng, margin=0.05)
        w = t.counts + t.alpha
        want = w[:-1] - w.sum() * x
        got = md.dual_score_from_primal(x)
        assert rel_err(got, want) < 1e-10

    @pytest.mark.parametrize(
        "target,mmap",
        [
            (sparse_dirichlet_20(), EntropicSimplexMap(20)),
            (ExpOrthant(2), PositiveOrthantMap(2)),
            (LogNormalOrthant(2), PositiveOrthantMap(2)),
        ],
        ids=["dirichlet", "exp", "lognormal"],
    )
    def test_dual_score_is_negative_gradient_of_dual_potential(self, target, mmap):
        md = MirroredDensity(target, mmap)
        rng = np.random.default_rng(16)
        for _ in range(10):
            y = rng.normal(0.0, 1.0, size=target.d)
            want = -fd_grad(lambda z: md.dual_potential(z), y, h=1e-6)
            assert rel_err(dual_score(md, y), want) < 1e-5

    def test_incompatible_pairs_rejected(self):
        with pytest.raises(ConfigError):
            MirroredDensity(ExpOrthant(2), EntropicSimplexMap(2))
        with pytest.raises(ConfigError):
            MirroredDensity(sparse_dirichlet_20(), EntropicSimplexMap(19))
