"""Sampler directions, steppers, projections, and the run loop."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import eval_hermitenorm, gammaln

from mirrorcoin import kernels, samplers
from mirrorcoin.errors import ConfigError, DomainViolation
from mirrorcoin.geometry import BoxMirrorMap, EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.kernels import KernelConfig, median_bandwidth
from mirrorcoin.rng import substream
from mirrorcoin.samplers import (
    COIN_STEPPERS,
    GRAD_STEPPERS,
    SAMPLERS,
    InitSpec,
    StepperConfig,
    check_run,
    draw_init,
    hermite_features,
    make_stepper,
    mksdd_direction,
    mirrored_density,
    mlawgd_direction,
    msvgd_direction,
    project_to_domain,
    run_sampler,
    sampler_stepper,
    stein_kernel_matrix,
    stepper_kinds,
    svgd_direction,
)
from mirrorcoin.targets import (
    ExpOrthant,
    LogNormalOrthant,
    MirroredDensity,
    SparseDirichlet,
    UniformBox,
)

from helpers import (
    UNPARSED_COUNTS,
    dual_score,
    fd_grad,
    gram,
    hermite_kernel,
    rel_err,
    stein_kernel_grad2,
)


def dirichlet_setup(n=6, seed=3):
    rng = np.random.default_rng(seed)
    target = SparseDirichlet(alpha=np.array([2.0, 1.5, 3.0]), counts=np.array([4.0, 1.0, 2.0]))
    mmap = EntropicSimplexMap(2)
    X = rng.dirichlet([3.0, 3.0, 3.0], size=n)[:, :2]
    return target, mmap, MirroredDensity(target, mmap), mmap.primal_to_dual(X)


def exp_setup(n=6, seed=4):
    rng = np.random.default_rng(seed)
    target = ExpOrthant(2, rate=1.0)
    mmap = PositiveOrthantMap(2)
    X = rng.uniform(0.3, 2.0, size=(n, 2))
    return target, mmap, MirroredDensity(target, mmap), mmap.primal_to_dual(X)


# ---------------------------------------------------------------------------
# stepper configuration and behavior


class TestSteppers:
    def test_coin_rejects_lr(self):
        with pytest.raises(ConfigError):
            StepperConfig("coin_adaptive", lr=0.1)

    def test_grad_requires_positive_lr(self):
        with pytest.raises(ConfigError):
            StepperConfig("fixed_lr")
        with pytest.raises(ConfigError):
            StepperConfig("rmsprop", lr=-0.5)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            StepperConfig("adam", lr=0.1)

    @pytest.mark.parametrize("sampler,kind", [
        ("coin_msvgd", "coin_adaptive"), ("coin_mied", "coin_adaptive"),
        ("mla", "fixed_lr"), ("msvgd", "rmsprop"), ("svgd_proj", "rmsprop")])
    def test_sampler_default_stepper_kind(self, sampler, kind):
        assert stepper_kinds(sampler)[0] == kind
        lr = None if kind == "coin_adaptive" else 0.1
        assert sampler_stepper(sampler, lr=lr) == StepperConfig(kind, lr=lr)
        assert sampler_stepper(sampler, "fixed_lr", lr=0.1) == StepperConfig("fixed_lr", lr=0.1)

    def test_no_stepper_without_kind_or_known_sampler(self):
        assert sampler_stepper(None) is None
        assert sampler_stepper("nuts", lr=0.1) is None
        assert sampler_stepper(None, "fixed_lr", lr=0.1) == StepperConfig("fixed_lr", lr=0.1)

    def test_stepper_kinds_of_every_sampler(self):
        # coin twins bet, mla takes fixed steps, the rest rmsprop or fixed_lr
        for sampler in SAMPLERS:
            assert stepper_kinds(sampler) == (
                ("coin_adaptive",) if sampler.startswith("coin_")
                else ("fixed_lr",) if sampler == "mla" else ("rmsprop", "fixed_lr")), sampler

    @pytest.mark.parametrize("kind", GRAD_STEPPERS + COIN_STEPPERS)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_refused_stepper_is_one_problem(self, sampler, kind):
        stepper = StepperConfig(kind, lr=None if kind in COIN_STEPPERS else 0.1)
        problems = check_run(None, sampler, stepper, None, **UNPARSED_COUNTS)
        if kind in stepper_kinds(sampler):
            assert problems == []
        else:
            assert problems == [f"{sampler} takes stepper "
                                f"{' or '.join(stepper_kinds(sampler))}, got {kind!r}"]

    def test_fixed_lr_step(self):
        y = np.zeros((1, 2, 2))
        s = make_stepper([StepperConfig("fixed_lr", lr=0.5)], y)
        out = s.step(y, np.ones((1, 2, 2)))
        assert np.allclose(out, 0.5)

    def test_rmsprop_first_step_hand_value(self):
        # nu = 0.1 c^2, update = lr c / sqrt(0.1 c^2 + 1e-8)
        y = np.zeros((1, 1, 1))
        s = make_stepper([StepperConfig("rmsprop", lr=0.2)], y)
        c = np.array([[[4.0]]])
        out = s.step(y, c)
        expect = 0.2 * 4.0 / np.sqrt(0.1 * 16.0 + 1e-8)
        assert np.allclose(out, expect)

    def test_coin_stepper_first_update_matches_engine(self):
        y0 = np.zeros((1, 3, 2))
        s = make_stepper([StepperConfig("coin_adaptive")], y0)
        c = np.array([[[1.0, -2.0], [0.5, 0.0], [3.0, 3.0]]])
        out = s.step(y0, c)
        assert np.array_equal(out, np.sign(c) / 2.0)


# ---------------------------------------------------------------------------
# initialization and projection


INIT_TARGETS = {"simplex": (SparseDirichlet(1.0, np.ones(3)), "coin_msvgd"),
                "orthant": (ExpOrthant(2), "coin_msvgd"),
                "box": (UniformBox(np.zeros(2), np.ones(2)), "coin_mied")}


class TestInit:
    def test_defaults_per_domain(self):
        # InitSpec() is every domain's default: a run given no init draws it
        for target, sampler in INIT_TARGETS.values():
            rec = run_sampler(target=target, sampler=sampler, n_particles=5,
                              n_iters=0, seed=2)
            x0 = draw_init(InitSpec(), target, 5, substream(2, "init"))
            assert rec.x_final.tobytes() == x0.tobytes(), target.domain

    def test_dirichlet_init_interior(self):
        rng = np.random.default_rng(0)
        x = draw_init(InitSpec(), SparseDirichlet(1.0, np.ones(5)), 200, rng)
        assert x.shape == (200, 4)
        assert np.all(x > 0) and np.all(x.sum(axis=1) < 1)

    def test_lognormal_init_positive(self):
        rng = np.random.default_rng(0)
        x = draw_init(InitSpec(), ExpOrthant(3), 100, rng)
        assert x.shape == (100, 3) and np.all(x > 0)

    def test_box_init_central_half(self):
        rng = np.random.default_rng(0)
        dom = UniformBox(np.array([0.0, 2.0]), np.array([1.0, 6.0]))
        x = draw_init(InitSpec(), dom, 500, rng)
        assert np.all(x[:, 0] >= 0.25) and np.all(x[:, 0] <= 0.75)
        assert np.all(x[:, 1] >= 3.0) and np.all(x[:, 1] <= 5.0)

    @pytest.mark.parametrize("domain,spec,message", [
        ("simplex", InitSpec(alpha=0.0), "init.alpha must lie in (0, inf), got 0.0"),
        ("orthant", InitSpec(sigma=0.0), "init.sigma must lie in (0, inf), got 0.0"),
        ("orthant", InitSpec(mu=-np.inf), "init.mu must lie in (-inf, inf), got -inf"),
        ("box", InitSpec(scale=1.0), "init.scale must lie in (0, 1), got 1.0"),
    ], ids=["alpha", "sigma", "mu", "scale"])
    def test_out_of_range_value_refused_on_its_domain(self, domain, spec, message):
        with pytest.raises(ConfigError) as err:
            draw_init(spec, INIT_TARGETS[domain][0], 5, np.random.default_rng(0))
        assert err.value.violations == [message]

    @pytest.mark.parametrize("domain", INIT_TARGETS)
    def test_fields_of_other_domains_are_not_read(self, domain):
        # each domain's draw reads only its own fields, so the others may
        # hold anything and the draw does not change
        target = INIT_TARGETS[domain][0]
        others = {"simplex": {"mu": np.nan, "sigma": -1.0, "scale": 3.0},
                  "orthant": {"alpha": -1.0, "scale": 3.0},
                  "box": {"alpha": -1.0, "mu": np.nan, "sigma": -1.0}}[domain]
        got = draw_init(InitSpec(**others), target, 4, np.random.default_rng(1))
        want = draw_init(InitSpec(), target, 4, np.random.default_rng(1))
        assert got.tobytes() == want.tobytes()


def qp_project(v, domain_kind):
    """Quadratic-program oracle for the Euclidean projection."""
    d = len(v)
    cons = []
    if domain_kind == "simplex":
        cons = [{"type": "ineq", "fun": lambda z: 1.0 - z.sum(),
                 "jac": lambda z: -np.ones(d)}]
    res = minimize(
        lambda z: 0.5 * ((z - v) ** 2).sum(),
        np.clip(v, 0.0, 1.0) / max(1.0, np.clip(v, 0.0, 1.0).sum() + 1e-9),
        jac=lambda z: z - v,
        bounds=[(0.0, None)] * d,
        constraints=cons,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 300},
    )
    assert res.success
    return res.x


class TestProjection:
    def test_interior_point_unchanged(self):
        dom = SparseDirichlet(1.0, np.ones(3))
        x = np.array([[0.2, 0.3]])
        assert np.array_equal(project_to_domain(dom, x), x)

    def test_matches_qp_oracle_on_simplex(self):
        rng = np.random.default_rng(7)
        dom = SparseDirichlet(1.0, np.ones(5))
        for scale in (0.5, 1.0, 3.0):
            pts = rng.normal(scale=scale, size=(12, 4))
            got = project_to_domain(dom, pts)
            for row, raw in zip(got, pts):
                ref = qp_project(raw, "simplex")
                assert np.max(np.abs(row - ref)) < 1e-6

    def test_simplex_output_in_open_domain(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(scale=5.0, size=(200, 6))
        out = project_to_domain(SparseDirichlet(1.0, np.ones(7)), pts)
        assert np.all(out >= 1e-12)
        assert np.all(out.sum(axis=1) <= 1.0 - 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(50, 3))
        dom = SparseDirichlet(1.0, np.ones(4))
        once = project_to_domain(dom, pts)
        assert np.allclose(project_to_domain(dom, once), once)

    def test_box_and_orthant_clamp(self):
        box = UniformBox(np.zeros(2), np.ones(2))
        out = project_to_domain(box, np.array([[-1.0, 2.0]]))
        assert np.allclose(out, [[1e-12, 1.0 - 1e-12]])
        orth = ExpOrthant(2)
        out = project_to_domain(orth, np.array([[-3.0, 0.7]]))
        assert np.allclose(out, [[1e-12, 0.7]])


# ---------------------------------------------------------------------------
# mirrored SVGD direction


class TestMsvgdDirection:
    def test_single_particle_fixed_point_is_posterior_mode(self):
        # one particle, kernel gradient vanishes at zero separation, so the
        # direction reduces to the dual score; it vanishes where the dual
        # density peaks, x = weights / sum(weights).
        target, mmap, md, _ = dirichlet_setup()
        w = np.asarray(target.counts) + np.asarray(target.alpha)
        xstar = (w / w.sum())[:2]
        y = mmap.primal_to_dual(xstar[None, :])
        d = msvgd_direction(y, md, "imq", 0.7)
        assert np.max(np.abs(d)) < 1e-12

    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    def test_matches_loop_reference(self, setup):
        target, mmap, md, Y = setup()
        h = 0.8
        fast = msvgd_direction(Y, md, "imq", h)
        n = Y.shape[0]
        X = mmap.dual_to_primal(Y)
        S = md.dual_score_from_primal(X)
        slow = np.zeros_like(Y)
        for i in range(n):
            acc = np.zeros(Y.shape[1])
            for j in range(n):
                kj = gram("imq", h, X[j][None], X[i][None])[0, 0]
                grad_y = fd_grad(
                    lambda u: gram("imq", h,
                                   mmap.dual_to_primal(u[None]), X[i][None])[0, 0],
                    Y[j],
                )
                acc += kj * S[j] + grad_y
            slow[i] = acc / n
        assert rel_err(fast, slow) < 1e-6

    def test_svgd_direction_zero_for_single_uniform_particle(self):
        t = UniformBox(np.zeros(2), np.ones(2))
        d = svgd_direction(np.array([[0.4, 0.6]]), t, "imq", 0.5)
        assert np.allclose(d, 0.0)

    def test_svgd_repulsion_pushes_apart(self):
        t = UniformBox(np.zeros(1), np.ones(1))
        X = np.array([[0.45], [0.55]])
        d = svgd_direction(X, t, "imq", 0.3)
        assert d[0, 0] < 0 and d[1, 0] > 0


# ---------------------------------------------------------------------------
# stein kernel of the mirrored target


def stein_kernel_fd_reference(md, family, h, yj, yi):
    """Independent route: dual scores plus finite differences of the
    dual-space kernel k(y, y') = base kernel at the primal images."""
    mmap = md.mmap

    def kfun(a, b):
        return gram(family, h, mmap.dual_to_primal(a[None]),
                    mmap.dual_to_primal(b[None]))[0, 0]

    sj = dual_score(md, yj[None])[0]
    si = dual_score(md, yi[None])[0]
    k = kfun(yj, yi)
    gj = fd_grad(lambda u: kfun(u, yi), yj, h=1e-5)
    gi = fd_grad(lambda u: kfun(yj, u), yi, h=1e-5)
    d = len(yj)
    step = 1e-4
    mixed = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            ea = np.zeros(d); ea[a] = step
            eb = np.zeros(d); eb[b] = step
            mixed[a, b] = (
                kfun(yj + ea, yi + eb) - kfun(yj + ea, yi - eb)
                - kfun(yj - ea, yi + eb) + kfun(yj - ea, yi - eb)
            ) / (4.0 * step**2)
    return float(sj @ si * k + sj @ gi + gj @ si + np.trace(mixed))


class TestSteinKernel:
    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    @pytest.mark.parametrize("family", ["imq", "rbf"])
    def test_matrix_symmetric(self, setup, family):
        _, _, md, Y = setup()
        K = stein_kernel_matrix(Y, md, family, 0.9)
        assert np.max(np.abs(K - K.T)) < 1e-10

    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    def test_matrix_vs_fd_reference(self, setup):
        _, _, md, Y = setup(n=4)
        K = stein_kernel_matrix(Y, md, "imq", 0.9)
        for j in range(4):
            for i in range(4):
                ref = stein_kernel_fd_reference(md, "imq", 0.9, Y[j], Y[i])
                assert abs(K[j, i] - ref) < 1e-4 * max(1.0, abs(ref))

    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    def test_vstat_nonnegative(self, setup):
        _, _, md, Y = setup(n=12)
        assert stein_kernel_matrix(Y, md, "imq", 0.7).mean() >= -1e-8

    def test_vstat_psd_random_weights(self):
        # k is a proper positive-definite kernel, so any signed combination
        # w^T K w must be nonnegative, not just the all-ones one.
        _, _, md, Y = dirichlet_setup(n=10)
        K = stein_kernel_matrix(Y, md, "imq", 0.7)
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = rng.normal(size=10)
            assert w @ K @ w >= -1e-8

    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    @pytest.mark.parametrize("family", ["imq", "rbf"])
    def test_grad2_vs_fd(self, setup, family):
        _, _, md, Y = setup(n=4)
        G = stein_kernel_grad2(Y, md, family, 0.9)
        for j in range(4):
            for i in range(4):
                ref = fd_grad(
                    lambda u, j=j, i=i: stein_kernel_matrix(
                        np.vstack([Y[:i], u[None], Y[i + 1:]]), md, family, 0.9
                    )[j, i] if j != i else stein_kernel_matrix(
                        np.vstack([Y[:i], u[None], Y[i + 1:]]), md, family, 0.9
                    )[i, i],
                    Y[i],
                    h=1e-6,
                )
                if j == i:
                    # moving y_i moves both arguments; by symmetry the full
                    # derivative is twice the second-argument gradient.
                    assert rel_err(2.0 * G[i, i], ref) < 1e-4
                else:
                    assert rel_err(G[j, i], ref) < 1e-4

    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    def test_mksdd_direction_vs_fd_of_vstat(self, setup):
        _, _, md, Y = setup(n=5)
        direction = mksdd_direction(Y, md, "imq", 0.8)
        n = Y.shape[0]
        for i in range(n):
            def vstat_of_yi(u, i=i):
                Z = Y.copy()
                Z[i] = u
                return stein_kernel_matrix(Z, md, "imq", 0.8).mean()
            g = fd_grad(vstat_of_yi, Y[i], h=1e-6)
            assert rel_err(direction[i], -0.5 * g) < 1e-4


# ---------------------------------------------------------------------------
# spectral (Hermite) kernel flow


class TestHermite:
    def test_features_match_scipy(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=40) * 2.0
        F = hermite_features(y, 30)
        for k in range(31):
            ref = eval_hermitenorm(k, y) * np.exp(-0.5 * gammaln(k + 1.0))
            assert rel_err(F[:, k], ref) < 1e-10

    def test_kernel_symmetric_psd(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=15)
        K = hermite_kernel(y, y, 30)
        assert np.max(np.abs(K - K.T)) < 1e-10
        evals = np.linalg.eigvalsh((K + K.T) / 2)
        assert evals.min() > -1e-8

    def test_direction_vs_fd_of_kernel(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(8, 1))
        direction = mlawgd_direction(Y, 12)
        n = 8
        for i in range(n):
            def mean_k(u, i=i):
                return hermite_kernel(np.array([u[0]]), Y[:, 0], 12).sum() / n
            g = fd_grad(mean_k, Y[i], h=1e-6)
            assert rel_err(direction[i], -g) < 1e-6

    def test_direction_includes_self_term(self):
        # single particle: direction = -(1/1) d/dy k(y, y') at y' = y
        y = np.array([[0.7]])
        d = mlawgd_direction(y, 5)
        g = fd_grad(lambda u: hermite_kernel(np.array([u[0]]),
                                             np.array([0.7]), 5)[0, 0], y[0], h=1e-6)
        assert rel_err(d[0], -g) < 1e-6


# ---------------------------------------------------------------------------
# run loop


class TestRunLoop:
    def target(self):
        return SparseDirichlet(alpha=0.5, counts=np.array([6.0, 3.0, 1.0]))

    def test_deterministic_repeat(self):
        kw = dict(target=self.target(), sampler="coin_msvgd", n_particles=8,
                  n_iters=5, seed=42,
                  hooks={"m": lambda x, y: float(x.mean())}, metric_every=2)
        r1 = run_sampler(**kw)
        r2 = run_sampler(**kw)
        assert r1.x_final.tobytes() == r2.x_final.tobytes()
        assert r1.y_final.tobytes() == r2.y_final.tobytes()
        assert [(t[0], t[1], t[2]) for t in r1.trace] == \
               [(t[0], t[1], t[2]) for t in r2.trace]

    def test_trace_cadence(self):
        rec = run_sampler(target=self.target(), sampler="coin_msvgd",
                          n_particles=4, n_iters=7, seed=0,
                          hooks={"m": lambda x, y: 0.0}, metric_every=3)
        assert [t[0] for t in rec.trace] == [0, 3, 6, 7]

    @pytest.mark.parametrize("sampler,stepper", [
        ("coin_msvgd", None),
        ("msvgd", StepperConfig("rmsprop", lr=0.05)),
        ("coin_mksdd", None),
        ("mla", StepperConfig("fixed_lr", lr=1e-3)),
    ])
    @pytest.mark.parametrize("target", [
        SparseDirichlet(alpha=0.5, counts=np.array([6.0, 3.0, 1.0])),
        ExpOrthant(2, rate=1.0),
    ], ids=["simplex", "orthant"])
    def test_settled_cloud_gives_the_directions_that_map_back(self, sampler, stepper,
                                                              target):
        # replay with directions that map every dual cloud back themselves,
        # the first one included, at the bandwidth of that primal image: the
        # run must match it bit for bit
        rec = run_sampler(target=target, sampler=sampler, n_particles=8,
                          n_iters=6, seed=4, stepper=stepper)
        md = mirrored_density(target)
        X0 = draw_init(InitSpec(), target, 8, substream(4, "init"))
        Y = md.mmap.primal_to_dual(X0)
        engine = make_stepper([stepper or sampler_stepper(sampler)], Y[None],
                              [substream(4, "mla_noise")] if sampler == "mla" else ())
        kernel_direction = {"msvgd": msvgd_direction,
                            "mksdd": mksdd_direction}.get(sampler.removeprefix("coin_"))
        for _ in range(6):
            if kernel_direction:
                c = kernel_direction(Y, md, "imq", median_bandwidth(md.mmap.dual_to_primal(Y)))
                assert c.tobytes() == kernel_direction(Y, md, "imq", "median").tobytes()
            else:
                c = dual_score(md, Y)
            Y = engine.step(Y[None], c[None])[0]
        assert rec.y_final.tobytes() == Y.tobytes()
        assert rec.x_final.tobytes() == md.mmap.dual_to_primal(Y).tobytes()

    @pytest.mark.parametrize("stepper", [StepperConfig("coin_adaptive")], ids=["adaptive"])
    def test_projected_coin_replay_bets_from_projected_cloud(self, stepper):
        # the engine is handed the projected cloud, not its own last output;
        # a replay through make_stepper and project_to_domain matches bit for bit
        target, kernel = self.target(), KernelConfig()
        rec = run_sampler(target=target, sampler="coin_svgd_proj", n_particles=8,
                          n_iters=6, seed=4, stepper=stepper)
        X0 = draw_init(InitSpec(), target, 8, substream(4, "init"))
        X = project_to_domain(target, X0)
        engine = make_stepper([stepper], X[None])
        projections_moved = 0
        for _ in range(6):
            c = svgd_direction(X, target, kernel.family, median_bandwidth(X))
            stepped = engine.step(X[None], c[None])[0]
            X = project_to_domain(target, stepped)
            projections_moved += not np.array_equal(X, stepped)
        assert projections_moved > 0
        assert rec.x_final.tobytes() == X.tobytes()

    @pytest.mark.parametrize("box,n_iters", [
        pytest.param(box, n, id=f"box-{n}" if box else str(n))
        for box in (False, True) for n in (0, 1, 9)])
    def test_primal_cloud_made_once_per_iteration(self, monkeypatch, box, n_iters):
        # one image per settled step, plus the image of the drawn cloud's
        # dual coordinates that the first direction sees
        target, sampler, mmap_class = (
            (UniformBox(np.zeros(2), np.ones(2)), "coin_mied", BoxMirrorMap) if box
            else (self.target(), "coin_msvgd", EntropicSimplexMap))
        calls = []
        to_x = mmap_class.dual_to_primal
        monkeypatch.setattr(mmap_class, "dual_to_primal",
                            lambda self, y: calls.append(1) or to_x(self, y))
        rec = run_sampler(target=target, sampler=sampler, n_particles=6,
                          n_iters=n_iters, seed=3)
        assert len(calls) == (n_iters + 1 if n_iters else 0)
        if not n_iters:
            # no step taken: the record keeps the drawn cloud
            X0 = draw_init(InitSpec(), target, 6, substream(3, "init"))
            assert rec.x_final.tobytes() == X0.tobytes()

    # a mirrored and a MIED run of each direction kind, with the map's class
    CHECKED_RUNS = {
        "msvgd": (lambda: SparseDirichlet(alpha=0.5, counts=np.array([6.0, 3.0, 1.0])),
                  StepperConfig("rmsprop", lr=1e-2), EntropicSimplexMap, "msvgd_direction"),
        "coin_mksdd": (lambda: ExpOrthant(2, rate=1.0), None, PositiveOrthantMap,
                       "mksdd_direction"),
        "coin_mied": (lambda: UniformBox(np.zeros(2), np.ones(2)), None, BoxMirrorMap,
                      "mie_gradient"),
    }

    @pytest.mark.parametrize("n_iters", [1, 5])
    @pytest.mark.parametrize("sampler", sorted(CHECKED_RUNS))
    def test_one_interior_check_per_settled_cloud(self, monkeypatch, sampler, n_iters):
        # primal_to_dual checks the drawn cloud, the loop its first image and
        # each settled cloud; the directions trust the cloud they are given
        make_target, stepper, mmap_class, _ = self.CHECKED_RUNS[sampler]
        calls = []
        inside = mmap_class.inside
        monkeypatch.setattr(mmap_class, "inside",
                            lambda self, x: calls.append(1) or inside(self, x))
        run_sampler(target=make_target(), sampler=sampler, n_particles=6,
                    n_iters=n_iters, seed=3, stepper=stepper)
        assert len(calls) == n_iters + 2

    @pytest.mark.parametrize("sampler", sorted(CHECKED_RUNS))
    def test_first_image_outside_the_domain_raises_before_any_direction(
            self, monkeypatch, sampler):
        make_target, stepper, mmap_class, direction = self.CHECKED_RUNS[sampler]
        to_x = mmap_class.dual_to_primal

        def image_on_the_boundary(self, y):
            x = to_x(self, y)
            x[..., 1, 0] = 0.0             # on the boundary of all three domains
            return x

        def direction_ran(*args, **kwargs):
            raise AssertionError("a direction ran")

        monkeypatch.setattr(mmap_class, "dual_to_primal", image_on_the_boundary)
        monkeypatch.setattr(f"mirrorcoin.samplers.{direction}", direction_ran)
        with pytest.raises(DomainViolation) as info:
            run_sampler(target=make_target(), sampler=sampler, n_particles=6,
                        n_iters=3, seed=3, stepper=stepper)
        assert str(info.value) == (
            f"{sampler}: particle left the open domain at iteration 0")

    @pytest.mark.parametrize("direction", [msvgd_direction, mksdd_direction])
    @pytest.mark.parametrize("setup", [dirichlet_setup, exp_setup])
    def test_direction_given_the_primal_cloud_is_unchanged(self, direction, setup):
        _, mmap, md, Y = setup(n=7)
        want = direction(Y, md, "imq", "median")
        got = direction(Y, md, "imq", "median", mmap.dual_to_primal(Y))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sampler,n_iters", [("msvgd", 5), ("coin_mksdd", 4)])
    def test_one_pairwise_pass_per_iteration(self, monkeypatch, sampler, n_iters):
        # "median" comes from the r^2 the direction evaluates its kernel on,
        # so each iteration measures the cloud once
        calls = []
        for module in (kernels, samplers):
            for name in ("cdist", "pdist"):
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *a, fn=fn, **kw:
                                        calls.append(1) or fn(*a, **kw))
        target, stepper = ((ExpOrthant(2, rate=1.0), None) if sampler == "coin_mksdd"
                           else (self.target(), StepperConfig("rmsprop", lr=1e-2)))
        run_sampler(target=target, sampler=sampler, n_particles=6, n_iters=n_iters,
                    seed=3, stepper=stepper)
        assert len(calls) == n_iters

    def test_mla_reproducible_and_moves(self):
        t = ExpOrthant(2, rate=1.0)
        kw = dict(target=t, sampler="mla", n_particles=20, n_iters=30, seed=3,
                  stepper=StepperConfig("fixed_lr", lr=1e-3))
        r1 = run_sampler(**kw)
        r2 = run_sampler(**kw)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert np.all(r1.x_final > 0)

    def test_projected_run_stays_in_box(self):
        t = UniformBox(np.zeros(2), np.ones(2))
        rec = run_sampler(target=t, sampler="coin_svgd_proj", n_particles=15,
                          n_iters=20, seed=5)
        assert np.all(rec.x_final >= 1e-12)
        assert np.all(rec.x_final <= 1.0 - 1e-12)
        assert rec.y_final is None

    def test_projected_run_on_simplex_stays_inside(self):
        # the sparse target drives this baseline onto the boundary corner;
        # the run must survive the collapsed cloud and keep every particle
        # inside the floored closure.
        rec = run_sampler(target=self.target(), sampler="svgd_proj",
                          n_particles=10, n_iters=15, seed=6,
                          stepper=StepperConfig("fixed_lr", lr=0.05))
        assert np.all(rec.x_final >= 1e-12)
        assert np.all(rec.x_final.sum(axis=1) <= 1.0 - 1e-12)

    def test_single_particle_run_uses_bandwidth_fallback(self):
        # no pairwise distances to take a median over; direction reduces to
        # the dual score and the run proceeds.
        rec = run_sampler(target=self.target(), sampler="msvgd",
                          n_particles=1, n_iters=10, seed=2,
                          stepper=StepperConfig("fixed_lr", lr=0.05))
        assert rec.x_final.shape == (1, 2)
        assert np.all(rec.x_final > 0)

    def test_mlawgd_runs_and_coin_twin(self):
        from mirrorcoin.targets import LogNormalOrthant
        t = LogNormalOrthant(1)
        for sampler, stepper in [("mlawgd", StepperConfig("fixed_lr", lr=0.1)),
                                 ("coin_mlawgd", StepperConfig("coin_adaptive"))]:
            rec = run_sampler(target=t, sampler=sampler, n_particles=12,
                              n_iters=10, seed=8, stepper=stepper)
            assert rec.x_final.shape == (12, 1) and np.all(rec.x_final > 0)

    def test_validation_errors(self):
        t = self.target()
        with pytest.raises(ConfigError):  # coin sampler, grad stepper
            run_sampler(target=t, sampler="coin_msvgd", n_particles=4,
                        n_iters=1, seed=0,
                        stepper=StepperConfig("fixed_lr", lr=0.1))
        with pytest.raises(ConfigError):  # grad sampler, coin stepper
            run_sampler(target=t, sampler="msvgd", n_particles=4,
                        n_iters=1, seed=0,
                        stepper=StepperConfig("coin_adaptive"))
        with pytest.raises(ConfigError):  # mla wants fixed_lr
            run_sampler(target=t, sampler="mla", n_particles=4,
                        n_iters=1, seed=0,
                        stepper=StepperConfig("rmsprop", lr=0.1))
        with pytest.raises(ConfigError):  # spectral flow is 1-D only
            run_sampler(target=t, sampler="mlawgd", n_particles=4,
                        n_iters=1, seed=0,
                        stepper=StepperConfig("fixed_lr", lr=0.1))
        with pytest.raises(ConfigError, match="the box map has no dual score"):
            run_sampler(target=UniformBox(np.zeros(2), np.ones(2)),
                        sampler="msvgd", n_particles=4, n_iters=1, seed=0,
                        stepper=StepperConfig("fixed_lr", lr=0.1))
        with pytest.raises(ConfigError):  # unknown sampler
            run_sampler(target=t, sampler="hmc", n_particles=4,
                        n_iters=1, seed=0)
        for sampler in ("msvgd", "mla"):  # no stepper given: the default has no lr
            with pytest.raises(ConfigError, match="requires a positive lr"):
                run_sampler(target=ExpOrthant(2), sampler=sampler, n_particles=4,
                            n_iters=1, seed=0)

    def test_ksd_descent_over_memory_budget_is_refused(self):
        # n_iters=0 computes no direction, so a missing check fails the test
        # without allocating the 2.7 GiB
        with pytest.raises(ConfigError, match="over the 2 GiB budget"):
            run_sampler(target=ExpOrthant(20, rate=1.0), sampler="coin_mksdd",
                        n_particles=6000, n_iters=0, seed=0)

    def test_runaway_step_raises_domain_violation(self):
        # a huge fixed step saturates the inverse map to the boundary
        t = self.target()
        with pytest.raises(DomainViolation):
            run_sampler(target=t, sampler="msvgd", n_particles=4, n_iters=3,
                        seed=1, stepper=StepperConfig("fixed_lr", lr=1e9))


def home_target(sampler):
    """A target on a domain the sampler supports."""
    if sampler in ("mlawgd", "coin_mlawgd"):
        return LogNormalOrthant(1)
    if sampler in ("mksdd", "coin_mksdd", "mla"):
        return ExpOrthant(2, rate=1.0)
    if sampler in ("msvgd", "coin_msvgd", "coin_svgd_proj"):
        return SparseDirichlet(alpha=0.5, counts=np.array([6.0, 3.0, 1.0]))
    return UniformBox(-np.ones(2), 2.0 * np.ones(2))


def strictly_inside(target, x):
    if target.domain == "box":
        return bool(np.all((x > target.lo) & (x < target.hi)))
    if target.domain == "simplex":
        return bool(np.all(x > 0.0) and np.all(x.sum(axis=1) < 1.0))
    return bool(np.all(x > 0.0))


@pytest.mark.parametrize("sampler", [s for s in SAMPLERS if s.startswith("coin_")])
def test_coin_sampler_without_stepper_runs_the_adaptive_coin(sampler):
    kw = dict(target=home_target(sampler), sampler=sampler, n_particles=6, n_iters=4,
              seed=2, hooks={"m": lambda x, y: float(x.sum())}, metric_every=2)
    default = run_sampler(**kw)
    explicit = run_sampler(**kw, stepper=StepperConfig("coin_adaptive"))
    assert default.x_final.tobytes() == explicit.x_final.tobytes()
    assert (default.y_final is None) == (explicit.y_final is None)
    if default.y_final is not None:
        assert default.y_final.tobytes() == explicit.y_final.tobytes()
    assert [t[:3] for t in default.trace] == [t[:3] for t in explicit.trace]


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_every_sampler_ends_inside_its_home_domain(sampler):
    target = home_target(sampler)
    stepper = None if sampler.startswith("coin_") else StepperConfig("fixed_lr", lr=1e-2)
    rec = run_sampler(target=target, sampler=sampler, n_particles=6, n_iters=4,
                      seed=1, stepper=stepper)
    assert rec.x_final.shape == (6, target.d)
    assert strictly_inside(target, rec.x_final)
