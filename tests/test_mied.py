"""Mollified interaction energy: values, gradients, the box map, run loop."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mirrorcoin.errors import ConfigError
from mirrorcoin.mied import (
    MOLLIFIERS,
    MollifierConfig,
    _interaction_terms,
    mie_gradient,
)
from mirrorcoin.geometry import BoxMirrorMap
from mirrorcoin.samplers import StepperConfig, mirrored_density, run_sampler
from mirrorcoin.targets import ExpOrthant, SparseDirichlet, UniformBox

from helpers import fd_grad, mie_log_energy, rel_err


class TestMollifierConfig:
    def test_defaults(self):
        c = MollifierConfig()
        assert c.kind == "riesz" and c.eps == 1e-8 and c.s is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            MollifierConfig(kind="matern")
        with pytest.raises(ConfigError):
            MollifierConfig(eps=0.0)
        with pytest.raises(ConfigError):
            MollifierConfig(kind="gaussian", s=2.0)
        with pytest.raises(ConfigError):
            MollifierConfig(kind="riesz", s=-1.0)


class TestLogEnergy:
    def test_single_particle_riesz_hand_value(self):
        # one particle: only the diagonal term survives, phi at zero
        # separation is eps^{-s}, and the unit box has log density 0
        t = UniformBox(np.zeros(2), np.ones(2))
        x = np.array([[0.3, 0.6]])
        c = MollifierConfig(kind="riesz", eps=1e-8, s=3.0)
        assert abs(mie_log_energy(x, t, c) - (-3.0 * np.log(1e-8))) < 1e-9

    def test_riesz_default_exponent_is_d_plus_tiny(self):
        t = UniformBox(np.zeros(2), np.ones(2))
        x = np.array([[0.5, 0.5]])
        c = MollifierConfig()
        expect = -(2 + 1e-4) * np.log(1e-8)
        assert abs(mie_log_energy(x, t, c) - expect) < 1e-9

    def test_two_particle_gaussian_hand_value(self):
        t = UniformBox(np.zeros(1), np.ones(1))
        x = np.array([[0.2], [0.6]])
        c = MollifierConfig(kind="gaussian", eps=0.5)
        # terms: diag 0, 0; off-diag -r^2/(2 eps^2) = -0.32 twice
        terms = np.array([0.0, 0.0, -0.32, -0.32])
        expect = np.log(np.exp(terms).sum()) - 2.0 * np.log(2.0)
        assert abs(mie_log_energy(x, t, c) - expect) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        t = ExpOrthant(2, rate=1.0)
        x = rng.uniform(0.2, 2.0, size=(7, 2))
        c = MollifierConfig(kind="riesz", eps=1e-3)
        perm = rng.permutation(7)
        assert np.isclose(mie_log_energy(x, t, c),
                          mie_log_energy(x[perm], t, c))
        g = mie_gradient(x, t, c)
        gp = mie_gradient(x[perm], t, c)
        assert np.allclose(gp, g[perm])

    def test_translation_invariant_under_flat_density(self):
        rng = np.random.default_rng(1)
        t = UniformBox(np.zeros(2), np.ones(2) * 10.0)
        x = rng.uniform(1.0, 3.0, size=(6, 2))
        c = MollifierConfig(kind="laplace", eps=0.7)
        assert np.isclose(mie_log_energy(x, t, c),
                          mie_log_energy(x + 2.5, t, c))


class TestGradient:
    @pytest.mark.parametrize("moll", [
        MollifierConfig(kind="riesz", eps=1e-8),
        MollifierConfig(kind="riesz", eps=1e-2, s=2.5),
        MollifierConfig(kind="gaussian", eps=0.6),
        MollifierConfig(kind="laplace", eps=0.8),
    ])
    def test_matches_fd(self, moll):
        rng = np.random.default_rng(2)
        t = ExpOrthant(2, rate=1.3)
        x = rng.uniform(0.3, 2.0, size=(5, 2))
        g = mie_gradient(x, t, moll)
        for m in range(5):
            def energy_of(u, m=m):
                z = x.copy()
                z[m] = u
                return mie_log_energy(z, t, moll)
            ref = fd_grad(energy_of, x[m], h=1e-6)
            assert rel_err(g[m], ref) < 1e-5

    @pytest.mark.parametrize("kind", MOLLIFIERS)
    @pytest.mark.parametrize("target", [ExpOrthant(3, rate=1.3),
                                        SparseDirichlet(0.5, [4.0, 2.0, 1.0, 3.0])],
                             ids=["orthant", "simplex"])
    def test_log_terms_bitwise_symmetric(self, kind, target):
        # mie_gradient takes a particle's column terms as its row terms
        # (w + w^T = 2 w), which holds bit for bit only while the mollifier
        # terms are symmetric
        rng = np.random.default_rng(4)
        x = rng.dirichlet(np.ones(4), size=60)[:, :3]
        x[7] = x[3]                                 # a coincident pair
        r2 = cdist(x, x, "sqeuclidean")            # the pair distances it starts from
        assert r2.tobytes() == r2.T.tobytes()
        e, c, _, zero, _, _ = _interaction_terms(x, target, MollifierConfig(kind=kind, eps=0.3))
        assert e.tobytes() == e.T.tobytes()
        assert zero.tobytes() == zero.T.tobytes()
        assert c.tobytes() == c.T.tobytes()


class TestReparam:
    """The box map's dual coordinates, x = mid + half tanh(y), that MIED moves."""

    def test_tanh_round_trip_and_range(self):
        # keep |y| moderate: near saturation x loses the bits that encode y
        mmap = BoxMirrorMap(np.array([0.0, -2.0]), np.array([1.0, 2.0]))
        rng = np.random.default_rng(3)
        y = rng.uniform(-4.0, 4.0, size=(50, 2))
        x = mmap.dual_to_primal(y)
        assert np.all(x[:, 0] > 0) and np.all(x[:, 0] < 1)
        assert np.all(x[:, 1] > -2) and np.all(x[:, 1] < 2)
        assert np.max(np.abs(mmap.primal_to_dual(x) - y)) < 1e-9

    def test_tanh_jacobian_vs_fd(self):
        # dx/dy is the inverse mirror Hessian at x
        mmap = BoxMirrorMap(np.array([0.0]), np.array([4.0]))
        for y0 in (-1.2, 0.0, 0.8):
            x0 = mmap.dual_to_primal(np.array([y0]))
            jd = mmap.hessian_inverse_apply(x0, np.ones(1))[0]
            ref = fd_grad(lambda u: mmap.dual_to_primal(u)[0], np.array([y0]))[0]
            assert abs(jd - ref) < 1e-8


class TestRunMied:
    def box_target(self):
        return UniformBox(np.zeros(2), np.ones(2))

    def test_fixed_lr_decreases_energy(self):
        # gaussian mollifier: off-diagonal terms carry real softmax weight,
        # so a plain gradient step has usable signal on a flat target
        t = self.box_target()
        moll = MollifierConfig(kind="gaussian", eps=0.5)
        hooks = {"loge": lambda x, w: mie_log_energy(x, t, moll)}
        rec = run_sampler(target=t, sampler="mied", n_particles=20, n_iters=60,
                          seed=4, mollifier=moll,
                          stepper=StepperConfig("fixed_lr", lr=5e-3),
                          hooks=hooks, metric_every=60)
        vals = [v for it, name, v, ms in rec.trace if name == "loge"]
        assert vals[-1] < vals[0]

    def test_fixed_lr_energy_never_increases(self):
        """Per-step monotonicity at gamma=1e-3 over 250 iterations.

        Checked for both the near-singular riesz mollifier (where the
        self-interaction term freezes the cloud and the energy is constant)
        and a gaussian mollifier wide enough to produce real descent.
        """
        t = UniformBox(-np.ones(2), np.ones(2))
        for moll in (MollifierConfig(), MollifierConfig(kind="gaussian", eps=0.5)):
            vals = []
            hooks = {"loge": lambda x, w, m=moll: vals.append(mie_log_energy(x, t, m)) or vals[-1]}
            run_sampler(target=t, sampler="mied", n_particles=100, n_iters=250,
                        seed=7, mollifier=moll,
                        stepper=StepperConfig("fixed_lr", lr=1e-3),
                        hooks=hooks, metric_every=1)
            steps = np.diff(np.asarray(vals))
            assert steps.max(initial=-np.inf) <= 1e-9, moll.kind

    def test_coin_run_stays_in_open_box(self):
        t = self.box_target()
        rec = run_sampler(target=t, sampler="coin_mied", n_particles=25,
                          n_iters=40, seed=5)
        assert np.all(rec.x_final > 0.0) and np.all(rec.x_final < 1.0)
        assert rec.x_final.shape == (25, 2)

    def test_deterministic_repeat(self):
        t = self.box_target()
        kw = dict(target=t, sampler="coin_mied", n_particles=10, n_iters=15,
                  seed=6)
        r1 = run_sampler(**kw)
        r2 = run_sampler(**kw)
        assert r1.x_final.tobytes() == r2.x_final.tobytes()
        assert r1.y_final.tobytes() == r2.y_final.tobytes()

    def test_coin_first_step_is_half_sign(self):
        t = self.box_target()
        rec = run_sampler(target=t, sampler="coin_mied", n_particles=6,
                          n_iters=1, seed=7)
        # replay initialization and the first outcome, which the direction
        # takes at the image of the drawn cloud's dual coordinates
        from mirrorcoin.rng import substream
        from mirrorcoin.samplers import InitSpec, draw_init
        rng = substream(7, "init")
        x0 = draw_init(InitSpec(), t, 6, rng)
        mmap = mirrored_density(t).mmap
        y0 = mmap.primal_to_dual(x0)
        x = mmap.dual_to_primal(y0)
        c = -mmap.hessian_inverse_apply(x, mie_gradient(x, t, MollifierConfig()))
        nz = c != 0
        assert nz.any()
        assert np.allclose(np.abs(rec.y_final - y0)[nz], 0.5)

    def test_stepper_mismatch_raises(self):
        t = self.box_target()
        with pytest.raises(ConfigError):
            run_sampler(target=t, sampler="coin_mied", n_particles=4, n_iters=1,
                        seed=0, stepper=StepperConfig("fixed_lr", lr=0.1))
        with pytest.raises(ConfigError):
            run_sampler(target=t, sampler="mied", n_particles=4, n_iters=1,
                        seed=0, stepper=StepperConfig("coin_adaptive"))
        with pytest.raises(ConfigError):
            run_sampler(target=t, sampler="mied_fast", n_particles=4, n_iters=1,
                        seed=0)

    @pytest.mark.parametrize("sampler", ["mied", "coin_mied"])
    @pytest.mark.parametrize("target", [
        ExpOrthant(1, rate=1.0),
        SparseDirichlet(alpha=0.5, counts=np.array([6.0, 3.0, 1.0])),
    ], ids=["orthant", "simplex"])
    def test_non_box_target_is_rejected(self, sampler, target):
        # MIED runs on the box only.  Its direction maps through the simplex
        # and orthant maps as well, but there coin MIED with the default
        # mollifier leaves the domain or misses the target: the energy's
        # diagonal swamps the pair terms that would repel the particles
        stepper = None if sampler == "coin_mied" else StepperConfig("fixed_lr", lr=1e-3)
        with pytest.raises(ConfigError, match=target.domain):
            run_sampler(target=target, sampler=sampler, n_particles=8, n_iters=5,
                        seed=8, stepper=stepper,
                        mollifier=MollifierConfig(kind="gaussian", eps=0.5))
