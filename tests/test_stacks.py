"""Stacks of runs: a (B, N, d) array moves through every direction, and each
run of a stack gets the bits it gets alone."""

from dataclasses import replace

import numpy as np
import pytest

from mirrorcoin import samplers
from mirrorcoin.errors import DomainViolation, NumericalFailure
from mirrorcoin.kernels import KernelConfig, median_h, sq_dists
from mirrorcoin.mied import MOLLIFIERS, MollifierConfig, mie_gradient
from mirrorcoin.rng import substream
from mirrorcoin.samplers import (
    InitSpec,
    Run,
    StepperConfig,
    make_stepper,
    mirrored_density,
    mksdd_direction,
    mlawgd_direction,
    msvgd_direction,
    run_sampler,
    run_stack,
    svgd_direction,
)
from mirrorcoin.targets import ExpOrthant, LogNormalOrthant, SparseDirichlet, UniformBox

DIRICHLET = SparseDirichlet(alpha=0.5, counts=np.array([6.0, 2.0, 1.0, 0.0]))
ORTHANT = ExpOrthant(3)
TARGETS = {"simplex": DIRICHLET, "orthant": ORTHANT}
B, N = 3, 7


def cloud_stack(target, seed=0):
    """B primal clouds of N points in the target's domain."""
    rng = np.random.default_rng(seed)
    if target.domain == "simplex":
        return rng.dirichlet(np.full(target.d + 1, 2.0), size=(B, N))[..., :target.d]
    if target.domain == "box":
        return rng.uniform(0.8 * target.lo, 0.8 * target.hi, size=(B, N, target.d))
    return np.exp(rng.standard_normal((B, N, target.d)))


def assert_slices_equal(stacked, per_slice):
    assert stacked.shape[0] == len(per_slice)
    for got, want in zip(stacked, per_slice):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("domain", TARGETS)
@pytest.mark.parametrize("direction", [msvgd_direction, mksdd_direction])
@pytest.mark.parametrize("family,h", [("imq", "median"), ("rbf", "median"), ("imq", 0.7)])
def test_mirrored_direction_of_a_stack_is_its_slices(domain, direction, family, h):
    md = mirrored_density(TARGETS[domain])
    X = cloud_stack(md.target)
    Y = md.mmap.primal_to_dual(X)
    assert_slices_equal(direction(Y, md, family, h, X),
                        [direction(y, md, family, h, x) for y, x in zip(Y, X)])
    # without X, each slice is mapped back from Y
    assert_slices_equal(direction(Y, md, family, h), [direction(y, md, family, h) for y in Y])


def test_projected_direction_of_a_stack_is_its_slices():
    X = cloud_stack(DIRICHLET)
    assert_slices_equal(svgd_direction(X, DIRICHLET, "imq", "median"),
                        [svgd_direction(x, DIRICHLET, "imq", "median") for x in X])


def test_spectral_direction_of_a_stack_is_its_slices():
    Y = np.random.default_rng(1).standard_normal((B, N, 1))
    assert_slices_equal(mlawgd_direction(Y, 12), [mlawgd_direction(y, 12) for y in Y])


@pytest.mark.parametrize("kind", MOLLIFIERS)
@pytest.mark.parametrize("target", [UniformBox(-np.ones(2), np.ones(2)), ExpOrthant(2)])
def test_mied_gradient_of_a_stack_is_its_slices(kind, target):
    # the exponential density's largest factor differs from slice to slice
    X = cloud_stack(UniformBox(-np.ones(2), np.ones(2)))
    X[1] *= 0.3
    config = MollifierConfig(kind, eps=0.5)
    assert_slices_equal(mie_gradient(X, target, config),
                        [mie_gradient(x, target, config) for x in X])


def test_median_h_is_a_float_for_one_cloud_and_a_column_for_a_stack():
    r2 = sq_dists(cloud_stack(DIRICHLET))
    h = median_h(r2)
    assert h.shape == (B, 1, 1)
    for b in range(B):
        alone = median_h(r2[b])
        assert type(alone) is float and alone != 1.0
        assert type(median_h(r2[b:b + 1])) is float
        assert median_h(r2[b:b + 1]) == alone == h[b, 0, 0]
    # a singleton cloud takes h = 1 in every form
    single = sq_dists(cloud_stack(DIRICHLET)[:, :1])
    assert median_h(single[0]) == median_h(single[:1]) == 1.0
    assert median_h(single).shape == (B, 1, 1) and np.all(median_h(single) == 1.0)


@pytest.mark.parametrize("h", ["median", 0.7])
def test_a_stack_of_one_is_its_cloud_alone(h):
    # the run loop moves a lone run as a stack of one
    md = mirrored_density(DIRICHLET)
    X = cloud_stack(DIRICHLET)[:1]
    Y = md.mmap.primal_to_dual(X)
    box = UniformBox(-np.ones(2), np.ones(2))
    Xb = cloud_stack(box)[:1]
    Ys = np.random.default_rng(1).standard_normal((1, N, 1))
    pairs = [(direction(Y, md, "imq", h, X), direction(Y[0], md, "imq", h, X[0]))
             for direction in (msvgd_direction, mksdd_direction)]
    pairs += [(svgd_direction(X, DIRICHLET, "imq", h), svgd_direction(X[0], DIRICHLET, "imq", h)),
              (mie_gradient(Xb, box, MollifierConfig()), mie_gradient(Xb[0], box, MollifierConfig())),
              (mlawgd_direction(Ys, 12), mlawgd_direction(Ys[0], 12))]
    for stacked, alone in pairs:
        assert stacked.shape == (1,) + alone.shape
        assert stacked[0].tobytes() == alone.tobytes()


def test_a_collapsed_slice_alone_takes_h_one():
    md = mirrored_density(DIRICHLET)
    X = cloud_stack(DIRICHLET)
    X[1] = X[1, 0]                       # every point of slice 1 at one place
    h = median_h(sq_dists(X))
    assert h.shape == (B, 1, 1) and h[1, 0, 0] == 1.0
    for b in (0, 2):
        assert h[b, 0, 0] == median_h(sq_dists(X[b])) != 1.0
    Y = md.mmap.primal_to_dual(X)
    assert_slices_equal(msvgd_direction(Y, md, "imq", "median", X),
                        [msvgd_direction(y, md, "imq", "median", x) for y, x in zip(Y, X)])


OPTIONS = dict(n_particles=6, n_iters=5, kernel=KernelConfig(), mollifier=MollifierConfig(),
               spectral_terms=8, init=InitSpec(), metric_every=2)


def mean_x1(x, y):
    return float(x[:, 0].mean())


@pytest.mark.parametrize("base,target", [
    ("msvgd", DIRICHLET), ("msvgd", ORTHANT), ("mksdd", DIRICHLET), ("mksdd", ORTHANT),
    ("mlawgd", LogNormalOrthant(1)), ("svgd_proj", DIRICHLET),
    ("mied", UniformBox(-np.ones(2), np.ones(2))), ("mla", DIRICHLET), ("mla", ORTHANT),
])
def test_each_run_of_a_stack_is_the_run_alone(base, target):
    # rmsprop runs on either side of a fixed_lr run, and the coin twin with
    # both engines; mla's fixed_lr runs at two rates and two seeds share one
    # engine, each drawing its noise from its own seed
    if base == "mla":
        runs = [Run("mla", seed, StepperConfig("fixed_lr", lr=lr))
                for seed in (0, 1) for lr in (1e-3, 1e-2)]
    else:
        runs = [Run(base, 0, StepperConfig("rmsprop", lr=0.05)),
                Run(base, 1, StepperConfig("fixed_lr", lr=0.02)),
                Run(base, 1, StepperConfig("rmsprop", lr=0.01)),
                Run("coin_" + base, 0),
                Run("coin_" + base, 2, StepperConfig("coin_kt"))]
    records = run_stack(runs, target=target, hooks={"mean_x1": mean_x1}, **OPTIONS)
    for run, got in zip(runs, records):
        alone = run_sampler(target=target, sampler=run.sampler, seed=run.seed,
                            stepper=run.stepper, hooks={"mean_x1": mean_x1}, **OPTIONS)
        assert np.array_equal(got.x_final, alone.x_final)
        assert (got.y_final is None) == (alone.y_final is None)
        if got.y_final is not None:
            assert np.array_equal(got.y_final, alone.y_final)
        assert [row[:3] for row in got.trace] == [row[:3] for row in alone.trace]


@pytest.mark.parametrize("target", [DIRICHLET, ORTHANT], ids=["simplex", "orthant"])
def test_an_rbf_ksd_descent_stack_keeps_each_run_alone(target):
    # a stack's median h^2 is a column and a lone run's a float; the rbf
    # profile raises both to its powers through the same pow
    options = {**OPTIONS, "kernel": KernelConfig("rbf"), "n_particles": 20, "n_iters": 30}
    runs = [Run("coin_mksdd", seed) for seed in range(4)]
    for run, got in zip(runs, run_stack(runs, target=target, hooks={}, **options)):
        alone = run_sampler(target=target, sampler=run.sampler, seed=run.seed, **options)
        assert got.y_final.tobytes() == alone.y_final.tobytes()


def test_one_engine_per_stretch_of_a_stack(monkeypatch):
    # a stretch is a longest run of consecutive steppers of one kind; the
    # runs keep their order
    stretches = []
    monkeypatch.setattr(samplers, "make_stepper", lambda steppers, z0, noise=():
                        stretches.append((steppers, z0.shape[0])) or make_stepper(steppers, z0))
    kinds = [StepperConfig("rmsprop", lr=0.1), StepperConfig("rmsprop", lr=0.2),
             StepperConfig("fixed_lr", lr=0.1), StepperConfig("rmsprop", lr=0.1),
             StepperConfig("coin_adaptive"), StepperConfig("coin_adaptive"),
             StepperConfig("coin_kt"), StepperConfig("coin_adaptive")]
    runs = [Run("coin_msvgd" if s.kind.startswith("coin") else "msvgd", 0, s) for s in kinds]
    run_stack(runs, target=DIRICHLET, hooks={}, **OPTIONS)
    assert stretches == [(kinds[:2], 2), (kinds[2:3], 1), (kinds[3:4], 1), (kinds[4:6], 2),
                         (kinds[6:7], 1), (kinds[7:], 1)]


@pytest.mark.parametrize("stepper,mla", [
    (StepperConfig("fixed_lr", lr=1.0), False), (StepperConfig("rmsprop", lr=1.0), False),
    (StepperConfig("coin_kt"), False), (StepperConfig("coin_adaptive"), False),
    (StepperConfig("fixed_lr", lr=1.0), True),
], ids=["fixed_lr", "rmsprop", "coin_kt", "coin_adaptive", "mla"])
def test_one_engine_gives_each_slice_the_bits_of_a_lone_engine(stepper, mla):
    # each run at its own rate and, for mla, with its own noise; the stack's
    # engine steps a view of a wider stack, as in the run loop
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((B + 1, N, 2))
    z = wide[1:]
    steppers = [replace(stepper, lr=stepper.lr and lr) for lr in (0.3, 0.05, 0.01)]

    def noise(seeds):
        return [substream(seed, "mla_noise") for seed in seeds] if mla else ()

    engine = make_stepper(steppers, z, noise(range(B)))
    alone = [make_stepper([s], z[b:b + 1], noise([b])) for b, s in enumerate(steppers)]
    zs = [z[b:b + 1].copy() for b in range(B)]
    for _ in range(6):
        c = rng.standard_normal(z.shape)
        wide[1:] = engine.step(z, c)
        zs = [e.step(zb, c[b:b + 1]) for b, (e, zb) in enumerate(zip(alone, zs))]
    for got, want in zip(z, zs):
        assert want.shape == (1, N, 2)
        assert got.tobytes() == want[0].tobytes()
    assert not np.array_equal(z[0], z[1])


def test_a_failed_stack_names_the_run_that_failed():
    # the first run is fine; the second fails at once
    runs = [Run("svgd_proj", 0, StepperConfig("fixed_lr", lr=0.01), "calm"),
            Run("svgd_proj", 0, StepperConfig("fixed_lr", lr=1e300), "wild")]
    with pytest.warns(RuntimeWarning), pytest.raises(
            DomainViolation, match="^wild: particle left the open domain at iteration 2$"):
        run_stack(runs, target=DIRICHLET, hooks={}, **OPTIONS)
    runs[1] = Run("msvgd", 0, StepperConfig("rmsprop", lr=1e3), "wild")
    runs[0] = Run("msvgd", 0, StepperConfig("fixed_lr", lr=0.01), "calm")
    with pytest.warns(RuntimeWarning), pytest.raises(
            DomainViolation, match="^wild: particle left the open domain at iteration 1$"):
        run_stack(runs, target=LogNormalOrthant(3), hooks={}, **OPTIONS)


def test_a_non_finite_outcome_names_the_run_it_is_in(monkeypatch):
    # only the second run's slice of the stack's outcome is NaN, at iteration 2
    calls = []
    direction = samplers.msvgd_direction

    def nan_in_wild(*args):
        calls.append(1)
        c = direction(*args)
        if len(calls) == 2:
            c[1, 3, 0] = np.nan
        return c

    monkeypatch.setattr(samplers, "msvgd_direction", nan_in_wild)
    runs = [Run("coin_msvgd", 0, name="calm"), Run("coin_msvgd", 1, name="wild")]
    with pytest.raises(NumericalFailure, match="^wild: non-finite outcome at iteration 2$"):
        run_stack(runs, target=DIRICHLET, hooks={}, **OPTIONS)


def test_a_non_finite_metric_names_the_run_it_is_in():
    # the hook is called run by run at iterations 0, 2, ...; its fourth call
    # is the second run's at iteration 2
    calls = []

    def nan_in_wild(x, y):
        calls.append(1)
        return np.nan if len(calls) == 4 else mean_x1(x, y)

    runs = [Run("coin_msvgd", 0, name="calm"), Run("coin_msvgd", 1, name="wild")]
    with pytest.raises(NumericalFailure, match="^wild: non-finite m at iteration 2$"):
        run_stack(runs, target=DIRICHLET, hooks={"m": nan_in_wild}, **OPTIONS)


def test_a_lone_run_failure_names_its_run():
    # run_sampler is a stack of one, so its failure reads as a stack's does
    with pytest.warns(RuntimeWarning), pytest.raises(
            DomainViolation, match="^msvgd: particle left the open domain at iteration 1$"):
        run_sampler(target=LogNormalOrthant(3), sampler="msvgd", n_particles=6, n_iters=5,
                    seed=0, stepper=StepperConfig("rmsprop", lr=1e3))


def test_a_stack_takes_one_sampler_family():
    with pytest.raises(ValueError, match="one sampler family"):
        run_stack([Run("msvgd", 0, StepperConfig("rmsprop", lr=0.1)),
                   Run("coin_mksdd", 0)], target=DIRICHLET, hooks={}, **OPTIONS)
