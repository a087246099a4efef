"""The CLI contract as a property: ``mirrorcoin sample`` on any config drawn
from the documented keys, extreme values included, never raises, exits 0, 1
or 2, and writes only finite values when it exits 0."""

import csv
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcoin.cli import main
from mirrorcoin.samplers import (
    COIN_STEPPERS,
    GRAD_STEPPERS,
    MIRRORED_SAMPLERS,
    PROJECTED_SAMPLERS,
)

# extreme values of each type; the integers are either small or too large
# for any array size, so no draw asks for a large allocation
EXTREME_FLOATS = ("0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308", "-1e-308",
                  "5e-324", "1e200", "1e-200", "1e154", "1e-154", "-1")
EXTREME_INTS = ("0", "-0", "-1", "100000000000000000000", "-100000000000000000000")


def floats(*usual):
    return st.sampled_from(usual) | st.sampled_from(EXTREME_FLOATS)


def ints(*usual):
    return st.sampled_from(usual) | st.sampled_from(EXTREME_INTS)


def float_list(*usual, sizes=(1, 2)):
    return st.lists(floats(*usual), min_size=min(sizes), max_size=max(sizes)).map(",".join)


DIMENSION = ints("1", "2", "3")

# the required keys of each target kind, which the drawn keys may override
REQUIRED = {"sparse_dirichlet": {"target.counts": "5,3,1"},
            "selective_lasso": {"target.n": "10", "target.p": "2", "target.q": "1"}}

# the keys of each target kind (README, config reference), and its domain
TARGET_KEYS = {
    "sparse_dirichlet": {"target.counts": float_list("0", "1", "5", "90", sizes=(2, 4)),
                         "target.alpha": float_list("0.1", "1"), "target.d": DIMENSION},
    "quadratic_simplex": {"target.d": DIMENSION, "target.sigma": floats("1", "0.3"),
                          "target.seed": ints("1")},
    "uniform_box": {"target.d": DIMENSION, "target.lo": float_list("-1", "0"),
                    "target.hi": float_list("1", "2")},
    "exp_orthant": {"target.d": DIMENSION, "target.rate": floats("1", "2")},
    "lognormal_orthant": {"target.d": DIMENSION, "target.mu": floats("0", "1"),
                          "target.sigma": floats("1", "0.5")},
    "selective_lasso": {"target.n": ints("5", "25"), "target.p": ints("1", "2", "3"),
                        "target.q": ints("1", "2"), "target.lam": floats("2", "0.5"),
                        "target.tau": floats("1", "0.3"), "target.eps_ridge": floats("1")},
}
DOMAINS = {"sparse_dirichlet": "simplex", "quadratic_simplex": "simplex",
           "uniform_box": "box", "exp_orthant": "orthant", "lognormal_orthant": "orthant",
           "selective_lasso": "orthant"}

# the samplers and init keys of each domain
DOMAIN_SAMPLERS = {"simplex": MIRRORED_SAMPLERS + PROJECTED_SAMPLERS,
                   "orthant": MIRRORED_SAMPLERS + PROJECTED_SAMPLERS,
                   "box": PROJECTED_SAMPLERS + ("mied", "coin_mied")}
INIT_KEYS = {"simplex": {"init.alpha": floats("5", "0.5")},
             "orthant": {"init.mu": floats("0", "1"), "init.sigma": floats("1", "0.5")},
             "box": {"init.scale": floats("0.5", "0.9")}}

# every other documented key of a sample config; N <= 5 and T <= 3 are drawn
# for every config
RUN_KEYS = {
    "seed": ints("1", "7"),
    "sampler.metric_every": ints("1", "2"),
    "stepper.kind": st.sampled_from(GRAD_STEPPERS + COIN_STEPPERS),
    "stepper.lr": floats("0.01", "0.1"),
    "stepper.guard": st.sampled_from(("true", "false")),
    "kernel.family": st.sampled_from(("imq", "rbf")),
    "kernel.bandwidth": floats("median", "0.5"),
    "mollifier.kind": st.sampled_from(("riesz", "gaussian", "laplace")),
    "mollifier.eps": floats("1e-8", "0.1"),
    "mollifier.s": floats("2", "3"),
    "spectral.terms": ints("1", "5"),
    "metrics.names": st.sets(st.sampled_from(("energy", "ksd", "mean_x1")), min_size=1).map(
        lambda names: ",".join(sorted(names))),
    "metrics.ground_truth_n": ints("1", "10"),
}


@st.composite
def sample_configs(draw):
    kind = draw(st.sampled_from(sorted(TARGET_KEYS)))
    domain = DOMAINS[kind]
    keys = {**TARGET_KEYS[kind], **INIT_KEYS[domain], **RUN_KEYS}
    chosen = draw(st.sets(st.sampled_from(sorted(keys)), max_size=5))
    sampler = draw(st.sampled_from(DOMAIN_SAMPLERS[domain]))
    lines = {"target.kind": kind, **REQUIRED.get(kind, {"target.d": "2"}),
             "sampler.kind": sampler,
             "sampler.n_particles": draw(st.sampled_from(("3", "1", "2", "5", "0"))),
             "sampler.n_iters": draw(st.sampled_from(("2", "0", "1", "3")))}
    if not sampler.startswith("coin_"):
        lines["stepper.lr"] = "0.1"
    lines.update({key: draw(keys[key]) for key in sorted(chosen)})
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def values(path, column=None):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return [float(row[key]) for row in rows for key in row if column in (None, key)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sample_configs())
# a scale whose inverse square is not finite makes the ksd NaN
@example("target.kind = lognormal_orthant\ntarget.d = 2\ntarget.sigma = 1e-308\n"
         "sampler.kind = coin_msvgd\nsampler.n_particles = 3\nsampler.n_iters = 0\n"
         "metrics.names = ksd\n")
# a box whose squared distances overflow makes the energy NaN
@example("target.kind = uniform_box\ntarget.d = 2\ntarget.lo = -1e308\n"
         "sampler.kind = svgd_proj\nstepper.lr = 0.1\nsampler.n_particles = 3\n"
         "sampler.n_iters = 2\nkernel.bandwidth = 0.5\nmetrics.names = energy\n")
# a projected run's draw overflows to inf before any iteration
@example("target.kind = exp_orthant\ntarget.d = 2\ninit.mu = 1e200\n"
         "sampler.kind = svgd_proj\nstepper.lr = 0.1\nsampler.n_particles = 3\n"
         "sampler.n_iters = 0\n")
# a mirrored run's draw leaves the open domain: it overflows to inf, or the
# dirichlet puts every particle on a vertex
@example("target.kind = exp_orthant\ntarget.d = 2\ninit.mu = 1e200\n"
         "sampler.kind = coin_msvgd\nsampler.n_particles = 5\nsampler.n_iters = 2\n")
@example("target.kind = sparse_dirichlet\ntarget.counts = 5,3,1\ninit.alpha = 1e-200\n"
         "sampler.kind = coin_mksdd\nsampler.n_particles = 5\nsampler.n_iters = 2\n")
# a kernel bandwidth or mollifier eps whose square underflows to 0
@example("target.kind = sparse_dirichlet\ntarget.counts = 5,3,1\nsampler.kind = mksdd\n"
         "stepper.lr = 0.1\nsampler.n_particles = 5\nsampler.n_iters = 1\n"
         "kernel.bandwidth = 5e-324\n")
@example("target.kind = uniform_box\ntarget.d = 2\nsampler.kind = coin_mied\n"
         "sampler.n_particles = 5\nsampler.n_iters = 2\nmollifier.eps = 1e-170\n")
# the rbf profile's h^4 and h^6 overflow
@example("target.kind = sparse_dirichlet\ntarget.counts = 5,3,1\nsampler.kind = coin_mksdd\n"
         "sampler.n_particles = 5\nsampler.n_iters = 2\nkernel.family = rbf\n"
         "kernel.bandwidth = 1e154\nmetrics.names = ksd\n")
def test_sample_exits_0_1_or_2_and_writes_finite_values_on_0(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.txt")
        path.write_text(config)
        out = Path(tmp, "o")
        code = main(["sample", "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            assert all(map(math.isfinite, values(out / "particles_final.csv")))
            assert all(map(math.isfinite, values(out / "trace.csv", "value")))
