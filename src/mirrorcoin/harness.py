"""Config-driven experiment harness.

Config files are flat ``key = value`` lines with ``#`` comments.  Keys use
dotted sections (``target.kind``, ``sampler.n_iters``, ...).  Parsing
collects every problem it can find and reports them all in one
:class:`ConfigError` rather than stopping at the first.

Outputs are deterministic byte-for-byte given the same config and seed:
floats are written with ``%.17g`` (exact float64 round trip), line endings
are LF, and CSV column order is fixed.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics as metrics_mod
from .errors import ConfigError
from .kernels import FAMILIES, KernelConfig
from .mied import MOLLIFIERS, MollifierConfig
from .rng import substream
from .samplers import (
    COIN_STEPPERS,
    GRAD_STEPPERS,
    INIT_PARAMS,
    MIRRORED_SAMPLERS,
    SAMPLERS,
    InitSpec,
    StepperConfig,
    check_run,
    coin_twin,
    mirrored_density,
    run_sampler,
    sampler_stepper,
)
from .targets import (
    ExpOrthant,
    LogNormalOrthant,
    QuadraticSimplex,
    SelectiveLasso,
    SparseDirichlet,
    UniformBox,
)

METRIC_NAMES = ("energy", "ksd", "mean_x1")


# ---------------------------------------------------------------------------
# config file parsing


def read_config(path: str) -> dict:
    """Parse a flat key = value file into a string-to-string dict."""
    problems = []
    raw = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                problems.append(f"line {lineno}: expected key = value")
                continue
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.split("#", 1)[0].strip()
            if not key:
                problems.append(f"line {lineno}: empty key")
                continue
            if key in raw:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            raw[key] = value
    if problems:
        raise ConfigError(problems)
    return raw


def _converter(parse, expected: str):
    """A text-to-value converter whose ValueError says what it expected."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise ValueError(f"expected {expected}, got {text!r}") from None
    return convert


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


as_int = _converter(int, "an integer")
as_float = _converter(float, "a number")
as_bool = _converter(_parse_bool, "true or false")
as_floats = _converter(lambda text: [float(v) for v in text.split(",") if v.strip()],
                       "comma-separated numbers")
as_ints = _converter(lambda text: [int(v) for v in text.split(",") if v.strip()],
                     "comma-separated integers")


# the default of a key that must be given
REQUIRED = object()


class _Reader:
    """Pops typed values out of the raw dict, logging problems as it goes."""

    def __init__(self, raw: dict, problems: list):
        self.raw = dict(raw)
        self.problems = problems

    def get(self, key, conv=str, default=None, choices=None):
        """The converted value of ``key``, ``default`` when it is absent, or
        None (with a logged problem) when it does not convert, is not one
        of ``choices``, or is absent with the default REQUIRED."""
        text = self.raw.pop(key, None)
        if text is None:
            if default is REQUIRED:
                self.problems.append(f"{key} is required")
                return None
            return default
        try:
            value = conv(text)
        except ValueError as exc:
            self.problems.append(f"{key}: {exc}")
            return None
        if choices is not None and value not in choices:
            self.problems.append(
                f"{key}: expected one of {', '.join(choices)}, got {value!r}"
            )
            return None
        return value

    def at_least(self, got, key, low):
        if got is not None and got < low:
            self.problems.append(f"{key} must be >= {low}")
        return got

    def leftover_check(self, prefix=""):
        for key in sorted(k for k in self.raw if k.startswith(prefix)):
            self.problems.append(f"unknown key {key!r}")


# The keys of each section, as key -> (converter, default[, choices]).  A
# section with kinds maps each ``<section>.kind`` to its constructor and keys.
TARGETS = {
    "sparse_dirichlet": (SparseDirichlet.from_config, {
        "counts": (as_floats, REQUIRED), "alpha": (as_floats, [1.0]), "d": (as_int, None)}),
    "quadratic_simplex": (QuadraticSimplex.from_config, {
        "d": (as_int, REQUIRED), "sigma": (as_float, 1.0), "seed": (as_int, 0)}),
    "uniform_box": (UniformBox.from_config, {
        "d": (as_int, REQUIRED), "lo": (as_floats, [0.0]), "hi": (as_floats, [1.0])}),
    "exp_orthant": (ExpOrthant, {"d": (as_int, REQUIRED), "rate": (as_float, 1.0)}),
    "lognormal_orthant": (LogNormalOrthant, {
        "d": (as_int, REQUIRED), "mu": (as_float, 0.0), "sigma": (as_float, 1.0)}),
    "selective_lasso": (SelectiveLasso.from_config, {
        "n": (as_int, REQUIRED), "p": (as_int, REQUIRED), "q": (as_int, REQUIRED),
        "lam": (as_float, 2.0), "tau": (as_float, 1.0), "eps_ridge": (as_float, 1.0),
        "seed": (as_int, 0)}),
}
# every kind takes target.seed; it draws the instance of a synthetic kind
TARGET_SHARED = {"seed": (as_int, 0)}
# the init keys of each target domain
INITS = {domain: (InitSpec, {p: (as_float, getattr(InitSpec, p)) for p in params})
         for domain, params in INIT_PARAMS.items()}
STEPPER = {"kind": (str, None, GRAD_STEPPERS + COIN_STEPPERS), "lr": (as_float, None),
           "guard": (as_bool, False)}
KERNEL = {"family": (str, "imq", FAMILIES),
          "bandwidth": (lambda text: text if text == "median" else as_float(text), "median")}
MOLLIFIER = {"kind": (str, "riesz", MOLLIFIERS), "eps": (as_float, 1e-8), "s": (as_float, None)}
SWEEP = {"lrs": (as_floats, []), "seeds": (as_ints, []),
         "coin_stepper": (str, None, COIN_STEPPERS),
         "metric": (str, "energy", ("energy", "ksd"))}


def _build(r: _Reader, section: str, table, shared=None):
    """The object the ``<section>.*`` keys describe, or None (with the
    problems logged) when a key is missing or does not parse, or the
    constructor refuses the values.

    ``table`` is (constructor, params) or, for a section with kinds, a dict
    from the required ``<section>.kind`` to such a pair.  ``table`` None (the
    section cannot be read, as after a missing or invalid kind) drains the
    section.  ``shared`` keys are read and checked for every kind, and
    passed only where the kind's params name them too.
    """
    logged = len(r.problems)
    if isinstance(table, dict):
        table = table.get(r.get(f"{section}.kind", default=REQUIRED, choices=tuple(table)))
    if table is None:
        # drain the section so its keys do not double-report as unknown
        for key in [k for k in r.raw if k.startswith(f"{section}.")]:
            r.raw.pop(key)
        return None
    make, params = table
    values = {key: r.get(f"{section}.{key}", *spec) for key, spec in params.items()}
    for key, spec in (shared or {}).items():
        r.get(f"{section}.{key}", *spec)
    if len(r.problems) > logged:
        return None
    try:
        return make(**values)
    except ValueError as exc:
        r.problems.extend(f"{section}: {v}" for v in getattr(exc, "violations", [exc]))
        return None


# ---------------------------------------------------------------------------
# plan building


@dataclass
class RunPlan:
    raw: dict
    seed: int
    sampler: str
    n_particles: int
    n_iters: int
    metric_every: int
    target: object
    stepper: StepperConfig | None
    kernel: KernelConfig
    mollifier: MollifierConfig
    spectral_terms: int
    init: InitSpec | None
    metric_names: tuple
    gt_n: int
    sweep_metric: str = "energy"


def build_plan(raw: dict) -> RunPlan:
    problems: list = []
    r = _Reader(raw, problems)

    seed = r.get("seed", as_int, 0)
    sampler = r.get("sampler.kind", default=REQUIRED, choices=SAMPLERS)
    n_particles = r.get("sampler.n_particles", as_int, REQUIRED)
    n_iters = r.get("sampler.n_iters", as_int, REQUIRED)
    metric_every = r.get("sampler.metric_every", as_int, 10)

    target = _build(r, "target", TARGETS, TARGET_SHARED)
    stepper = _build(r, "stepper", (partial(sampler_stepper, sampler), STEPPER))
    kernel = _build(r, "kernel", (KernelConfig, KERNEL))
    mollifier = _build(r, "mollifier", (MollifierConfig, MOLLIFIER))
    spectral_terms = r.get("spectral.terms", as_int, 30)
    # the target's domain says which init keys to read
    init = _build(r, "init", INITS[target.domain] if target is not None else None)

    metric_names = tuple(n.strip() for n in r.get("metrics.names", default="").split(",")
                         if n.strip() not in ("", "none"))
    problems += [f"metrics.names: unknown metric {name!r} (choices: {', '.join(METRIC_NAMES)})"
                 for name in metric_names if name not in METRIC_NAMES]
    gt_n = r.at_least(r.get("metrics.ground_truth_n", as_int, 1000),
                      "metrics.ground_truth_n", 1)

    # run_sweep reads the grid and the coin stepper; they are checked here
    sweep_metric = (_build(r, "sweep", (dict, SWEEP)) or {}).get("metric")

    r.leftover_check()

    # the ksd metric reads dual scores: projected samplers have none, nor has MIED's box map
    if sampler is not None and sampler not in MIRRORED_SAMPLERS:
        for key, names in (("metrics.names", metric_names), ("sweep.metric", (sweep_metric,))):
            if "ksd" in names:
                problems.append(f"{key}: ksd needs a mirrored sampler")

    if "energy" in metric_names and target is not None and target.no_ground_truth:
        problems.append(f"energy metric unavailable ({target.no_ground_truth})")
    problems += check_run(target, sampler, stepper, init, seed=seed,
                          n_particles=n_particles, n_iters=n_iters,
                          metric_every=metric_every, spectral_terms=spectral_terms)

    if problems:
        raise ConfigError(problems)

    return RunPlan(
        raw=dict(raw), seed=seed, sampler=sampler, n_particles=n_particles,
        n_iters=n_iters, metric_every=metric_every, target=target,
        stepper=stepper, kernel=kernel, mollifier=mollifier,
        spectral_terms=spectral_terms, init=init, metric_names=metric_names,
        gt_n=gt_n, sweep_metric=sweep_metric,
    )


# ---------------------------------------------------------------------------
# execution


def _metric(plan: RunPlan, name: str):
    """The metric ``name`` of a plan as a callable (x_cloud, y_cloud) -> float."""
    if name == "energy":
        ref = plan.target.sample_ground_truth(plan.gt_n, substream(plan.seed, "ground_truth"))
        distance = metrics_mod.energy_distance_to(ref)
        return lambda x, y: distance(x)
    if name == "ksd":
        md, kc = mirrored_density(plan.target), plan.kernel
        return lambda x, y: metrics_mod.ksd_vstat(y, md, kc)
    return lambda x, y: float(x[:, 0].mean())


def execute_plan(plan: RunPlan, hooks=None):
    if hooks is None:
        hooks = {name: _metric(plan, name)
                 for name in METRIC_NAMES if name in plan.metric_names}
    return run_sampler(
        target=plan.target, sampler=plan.sampler,
        n_particles=plan.n_particles, n_iters=plan.n_iters, seed=plan.seed,
        stepper=plan.stepper, kernel=plan.kernel, mollifier=plan.mollifier,
        spectral_terms=plan.spectral_terms, init=plan.init,
        metric_every=plan.metric_every, hooks=hooks)


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(value: float) -> str:
    return "%.17g" % value


def write_particles_csv(path: str, x: np.ndarray) -> None:
    x = np.atleast_2d(x)
    d = x.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
        for row in x:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def read_particles_csv(path: str) -> np.ndarray:
    """The particles in ``path``, whose first line must be the header
    ``x1,...,xd`` naming one column per value of each row."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        x = np.loadtxt(f, delimiter=",", ndmin=2)
    names = header.split(",")
    if names != [f"x{i + 1}" for i in range(len(names))]:
        raise ValueError(f"line 1 must be the header x1,...,xd, got {header!r}")
    if x.shape[0] and x.shape[1] != len(names):
        raise ValueError(f"the header names {len(names)} columns, "
                         f"the rows hold {x.shape[1]}")
    return x


def write_trace_csv(path: str, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("iteration,metric,value\n")
        for it, name, value, _ms in trace:
            f.write(f"{it},{name},{_fmt(value)}\n")


def write_sweep_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("sampler,lr,seed,final_metric\n")
        for sampler, lr, seed, metric in rows:
            lr_s = "NA" if lr is None else _fmt(lr)
            f.write(f"{sampler},{lr_s},{seed},{_fmt(metric)}\n")


def write_meta_json(path: str, meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# commands (shared by the CLI and tests)


def run_sample(raw: dict, out_dir: str) -> RunPlan:
    plan = build_plan(raw)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    record = execute_plan(plan)
    elapsed = time.perf_counter() - t0
    moments = metrics_mod.summary_moments(record.x_final)
    write_particles_csv(os.path.join(out_dir, "particles_final.csv"),
                        record.x_final)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), record.trace)
    write_meta_json(os.path.join(out_dir, "meta.json"), {
        "command": "sample",
        "config": plan.raw,
        "sampler": plan.sampler,
        "seed": plan.seed,
        "n_particles": plan.n_particles,
        "n_iters": plan.n_iters,
        "moments": {"mean": moments["mean"].tolist(),
                    "var": moments["var"].tolist()},
        "elapsed_seconds": elapsed,
    })
    return plan


def _sweep_job(plan: RunPlan) -> float:
    record = execute_plan(plan, hooks={})
    return _metric(plan, plan.sweep_metric)(record.x_final, record.y_final)


def _pooled_sweep_job(plan: RunPlan):
    """_sweep_job in a pool worker, with the warnings it raised, which the
    caller raises again so that they meet its filters as its own do."""
    with warnings.catch_warnings(record=True) as caught:
        value = _sweep_job(plan)
    return value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_sweep(raw: dict, out_dir: str, max_workers=None) -> list:
    problems = []
    r = _Reader(raw, problems)
    lrs, seeds, coin_stepper = (r.get(f"sweep.{key}", *SWEEP[key])
                                for key in ("lrs", "seeds", "coin_stepper"))
    if lrs == []:
        problems.append("sweep needs sweep.lrs in the config or --lrs")
    if seeds == []:
        problems.append("sweep needs sweep.seeds in the config or --seeds")
    sampler = raw.get("sampler.kind")
    twin = None
    if sampler in SAMPLERS:  # build_plan reports a missing or unknown one
        if sampler.startswith("coin_"):
            problems.append("sweep wants the gradient sampler; its coin twin "
                            "runs automatically")
        else:
            try:
                twin = coin_twin(sampler)
            except ConfigError as exc:
                problems.extend(exc.violations)

    # Every job (each lr per seed, then the coin twin) is planned, and so
    # checked, before any job runs.  Without seeds the config's own seed
    # stands in, so the rest of the config is still checked.  A change to
    # None drops the key.
    changes = []
    for seed in seeds or [raw.get("seed", "0")]:
        changes += [{"seed": str(seed), "stepper.lr": repr(float(lr))} for lr in lrs or []]
        if twin:  # without sweep.coin_stepper the twin takes its default stepper
            changes.append({"seed": str(seed), "sampler.kind": twin,
                            "stepper.kind": coin_stepper, "stepper.lr": None})
    plans = []
    for change in changes:
        job = {k: v for k, v in {**raw, **change}.items() if v is not None}
        try:
            plans.append(build_plan(job))
        except ConfigError as exc:
            problems.extend(exc.violations)
    # every job shares the target and the metric
    if plans and plans[0].sweep_metric == "energy" and plans[0].target.no_ground_truth:
        problems.append(f"energy metric unavailable ({plans[0].target.no_ground_truth})")
    if problems:
        raise ConfigError(list(dict.fromkeys(problems)))

    if max_workers is None:
        max_workers = os.cpu_count() or 1
    # the fork start method starts every worker up front, busy or not
    max_workers = min(max_workers, len(plans))
    if max_workers <= 1:
        results = [_sweep_job(p) for p in plans]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            done = list(pool.map(_pooled_sweep_job, plans))
        for _, caught in done:
            for warning in caught:
                warnings.warn_explicit(*warning)
        results = [value for value, _ in done]

    rows = [(p.sampler, p.stepper.lr, p.seed, value) for p, value in zip(plans, results)]
    os.makedirs(out_dir, exist_ok=True)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows)
    write_meta_json(os.path.join(out_dir, "meta.json"), {
        "command": "sweep",
        "config": dict(raw),
        "lrs": [float(v) for v in lrs],
        "seeds": [int(s) for s in seeds],
        "metric": plans[0].sweep_metric,
    })
    return rows


def build_target_only(raw: dict, n: int | None = None):
    """Build just the target (plus the config seed) from a raw config.  With
    ``n``, the size of a draw from its ground truth, also check that size
    and that the target has a ground truth.

    Other sections are left alone so any sampler config can double as a
    ground-truth config; a ``target.*`` key the kind does not read is unknown.
    """
    problems: list = []
    r = _Reader(raw, problems)
    seed = r.at_least(r.get("seed", as_int, 0), "seed", 0)
    r.at_least(n, "--n", 1)
    target = _build(r, "target", TARGETS, TARGET_SHARED)
    r.leftover_check("target.")
    if n is not None and target is not None and target.no_ground_truth:
        problems.append(f"ground truth unsupported: {target.no_ground_truth}")
    if problems:
        raise ConfigError(problems)
    return target, seed


def run_ground_truth(raw: dict, out_dir: str, n: int) -> np.ndarray:
    target, seed = build_target_only(raw, n)
    samples = target.sample_ground_truth(n, substream(seed, "ground_truth"))
    os.makedirs(out_dir, exist_ok=True)
    write_particles_csv(os.path.join(out_dir, "ground_truth.csv"), samples)
    write_meta_json(os.path.join(out_dir, "meta.json"), {
        "command": "ground-truth",
        "config": dict(raw),
        "n": int(n),
        "seed": int(seed),
    })
    return samples


def _read_cloud(path: str, problems: list):
    """The particle cloud in ``path``, or None with the reason logged."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: logged below
            cloud = read_particles_csv(path)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path!r}: {exc}")
        return None
    if cloud.shape[0] == 0:
        problems.append(f"{path!r} holds no particle rows")
    elif not np.all(np.isfinite(cloud)):
        problems.append(f"{path!r} holds non-finite values")
    else:
        return cloud
    return None


def run_metrics(cloud_path: str, ref_path: str) -> dict:
    problems: list = []
    cloud = _read_cloud(cloud_path, problems)
    ref = _read_cloud(ref_path, problems)
    if cloud is not None and ref is not None and cloud.shape[1] != ref.shape[1]:
        problems.append(f"cloud has dimension {cloud.shape[1]}, "
                        f"reference has {ref.shape[1]}")
    if problems:
        raise ConfigError(problems)
    mc = metrics_mod.summary_moments(cloud)
    mr = metrics_mod.summary_moments(ref)
    return {
        "energy_distance": metrics_mod.energy_distance(cloud, ref),
        "cloud_moments": {"mean": mc["mean"].tolist(), "var": mc["var"].tolist()},
        "ref_moments": {"mean": mr["mean"].tolist(), "var": mr["var"].tolist()},
        "n_cloud": int(cloud.shape[0]),
        "n_ref": int(ref.shape[0]),
    }
