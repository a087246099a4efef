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

import inspect
import json
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import cores
from . import metrics as metrics_mod
from .errors import ConfigError
from .geometry import MAX_COUNT
from .kernels import KernelConfig
from .mied import MollifierConfig
from .rng import substream
from .samplers import (
    GRAD_STEPPERS,
    INIT_PARAMS,
    MIRRORED_SAMPLERS,
    SAMPLERS,
    InitSpec,
    Run,
    StepperConfig,
    check_run,
    max_stack,
    mirrored_density,
    run_sampler,
    run_stack,
    sampler_stepper,
    stepper_kinds,
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


as_int = _converter(int, "an integer")
as_float = _converter(float, "a number")
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
            value = conv(str(text))  # a library caller may give a flag as a number
        except ValueError as exc:
            self.problems.append(f"{key}: {exc}")
            return None
        if choices is not None and value not in choices:
            self.problems.append(f"{key}: expected one of {', '.join(choices)}, got {value!r}")
            return None
        return value

    def within(self, got, key, low, high=None):
        if got is not None and got < low:
            self.problems.append(f"{key} must be >= {low}")
        elif got is not None and high is not None and got > high:
            self.problems.append(f"{key} must be <= {high}")
        return got

    def leftover_check(self, prefix=""):
        for key in sorted(k for k in self.raw if k.startswith(prefix)):
            self.problems.append(f"unknown key {key!r}")


# The keys of each section, as key -> converter.  A section with kinds maps
# each ``<section>.kind`` to its constructor and keys.
TARGETS = {
    "sparse_dirichlet": (SparseDirichlet.from_config, {
        "counts": as_floats, "alpha": as_floats, "d": as_int}),
    "quadratic_simplex": (QuadraticSimplex.from_config, {
        "d": as_int, "sigma": as_float, "seed": as_int}),
    "uniform_box": (UniformBox.from_config, {"d": as_int, "lo": as_floats, "hi": as_floats}),
    "exp_orthant": (ExpOrthant, {"d": as_int, "rate": as_float}),
    "lognormal_orthant": (LogNormalOrthant, {"d": as_int, "mu": as_float, "sigma": as_float}),
    "selective_lasso": (SelectiveLasso.from_config, {
        "n": as_int, "p": as_int, "q": as_int, "lam": as_float, "tau": as_float,
        "eps_ridge": as_float, "seed": as_int}),
}
# every kind takes target.seed; it draws the instance of a synthetic kind
TARGET_SHARED = {"seed": as_int}
STEPPER = {"kind": str, "lr": as_float}
KERNEL = {"family": str, "bandwidth": lambda text: text if text == "median" else as_float(text)}
MOLLIFIER = {"kind": str, "eps": as_float, "s": as_float}
SWEEP = {"lrs": as_floats, "seeds": as_ints}
# run_sampler's parameters; a run key a config leaves out takes its default
RUN = inspect.signature(run_sampler).parameters


def _build(r: _Reader, section: str, table, shared=None):
    """The object the ``<section>.*`` keys describe, or None (with the
    problems logged) when a key is missing or does not parse, or the
    constructor refuses the values.  The constructor runs on the keys that
    parse whenever every required key does, so its refusals are reported
    beside the parse problems.

    ``table`` is (constructor, converters) or, for a section with kinds, a
    dict from the required ``<section>.kind`` to such a pair.  ``table``
    None (the section cannot be read, as after a missing or invalid kind)
    drains the section.  Only the keys given are passed, so the constructor
    supplies every default and refuses every value; a key is required where
    its parameter has no default.  ``shared`` keys are read and checked for
    every kind, and passed only where the kind's converters name them too.
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
    required = [k for k, p in inspect.signature(make).parameters.items() if p.default is p.empty]
    values = {key: r.get(f"{section}.{key}", conv, REQUIRED if key in required else None)
              for key, conv in params.items()}
    for key, conv in (shared or {}).items():
        r.get(f"{section}.{key}", conv)
    parsed = len(r.problems) == logged
    if any(values[key] is None for key in params if key in required):
        return None
    try:
        # a value read is never None, so None marks a key left out or unparsed
        made = make(**{key: value for key, value in values.items() if value is not None})
    except ValueError as exc:
        r.problems.extend(f"{section}: {v}" for v in getattr(exc, "violations", [exc]))
        return None
    return made if parsed else None


# ---------------------------------------------------------------------------
# plan building


@dataclass
class RunPlan:
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
    sweep_metric: str
    lrs: list
    seeds: list
    workers: int | None
    runs: list


# the samplers a sweep takes: those with a coin twin, coin_<sampler>
SWEPT = tuple(s for s in SAMPLERS if "coin_" + s in SAMPLERS)


def build_plan(raw: dict, sweep=False) -> RunPlan:
    """The plan of the sample ``raw`` describes, its config's own Run, or with
    ``sweep`` of its sweep, the Runs of its grid, in one pass; a sweep's pool
    size is ``raw``'s ``--workers``, a number or the flag's text."""
    problems: list = []
    r = _Reader(raw, problems)

    seed = r.get("seed", as_int, 0)
    sampler = r.get("sampler.kind", default=REQUIRED)
    n_particles = r.get("sampler.n_particles", as_int, REQUIRED)
    n_iters = r.get("sampler.n_iters", as_int, REQUIRED)
    metric_every = r.get("sampler.metric_every", as_int, RUN["metric_every"].default)

    # a sample reads the grid too, so that one config serves both commands
    lrs, seeds = (r.get(f"sweep.{key}", conv, []) for key, conv in SWEEP.items())
    workers = r.get("--workers", as_int, cores.usable_cores()) if sweep else None
    if sweep:
        problems += [f"sweep needs sweep.{key} in the config or --{key}"
                     for key, got in (("lrs", lrs), ("seeds", seeds)) if got == []]
        # the grid sets each job's lr, replacing a gradient stepper's stand-in
        if r.raw.pop("stepper.lr", None) is not None:
            problems.append("stepper.lr: a sweep's grid (sweep.lrs or --lrs) sets each "
                            "job's rate; remove it")
        if (r.raw.get("stepper.kind") or stepper_kinds(str(sampler))[0]) in GRAD_STEPPERS:
            r.raw["stepper.lr"] = "1.0"
        if sampler in SAMPLERS and sampler not in SWEPT:
            problems.append(f"sweep takes a sampler with a coin twin ({', '.join(SWEPT)}), "
                            f"got {sampler!r}")

    target = _build(r, "target", TARGETS, TARGET_SHARED)
    stepper = _build(r, "stepper", (partial(sampler_stepper, sampler), STEPPER))
    kernel = _build(r, "kernel", (KernelConfig, KERNEL))
    mollifier = _build(r, "mollifier", (MollifierConfig, MOLLIFIER))
    spectral_terms = r.get("spectral.terms", as_int, RUN["spectral_terms"].default)
    # the target's domain says which init keys to read
    init = _build(r, "init", None if target is None else
                  (InitSpec, dict.fromkeys(INIT_PARAMS[target.domain], as_float)))

    metric_names = tuple(n.strip() for n in r.get("metrics.names", default="").split(",")
                         if n.strip() not in ("", "none"))
    problems += [f"metrics.names: unknown metric {name!r} (choices: {', '.join(METRIC_NAMES)})"
                 for name in metric_names if name not in METRIC_NAMES]
    gt_n = r.within(r.get("metrics.ground_truth_n", as_int, 1000),
                    "metrics.ground_truth_n", 1, MAX_COUNT)
    sweep_metric = r.get("sweep.metric", default="energy", choices=("energy", "ksd"))

    r.leftover_check()

    # the ksd metric reads dual scores: projected samplers have none, nor has MIED's box map
    if sampler in SAMPLERS and sampler not in MIRRORED_SAMPLERS:
        for key, names in (("metrics.names", metric_names), ("sweep.metric", (sweep_metric,))):
            if "ksd" in names:
                problems.append(f"{key}: ksd needs a mirrored sampler")
    # the energy metric, of a sample's trace or a sweep's rows, draws from the ground truth
    if ("energy" in metric_names or sweep and sweep_metric == "energy") and (
            target is not None and target.no_ground_truth):
        problems.append(f"energy metric unavailable ({target.no_ground_truth})")

    # A sweep's jobs are, per seed, the sampler at each lr of the grid (replace
    # re-runs StepperConfig's checks; a stepper without the stand-in lr stays
    # as it is), then the coin twin with its default stepper.
    own = Run(sampler, seed, stepper)
    runs = [own]
    if sweep and sampler in SWEPT:
        twin, runs = "coin_" + sampler, []
        for s in seeds or ():
            for lr in lrs or ():
                try:
                    job = replace(stepper, lr=lr) if stepper and stepper.lr else stepper
                except ConfigError as exc:
                    problems.extend(f"stepper: {v}" for v in exc.violations)
                    continue
                runs.append(Run(sampler, s, job, f"{sampler} (lr {lr}, seed {s})"))
            runs.append(Run(twin, s, sampler_stepper(twin), f"{twin} (lr NA, seed {s})"))
    # the config's own Run is checked in a sweep too, its seed among the rest
    for run in dict.fromkeys([own, *runs]):
        problems += check_run(target, run.sampler, run.stepper, init, seed=run.seed,
                              n_particles=n_particles, n_iters=n_iters,
                              metric_every=metric_every, spectral_terms=spectral_terms)

    if problems:
        raise ConfigError(list(dict.fromkeys(problems)))

    return RunPlan(
        seed=seed, sampler=sampler, n_particles=n_particles, n_iters=n_iters,
        metric_every=metric_every, target=target, stepper=stepper, kernel=kernel,
        mollifier=mollifier, spectral_terms=spectral_terms, init=init,
        metric_names=metric_names, gt_n=gt_n, sweep_metric=sweep_metric, lrs=lrs,
        seeds=seeds, workers=workers, runs=runs,
    )


# ---------------------------------------------------------------------------
# execution


def _metric(plan: RunPlan, name: str, seed: int):
    """The metric ``name`` of a plan's run at ``seed``, a callable (x_cloud, y_cloud) -> float."""
    if name == "energy":
        ref = plan.target.sample_ground_truth(plan.gt_n, substream(seed, "ground_truth"))
        distance = metrics_mod.energy_distance_to(ref)
        return lambda x, y: distance(x)
    if name == "ksd":
        md, kc = mirrored_density(plan.target), plan.kernel
        return lambda x, y: metrics_mod.ksd_vstat(y, md, kc)
    return lambda x, y: float(x[:, 0].mean())


def execute_plan(plan: RunPlan):
    hooks = {name: _metric(plan, name, plan.seed) for name in METRIC_NAMES
             if name in plan.metric_names}
    # the plan holds every other argument of the run, by its name
    return run_sampler(**{name: getattr(plan, name) for name in RUN if name != "hooks"},
                       hooks=hooks)


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
        "config": dict(raw),
        "sampler": plan.sampler,
        "seed": plan.seed,
        "n_particles": plan.n_particles,
        "n_iters": plan.n_iters,
        "moments": {"mean": moments["mean"].tolist(),
                    "var": moments["var"].tolist()},
        "elapsed_seconds": elapsed,
    })
    return plan


def _sweep_job(plan: RunPlan, runs: list) -> list:
    """Run a stack of a sweep's jobs, ``runs`` of the sweep's ``plan`` that
    differ only in sampler (one family), seed and stepper, and return each
    job's final metric.  A failure names its job by its Run's name."""
    shared = {name: getattr(plan, name) for name in RUN
              if name not in ("sampler", "seed", "stepper", "hooks")}
    records = run_stack(runs, hooks={}, **shared)
    # the jobs of one seed share their metric (and its ground-truth draw)
    metric = {seed: _metric(plan, plan.sweep_metric, seed)
              for seed in dict.fromkeys(run.seed for run in runs)}
    return [metric[run.seed](r.x_final, r.y_final) for run, r in zip(runs, records)]


def _pooled_sweep_job(plan: RunPlan, runs: list):
    """_sweep_job in a pool worker, with the warnings it raised, which the
    caller raises again so that they meet its filters as its own do."""
    with warnings.catch_warnings(record=True) as caught:
        values = _sweep_job(plan, runs)
    return values, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_sweep(raw: dict, out_dir: str, max_workers=None) -> list:
    # the pool size, a number or the text of --workers, is read with the config
    plan = build_plan({**raw, "--workers": max_workers}, sweep=True)
    os.makedirs(out_dir, exist_ok=True)  # before any job runs, after every check

    # The jobs run in order as min(workers, jobs) contiguous stacks of
    # near-equal size, one per worker, and as more where KSD descent's
    # memory budget caps a stack.  The fork start method starts every
    # worker up front, busy or not, so the pool has no more than stacks.
    runs = plan.runs
    cap = max_stack(plan.sampler, plan.n_particles, plan.target.d)
    n_stacks = max(1, min(plan.workers, len(runs)), math.ceil(len(runs) / cap))
    cuts = [len(runs) * i // n_stacks for i in range(n_stacks + 1)]
    stacks = [runs[a:b] for a, b in zip(cuts, cuts[1:])]
    max_workers = min(plan.workers, n_stacks)
    if max_workers <= 1:
        done = [(_sweep_job(plan, stack), []) for stack in stacks]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            done = list(pool.map(partial(_pooled_sweep_job, plan), stacks))
        for _, caught in done:
            for warning in caught:
                warnings.warn_explicit(*warning)
    results = [value for values, _ in done for value in values]

    rows = [(run.sampler, run.stepper.lr, run.seed, value) for run, value in zip(runs, results)]
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows)
    write_meta_json(os.path.join(out_dir, "meta.json"), {
        "command": "sweep",
        "config": dict(raw),
        "lrs": [float(v) for v in plan.lrs],
        "seeds": [int(s) for s in plan.seeds],
        "metric": plan.sweep_metric,
    })
    return rows


def build_target_only(raw: dict, n=None):
    """Build just the target (plus the config seed) from a raw config.  With
    ``n``, the size of a draw from its ground truth (a number or its text,
    as ``ground-truth --n`` gives it), also check that size and that the
    target has a ground truth.

    Other sections are left alone so any sampler config can double as a
    ground-truth config; a ``target.*`` key the kind does not read is unknown.
    """
    problems: list = []
    r = _Reader({**raw, "--n": n}, problems)
    seed = r.within(r.get("seed", as_int, 0), "seed", 0)
    r.within(r.get("--n", as_int), "--n", 1, MAX_COUNT)
    target = _build(r, "target", TARGETS, TARGET_SHARED)
    r.leftover_check("target.")
    if n is not None and target is not None and target.no_ground_truth:
        problems.append(f"ground truth unsupported: {target.no_ground_truth}")
    if problems:
        raise ConfigError(problems)
    return target, seed


def run_ground_truth(raw: dict, out_dir: str, n) -> np.ndarray:
    target, seed = build_target_only(raw, n)
    samples = target.sample_ground_truth(int(n), substream(seed, "ground_truth"))
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
