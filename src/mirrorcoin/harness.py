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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from .errors import ConfigError, Unsupported
from .geometry import make_map
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
    coin_twin,
    run_sampler,
)
from .targets import (
    ExpOrthant,
    LogNormalOrthant,
    MirroredDensity,
    QuadraticSimplex,
    SelectiveLasso,
    SparseDirichlet,
    UniformBox,
)

METRIC_NAMES = ("energy", "ksd", "mean_x1")
TARGET_KINDS = ("sparse_dirichlet", "quadratic_simplex", "uniform_box",
                "exp_orthant", "lognormal_orthant", "selective_lasso")


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


def _to_int(value: str, key: str, problems: list):
    try:
        return int(value)
    except ValueError:
        problems.append(f"{key}: expected an integer, got {value!r}")
        return None


def _to_float(value: str, key: str, problems: list):
    try:
        return float(value)
    except ValueError:
        problems.append(f"{key}: expected a number, got {value!r}")
        return None


def _to_bool(value: str, key: str, problems: list):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    problems.append(f"{key}: expected true or false, got {value!r}")
    return None


def _to_floats(value: str, key: str, problems: list):
    try:
        return [float(v) for v in value.split(",") if v.strip() != ""]
    except ValueError:
        problems.append(f"{key}: expected comma-separated numbers, got {value!r}")
        return None


def _to_ints(value: str, key: str, problems: list):
    try:
        return [int(v) for v in value.split(",") if v.strip() != ""]
    except ValueError:
        problems.append(f"{key}: expected comma-separated integers, got {value!r}")
        return None


class _Reader:
    """Pops typed values out of the raw dict, logging problems as it goes."""

    def __init__(self, raw: dict, problems: list):
        self.raw = dict(raw)
        self.problems = problems

    def str_(self, key, default=None, choices=None):
        value = self.raw.pop(key, None)
        if value is None:
            return default
        if choices is not None and value not in choices:
            self.problems.append(
                f"{key}: expected one of {', '.join(choices)}, got {value!r}"
            )
            return default
        return value

    def int_(self, key, default=None):
        value = self.raw.pop(key, None)
        return default if value is None else _to_int(value, key, self.problems)

    def float_(self, key, default=None):
        value = self.raw.pop(key, None)
        return default if value is None else _to_float(value, key, self.problems)

    def bool_(self, key, default=None):
        value = self.raw.pop(key, None)
        return default if value is None else _to_bool(value, key, self.problems)

    def floats(self, key, default=None):
        value = self.raw.pop(key, None)
        return default if value is None else _to_floats(value, key, self.problems)

    def ints(self, key, default=None):
        value = self.raw.pop(key, None)
        return default if value is None else _to_ints(value, key, self.problems)

    def require(self, got, key):
        if got is None:
            self.problems.append(f"{key} is required")
        return got

    def leftover_check(self):
        for key in sorted(self.raw):
            self.problems.append(f"unknown key {key!r}")


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
    mmap: object | None
    stepper: StepperConfig | None
    kernel: KernelConfig
    mollifier: MollifierConfig
    spectral_terms: int
    init: InitSpec | None
    metric_names: tuple
    gt_n: int
    sweep_lrs: list = field(default_factory=list)
    sweep_seeds: list = field(default_factory=list)
    sweep_metric: str = "energy"
    sweep_coin_stepper: str = "coin_adaptive"


def _build_target(r: _Reader):
    kind = r.str_("target.kind", choices=TARGET_KINDS)
    r.require(kind, "target.kind")
    if kind is None:
        # drain the section so its keys do not double-report as unknown
        for key in [k for k in r.raw if k.startswith("target.")]:
            r.raw.pop(key)
        return None
    tseed = r.int_("target.seed", 0)
    try:
        if kind == "sparse_dirichlet":
            counts = r.floats("target.counts")
            r.require(counts, "target.counts")
            alpha = r.floats("target.alpha", [1.0])
            d = r.int_("target.d")
            if counts is None or alpha is None:
                return None
            if d is not None and d != len(counts) - 1:
                r.problems.append(
                    "target.d must equal len(target.counts) - 1 when both are given"
                )
                return None
            a = alpha[0] if len(alpha) == 1 else np.asarray(alpha)
            return SparseDirichlet(alpha=a, counts=np.asarray(counts))
        if kind == "quadratic_simplex":
            d = r.require(r.int_("target.d"), "target.d")
            sigma = r.float_("target.sigma", 1.0)
            if d is None or sigma is None:
                return None
            return QuadraticSimplex.random_instance(
                d, sigma, substream(tseed, "target_synth"))
        if kind == "uniform_box":
            d = r.require(r.int_("target.d"), "target.d")
            lo = r.floats("target.lo", [0.0])
            hi = r.floats("target.hi", [1.0])
            if d is None or lo is None or hi is None:
                return None
            lo = np.full(d, lo[0]) if len(lo) == 1 else np.asarray(lo)
            hi = np.full(d, hi[0]) if len(hi) == 1 else np.asarray(hi)
            if lo.shape != (d,) or hi.shape != (d,):
                r.problems.append("target.lo / target.hi must be scalars or length-d lists")
                return None
            return UniformBox(lo, hi)
        if kind == "exp_orthant":
            d = r.require(r.int_("target.d"), "target.d")
            rate = r.float_("target.rate", 1.0)
            if d is None or rate is None:
                return None
            return ExpOrthant(d, rate=rate)
        if kind == "lognormal_orthant":
            d = r.require(r.int_("target.d"), "target.d")
            mu = r.float_("target.mu", 0.0)
            sigma = r.float_("target.sigma", 1.0)
            if d is None or mu is None or sigma is None:
                return None
            return LogNormalOrthant(d, mu=mu, sigma=sigma)
        if kind == "selective_lasso":
            n = r.require(r.int_("target.n"), "target.n")
            p = r.require(r.int_("target.p"), "target.p")
            q = r.require(r.int_("target.q"), "target.q")
            lam = r.float_("target.lam", 2.0)
            tau = r.float_("target.tau", 1.0)
            eps_ridge = r.float_("target.eps_ridge", 1.0)
            if None in (n, p, q, lam, tau, eps_ridge):
                return None
            return SelectiveLasso.synthetic(
                substream(tseed, "target_synth"), n=n, p=p, q=q,
                lam=lam, tau=tau, eps_ridge=eps_ridge)
    except (ValueError, ConfigError) as exc:
        r.problems.append(f"target: {exc}")
        return None
    return None


def _build_stepper(r: _Reader, sampler):
    kind = r.str_("stepper.kind", choices=GRAD_STEPPERS + COIN_STEPPERS)
    lr = r.float_("stepper.lr")
    guard = r.bool_("stepper.guard", False)
    if kind is None:
        if sampler is None:
            return None
        if sampler.startswith("coin_"):
            kind = "coin_adaptive"
        elif sampler == "mla":
            kind = "fixed_lr"
        else:
            kind = "rmsprop"
    try:
        return StepperConfig(kind, lr=lr, guard=bool(guard))
    except ConfigError as exc:
        r.problems.extend(f"stepper: {v}" for v in exc.violations)
        return None


def build_plan(raw: dict) -> RunPlan:
    problems: list = []
    r = _Reader(raw, problems)

    seed = r.int_("seed", 0)
    sampler = r.str_("sampler.kind", choices=SAMPLERS)
    r.require(sampler, "sampler.kind")
    n_particles = r.require(r.int_("sampler.n_particles"), "sampler.n_particles")
    n_iters = r.require(r.int_("sampler.n_iters"), "sampler.n_iters")
    metric_every = r.int_("sampler.metric_every", 10)

    target = _build_target(r)
    if target is None and not problems:
        problems.append("target could not be built")

    stepper = _build_stepper(r, sampler)

    family = r.str_("kernel.family", "imq", choices=FAMILIES)
    bw_raw = r.raw.pop("kernel.bandwidth", "median")
    bandwidth = bw_raw if bw_raw == "median" else _to_float(
        bw_raw, "kernel.bandwidth", problems)
    kernel = KernelConfig()
    if bandwidth is not None and family is not None:
        try:
            kernel = KernelConfig(family=family, bandwidth=bandwidth)
        except ConfigError as exc:
            problems.extend(f"kernel: {v}" for v in exc.violations)

    mollifier = MollifierConfig()
    mkind = r.str_("mollifier.kind", "riesz", choices=MOLLIFIERS)
    meps = r.float_("mollifier.eps", 1e-8)
    ms = r.float_("mollifier.s")
    if mkind is not None and meps is not None:
        try:
            mollifier = MollifierConfig(kind=mkind, eps=meps, s=ms)
        except ConfigError as exc:
            problems.extend(f"mollifier: {v}" for v in exc.violations)

    spectral_terms = r.int_("spectral.terms", 30)
    if spectral_terms is not None and spectral_terms < 1:
        problems.append("spectral.terms must be >= 1")

    # read only the init.* keys the init kind uses; the rest are unknown keys
    init = None
    ikind = r.str_("init.kind", None, choices=tuple(INIT_PARAMS))
    if ikind is not None:
        params = {p: r.float_(f"init.{p}") for p in INIT_PARAMS[ikind]}
        init = InitSpec(ikind, **{p: v for p, v in params.items() if v is not None})

    names_raw = r.str_("metrics.names", "")
    metric_names = tuple(
        n.strip() for n in names_raw.split(",") if n.strip() and n.strip() != "none"
    )
    for name in metric_names:
        if name not in METRIC_NAMES:
            problems.append(
                f"metrics.names: unknown metric {name!r} "
                f"(choices: {', '.join(METRIC_NAMES)})"
            )
    gt_n = r.int_("metrics.ground_truth_n", 1000)

    sweep_lrs = r.floats("sweep.lrs", [])
    sweep_seeds = r.ints("sweep.seeds", [])
    sweep_metric = r.str_("sweep.metric", "energy", choices=("energy", "ksd"))
    sweep_coin = r.str_("sweep.coin_stepper", "coin_adaptive", choices=COIN_STEPPERS)

    r.leftover_check()

    # cross-field checks that need the target in hand
    mmap = None
    if target is not None:
        mmap = make_map(target.domain, target.d)
        if "ksd" in metric_names and (sampler not in MIRRORED_SAMPLERS or mmap is None):
            problems.append("metrics.names: ksd needs a mirrored sampler")

    if n_particles is not None and n_particles < 1:
        problems.append("sampler.n_particles must be >= 1")
    if n_iters is not None and n_iters < 0:
        problems.append("sampler.n_iters must be >= 0")
    if metric_every is not None and metric_every < 1:
        problems.append("sampler.metric_every must be >= 1")

    if problems:
        raise ConfigError(problems)

    return RunPlan(
        raw=dict(raw), seed=seed, sampler=sampler, n_particles=n_particles,
        n_iters=n_iters, metric_every=metric_every, target=target, mmap=mmap,
        stepper=stepper, kernel=kernel, mollifier=mollifier,
        spectral_terms=spectral_terms, init=init, metric_names=metric_names,
        gt_n=gt_n, sweep_lrs=sweep_lrs or [], sweep_seeds=sweep_seeds or [],
        sweep_metric=sweep_metric, sweep_coin_stepper=sweep_coin,
    )


# ---------------------------------------------------------------------------
# execution


def _build_hooks(plan: RunPlan):
    hooks = {}
    problems = []
    if "energy" in plan.metric_names:
        try:
            ref = plan.target.sample_ground_truth(
                plan.gt_n, substream(plan.seed, "ground_truth"))
        except Unsupported as exc:
            problems.append(f"metrics.names: energy unavailable ({exc})")
        else:
            hooks["energy"] = lambda x, y: metrics_mod.energy_distance(x, ref)
    if "ksd" in plan.metric_names:
        md = MirroredDensity(plan.target, plan.mmap)
        kc = plan.kernel
        hooks["ksd"] = lambda x, y: metrics_mod.ksd_vstat(y, md, kc)
    if "mean_x1" in plan.metric_names:
        hooks["mean_x1"] = lambda x, y: float(x[:, 0].mean())
    if problems:
        raise ConfigError(problems)
    return hooks


def execute_plan(plan: RunPlan, hooks=None):
    hooks = _build_hooks(plan) if hooks is None else hooks
    return run_sampler(
        target=plan.target, sampler=plan.sampler,
        n_particles=plan.n_particles, n_iters=plan.n_iters, seed=plan.seed,
        stepper=plan.stepper, kernel=plan.kernel, mollifier=plan.mollifier,
        spectral_terms=plan.spectral_terms, init=plan.init,
        metric_every=plan.metric_every, hooks=hooks)


def final_metric(plan: RunPlan, record) -> float:
    if plan.sweep_metric == "energy":
        ref = plan.target.sample_ground_truth(
            plan.gt_n, substream(plan.seed, "ground_truth"))
        return metrics_mod.energy_distance(record.x_final, ref)
    md = MirroredDensity(plan.target, plan.mmap)
    return metrics_mod.ksd_vstat(record.y_final, md, plan.kernel)


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
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


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


def _sweep_raws(raw: dict, lrs, seeds, coin_stepper: str):
    """One raw config per job: every lr per seed, then the coin twin."""
    base_sampler = raw["sampler.kind"]
    twin = coin_twin(base_sampler)
    jobs = []
    for seed in seeds:
        for lr in lrs:
            job = dict(raw)
            job["seed"] = str(seed)
            job["stepper.lr"] = repr(float(lr))
            jobs.append(((base_sampler, float(lr), seed), job))
        job = dict(raw)
        job["seed"] = str(seed)
        job["sampler.kind"] = twin
        job["stepper.kind"] = coin_stepper
        job.pop("stepper.lr", None)
        jobs.append(((twin, None, seed), job))
    return jobs


def _sweep_job(job_raw: dict) -> float:
    plan = build_plan(job_raw)
    record = execute_plan(plan, hooks={})
    return final_metric(plan, record)


def run_sweep(raw: dict, out_dir: str, lrs=None, seeds=None,
              max_workers=None) -> list:
    # probe the config before any work; the lr comes from the grid, so feed
    # a placeholder when the stepper would otherwise demand one
    probe_raw = dict(raw)
    if "stepper.lr" not in probe_raw and raw.get("stepper.kind") not in COIN_STEPPERS:
        probe_raw["stepper.lr"] = "0.1"
    probe = build_plan(probe_raw)
    lrs = list(lrs) if lrs else list(probe.sweep_lrs)
    seeds = list(seeds) if seeds else list(probe.sweep_seeds)
    problems = []
    if not lrs:
        problems.append("sweep needs sweep.lrs in the config or --lrs")
    if not seeds:
        problems.append("sweep needs sweep.seeds in the config or --seeds")
    if probe.sampler.startswith("coin_"):
        problems.append("sweep wants the gradient sampler; its coin twin "
                        "runs automatically")
    if probe.stepper is not None and probe.stepper.kind not in GRAD_STEPPERS:
        problems.append("sweep requires a gradient stepper kind")
    if probe.sweep_metric == "ksd" and probe.mmap is None:
        problems.append("sweep.metric ksd needs a mirrored sampler")
    if problems:
        raise ConfigError(problems)

    jobs = _sweep_raws(raw, lrs, seeds, probe.sweep_coin_stepper)
    job_raws = [j[1] for j in jobs]
    if max_workers is None:
        max_workers = min(len(jobs), os.cpu_count() or 1)
    if max_workers <= 1:
        results = [_sweep_job(j) for j in job_raws]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_sweep_job, job_raws))

    rows = [(key[0], key[1], key[2], value)
            for (key, _), value in zip(jobs, results)]
    os.makedirs(out_dir, exist_ok=True)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows)
    write_meta_json(os.path.join(out_dir, "meta.json"), {
        "command": "sweep",
        "config": dict(raw),
        "lrs": [float(v) for v in lrs],
        "seeds": [int(s) for s in seeds],
        "metric": probe.sweep_metric,
    })
    return rows


def build_target_only(raw: dict):
    """Build just the target (plus the config seed) from a raw config.

    Other sections are left alone so any sampler config can double as a
    ground-truth config.
    """
    problems: list = []
    r = _Reader(raw, problems)
    seed = r.int_("seed", 0)
    target = _build_target(r)
    if target is None and not problems:
        problems.append("target could not be built")
    if problems:
        raise ConfigError(problems)
    return target, seed


def run_ground_truth(raw: dict, out_dir: str, n: int, seed=None) -> np.ndarray:
    target, cfg_seed = build_target_only(raw)
    use_seed = cfg_seed if seed is None else seed
    samples = target.sample_ground_truth(
        n, substream(use_seed, "ground_truth"))
    os.makedirs(out_dir, exist_ok=True)
    write_particles_csv(os.path.join(out_dir, "ground_truth.csv"), samples)
    write_meta_json(os.path.join(out_dir, "meta.json"), {
        "command": "ground-truth",
        "config": dict(raw),
        "n": int(n),
        "seed": int(use_seed),
    })
    return samples


def run_metrics(cloud_path: str, ref_path: str) -> dict:
    cloud = read_particles_csv(cloud_path)
    ref = read_particles_csv(ref_path)
    mc = metrics_mod.summary_moments(cloud)
    mr = metrics_mod.summary_moments(ref)
    return {
        "energy_distance": metrics_mod.energy_distance(cloud, ref),
        "cloud_moments": {"mean": mc["mean"].tolist(), "var": mc["var"].tolist()},
        "ref_moments": {"mean": mr["mean"].tolist(), "var": mr["var"].tolist()},
        "n_cloud": int(cloud.shape[0]),
        "n_ref": int(ref.shape[0]),
    }
