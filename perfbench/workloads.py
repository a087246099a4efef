"""The benchmark's workloads: generated configs and output checks.

A workload runs rounds of mirrorcoin CLI commands, each command once per
round, on configs generated from the workload seed.  A command's check
reads its written outputs and returns how many sampler runs it covered
(1 per sample, 12 per sweep), how many of them failed, and informational
values.  Tolerances are the pinned acceptance tolerances of the
repository's criteria 04, 05, 08 and 10.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

DIRICHLET = """\
target.kind = sparse_dirichlet
target.alpha = 0.1
target.counts = 90,5,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
"""
DIR_MEAN1 = 90.1 / 102.1        # posterior mean of x1
ED_TOL = 0.002                  # iters_to_tol accuracy, near the i.i.d. floor
SWEEP_LRS = (1e-4, 1e-3, 1e-2, 1e-1, 5e-1)
SWEEP_RUNS = 2 * (len(SWEEP_LRS) + 1)   # every lr plus the coin twin, two seeds


@dataclass(frozen=True)
class Command:
    name: str
    why: str
    command: str          # "sample" or "sweep"
    config: str           # config text; {seed} and {seed1} are filled in
    outputs: tuple        # files that must repeat byte for byte at one seed
    check: object         # (out_dir, seed) -> Verdict

    def argv(self, config_path: str, out_dir: str) -> list:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        return argv + ["--workers", "2"] if self.command == "sweep" else argv

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed, seed1=seed + 1)

    @property
    def sampler_runs(self) -> int:
        return SWEEP_RUNS if self.command == "sweep" else 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple       # Command, each run once per round in this order


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list
    info: dict


def energy_distance(a, b) -> float:
    """V-statistic energy distance, computed apart from mirrorcoin."""
    return float(2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean())


def _particles(out_dir):
    x = np.loadtxt(os.path.join(out_dir, "particles_final.csv"), delimiter=",",
                   skiprows=1, ndmin=2)
    if not np.all(np.isfinite(x)):
        raise ValueError("particles_final.csv holds non-finite values")
    return x


def _trace(out_dir, metric, n_rows):
    values = {}
    with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8") as f:
        next(f)
        for line in f:
            it, name, value = line.strip().split(",")
            if name == metric:
                values[int(it)] = float(value)
    if len(values) != n_rows or not all(map(math.isfinite, values.values())):
        raise ValueError(f"trace.csv holds {len(values)} {metric} rows, "
                         f"expected {n_rows} finite ones")
    return values


def _verdict(problems, info, attempted=1):
    return Verdict(attempted, attempted if problems else 0, problems, info)


def check_dirichlet_sample(out_dir, seed) -> Verdict:
    x = _particles(out_dir)
    ed = _trace(out_dir, "energy", 501)
    ed_init, ed_final = ed[0], ed[500]
    mean1 = float(x[:, 0].mean())
    crossed = [it for it in sorted(ed) if ed[it] <= ED_TOL]
    info = {"ed_init": ed_init, "ed_final": ed_final, "mean_x1": mean1,
            "iters_to_tol": crossed[0] if crossed else None}
    problems = []
    if x.shape != (50, 20):
        problems.append(f"particles have shape {x.shape}")
    if not (np.all(x > 0.0) and np.all(x.sum(axis=1) < 1.0)):
        problems.append("a particle is not strictly inside the simplex")
    if not ed_final <= 0.05 * ed_init:
        problems.append(f"ed_final {ed_final:.3g} > 0.05 * ed_init {ed_init:.3g}")
    if not abs(mean1 - DIR_MEAN1) <= 0.03:
        problems.append(f"|mean x1 - {DIR_MEAN1:.4f}| = {abs(mean1 - DIR_MEAN1):.4f} > 0.03")
    return _verdict(problems, info)


def check_dirichlet_sweep(out_dir, seed) -> Verdict:
    rows = []
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8") as f:
        next(f)
        for line in f:
            sampler, lr, row_seed, value = line.strip().split(",")
            rows.append((sampler, lr, int(row_seed), float(value)))
    problems = []
    failed = set()
    if len(rows) != SWEEP_RUNS:
        return Verdict(SWEEP_RUNS, SWEEP_RUNS,
                       [f"sweep.csv has {len(rows)} rows, expected {SWEEP_RUNS}"], {})
    for i, row in enumerate(rows):
        if not math.isfinite(row[3]):
            failed.add(i)
            problems.append(f"row {i} is not finite")
    ratios = {}
    for s in (seed, seed + 1):
        mine = [i for i, row in enumerate(rows) if row[2] == s]
        grid = [rows[i][3] for i in mine if rows[i][0] == "msvgd"]
        coin = [rows[i][3] for i in mine if rows[i][0] == "coin_msvgd"]
        if len(grid) != len(SWEEP_LRS) or len(coin) != 1:
            failed.update(mine or range(SWEEP_RUNS))
            problems.append(f"seed {s}: {len(grid)} grid rows and {len(coin)} coin rows")
            continue
        ratios[s] = min(grid) / coin[0]
        if not max(grid) >= 3.0 * coin[0]:
            failed.update(mine)
            problems.append(f"seed {s}: worst grid value {max(grid):.3g} < 3 x coin {coin[0]:.3g}")
    info = {"min_grid_over_coin": max(ratios.values()) if ratios else None,
            "min_grid_over_coin_by_seed": ratios}
    return Verdict(SWEEP_RUNS, len(failed), problems, info)


def check_orthant_ksd(out_dir, seed) -> Verdict:
    x = _particles(out_dir)
    ksd = _trace(out_dir, "ksd", 11)
    info = {"ksd_init": ksd[0], "ksd_final": ksd[100]}
    problems = []
    if x.shape != (100, 10) or not np.all(x > 0.0):
        problems.append("particles are not strictly inside the orthant")
    if not ksd[100] <= 0.5 * ksd[0]:
        problems.append(f"ksd_final {ksd[100]:.3g} > 0.5 * ksd_init {ksd[0]:.3g}")
    return _verdict(problems, info)


def check_box_mied(out_dir, seed) -> Verdict:
    x = _particles(out_dir)
    rng = np.random.default_rng([seed, 2])
    ref = rng.uniform(-1.0, 1.0, size=(1000, 2))
    floor = energy_distance(rng.uniform(-1.0, 1.0, size=(400, 2)),
                            rng.uniform(-1.0, 1.0, size=(400, 2)))
    ed = energy_distance(x, ref)
    info = {"ed_final": ed, "iid_floor": floor}
    problems = []
    if x.shape != (400, 2) or not np.all(np.abs(x) < 1.0):
        problems.append("particles are not strictly inside the box")
    if not ed <= 3.0 * floor:
        problems.append(f"ed {ed:.3g} > 3 x i.i.d. floor {floor:.3g}")
    return _verdict(problems, info)


COMMANDS = {c.name: c for c in (
    Command(
        "dirichlet_sample",
        "coin MSVGD on the sparse Dirichlet with energy distance every iteration; "
        "stresses metrics.energy_distance",
        "sample",
        "seed = {seed}\nsampler.kind = coin_msvgd\nsampler.n_particles = 50\n"
        "sampler.n_iters = 500\nsampler.metric_every = 1\nmetrics.names = energy\n"
        + DIRICHLET,
        ("particles_final.csv", "trace.csv"),
        check_dirichlet_sample),
    Command(
        "dirichlet_sweep",
        "RMSProp learning-rate grid plus coin twin on 2 pool workers; "
        "stresses msvgd_direction, bypasses per-iteration metrics",
        "sweep",
        "seed = {seed}\nsampler.kind = msvgd\nsampler.n_particles = 50\n"
        "sampler.n_iters = 500\nstepper.kind = rmsprop\n"
        "sweep.lrs = " + ",".join(repr(v) for v in SWEEP_LRS) + "\n"
        "sweep.seeds = {seed},{seed1}\n" + DIRICHLET,
        ("sweep.csv",),
        check_dirichlet_sweep),
    Command(
        "orthant_ksd",
        "coin KSD descent on the exponential orthant, d=10; the only path through "
        "the O(N^2 d^2) Stein kernel gradient",
        "sample",
        "seed = {seed}\nsampler.kind = coin_mksdd\nsampler.n_particles = 100\n"
        "sampler.n_iters = 100\nmetrics.names = ksd\n"
        "target.kind = exp_orthant\ntarget.d = 10\n",
        ("particles_final.csv", "trace.csv"),
        check_orthant_ksd),
    Command(
        "box_mied",
        "coin MIED on the uniform box through the tanh reparameterisation; "
        "the only path through mied.run_mied",
        "sample",
        "seed = {seed}\nsampler.kind = coin_mied\nsampler.n_particles = 400\n"
        "sampler.n_iters = 250\nsampler.metric_every = 10\nmetrics.names = energy\n"
        "target.kind = uniform_box\ntarget.d = 2\ntarget.lo = -1\ntarget.hi = 1\n",
        ("particles_final.csv", "trace.csv"),
        check_box_mied),
)}

WORKLOADS = {w.name: w for w in (
    Workload(
        "dirichlet",
        "coin MSVGD sample with energy distance every iteration, then the RMSProp lr sweep "
        "on 2 pool workers; stresses energy_distance and msvgd_direction",
        (COMMANDS["dirichlet_sample"], COMMANDS["dirichlet_sweep"])),
    Workload(
        "constrained",
        "coin KSD descent on the orthant, then coin MIED on the box; the only paths "
        "through the Stein kernel gradient and mied.run_mied",
        (COMMANDS["orthant_ksd"], COMMANDS["box_mied"])),
)}
