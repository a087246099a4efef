"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single line

    [criterion NN] <name>: PASS|FAIL (<measured values vs pinned tolerances>)

so the full gate can be audited from the pytest log alone.  Tolerances are
pinned in the asserts; shared protocol constants live at module level.
"""

import hashlib
import sys
import time

import numpy as np
from scipy import integrate

from mirrorcoin.coin import AdaptiveCoin, KTCoin
from mirrorcoin.geometry import EntropicSimplexMap, PositiveOrthantMap
from mirrorcoin.metrics import energy_distance, ksd_vstat
from mirrorcoin.mied import MollifierConfig
from mirrorcoin.rng import substream
from mirrorcoin.samplers import (
    InitSpec,
    StepperConfig,
    draw_init,
    mksdd_direction,
    run_sampler,
    stein_kernel_matrix,
)
from mirrorcoin.targets import (
    ExpOrthant,
    LogNormalOrthant,
    MirroredDensity,
    QuadraticSimplex,
    SelectiveLasso,
    SparseDirichlet,
    UniformBox,
)

from helpers import (
    dual_score,
    fd_grad,
    fd_jacobian,
    hessian_apply,
    rel_err,
    simplex_interior_points,
)

# Sparse Dirichlet reproduction protocol shared by criteria 4, 5, 6, 11.
DIR_D = 20
DIR_ALPHA = 0.1
DIR_COUNTS = (90.0, 5.0, 5.0)
DIR_N = 50
DIR_T = 500
DIR_MEAN1 = 90.1 / 102.1
LR_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 5e-1)
SEEDS = (0, 1, 2)
MEAN_SEEDS = tuple(range(20))   # criterion 4's mean-x1 check


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def sparse_dirichlet():
    counts = np.zeros(DIR_D + 1)
    counts[: len(DIR_COUNTS)] = DIR_COUNTS
    return SparseDirichlet(DIR_ALPHA, counts)


def posterior_reference(seed, n=1000):
    t = sparse_dirichlet()
    return t.sample_ground_truth(n, substream(seed, "ground_truth"))


def initial_cloud(target, seed, n):
    return draw_init(InitSpec(), target, n, substream(seed, "init"))


def coin_msvgd_final_ed(seed, ref):
    t = sparse_dirichlet()
    rec = run_sampler(target=t, sampler="coin_msvgd", n_particles=DIR_N,
                      n_iters=DIR_T, seed=seed)
    return energy_distance(rec.x_final, ref), rec


class TestGeometry:
    def test_01_geometry_round_trip_jacobian_logdet_inverse(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = {"round_trip": 0.0, "jacobian": 0.0, "log_det": 0.0, "inverse": 0.0}
        for mmap, pts in (
            (EntropicSimplexMap(6), simplex_interior_points(1000, 6, rng, margin=0.05)),
            (PositiveOrthantMap(4), rng.uniform(0.05, 3.0, size=(1000, 4))),
        ):
            back = mmap.dual_to_primal(mmap.primal_to_dual(pts))
            worst["round_trip"] = max(worst["round_trip"], np.abs(back - pts).max())

            v = rng.normal(size=pts.shape)
            ident = mmap.hessian_inverse_apply(pts, hessian_apply(mmap, pts, v))
            worst["inverse"] = max(worst["inverse"], rel_err(ident, v))

            for x in pts[:100]:
                h_fd = fd_jacobian(mmap.primal_to_dual, x, h=1e-6)
                _, logdet_fd = np.linalg.slogdet(h_fd)
                worst["log_det"] = max(
                    worst["log_det"], abs(mmap.log_det_hessian(x) - logdet_fd)
                )
            for x in pts[:10]:
                h = np.stack(
                    [hessian_apply(mmap, x, e) for e in np.eye(x.size)], axis=-1
                )
                h_fd = fd_jacobian(mmap.primal_to_dual, x, h=1e-6)
                worst["jacobian"] = max(worst["jacobian"], rel_err(h_fd, h))
        elapsed = time.perf_counter() - t0
        ok = (
            worst["round_trip"] < 1e-10
            and worst["jacobian"] < 1e-5
            and worst["log_det"] < 1e-6
            and worst["inverse"] < 1e-9
            and elapsed < 5.0
        )
        _report(
            1, "geometry round-trip/jacobian/log-det/inverse", ok,
            f"round_trip={worst['round_trip']:.1e}<1e-10 jac={worst['jacobian']:.1e}<1e-5 "
            f"logdet={worst['log_det']:.1e}<1e-6 inv={worst['inverse']:.1e}<1e-9 "
            f"{elapsed:.1f}s<5s",
        )


class TestScoreOracles:
    def test_02_scores_match_finite_differences_and_quadrature(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        targets = [
            sparse_dirichlet(),
            SparseDirichlet([2.0, 3.0, 4.0], [1.0, 0.0, 5.0]),
            QuadraticSimplex.random_instance(5, 0.1, rng),
            UniformBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            ExpOrthant(3, rate=1.5),
            LogNormalOrthant(2, mu=0.3, sigma=0.8),
            SelectiveLasso.synthetic(rng, n=25, p=4, q=2),
        ]
        worst_primal = 0.0
        worst_dual = 0.0
        for t in targets:
            if t.domain == "simplex":
                pts = simplex_interior_points(50, t.d, rng, margin=0.1)
            elif t.domain == "orthant":
                pts = rng.uniform(0.2, 3.0, size=(50, t.d))
            else:
                pts = rng.uniform(t.lo + 0.1, t.hi - 0.1, size=(50, t.d))
            for x in pts:
                want = fd_grad(t.log_density, x, h=1e-6)
                worst_primal = max(worst_primal, rel_err(t.score(x), want))
            if t.domain == "box":
                continue
            mmap = (
                EntropicSimplexMap(t.d)
                if t.domain == "simplex"
                else PositiveOrthantMap(t.d)
            )
            md = MirroredDensity(t, mmap)
            for y in mmap.primal_to_dual(pts):
                want = -fd_grad(md.dual_potential, y, h=1e-6)
                worst_dual = max(worst_dual, rel_err(dual_score(md, y), want))

        # one-active-coefficient marginalization against direct quadrature
        t = SelectiveLasso.synthetic(rng, n=25, p=2, q=1, lam=1.5, tau=1.0)
        const = (2 - 1) * np.log(np.sqrt(2 * np.pi) * t.tau / t.lam)
        XE = t.X[:, t.active]
        Xo = t.X[:, t.inactive]
        worst_quad = 0.0
        for b1 in np.linspace(0.05, 4.0, 20):
            b = np.array([b1])
            beta = t.signs * b
            r = t.eps_ridge * beta - XE.T @ (t.y - XE @ beta) + t.lam * t.signs
            u = float((Xo.T @ (t.y - XE @ beta))[0])
            integral, _ = integrate.quad(
                lambda z: np.exp(-((t.lam * z - u) ** 2) / (2 * t.tau**2)),
                -1.0, 1.0, epsabs=1e-14, epsrel=1e-12,
            )
            oracle = -float(r @ r) / (2 * t.tau**2) + np.log(integral)
            worst_quad = max(worst_quad, abs(float(t.log_density(b)) + const - oracle))
        elapsed = time.perf_counter() - t0
        ok = (
            worst_primal < 1e-5
            and worst_dual < 1e-5
            and worst_quad < 1e-6
            and elapsed < 30.0
        )
        _report(
            2, "score oracles (primal, dual, marginalization)", ok,
            f"primal_fd={worst_primal:.1e}<1e-5 dual_fd={worst_dual:.1e}<1e-5 "
            f"quadrature={worst_quad:.1e}<1e-6 {elapsed:.1f}s<30s",
        )


class TestCoinEngine:
    def test_03_betting_rules_and_determinism(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        y0 = rng.normal(size=(4, 3))
        c0 = rng.normal(size=(4, 3))

        kt_first = KTCoin(y0).step(y0, c0)
        ok_kt = np.allclose(kt_first, y0 + c0 / 2.0, rtol=0, atol=1e-15)

        ad_first = AdaptiveCoin(y0).step(y0, c0)
        ok_ad = np.allclose(ad_first - y0, np.sign(c0) / 2.0, rtol=0, atol=1e-15)

        eng = AdaptiveCoin(y0)
        prev_l = eng.L.copy()
        prev_g = eng.G.copy()
        ok_mono = True
        y = y0
        for _ in range(50):
            y = eng.step(y, rng.normal(size=(4, 3)))
            ok_mono &= bool(np.all(eng.L >= prev_l) and np.all(eng.G >= prev_g))
            ok_mono &= bool(np.all(eng.R >= 0.0))
            prev_l, prev_g = eng.L.copy(), eng.G.copy()

        cs = rng.normal(size=(20, 4, 3))
        runs = []
        for _ in range(2):
            e = AdaptiveCoin(y0)
            y = y0
            for c in cs:
                y = e.step(y, c)
            runs.append(y)
        ok_det = runs[0].tobytes() == runs[1].tobytes()

        elapsed = time.perf_counter() - t0
        ok = ok_kt and ok_ad and ok_mono and ok_det and elapsed < 1.0
        _report(
            3, "coin engine first-step rules, monotone stats, determinism", ok,
            f"kt_half={ok_kt} adaptive_half={ok_ad} "
            f"monotone_LG_R={ok_mono} bit_det={ok_det} {elapsed:.2f}s<1s",
        )


class TestSparseDirichletReproduction:
    def test_04_coin_msvgd_recovers_posterior(self):
        t0 = time.perf_counter()
        t = sparse_dirichlet()
        ref = posterior_reference(0)
        ed_init = energy_distance(initial_cloud(t, 0, DIR_N), ref)
        ed_final, rec = coin_msvgd_final_ed(0, ref)
        # the posterior mean of x1 is recovered at every one of MEAN_SEEDS
        errs = [abs(rec.x_final[:, 0].mean() - DIR_MEAN1)]
        for seed in MEAN_SEEDS[1:]:
            x = run_sampler(target=t, sampler="coin_msvgd", n_particles=DIR_N,
                            n_iters=DIR_T, seed=seed).x_final
            errs.append(abs(x[:, 0].mean() - DIR_MEAN1))
        worst = int(np.argmax(errs))
        elapsed = time.perf_counter() - t0
        ok = (
            ed_final <= 0.05 * ed_init
            and max(errs) <= 0.03
            and elapsed < 180.0
        )
        _report(
            4, "sparse Dirichlet coin MSVGD reproduction", ok,
            f"ed_final={ed_final:.5f}<=0.05*ed_init={0.05 * ed_init:.5f} "
            f"max|mean1-{DIR_MEAN1:.5f}|={errs[worst]:.5f}<=0.03 (seed {MEAN_SEEDS[worst]} "
            f"of {MEAN_SEEDS[0]}-{MEAN_SEEDS[-1]}) {elapsed:.1f}s<180s",
        )

    def test_05_learning_rate_robustness_vs_coin(self):
        t0 = time.perf_counter()
        t = sparse_dirichlet()
        details = []
        ok = True
        for seed in SEEDS:
            ref = posterior_reference(seed)
            ed_coin, _ = coin_msvgd_final_ed(seed, ref)
            grid = []
            for lr in LR_GRID:
                rec = run_sampler(
                    target=t, sampler="msvgd", n_particles=DIR_N, n_iters=DIR_T,
                    seed=seed, stepper=StepperConfig("rmsprop", lr=lr),
                )
                grid.append(energy_distance(rec.x_final, ref))
            # The paper's claim: learning-rate-free coin is competitive with
            # the best tuned learning rate, and a badly chosen rate is far worse.
            lo, hi = min(grid), max(grid)
            competitive = ed_coin <= 1.5 * lo
            ok &= competitive and hi >= 3.0 * ed_coin
            details.append(
                f"seed{seed}: coin/min={ed_coin / lo:.2f}{'<=' if competitive else '>'}1.5 "
                f"min/coin={lo / ed_coin:.2f} max/coin={hi / ed_coin:.0f}>=3"
            )
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 1200.0
        _report(
            5, "learning-rate robustness (rmsprop grid vs coin MSVGD)", ok,
            "; ".join(details) + f"; {elapsed:.0f}s<1200s",
        )

    def test_06_projected_baselines_fall_behind(self):
        t0 = time.perf_counter()
        t = sparse_dirichlet()
        ok = True
        details = []
        for seed in SEEDS:
            ref = posterior_reference(seed)
            ed_coin, _ = coin_msvgd_final_ed(seed, ref)
            ratios = {}
            for sampler in ("svgd_proj", "coin_svgd_proj"):
                stepper = (
                    StepperConfig("rmsprop", lr=1e-2) if sampler == "svgd_proj" else None
                )
                rec = run_sampler(
                    target=t, sampler=sampler, n_particles=DIR_N, n_iters=DIR_T,
                    seed=seed, stepper=stepper,
                )
                ratios[sampler] = energy_distance(rec.x_final, ref) / ed_coin
            ok &= all(r >= 3.0 for r in ratios.values())
            details.append(
                f"seed{seed}: svgd_proj={ratios['svgd_proj']:.0f}x "
                f"coin_proj={ratios['coin_svgd_proj']:.0f}x"
            )
        elapsed = time.perf_counter() - t0
        _report(
            6, "projected baselines >=3x worse than coin MSVGD", ok,
            "; ".join(details) + f"; {elapsed:.0f}s",
        )


class TestLangevinAndSteinFlows:
    def test_07_mirror_langevin_orthant_mean(self):
        t0 = time.perf_counter()
        t = ExpOrthant(d=2)
        rec = run_sampler(
            target=t, sampler="mla", n_particles=500, n_iters=5000, seed=0,
            stepper=StepperConfig("fixed_lr", lr=1e-3),
        )
        mean = rec.x_final.mean(axis=0)
        elapsed = time.perf_counter() - t0
        ok = bool(np.all(np.abs(mean - 1.0) <= 0.1)) and elapsed < 120.0
        _report(
            7, "mirror Langevin mean on exponential orthant", ok,
            f"mean=({mean[0]:.3f},{mean[1]:.3f}) in 1+-0.1 {elapsed:.1f}s<120s",
        )

    def test_08_stein_kernel_suite_and_coin_descent(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        t = ExpOrthant(d=2)
        mmap = PositiveOrthantMap(2)
        md = MirroredDensity(t, mmap)
        family, h = "imq", 0.8

        sym = 0.0
        vmin = np.inf
        dir_err = 0.0
        for _ in range(3):
            y = mmap.primal_to_dual(rng.uniform(0.3, 2.5, size=(6, 2)))
            mat = stein_kernel_matrix(y, md, family, h)
            sym = max(sym, np.abs(mat - mat.T).max())
            vmin = min(vmin, mat.mean())
            got = mksdd_direction(y, md, family, h)
            want = np.empty_like(y)
            for i in range(y.shape[0]):
                for k in range(y.shape[1]):
                    def vstat_at(val, i=i, k=k):
                        z = y.copy()
                        z[i, k] = val[0]
                        return stein_kernel_matrix(z, md, family, h).mean()
                    want[i, k] = fd_grad(vstat_at, np.array([y[i, k]]), h=1e-5)[0]
            dir_err = max(dir_err, rel_err(got, -0.5 * want))

        rec = run_sampler(
            target=t, sampler="coin_mksdd", n_particles=30, n_iters=300, seed=0,
        )
        y0 = mmap.primal_to_dual(initial_cloud(t, 0, 30))
        k0 = ksd_vstat(y0, md)
        k1 = ksd_vstat(rec.y_final, md)
        elapsed = time.perf_counter() - t0
        ok = (
            sym < 1e-10
            and vmin >= -1e-8
            and dir_err < 1e-4
            and k1 <= 0.5 * k0
        )
        _report(
            8, "Stein kernel suite and coin KSD descent", ok,
            f"sym={sym:.1e}<1e-10 vstat_min={vmin:.1e}>=-1e-8 dir_fd={dir_err:.1e}<1e-4 "
            f"ksd {k0:.4f}->{k1:.4f} (ratio {k1 / k0:.3f}<=0.5) {elapsed:.0f}s",
        )

    def test_09_spectral_flow_recovers_gaussian_dual(self):
        t0 = time.perf_counter()
        t = LogNormalOrthant(d=1)
        rec = run_sampler(
            target=t, sampler="mlawgd", n_particles=100, n_iters=500, seed=0,
            stepper=StepperConfig("fixed_lr", lr=0.1),
            spectral_terms=30,
        )
        y = rec.y_final.ravel()
        mean, var = y.mean(), y.var(ddof=1)
        elapsed = time.perf_counter() - t0
        ok = abs(mean) <= 0.05 and abs(var - 1.0) <= 0.15
        _report(
            9, "spectral kernel flow matches standard-normal dual", ok,
            f"|mean|={abs(mean):.4f}<=0.05 |var-1|={abs(var - 1.0):.4f}<=0.15 "
            f"{elapsed:.1f}s",
        )


class TestMiedReproduction:
    def test_10_coin_mied_uniform_box(self):
        t0 = time.perf_counter()
        t = UniformBox(-np.ones(2), np.ones(2))
        rec = run_sampler(
            target=t, sampler="coin_mied", n_particles=100, n_iters=250, seed=0,
            mollifier=MollifierConfig(kind="riesz", s=2 + 1e-4, eps=1e-8),
        )
        ref = t.sample_ground_truth(1000, substream(0, "ground_truth"))
        floor = energy_distance(
            t.sample_ground_truth(100, substream(1, "ground_truth")),
            t.sample_ground_truth(100, substream(2, "ground_truth")),
        )
        ed = energy_distance(rec.x_final, ref)
        elapsed = time.perf_counter() - t0
        ok = ed <= 3.0 * floor and elapsed < 120.0
        _report(
            10, "coin MIED fills the uniform box", ok,
            f"ed={ed:.5f}<=3*floor={3.0 * floor:.5f} {elapsed:.1f}s<120s",
        )


class TestHarnessDeterminism:
    CONFIG = """
seed = 0
sampler.kind = coin_msvgd
sampler.n_particles = 50
sampler.n_iters = 500
target.kind = sparse_dirichlet
target.d = 20
target.alpha = 0.1
target.counts = 90,5,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
"""

    def test_11_repeated_run_byte_identical(self, tmp_path):
        from mirrorcoin import cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG.strip() + "\n", encoding="utf-8")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(["sample", "--config", str(cfg), "--out", str(out)])
            assert code == 0
            blobs.append((out / "particles_final.csv").read_bytes())
        ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
        _report(
            11, "repeated seeded run emits byte-identical particles", ok,
            f"bytes={len(blobs[0])} identical={blobs[0] == blobs[1]}",
        )

    # The benchmark's four commands (perfbench/workloads.py) at seed 701,
    # written out here so that a change to the benchmark cannot move them,
    # and the sha256 of each output.  A change that moves an output by
    # design updates its pin and says so.
    DIRICHLET = ("target.kind = sparse_dirichlet\ntarget.alpha = 0.1\n"
                 "target.counts = 90,5,5" + ",0" * 18 + "\n")
    PINNED = {
        "dirichlet_sample": (
            "sample", "seed = 701\nsampler.kind = coin_msvgd\nsampler.n_particles = 50\n"
            "sampler.n_iters = 500\nsampler.metric_every = 1\nmetrics.names = energy\n"
            + DIRICHLET, {
                "particles_final.csv":
                    "429f4e097d30087fbe572e745784bf5d9fd033c388b4d5c2234ab39f6bba56ab",
                "trace.csv": "5dc2c82c3a20907a0fe7ec8a363829ada1c120812e0b2ec17b5a31020425936a",
            }),
        "dirichlet_sweep": (
            "sweep", "seed = 701\nsampler.kind = msvgd\nsampler.n_particles = 50\n"
            "sampler.n_iters = 500\nstepper.kind = rmsprop\n"
            "sweep.lrs = 0.0001,0.001,0.01,0.1,0.5\nsweep.seeds = 701,702\n" + DIRICHLET, {
                "sweep.csv": "91c8664fb016e78dfee61f390516a4ca2c0d2abc1bd1f4423c0112e9e0517749",
            }),
        "orthant_ksd": (
            "sample", "seed = 701\nsampler.kind = coin_mksdd\nsampler.n_particles = 100\n"
            "sampler.n_iters = 100\nmetrics.names = ksd\n"
            "target.kind = exp_orthant\ntarget.d = 10\n", {
                "particles_final.csv":
                    "4fbe5ff2c15368224ca71d65a0d0b9733f8bd7ad00ddd8a9091d4b073b4e9576",
                "trace.csv": "6787cc4036eb5d52c4e4aa6da87c5d9b95775e11d9e377c81af54c5deab1afd4",
            }),
        "box_mied": (
            "sample", "seed = 701\nsampler.kind = coin_mied\nsampler.n_particles = 400\n"
            "sampler.n_iters = 250\nsampler.metric_every = 10\nmetrics.names = energy\n"
            "target.kind = uniform_box\ntarget.d = 2\ntarget.lo = -1\ntarget.hi = 1\n", {
                "particles_final.csv":
                    "fbfc15202d639fbfdd42911573dfeb16424e10448e7057b08611f9cbc0ae6f3c",
                "trace.csv": "6de587100ac314b34930cf237891290f085d8a18308b24cc80c25ed6284b70b8",
            }),
    }

    def test_11_benchmark_outputs_match_their_pinned_hashes(self, tmp_path):
        from mirrorcoin import cli

        moved = []
        for name, (command, config, pins) in self.PINNED.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config, encoding="utf-8")
            out = tmp_path / name
            argv = [command, "--config", str(cfg), "--out", str(out)]
            assert cli.main(argv + (["--workers", "2"] if command == "sweep" else [])) == 0
            moved += [f"{name}/{file}" for file, pin in pins.items()
                      if hashlib.sha256((out / file).read_bytes()).hexdigest() != pin]
        _report(
            11, "the benchmark's seeded outputs match their pinned sha256", not moved,
            f"moved={moved or 'none'} of 7 files",
        )
