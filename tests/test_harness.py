"""Config parsing, plan building, writers, sweep orchestration, CLI."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import mirrorcoin.harness as harness
from mirrorcoin.cli import main
from mirrorcoin.errors import ConfigError, DomainViolation
from mirrorcoin.harness import (
    TARGETS,
    build_plan,
    build_target_only,
    read_config,
    read_particles_csv,
    run_sample,
    run_sweep,
    write_particles_csv,
)
from mirrorcoin.rng import substream
from mirrorcoin.samplers import InitSpec, StepperConfig, run_sampler
from mirrorcoin.targets import (
    ExpOrthant,
    LogNormalOrthant,
    QuadraticSimplex,
    SelectiveLasso,
    SparseDirichlet,
    UniformBox,
)


SAMPLE_CONFIG = """\
# a small smoke configuration
seed = 3
target.kind = sparse_dirichlet
target.alpha = 0.5
target.counts = 4,2,1

sampler.kind = coin_msvgd
sampler.n_particles = 8
sampler.n_iters = 6
sampler.metric_every = 2

metrics.names = energy,mean_x1
metrics.ground_truth_n = 64
"""

SWEEP_CONFIG = """\
seed = 0
target.kind = sparse_dirichlet
target.alpha = 1.5
target.counts = 3,1
sampler.kind = msvgd
sampler.n_particles = 6
sampler.n_iters = 4
stepper.kind = rmsprop
sweep.metric = energy
metrics.ground_truth_n = 50
"""


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadConfig:
    def test_parses_comments_blanks_inline(self, tmp_path):
        text = "a.b = 1\n\n# full comment\nc = hello # trailing\n"
        raw = read_config(write_cfg(tmp_path, text))
        assert raw == {"a.b": "1", "c": "hello"}

    def test_reports_every_problem_at_once(self, tmp_path):
        text = "a = 1\na = 2\nnot a pair\n= empty\n"
        with pytest.raises(ConfigError) as err:
            read_config(write_cfg(tmp_path, text))
        msgs = err.value.violations
        assert len(msgs) == 3
        assert any("duplicate" in m for m in msgs)
        assert any("expected key = value" in m for m in msgs)
        assert any("empty key" in m for m in msgs)


class TestBuildPlan:
    def base(self):
        return {
            "target.kind": "sparse_dirichlet",
            "target.counts": "4,2,1",
            "sampler.kind": "coin_msvgd",
            "sampler.n_particles": "8",
            "sampler.n_iters": "5",
        }

    def test_minimal_plan_defaults(self):
        plan = build_plan(self.base())
        assert plan.sampler == "coin_msvgd"
        assert plan.seed == 0
        assert plan.metric_every == 10
        assert plan.kernel.family == "imq"
        assert plan.kernel.bandwidth == "median"
        assert plan.stepper.kind == "coin_adaptive"
        assert isinstance(plan.target, SparseDirichlet)
        assert plan.target.domain == "simplex"

    def test_collects_many_violations(self):
        raw = self.base()
        raw["sampler.kind"] = "nuts"
        raw["sampler.n_particles"] = "lots"
        raw["mystery.key"] = "1"
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        msgs = " | ".join(err.value.violations)
        assert "sampler.kind" in msgs
        assert "sampler.n_particles" in msgs
        assert "mystery.key" in msgs
        assert len(err.value.violations) >= 3

    def test_gradient_sampler_needs_lr(self):
        raw = self.base()
        raw["sampler.kind"] = "msvgd"
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert any("lr" in m for m in err.value.violations)

    def test_coin_sampler_rejects_lr(self):
        raw = self.base()
        raw["stepper.lr"] = "0.1"
        with pytest.raises(ConfigError):
            build_plan(raw)

    def test_mla_defaults_to_fixed_lr(self):
        raw = {
            "target.kind": "exp_orthant", "target.d": "2",
            "sampler.kind": "mla", "sampler.n_particles": "4",
            "sampler.n_iters": "3", "stepper.lr": "0.001",
        }
        plan = build_plan(raw)
        assert plan.stepper.kind == "fixed_lr" and plan.stepper.lr == 0.001

    def test_ksd_metric_rejected_for_projected(self):
        raw = self.base()
        raw["sampler.kind"] = "svgd_proj"
        raw["stepper.kind"] = "fixed_lr"
        raw["stepper.lr"] = "0.01"
        raw["metrics.names"] = "ksd"
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert any("ksd" in m for m in err.value.violations)

    def test_box_target_broadcast_bounds(self):
        raw = {
            "target.kind": "uniform_box", "target.d": "3",
            "target.lo": "0", "target.hi": "2.5",
            "sampler.kind": "coin_mied", "sampler.n_particles": "4",
            "sampler.n_iters": "2",
        }
        plan = build_plan(raw)
        assert isinstance(plan.target, UniformBox)
        assert np.allclose(plan.target.hi, 2.5) and plan.target.d == 3

    def test_init_keys_the_kind_does_not_use_are_unknown(self):
        # the simplex target's domain reads init.alpha alone; init.kind is
        # no key at all, and init.mu belongs to the orthant
        raw = self.base()
        raw["init.alpha"] = "2.0"
        assert build_plan(raw).init == InitSpec(alpha=2.0)
        raw["init.kind"] = "dirichlet"
        raw["init.mu"] = "0.1"
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert [m for m in err.value.violations if "init." in m] == \
            ["unknown key 'init.kind'", "unknown key 'init.mu'"]

    @pytest.mark.parametrize("kind,sampler,init", [
        ("exp_orthant", "coin_msvgd", {"init.mu": "0.5", "init.sigma": "0.2"}),
        ("uniform_box", "coin_mied", {"init.scale": "0.3"}),
    ], ids=["orthant", "box"])
    def test_init_keys_follow_the_target_domain(self, kind, sampler, init):
        raw = {"target.kind": kind, "target.d": "2", "sampler.kind": sampler,
               "sampler.n_particles": "8", "sampler.n_iters": "5", **init}
        values = {k.removeprefix("init."): float(v) for k, v in init.items()}
        assert build_plan(raw).init == InitSpec(**values)
        with pytest.raises(ConfigError) as err:
            build_plan({**raw, "init.alpha": "2.0"})
        assert [m for m in err.value.violations if "init." in m] == \
            ["unknown key 'init.alpha'"]

    @pytest.mark.parametrize("key,value,problem", [
        ("target.kind", "gamma", "target.kind: expected one of"),
        ("target.counts", "4,-2,1", "target: "),
    ], ids=["invalid-kind", "refused-counts"])
    def test_failed_target_drains_the_init_keys(self, key, value, problem):
        # with no target there is no domain to read them by, and they are
        # not reported again as unknown keys
        raw = {**self.base(), key: value, "init.alpha": "2.0", "init.kind": "x"}
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert any(m.startswith(problem) for m in err.value.violations)
        assert not [m for m in err.value.violations if "init" in m]

    @pytest.mark.parametrize("sampler,problem", [
        (None, "sampler.kind is required"),
        ("nuts", "sampler.kind: expected one of"),
    ], ids=["missing", "invalid"])
    def test_stepper_keys_read_without_a_sampler(self, sampler, problem):
        raw = self.base()
        del raw["sampler.kind"]
        if sampler:
            raw["sampler.kind"] = sampler
        raw.update({"stepper.lr": "0.1", "stepper.guard": "true"})
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(problem)

    @pytest.mark.parametrize("entry", ["build_plan", "run_sampler"])
    @pytest.mark.parametrize("key,arg,value,message", [
        ("sampler.n_particles", "n_particles", 0, "sampler.n_particles must be >= 1"),
        ("sampler.n_iters", "n_iters", -1, "sampler.n_iters must be >= 0"),
        ("sampler.metric_every", "metric_every", 0, "sampler.metric_every must be >= 1"),
        ("spectral.terms", "spectral_terms", 0, "spectral.terms must be >= 1"),
        ("seed", "seed", -1, "seed must be >= 0"),
    ], ids=["n_particles", "n_iters", "metric_every", "spectral_terms", "seed"])
    def test_run_bound_refused_by_both_entry_points(self, entry, key, arg, value, message):
        # the spectral flow reads spectral.terms, and the hook reads metric_every
        raw = {"target.kind": "lognormal_orthant", "target.d": "1",
               "sampler.kind": "coin_mlawgd", "sampler.n_particles": "6",
               "sampler.n_iters": "3"}
        with pytest.raises(ConfigError) as err:
            if entry == "build_plan":
                build_plan({**raw, key: str(value)})
            else:
                plan = build_plan(raw)
                run_sampler(**{"target": plan.target, "sampler": plan.sampler,
                               "n_particles": plan.n_particles, "n_iters": plan.n_iters,
                               "seed": plan.seed, "hooks": {"m": lambda x, y: 0.0},
                               arg: value})
        assert err.value.violations == [message]

    def test_ksd_descent_over_memory_budget_is_refused(self):
        # N=6000, d=20 would need about 2.7 GiB per direction; the plan is
        # refused before anything is allocated
        raw = {
            "target.kind": "exp_orthant", "target.d": "20",
            "sampler.kind": "coin_mksdd", "sampler.n_particles": "6000",
            "sampler.n_iters": "10",
        }
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert any("2.7 GiB" in m and "2 GiB budget" in m for m in err.value.violations)
        raw["sampler.n_particles"] = "1000"
        assert build_plan(raw).n_particles == 1000

    def test_dirichlet_dimension_cross_check(self):
        raw = self.base()
        raw["target.d"] = "5"
        with pytest.raises(ConfigError):
            build_plan(raw)

    def test_synthetic_target_reproducible(self):
        raw = {
            "target.kind": "selective_lasso", "target.n": "12",
            "target.p": "3", "target.q": "1",
            "sampler.kind": "msvgd", "sampler.n_particles": "4",
            "sampler.n_iters": "2", "stepper.kind": "fixed_lr",
            "stepper.lr": "0.01",
        }
        t1 = build_plan(dict(raw)).target
        t2 = build_plan(dict(raw)).target
        assert t1.X.tobytes() == t2.X.tobytes()
        raw["target.seed"] = "7"
        t3 = build_plan(dict(raw)).target
        assert t3.X.tobytes() != t1.X.tobytes()

    def test_target_only_ignores_sampler_keys(self):
        target, seed = build_target_only({
            "seed": "5", "target.kind": "exp_orthant", "target.d": "1",
            "sampler.kind": "whatever",
        })
        assert seed == 5 and target.domain == "orthant"


# The smallest config of each target kind, the constructor call it stands
# for, and the keys it cannot go without.
MINIMAL_TARGETS = {
    "sparse_dirichlet": (
        {"target.counts": "4,2,1"},
        lambda: SparseDirichlet(alpha=1.0, counts=np.array([4.0, 2.0, 1.0])),
        ("counts",)),
    "quadratic_simplex": (
        {"target.d": "2"},
        lambda: QuadraticSimplex.random_instance(2, 1.0, substream(0, "target_synth")),
        ("d",)),
    "uniform_box": (
        {"target.d": "2"},
        lambda: UniformBox(np.zeros(2), np.ones(2)),
        ("d",)),
    "exp_orthant": ({"target.d": "2"}, lambda: ExpOrthant(2), ("d",)),
    "lognormal_orthant": ({"target.d": "2"}, lambda: LogNormalOrthant(2), ("d",)),
    "selective_lasso": (
        {"target.n": "12", "target.p": "3", "target.q": "1"},
        lambda: SelectiveLasso.synthetic(substream(0, "target_synth"), n=12, p=3, q=1),
        ("n", "p", "q")),
}


class TestTargetTable:
    def test_every_kind_is_pinned(self):
        assert set(MINIMAL_TARGETS) == set(TARGETS)

    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_minimal_config_matches_direct_construction(self, kind):
        keys, direct, _ = MINIMAL_TARGETS[kind]
        got, _ = build_target_only({"target.kind": kind, **keys})
        want = direct()
        assert type(got) is type(want)
        assert vars(got).keys() == vars(want).keys()
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert vars(got)[name].tobytes() == value.tobytes(), name
                assert vars(got)[name].shape == value.shape, name
            else:
                assert vars(got)[name] == value, name

    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_each_required_key_is_required(self, kind):
        keys, _, required = MINIMAL_TARGETS[kind]
        for key in required:
            raw = {"target.kind": kind, **keys}
            del raw[f"target.{key}"]
            with pytest.raises(ConfigError) as err:
                build_target_only(raw)
            assert f"target.{key} is required" in err.value.violations

    def test_target_seed_is_accepted_by_every_kind(self):
        for kind, (keys, _, _) in MINIMAL_TARGETS.items():
            build_target_only({"target.kind": kind, "target.seed": "4", **keys})


class TestGroundTruthAvailability:
    def lasso_plan(self, **extra):
        return {
            "target.kind": "selective_lasso", "target.n": "12",
            "target.p": "3", "target.q": "1",
            "sampler.kind": "msvgd", "sampler.n_particles": "4",
            "sampler.n_iters": "2", "stepper.kind": "fixed_lr",
            "stepper.lr": "0.001", **extra,
        }

    def test_stated_by_the_target(self):
        rng = np.random.default_rng(0)
        assert QuadraticSimplex.random_instance(3, 1.0, rng).no_ground_truth is None
        assert "d <= 3" in QuadraticSimplex.random_instance(4, 1.0, rng).no_ground_truth
        assert SelectiveLasso.synthetic(rng).no_ground_truth

    def test_default_sweep_metric_does_not_refuse_a_sample_plan(self):
        plan = build_plan(self.lasso_plan())
        assert plan.sweep_metric == "energy" and plan.metric_names == ()

    def test_energy_refused_at_plan_time_for_quadratic_d4(self):
        raw = {
            "target.kind": "quadratic_simplex", "target.d": "4",
            "sampler.kind": "coin_msvgd", "sampler.n_particles": "4",
            "sampler.n_iters": "2", "metrics.names": "energy",
        }
        with pytest.raises(ConfigError) as err:
            build_plan(raw)
        assert ("energy metric unavailable (grid ground truth is only "
                "available for d <= 3)") in err.value.violations
        raw["target.d"] = "3"
        assert build_plan(raw).metric_names == ("energy",)

    def test_energy_sweep_refused_before_any_job_runs(self, tmp_path, monkeypatch):
        calls = []
        real = harness.run_sampler
        monkeypatch.setattr(harness, "run_sampler",
                            lambda **kw: calls.append(kw) or real(**kw))
        with pytest.raises(ConfigError) as err:
            run_sweep(self.lasso_plan(**{"sweep.lrs": "0.01", "sweep.seeds": "0"}),
                      str(tmp_path / "s"), max_workers=1)
        assert calls == []
        assert any(m.startswith("energy metric unavailable (no tractable sampler")
                   for m in err.value.violations)
        assert not os.path.exists(str(tmp_path / "s"))


class TestWriters:
    def test_particles_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(17, 3)) * np.pi
        path = str(tmp_path / "p.csv")
        write_particles_csv(path, x)
        back = read_particles_csv(path)
        assert np.array_equal(back, x)

    def test_lf_endings_and_header(self, tmp_path):
        path = str(tmp_path / "p.csv")
        write_particles_csv(path, np.array([[1.0, 2.0]]))
        blob = Path(path).read_bytes()
        assert b"\r" not in blob
        assert blob.startswith(b"x1,x2\n")


class TestRunSample:
    def test_writes_outputs_and_is_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG)
        raw = read_config(cfg)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_sample(dict(raw), out1)
        run_sample(dict(raw), out2)
        for name in ("particles_final.csv", "trace.csv", "meta.json"):
            assert os.path.exists(os.path.join(out1, name))
        for name in ("particles_final.csv", "trace.csv"):
            b1 = Path(out1, name).read_bytes()
            b2 = Path(out2, name).read_bytes()
            assert b1 == b2

    def test_trace_has_expected_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG)
        out = str(tmp_path / "o")
        run_sample(read_config(cfg), out)
        lines = Path(out, "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,metric,value"
        rows = [ln.split(",") for ln in lines[1:]]
        iters = sorted({int(r[0]) for r in rows})
        assert iters == [0, 2, 4, 6]
        names = {r[1] for r in rows}
        assert names == {"energy", "mean_x1"}
        assert len(rows) == 8

    def test_meta_contains_moments_and_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG)
        out = str(tmp_path / "o")
        run_sample(read_config(cfg), out)
        meta = json.loads(Path(out, "meta.json").read_text())
        assert meta["sampler"] == "coin_msvgd"
        assert meta["config"]["target.kind"] == "sparse_dirichlet"
        assert len(meta["moments"]["mean"]) == 2

    def test_energy_metric_without_ground_truth_is_config_error(self, tmp_path):
        raw = {
            "target.kind": "selective_lasso", "target.n": "12",
            "target.p": "3", "target.q": "1",
            "sampler.kind": "msvgd", "sampler.n_particles": "4",
            "sampler.n_iters": "2", "stepper.kind": "fixed_lr",
            "stepper.lr": "0.001", "metrics.names": "energy",
        }
        with pytest.raises(ConfigError) as err:
            run_sample(raw, str(tmp_path / "o"))
        assert any("energy" in m for m in err.value.violations)


class TestRunSweep:
    def test_rows_ordered_and_coin_twin_once_per_seed(self, tmp_path):
        raw = read_config(write_cfg(tmp_path, SWEEP_CONFIG))
        out = str(tmp_path / "s")
        rows = run_sweep({**raw, "sweep.lrs": "0.01,0.1", "sweep.seeds": "0,1"}, out,
                         max_workers=1)
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("msvgd", 0.01, 0), ("msvgd", 0.1, 0), ("coin_msvgd", None, 0),
            ("msvgd", 0.01, 1), ("msvgd", 0.1, 1), ("coin_msvgd", None, 1),
        ]
        lines = Path(out, "sweep.csv").read_text().splitlines()
        assert lines[0] == "sampler,lr,seed,final_metric"
        assert len(lines) == 7
        coin_lines = [ln for ln in lines[1:] if ln.startswith("coin_msvgd")]
        assert all(ln.split(",")[1] == "NA" for ln in coin_lines)

    def test_parallel_matches_serial(self, tmp_path):
        raw = read_config(write_cfg(tmp_path, SWEEP_CONFIG))
        raw.update({"sweep.lrs": "0.05,0.2", "sweep.seeds": "0"})
        serial = run_sweep(dict(raw), str(tmp_path / "s1"), max_workers=1)
        parallel = run_sweep(dict(raw), str(tmp_path / "s2"), max_workers=2)
        assert serial == parallel
        b1 = (tmp_path / "s1" / "sweep.csv").read_bytes()
        b2 = (tmp_path / "s2" / "sweep.csv").read_bytes()
        assert b1 == b2

    def test_pool_worker_warnings_reach_the_caller(self, tmp_path, monkeypatch):
        # raised again in the calling process, where its filters apply
        def overflowing_job(plan):
            np.float64(1e308) * 10.0
            return 0.0
        monkeypatch.setattr(harness, "_sweep_job", overflowing_job)
        raw = read_config(write_cfg(tmp_path, SWEEP_CONFIG))
        with pytest.warns(RuntimeWarning, match="overflow") as caught:
            run_sweep({**raw, "sweep.lrs": "0.05,0.2", "sweep.seeds": "0"},
                      str(tmp_path / "s"), max_workers=2)
        assert len(caught) == 3                   # one per job

    def test_sweep_rejects_coin_base_sampler(self, tmp_path):
        raw = read_config(write_cfg(tmp_path, SWEEP_CONFIG))
        raw["sampler.kind"] = "coin_msvgd"
        raw["stepper.kind"] = "coin_adaptive"
        with pytest.raises(ConfigError):
            run_sweep({**raw, "sweep.lrs": "0.1", "sweep.seeds": "0"}, str(tmp_path / "s"))

    @pytest.mark.parametrize("asked,pool", [(5000, 3), (2, 2), (1, None), (0, None)])
    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch, asked, pool):
        # a fake pool records its size and starts no process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        raw = read_config(write_cfg(tmp_path, SWEEP_CONFIG))
        rows = run_sweep({**raw, "sweep.lrs": "0.05,0.2", "sweep.seeds": "0"},
                         str(tmp_path / "s"), max_workers=asked)
        assert len(rows) == 3
        assert sizes == ([] if pool is None else [pool])

    def test_sweep_needs_grids(self, tmp_path):
        raw = read_config(write_cfg(tmp_path, SWEEP_CONFIG))
        with pytest.raises(ConfigError) as err:
            run_sweep(raw, str(tmp_path / "s"))
        assert any("sweep.lrs" in m for m in err.value.violations)
        assert any("sweep.seeds" in m for m in err.value.violations)


class TestCli:
    def test_sample_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG)
        out = str(tmp_path / "o")
        assert main(["sample", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "particles_final.csv"))

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG)
        o1, o2, o3 = (str(tmp_path / n) for n in ("a", "b", "c"))
        main(["sample", "--config", cfg, "--out", o1])
        main(["sample", "--config", cfg, "--out", o2, "--seed", "99"])
        main(["sample", "--config", cfg, "--out", o3, "--seed", "3"])
        p = lambda o: Path(o, "particles_final.csv").read_bytes()
        assert p(o1) != p(o2)
        assert p(o1) == p(o3)  # config seed is 3

    def test_bad_config_exit_one_lists_violations(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "sampler.kind = nuts\n")
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "sampler.kind" in err

    def test_guard_with_kt_coin_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG + "stepper.kind = coin_kt\nstepper.guard = true\n")
        out = str(tmp_path / "o")
        assert main(["sample", "--config", cfg, "--out", out]) == 1
        assert "  - stepper: guard is only meaningful for coin_adaptive\n" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_malformed_boolean_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG + "stepper.guard = yes\n")
        out = str(tmp_path / "o")
        assert main(["sample", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == ("configuration error:\n"
                       "  - stepper.guard: expected true or false, got 'yes'\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command,argv,message", [
        ("sample", ["--seed", "abc"], "seed: expected an integer, got 'abc'"),
        ("sample", ["--n", "x"], "sampler.n_particles: expected an integer, got 'x'"),
        ("sweep", ["--lrs", "1,x"], "sweep.lrs: expected comma-separated numbers, got '1,x'"),
        ("sweep", ["--lrs", "0.05", "--seeds", "0,y"],
         "sweep.seeds: expected comma-separated integers, got '0,y'"),
        ("ground-truth", ["--n", "5", "--seed", "x"], "seed: expected an integer, got 'x'"),
    ], ids=["sample-seed", "sample-n", "sweep-lrs", "sweep-seeds", "ground-truth-seed"])
    def test_malformed_flag_reported_with_config_problems(self, tmp_path, capsys,
                                                          command, argv, message):
        if command == "ground-truth":
            # ground-truth reads only the target section of a config
            text = SAMPLE_CONFIG.replace("target.alpha = 0.5", "target.alpha = -1")
            problem = "target: all alpha must be positive"
        else:
            text = (SWEEP_CONFIG if command == "sweep" else SAMPLE_CONFIG) + "mystery.key = 1\n"
            problem = "unknown key 'mystery.key'"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "o")
        code = main([command, "--config", cfg, "--out", out] + argv
                    + (["--workers", "1"] if command == "sweep" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:\n")
        assert f"  - {message}\n" in err and f"  - {problem}\n" in err
        assert not os.path.exists(out)

    def test_bad_kernel_bandwidth_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG + "kernel.bandwidth = -1\n")
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "kernel: bandwidth must be positive" in err

    @pytest.mark.parametrize("target,domain", [
        ("target.kind = exp_orthant\ntarget.d = 2\n", "orthant"),
        ("target.kind = sparse_dirichlet\ntarget.counts = 4,2,1\n", "simplex"),
    ], ids=["orthant", "simplex"])
    def test_mied_off_the_box_exit_one(self, tmp_path, capsys, target, domain):
        cfg = write_cfg(tmp_path, target + (
            "sampler.kind = coin_mied\n"
            "sampler.n_particles = 6\n"
            "sampler.n_iters = 3\n"
        ))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and domain in err

    def test_every_problem_reported_in_one_exit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "target.kind = exp_orthant\n"
            "target.d = 2\n"
            "sampler.kind = mlawgd\n"
            "sampler.n_particles = 6\n"
            "sampler.n_iters = 3\n"
            "stepper.lr = 0.01\n"
            "init.alpha = 2\n"
            "init.sigma = 0\n"
            "metrics.names = bogus\n"
        ))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown metric 'bogus'" in err
        assert "spectral kernel flow ships only for d = 1" in err
        assert "unknown key 'init.alpha'" in err
        assert "init.sigma must lie in (0, inf), got 0.0" in err
        assert not os.path.exists(str(tmp_path / "o"))

    @pytest.mark.parametrize("config,message", [
        ("target.kind = sparse_dirichlet\ntarget.counts = 4,2,1\n"
         "sampler.kind = coin_msvgd\ninit.alpha = -1\n",
         "init.alpha must lie in (0, inf), got -1.0"),
        ("target.kind = exp_orthant\ntarget.d = 2\n"
         "sampler.kind = coin_msvgd\ninit.sigma = -1\n",
         "init.sigma must lie in (0, inf), got -1.0"),
        ("target.kind = exp_orthant\ntarget.d = 2\n"
         "sampler.kind = coin_msvgd\ninit.mu = inf\n",
         "init.mu must lie in (-inf, inf), got inf"),
        ("target.kind = uniform_box\ntarget.d = 2\n"
         "sampler.kind = coin_mied\ninit.scale = 3\n",
         "init.scale must lie in (0, 1), got 3.0"),
    ], ids=["alpha", "sigma", "mu", "scale"])
    def test_init_value_out_of_range_exit_one(self, tmp_path, capsys, config, message):
        cfg = write_cfg(tmp_path, config + "sampler.n_particles = 5\nsampler.n_iters = 2\n")
        out = str(tmp_path / "o")
        assert main(["sample", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert "runtime failure" not in err
        assert not os.path.exists(out)

    def test_sweep_ksd_on_projected_sampler_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CONFIG.replace(
            "sampler.kind = msvgd", "sampler.kind = svgd_proj").replace(
            "sweep.metric = energy", "sweep.metric = ksd"))
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--lrs", "0.05", "--seeds", "0", "--workers", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "sweep.metric: ksd needs a mirrored sampler" in err

    @pytest.mark.parametrize("command", ["sample", "ground-truth"])
    @pytest.mark.parametrize("target", [
        "target.kind = quadratic_simplex\ntarget.d = 2\n",
        "target.kind = selective_lasso\ntarget.n = 10\ntarget.p = 3\ntarget.q = 1\n",
    ], ids=["quadratic_simplex", "selective_lasso"])
    def test_unparsable_target_seed_exit_one(self, tmp_path, capsys, command, target):
        cfg = write_cfg(tmp_path, target + (
            "target.seed = abc\n"
            "sampler.kind = coin_msvgd\n"
            "sampler.n_particles = 4\n"
            "sampler.n_iters = 2\n"
        ))
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        code = main(argv + (["--n", "5"] if command == "ground-truth" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert "target.seed: expected an integer, got 'abc'" in err
        assert "runtime failure" not in err

    @pytest.mark.parametrize("d", [0, -3])
    @pytest.mark.parametrize("kind", ["exp_orthant", "lognormal_orthant",
                                      "uniform_box", "quadratic_simplex"])
    def test_target_dimension_below_one_exit_one(self, tmp_path, capsys, kind, d):
        sampler = "coin_mied" if kind == "uniform_box" else "coin_msvgd"
        cfg = write_cfg(tmp_path, (
            f"target.kind = {kind}\ntarget.d = {d}\n"
            f"sampler.kind = {sampler}\n"
            "sampler.n_particles = 4\n"
            "sampler.n_iters = 2\n"
        ))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "target: dimension must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "o"))

    @pytest.mark.parametrize("kind,values,message", [
        pytest.param(kind, {key: f"4,{value},1" if key == "counts" else value},
                     f"{key} must be finite", id=f"{kind}-{key}-{value}")
        for value in ["nan", "inf"]
        for kind, key in [
            ("sparse_dirichlet", "alpha"), ("sparse_dirichlet", "counts"),
            ("quadratic_simplex", "sigma"), ("uniform_box", "lo"), ("uniform_box", "hi"),
            ("exp_orthant", "rate"), ("lognormal_orthant", "mu"), ("lognormal_orthant", "sigma"),
            ("selective_lasso", "lam"), ("selective_lasso", "tau"),
            ("selective_lasso", "eps_ridge"),
        ]
    ] + [
        # finite parameters whose derived scale overflows
        pytest.param("uniform_box", {"lo": "-1e308", "hi": "1e308"},
                     "box width hi - lo must be finite", id="uniform_box-width-overflow"),
        pytest.param("exp_orthant", {"rate": "1e-320"}, "1/rate must be finite",
                     id="exp_orthant-rate-1e-320"),
    ] + [
        # finite parameters outside the target's range
        pytest.param(kind, values, message, id=f"{kind}-{'-'.join(values)}-out-of-range")
        for kind, values, message in [
            ("sparse_dirichlet", {"counts": "4"},
             "counts must be a vector over d+1 >= 2 categories"),
            ("quadratic_simplex", {"sigma": "0"}, "sigma must be positive"),
            ("uniform_box", {"lo": "1", "hi": "0"},
             "box bounds must satisfy lo < hi componentwise"),
            ("uniform_box", {"lo": "0,0,0"},
             "target.lo / target.hi must be scalars or length-d lists"),
            ("exp_orthant", {"rate": "0"}, "rate must be positive"),
            ("lognormal_orthant", {"sigma": "-1"}, "sigma must be positive"),
            ("selective_lasso", {"q": "3", "p": "2"}, "need 1 <= q <= p"),
        ]
    ])
    def test_non_finite_target_parameter_exit_one(self, tmp_path, capsys, kind, values,
                                                  message):
        keys = {"target.kind": kind, **MINIMAL_TARGETS[kind][0],
                **{f"target.{key}": value for key, value in values.items()}}
        cfg = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = str(tmp_path / "o")
        assert main(["ground-truth", "--config", cfg, "--out", out, "--n", "5"]) == 1
        assert f"  - target: {message}\n" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_ground_truth_unknown_target_key_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "target.kind = quadratic_simplex\ntarget.d = 2\ntarget.sigm = 0.1\n"
            "sampler.kind = coin_msvgd\n"
        ))
        out = str(tmp_path / "o")
        assert main(["ground-truth", "--config", cfg, "--out", out, "--n", "5"]) == 1
        assert "  - unknown key 'target.sigm'\n" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("n", [0, -1])
    def test_selective_lasso_without_observations_exit_one(self, tmp_path, capsys, n):
        cfg = write_cfg(tmp_path, (
            f"target.kind = selective_lasso\ntarget.n = {n}\n"
            "target.p = 3\ntarget.q = 1\n"
            "sampler.kind = coin_msvgd\n"
            "sampler.n_particles = 4\n"
            "sampler.n_iters = 2\n"
        ))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"  - target: target.n must be >= 1 observations, got {n}\n" in err
        assert "negative dimensions" not in err
        assert not os.path.exists(str(tmp_path / "o"))

    def test_sparse_dirichlet_alpha_of_wrong_length_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "target.kind = sparse_dirichlet\n"
            "target.alpha = 1,2\ntarget.counts = 4,2,1\n"
            "sampler.kind = coin_msvgd\n"
            "sampler.n_particles = 4\n"
            "sampler.n_iters = 2\n"
        ))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert ("  - target: target.alpha takes 1 value or one per category (3), "
                "got 2\n") in err
        assert "broadcast" not in err
        assert not os.path.exists(str(tmp_path / "o"))

    @pytest.mark.parametrize("command,setting,argv,message", [
        ("sample", "seed = -1", [], "seed must be >= 0"),
        ("sample", None, ["--seed", "-1"], "seed must be >= 0"),
        ("sweep", "sweep.seeds = 0,-1", ["--lrs", "0.05"], "seed must be >= 0"),
        ("sweep", None, ["--lrs", "0.05", "--seeds", "-1"], "seed must be >= 0"),
        ("sample", "metrics.ground_truth_n = 0", [], "metrics.ground_truth_n must be >= 1"),
        ("sample", "metrics.ground_truth_n = -5", [], "metrics.ground_truth_n must be >= 1"),
        ("ground-truth", None, ["--n", "-3"], "--n must be >= 1"),
        ("ground-truth", None, ["--n", "5", "--seed", "-1"], "seed must be >= 0"),
    ], ids=["seed", "seed-flag", "sweep-seeds", "seeds-flag", "gt-n-zero",
            "gt-n-negative", "n-flag", "ground-truth-seed-flag"])
    def test_negative_seed_or_empty_draw_exit_one(self, tmp_path, capsys,
                                                  command, setting, argv, message):
        raw = read_config(write_cfg(
            tmp_path, SWEEP_CONFIG if command == "sweep" else SAMPLE_CONFIG))
        if setting:
            key, _, value = setting.partition(" = ")
            raw[key] = value
        cfg = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))
        out = str(tmp_path / "o")
        code = main([command, "--config", cfg, "--out", out] + argv
                    + (["--workers", "1"] if command == "sweep" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert f"  - {message}\n" in err
        assert "runtime failure" not in err
        assert not os.path.exists(out)

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        code = main(["sample", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unsupported_request_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "target.kind = selective_lasso\n"
            "target.n = 10\ntarget.p = 3\ntarget.q = 1\n"
        ))
        code = main(["ground-truth", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--n", "10"])
        assert code == 1
        assert "unsupported" in capsys.readouterr().err

    def test_numeric_failure_exit_two(self, tmp_path, capsys):
        # a huge fixed step drives the dual iterate far enough to underflow
        # the primal point onto the simplex boundary
        cfg = write_cfg(tmp_path, (
            "seed = 0\n"
            "sampler.kind = msvgd\n"
            "sampler.n_particles = 6\n"
            "sampler.n_iters = 50\n"
            "stepper.kind = fixed_lr\n"
            "stepper.lr = 1e9\n"
            "target.kind = sparse_dirichlet\n"
            "target.alpha = 0.1\n"
            "target.counts = 4,2,1\n"
        ))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("sampler,config,iteration", [
        ("svgd_proj", "target.kind = sparse_dirichlet\ntarget.counts = 5,3,1\n", 2),
        ("mied", "target.kind = uniform_box\ntarget.d = 2\ntarget.lo = -1\n"
                 "target.hi = 1\nmollifier.eps = 0.1\n", 1),
    ], ids=["projected-nan", "mied-on-the-boundary"])
    def test_cloud_out_of_the_open_domain_exit_two(self, tmp_path, capsys, sampler, config,
                                                   iteration):
        # a huge fixed step sends the projected cloud to NaN, and saturates
        # tanh so that the MIED cloud lands exactly on the box's boundary
        cfg = write_cfg(tmp_path, config + (
            f"sampler.kind = {sampler}\nsampler.n_particles = 10\nsampler.n_iters = 20\n"
            "stepper.kind = fixed_lr\nstepper.lr = 1e300\n"))
        out = tmp_path / "o"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"runtime failure: DomainViolation: {sampler}: particle left the open "
            f"domain at iteration {iteration}\n")
        assert not (out / "particles_final.csv").exists()

    def test_failed_pooled_sweep_reports_alone(self, tmp_path, capfd):
        # the pool workers' warnings are dropped with the run; capfd also
        # sees what a worker would write to the inherited stderr
        cfg = write_cfg(tmp_path, (
            "target.kind = sparse_dirichlet\ntarget.counts = 5,3,1\n"
            "sampler.kind = svgd_proj\nsampler.n_particles = 10\nsampler.n_iters = 20\n"
            "stepper.kind = fixed_lr\nsweep.lrs = 1e300,0.01\nsweep.seeds = 1\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "2"]) == 2
        assert capfd.readouterr().err == (
            "runtime failure: DomainViolation: svgd_proj: particle left the open "
            "domain at iteration 2\n")

    def test_warnings_of_a_successful_run_still_shown(self, tmp_path, capsys, monkeypatch):
        # held back while the command runs, then shown once it has succeeded
        def overflowing_sample(raw, out_dir):
            np.float64(1e308) * 10.0
        monkeypatch.setattr("mirrorcoin.cli.run_sample", overflowing_sample)
        cfg = write_cfg(tmp_path, "")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_library_caller_sees_the_warnings(self):
        # the CLI holds warnings back; run_sampler itself does not
        target = SparseDirichlet(alpha=1.0, counts=np.array([5.0, 3.0, 1.0]))
        with pytest.warns(RuntimeWarning), pytest.raises(DomainViolation):
            run_sampler(target=target, sampler="svgd_proj", n_particles=10, n_iters=20,
                        seed=0, stepper=StepperConfig("fixed_lr", lr=1e300))

    def test_ground_truth_unsupported_listed_with_other_problems(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "target.kind = selective_lasso\n"
                                  "target.n = 10\ntarget.p = 3\ntarget.q = 1\n")
        out = str(tmp_path / "o")
        assert main(["ground-truth", "--config", cfg, "--out", out, "--n", "0"]) == 1
        assert capsys.readouterr().err == (
            "configuration error:\n"
            "  - --n must be >= 1\n"
            "  - ground truth unsupported: no tractable sampler for the selective "
            "lasso density\n")
        assert not os.path.exists(out)

    def test_metrics_out_writes_what_stdout_prints(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x1,x2\n0.15,0.25\n0.5,0.1\n0.2,0.2\n")
        argv = ["metrics", "--cloud", str(cloud), "--ref", str(ref)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "m"
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / "metrics.json").read_bytes() == printed.encode()

    def test_ground_truth_and_metrics_pipeline(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLE_CONFIG)
        gt_dir = str(tmp_path / "gt")
        run_dir = str(tmp_path / "run")
        assert main(["ground-truth", "--config", cfg, "--out", gt_dir,
                     "--n", "200"]) == 0
        assert main(["sample", "--config", cfg, "--out", run_dir]) == 0
        capsys.readouterr()
        assert main(["metrics",
                     "--cloud", os.path.join(run_dir, "particles_final.csv"),
                     "--ref", os.path.join(gt_dir, "ground_truth.csv")]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["energy_distance"] >= 0.0
        assert result["n_ref"] == 200

    @pytest.mark.parametrize("cloud,problem", [
        ("x1,x2\n0.1,0.2\nnan,0.3\n", "holds non-finite values"),
        (None, "cannot read"),
        ("x1,x2\n", "holds no particle rows"),
        ("x1,x2,x3\n0.1,0.2,0.3\n", "cloud has dimension 3, reference has 2"),
    ], ids=["nan", "missing", "header_only", "dimension"])
    def test_metrics_bad_input_exit_one(self, tmp_path, capsys, cloud, problem):
        ref = tmp_path / "ref.csv"
        ref.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        path = tmp_path / "cloud.csv"
        if cloud is not None:
            path.write_text(cloud)
        code = main(["metrics", "--cloud", str(path), "--ref", str(ref)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and problem in captured.err

    def test_sweep_cli(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CONFIG)
        out = str(tmp_path / "sw")
        code = main(["sweep", "--config", cfg, "--out", out,
                     "--lrs", "0.05,0.2", "--seeds", "0", "--workers", "1"])
        assert code == 0
        lines = Path(out, "sweep.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 2 lr rows + coin twin

    @pytest.mark.parametrize("cloud,problem", [
        ("0.1,0.2\n0.3,0.4\n0.5,0.6\n", "line 1 must be the header x1,...,xd, got '0.1,0.2'"),
        ("x1,x2,x3\n0.1,0.2\n0.3,0.4\n", "the header names 3 columns, the rows hold 2"),
    ], ids=["headerless", "header_too_wide"])
    def test_metrics_needs_the_particle_header(self, tmp_path, capsys, cloud, problem):
        ref = tmp_path / "ref.csv"
        ref.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        path = tmp_path / "cloud.csv"
        path.write_text(cloud)
        code = main(["metrics", "--cloud", str(path), "--ref", str(ref)])
        assert code == 1
        assert f"  - cannot read {str(path)!r}: {problem}\n" in capsys.readouterr().err

    def test_sweep_flags_match_config_keys(self, tmp_path):
        flagged = write_cfg(tmp_path, SWEEP_CONFIG)
        keyed = write_cfg(tmp_path, SWEEP_CONFIG + "sweep.lrs = 0.05,0.2\nsweep.seeds = 0,1\n",
                          name="keyed.txt")
        assert main(["sweep", "--config", flagged, "--out", str(tmp_path / "f"),
                     "--lrs", "0.05,0.2", "--seeds", "0,1", "--workers", "1"]) == 0
        assert main(["sweep", "--config", keyed, "--out", str(tmp_path / "k"),
                     "--workers", "1"]) == 0
        assert (tmp_path / "f" / "sweep.csv").read_bytes() == \
            (tmp_path / "k" / "sweep.csv").read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeConfig:
    """README's config reference and worked example against the reader."""

    def test_reference_names_every_key_the_reader_reads(self, monkeypatch):
        read = set()
        get = harness._Reader.get
        monkeypatch.setattr(harness._Reader, "get",
                            lambda self, key, *a, **kw: read.add(key) or get(self, key, *a, **kw))
        run = {"seed": "0", "sampler.n_particles": "4", "sampler.n_iters": "1"}
        sampler = {"uniform_box": "coin_mied"}
        for kind, (keys, _, _) in MINIMAL_TARGETS.items():
            build_plan({**run, "target.kind": kind, **keys,
                        "sampler.kind": sampler.get(kind, "coin_msvgd")})
        text = README.read_text(encoding="utf-8")
        table = text.split("### Config reference", 1)[1].split("\n\n", 2)[1]
        assert read == {"seed"} | set(re.findall(r"`([a-z_]+\.[a-z_]+)`", table))

    def test_worked_example_builds(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        plan = build_plan(read_config(write_cfg(tmp_path, example)))
        assert plan.sampler == "coin_msvgd"
