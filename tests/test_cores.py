"""A run's threads: split pair work gets the same bytes on any number of
them, no thread outlives a run, and a sweep's pool workers use none."""

import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mirrorcoin import cli, cores
from mirrorcoin.metrics import energy_distance_to
from mirrorcoin.mied import MOLLIFIERS, MollifierConfig, mie_gradient
from mirrorcoin.samplers import run_sampler
from mirrorcoin.targets import UniformBox

BOX = UniformBox(-np.ones(2), np.ones(2))


def on_threads(threads, fn, *args):
    """fn(*args) in a run pool of ``threads`` threads."""
    # a short switch interval interleaves the threads' Python steps finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cores, "usable_cores", lambda: threads)
            with cores.run_pool():
                assert cores.width() == threads
                return fn(*args)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape", [(50, 2), (100, 2), (400, 2), (3, 100, 2)],
                         ids=["n50", "n100", "n400", "stack3"])
@pytest.mark.parametrize("kind", MOLLIFIERS)
def test_mie_gradient_bytes_do_not_depend_on_the_threads(kind, shape):
    x = np.random.default_rng([8, *shape]).uniform(-1.0, 1.0, size=shape)
    x[..., 3, :] = x[..., 0, :]                     # a coincident pair
    moll = MollifierConfig(kind=kind, eps=1e-8 if kind == "riesz" else 0.3)
    one = on_threads(1, mie_gradient, x, BOX, moll).tobytes()
    assert one == mie_gradient(x, BOX, moll).tobytes()              # outside a run
    for threads in (2, 5):                          # 5: more threads than cores
        assert on_threads(threads, mie_gradient, x, BOX, moll).tobytes() == one


@pytest.mark.parametrize("n,d", [(400, 2), (700, 3), (50, 20), (1, 2)])
def test_energy_distance_does_not_depend_on_the_threads(n, d):
    rng = np.random.default_rng([9, n, d])
    distance = energy_distance_to(rng.uniform(size=(1000, d)))
    a = rng.uniform(size=(n, d))
    assert on_threads(1, distance, a) == distance(a)
    assert on_threads(2, distance, a) == on_threads(5, distance, a) == distance(a)


def test_a_pool_inside_a_pool_keeps_the_outer_one(monkeypatch):
    monkeypatch.setattr(cores, "usable_cores", lambda: 2)
    with cores.run_pool():
        monkeypatch.setattr(cores, "usable_cores", lambda: 3)
        with cores.run_pool():
            assert cores.width() == 2
        assert cores.width() == 2
    assert cores.width() == 1


def _width_in_a_pool_worker():
    cores.usable_cores = lambda: 2              # this worker's copy only
    with cores.run_pool():
        return cores.width()


def test_a_sweep_pool_worker_stays_on_its_own_thread():
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(_width_in_a_pool_worker).result(timeout=60) == 1


def test_no_thread_outlives_a_run():
    before = threading.active_count()
    during = []
    run_sampler(target=BOX, sampler="coin_mied", n_particles=200, n_iters=3, seed=0,
                hooks={"threads": lambda x, y: during.append(
                    (cores.width(), threading.active_count())) or 0.0})
    # the last hook runs after the run's tiles have started the pool's threads
    assert during[-1] == (cores.usable_cores(), before + cores.usable_cores() - 1)
    assert threading.active_count() == before
    assert cores.width() == 1


def test_a_run_that_fails_leaves_no_thread():
    before = threading.active_count()
    distance = energy_distance_to(np.zeros((10, 2)))
    with pytest.raises(ZeroDivisionError):
        # the hook spreads its distances over the run's threads, then fails
        run_sampler(target=BOX, sampler="coin_mied", n_particles=50, n_iters=2, seed=0,
                    hooks={"boom": lambda x, y: distance(x) / 0})
    assert threading.active_count() == before


def test_a_sample_then_a_sweep_in_one_process(tmp_path):
    box = "target.kind = uniform_box\ntarget.d = 2\ntarget.lo = -1\ntarget.hi = 1\n"
    sample = tmp_path / "sample.cfg"
    sample.write_text("seed = 3\nsampler.kind = coin_mied\nsampler.n_particles = 150\n"
                      "sampler.n_iters = 5\nmetrics.names = energy\n" + box)
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("seed = 3\nsampler.kind = mied\nsampler.n_particles = 70\n"
                     "sampler.n_iters = 10\nstepper.kind = rmsprop\n"
                     "sweep.lrs = 0.001,0.01,0.1\nsweep.seeds = 3,4\n" + box)
    assert cli.main(["sample", "--config", str(sample), "--out", str(tmp_path / "s")]) == 0
    written = []
    for workers in ("2", "1"):
        out = tmp_path / f"w{workers}"
        assert cli.main(["sweep", "--config", str(sweep), "--out", str(out),
                         "--workers", workers]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]
