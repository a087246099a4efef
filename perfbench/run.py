"""mirrorcoin benchmark: end-to-end CLI runs, traced layer costs, a size grid.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> [--seconds <s>]

Run it from the root of a checkout.  mirrorcoin is imported from ``src/``;
every command runs in a fresh interpreter with single-threaded BLAS.

A workload is a list of commands, and a run repeats rounds of them.
--trace 0 runs rounds of a fresh set-up before each command until
--seconds is used up (at least three rounds) and reports the median set-up,
the median time of a round's commands and the median of a round's peak
RSS.  --trace 1 runs the span self-test, the layer size grid, and rounds of
an untraced and a traced run of each command until --seconds is used up;
it reports per-layer call counts and self time per round, the tracing
overhead, minor page faults and the grid.  Every command's outputs are checked, and a seeded command
must repeat its outputs byte for byte.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
full record goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)   # before numpy loads, here and in every command

import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 3
RUN_LIMIT_S = 170     # a run must end within 180 s
POLL_S = 0.005

# The layer each command was chosen to stress, and the least share of busy
# time it had to take then.  Reported, not gated: a faster layer is expected
# to lose share.
STRESSED = {
    "dirichlet_sample": ("metrics.energy_distance", 0.70),
    "dirichlet_sweep": ("samplers.msvgd_direction", 0.50),
    "orthant_ksd": ("samplers.mksdd_direction", 0.85),
    "box_mied": ("mied.mie_gradient", 0.90),
}

# Values reported beside the metrics, with no bound: they depend on the seed
# and move only when a sampler's arithmetic changes.
INFORMATIONAL = {
    "iters_to_tol": ("iterations", "first trace iteration with energy distance <= 0.002"),
    "min_grid_over_coin": ("ratio", "best lr over coin, worst seed; criterion 05 asks "
                                    "<= 1.5, not gated"),
}


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PINS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, log_path: str, deadline: float):
    """Run child.py with ``args``; return its exit code and resource usage.

    The usage comes from os.wait4 on this child, so its page faults cover
    the child and the pool workers it reaped, and no other command.  Its
    ru_maxrss would also count this process's size at the fork, so the
    child reports its own peak RSS instead (child.peak_rss_mb).
    """
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                                cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError
            time.sleep(POLL_S)
    except BaseException:
        _kill_group(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def git_commit():
    """The commit of a git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    config = getattr(getattr(numpy, "__config__", None), "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_PINS,
        "commit": git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


def _differing_lines(a: str, b: str) -> int:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        la, lb = fa.read().split(b"\n"), fb.read().split(b"\n")
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


class Run:
    """One workload at one seed: its configs, its rounds of commands and
    their checks."""

    def __init__(self, workload, seed: int, seconds: float, trace: int):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = os.path.join(OUT, f"{workload.name}-s{seed}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.configs = {}
        for c in workload.commands:
            self.configs[c.name] = os.path.join(self.dir, f"{c.name}.cfg")
            with open(self.configs[c.name], "w", encoding="utf-8") as f:
                f.write(c.config_text(seed))
        self.ops = []
        self.setups = []
        self.marks = []         # when each round began
        self.reference = {}     # command name -> out dir of its first outputs

    def child(self, name: str, args: list):
        """Run child.py; return (exit code, resource usage, JSON result or None)."""
        result = os.path.join(self.dir, f"{name}.json")
        try:
            code, usage = spawn([args[0], result, *args[1:]],
                               os.path.join(self.dir, f"{name}.log"), self.deadline)
        except TimeoutError:
            return None, None, None
        if code != 0 or not os.path.isfile(result):
            return code, usage, None
        with open(result, encoding="utf-8") as f:
            return code, usage, json.load(f)

    def setup(self, c) -> None:
        k = len(self.setups)
        code, _, res = self.child(f"setup{k}", ["setup", self.configs[c.name], c.command])
        if res is None:
            raise BenchError(f"set-up failed (exit {code}); see {self.dir}/setup{k}.log")
        self.setups.append(res["setup_s"])

    def op(self, c, traced: bool) -> None:
        k = len(self.ops)
        out = os.path.join(self.dir, f"op{k}")
        argv = c.argv(self.configs[c.name], out)
        if traced:
            spans = os.path.join(self.dir, f"spans{k}")
            os.makedirs(spans)
            code, usage, res = self.child(f"op{k}", ["trace", spans, *argv])
        else:
            code, usage, res = self.child(f"op{k}", ["run", *argv])
        record = {"command": c.name, "round": len(self.marks) - 1, "traced": traced,
                  "run_s": res["run_s"] if res else None,
                  "peak_rss_mb": res["peak_rss_mb"] if res else None,
                  "minor_faults": usage.ru_minflt if usage else None}
        verdict = self._check(c, out, res, code)
        record.update(attempted=verdict.attempted, failed=verdict.failed,
                      problems=verdict.problems, info=verdict.info)
        if traced and res:
            record["spans"] = tracer.aggregate(tracer.read_spans(spans))
            record["missing_layers"] = res["missing"]
        self.ops.append(record)

    def _check(self, c, out: str, res, code):
        attempted = c.sampler_runs
        if res is None or res["rc"] != 0:
            why = "timed out" if code is None else \
                f"exit {code if res is None else res['rc']}"
            return workloads.Verdict(attempted, attempted, [f"command {why}"], {})
        try:
            verdict = c.check(out, self.seed)
        except (OSError, ValueError, StopIteration) as exc:
            return workloads.Verdict(attempted, attempted, [f"outputs unreadable: {exc}"], {})
        reference = self.reference.setdefault(c.name, out)
        if reference == out:
            return verdict
        differing = sum(_differing_lines(os.path.join(reference, f), os.path.join(out, f))
                        for f in c.outputs)
        if differing:
            verdict.problems.append(
                f"{differing} output lines differ from {os.path.basename(reference)} "
                "at the same seed")
            verdict.failed = min(attempted, max(verdict.failed, differing))
        return verdict

    def keep_going(self, started: float, minimum: int) -> bool:
        """Whether another round fits: the first ``minimum`` rounds always
        do, later ones while a typical round ends within --seconds.  Called
        once before each round."""
        now = time.monotonic()
        self.marks.append(now)
        rounds = [b - a for a, b in zip(self.marks, self.marks[1:])]
        typical = statistics.median(rounds) if rounds else 0.0
        if now + typical + 10.0 > self.deadline:
            return False
        return len(rounds) < minimum or now - started + typical <= self.seconds

    def rounds(self, traced: bool) -> list:
        """The traced or untraced commands of each round in which every
        command finished."""
        by_round = {}
        for o in self.ops:
            if o["traced"] == traced:
                by_round.setdefault(o["round"], []).append(o)
        return [ops for ops in by_round.values()
                if len(ops) == len(self.w.commands) and all(o["run_s"] is not None for o in ops)]


def measure_end_to_end(run: Run) -> dict:
    # Set-ups alternate with commands, so both sample the same stretch of
    # a machine whose speed drifts.
    started = time.monotonic()
    while run.keep_going(started, MIN_ROUNDS):
        for c in run.w.commands:
            run.setup(c)
            run.op(c, traced=False)
    done = run.rounds(traced=False)
    if not done:
        raise BenchError(f"no round of commands finished; see {run.dir}")
    run_s = [sum(o["run_s"] for o in ops) for ops in done]
    peaks = [max(o["peak_rss_mb"] for o in ops) for ops in done]
    return {
        "metrics": {
            "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MiB"},
        },
        "per_command_run_s": {c.name: statistics.median(o["run_s"] for ops in done for o in ops
                                                        if o["command"] == c.name)
                              for c in run.w.commands},
        "samples": {"setup_s": run.setups, "run_s": run_s, "peak_rss_mb": peaks},
    }


def _layer(ops: list, name: str) -> dict:
    """One layer's calls, self time and bytes, summed over a round's commands."""
    entries = [o["spans"]["layers"].get(name, {}) for o in ops]
    return {k: sum(e.get(k, 0) for e in entries) for k in ("calls", "self_s", "bytes")}


def measure_layers(run: Run) -> dict:
    selftest.run()
    started = time.monotonic()
    code, _, grid = run.child("grid", ["grid", str(run.seed)])
    if grid is None:
        raise BenchError(f"layer grid failed (exit {code}); see {run.dir}/grid.log")
    while run.keep_going(started, 1):
        for c in run.w.commands:
            run.op(c, traced=False)
            run.op(c, traced=True)
    traced = run.rounds(traced=True)
    plain = run.rounds(traced=False)
    if not traced or not plain:
        raise BenchError(f"no traced and untraced round finished; see {run.dir}")

    metrics = {}
    for name in dict.fromkeys(span for _, _, span in tracer.LAYERS):
        per_round = [_layer(ops, name) for ops in traced]
        metrics[f"{name}.calls"] = {"value": statistics.mean(e["calls"] for e in per_round),
                                    "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": statistics.median(e["self_s"] for e in per_round),
                                     "unit": "s"}
        if name == "harness.write":
            metrics[f"{name}.bytes"] = {"value": statistics.mean(e["bytes"] for e in per_round),
                                        "unit": "bytes"}
    overhead = statistics.median(sum(o["run_s"] for o in ops) for ops in traced) / \
        statistics.median(sum(o["run_s"] for o in ops) for ops in plain) - 1.0
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["minor_faults"] = {
        "value": statistics.median(sum(o["minor_faults"] for o in ops) for ops in plain),
        "unit": "count"}
    for key, cell in grid["cells"].items():
        if cell["status"] != "refused":   # a layer not found reads 0
            metrics[f"{key}.ms"] = {"value": cell.get("ms", 0.0), "unit": "ms"}
            metrics[f"{key}.peak_mb"] = {"value": cell.get("peak_mb", 0.0), "unit": "MiB"}

    stressed = {}
    for c in run.w.commands:
        layer, chosen_at = STRESSED[c.name]
        shares = [o["spans"]["layers"].get(layer, {}).get("total_s", 0.0) / o["spans"]["busy_s"]
                  for ops in traced for o in ops if o["command"] == c.name]
        stressed[c.name] = {"layer": layer, "share_of_busy": statistics.median(shares),
                            "share_when_chosen": chosen_at}
    return {
        "metrics": metrics,
        "grid": grid,
        "stressed": stressed,
        "missing_layers": traced[0][0]["missing_layers"],
    }


def measure(workload, seed: int, seconds: float, trace: int) -> dict:
    run = Run(workloads.WORKLOADS[workload], seed, seconds, trace)
    result = measure_layers(run) if trace else measure_end_to_end(run)
    attempted = sum(o["attempted"] for o in run.ops)
    failed = sum(o["failed"] for o in run.ops)
    result.update(workload=workload, trace=trace, seconds=seconds,
                  attempted=attempted, failed=failed, fail_rate=failed / attempted,
                  ops=[{k: v for k, v in o.items() if k != "spans"} for o in run.ops],
                  environment=environment(seed))
    for c in run.w.commands:
        first = next(o for o in run.ops if o["command"] == c.name)
        result.update((k, v) for k, v in first["info"].items() if k in INFORMATIONAL)
    with open(os.path.join(run.dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def report(result: dict) -> None:
    """Print the readable lines of one result."""
    print(f"workload {result['workload']}  seed {result['environment']['seed']}  "
          f"commands run {len(result['ops'])}")
    for name, m in result["metrics"].items():
        if m["value"] or not result["trace"]:
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("per_command_run_s", {}).items():
        print(f"  {'run_s of ' + name:<48} {value:.6g} s (median over rounds)")
    print(f"  {'fail_rate':<48} {result['fail_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} sampler runs failed)")
    for key, (unit, note) in INFORMATIONAL.items():
        if key in result:
            value = "n/a" if result[key] is None else f"{result[key]:.6g}"
            print(f"  {key:<48} {value} {unit} ({note})")
    if "stressed" in result:
        for command, s in result["stressed"].items():
            print(f"  {s['layer']} takes {100 * s['share_of_busy']:.1f}% of {command}'s busy "
                  f"time ({100 * s['share_when_chosen']:.0f}% or more when it was chosen)")
        print(f"  layer grid peak RSS {result['grid']['peak_rss_mb']:.0f} MiB")
        for key, cell in result["grid"]["cells"].items():
            if cell["status"] != "ok":
                print(f"  {key} {cell['status']} (estimated {cell['est_mb']:.0f} MiB, "
                      f"budget {result['grid']['budget_mb']} MiB)")
        if result["missing_layers"]:
            print(f"  layers not found: {', '.join(result['missing_layers'])}")
    for o in result["ops"]:
        for p in o["problems"]:
            print(f"  problem: {p}")
    print(f"  environment {json.dumps(result['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mirrorcoin", "cli.py")):
        print(f"no mirrorcoin sources under {ROOT}/src", file=sys.stderr)
        return 2
    # A stopped benchmark unwinds through spawn(), which kills the command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            report(results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = results[names[0]]["metrics"] if len(names) == 1 else \
        {n: r["metrics"] for n, r in results.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
