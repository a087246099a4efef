"""One measured mirrorcoin command, run in its own interpreter by run.py.

    python3 child.py setup <result.json> <config> <sample|sweep>
    python3 child.py run   <result.json> <cli argument>...
    python3 child.py trace <result.json> <spans dir> <cli argument>...
    python3 child.py grid  <result.json> <seed>

setup times what a user waits for before the first iteration: importing
mirrorcoin.cli, parsing the config, build_plan and the ground-truth draw.
run and trace time cli.main from the call to written outputs; trace also
records layer spans.  The result is written as JSON, with the peak RSS of
this process and of the pool workers it reaped.  That peak is read here,
not from os.wait4 in run.py: a child forked from run.py starts its peak at
run.py's own resident size, which would hide the command's own.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def setup(config: str, command: str) -> dict:
    import mirrorcoin.cli  # noqa: F401
    from mirrorcoin.harness import build_plan, read_config
    from mirrorcoin.rng import substream

    raw = read_config(config)
    if command == "sweep" and "stepper.lr" not in raw:
        raw["stepper.lr"] = "0.1"   # run_sweep's probe does the same
    plan = build_plan(raw)
    if command == "sweep" or "energy" in plan.metric_names:
        plan.target.sample_ground_truth(plan.gt_n, substream(plan.seed, "ground_truth"))
    return {"setup_s": time.perf_counter() - T0}


def run(argv: list) -> dict:
    import mirrorcoin.cli as cli

    t0 = time.perf_counter()
    rc = cli.main(argv)
    return {"rc": rc, "run_s": time.perf_counter() - t0}


def trace(spans_dir: str, argv: list) -> dict:
    import mirrorcoin.cli as cli
    import tracer

    t = tracer.Tracer(spans_dir)
    mods = {n: m for n, m in sys.modules.items()
            if n == "mirrorcoin" or n.startswith("mirrorcoin.")}
    missing = tracer.install(t, mods)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    run_s = time.perf_counter() - t0
    t.flush()
    return {"rc": rc, "run_s": run_s, "missing": missing}


def peak_rss_mb() -> float:
    """Peak RSS in MiB of this process since exec and of its reaped children."""
    with open("/proc/self/status", encoding="ascii") as f:
        hwm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kb, children_kb) / 1024.0


def main() -> int:
    mode, out = sys.argv[1], sys.argv[2]
    args = sys.argv[3:]
    if mode == "setup":
        result = setup(*args)
    elif mode == "run":
        result = run(args)
    elif mode == "trace":
        result = trace(args[0], args[1:])
    elif mode == "grid":
        import grid
        result = grid.run(int(args[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = peak_rss_mb()
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
