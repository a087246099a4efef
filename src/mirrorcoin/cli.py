"""Command-line entry point.

``--seed``, ``sample``/``sweep``'s ``--n``, ``--lrs`` and ``--seeds`` stand
for the config keys ``seed``, ``sampler.n_particles``, ``sweep.lrs`` and
``sweep.seeds``: their text overrides the file's and is parsed and checked
with it.

Exit codes: 0 on success, 1 for configuration problems (a malformed flag
value among them, an unsupported request) and unusable metrics inputs
(every violation is listed), 2 for numeric or other runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import ConfigError
from .harness import (
    read_config,
    run_ground_truth,
    run_metrics,
    run_sample,
    run_sweep,
    write_meta_json,
)

# the flags that stand for config keys, by their dest
FLAG_KEYS = ("seed", "sampler.n_particles", "sweep.lrs", "sweep.seeds")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mirrorcoin",
        description="Learning-rate-free particle sampling on constrained domains.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="run one sampler, write particles/trace/meta")
    ps.add_argument("--config", required=True, help="key = value config file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", help="override the config seed")
    ps.add_argument("--n", dest="sampler.n_particles", metavar="N",
                    help="override sampler.n_particles")

    pw = sub.add_parser("sweep", help="learning-rate grid plus the coin twin")
    pw.add_argument("--config", required=True)
    pw.add_argument("--out", required=True)
    pw.add_argument("--lrs", dest="sweep.lrs", metavar="LRS", help="override sweep.lrs")
    pw.add_argument("--seeds", dest="sweep.seeds", metavar="SEEDS",
                    help="override sweep.seeds")
    pw.add_argument("--n", dest="sampler.n_particles", metavar="N",
                    help="override sampler.n_particles")
    pw.add_argument("--workers", type=int, help="process pool size")

    pg = sub.add_parser("ground-truth", help="draw reference samples from the target")
    pg.add_argument("--config", required=True)
    pg.add_argument("--out", required=True)
    pg.add_argument("--n", type=int, required=True, help="number of samples")
    pg.add_argument("--seed", help="override the config seed")

    pm = sub.add_parser("metrics", help="compare two particle CSV files")
    pm.add_argument("--cloud", required=True, help="particle cloud CSV")
    pm.add_argument("--ref", required=True, help="reference cloud CSV")
    pm.add_argument("--out", help="write metrics.json here instead of stdout")

    return ap


def _load(args) -> dict:
    try:
        raw = read_config(args.config)
    except OSError as exc:
        raise ConfigError([f"cannot read config {args.config!r}: {exc}"])
    for key in FLAG_KEYS:
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return raw


def main(argv=None) -> int:
    """Run one command.  Its warnings are held back and shown only if it
    succeeds, so that on failure the report is the only output."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as held:
        # numeric warnings are held, not raised, whatever the outer filter
        warnings.filterwarnings("default", category=RuntimeWarning)
        code = _run(args)
    if code == 0:
        for w in held:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(args) -> int:
    try:
        if args.command == "sample":
            run_sample(_load(args), args.out)
            print(f"wrote particles_final.csv, trace.csv, meta.json to {args.out}")
        elif args.command == "sweep":
            rows = run_sweep(_load(args), args.out, max_workers=args.workers)
            print(f"wrote sweep.csv ({len(rows)} rows) to {args.out}")
        elif args.command == "ground-truth":
            samples = run_ground_truth(_load(args), args.out, args.n)
            print(f"wrote ground_truth.csv ({samples.shape[0]} rows) to {args.out}")
        elif args.command == "metrics":
            result = run_metrics(args.cloud, args.ref)
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                write_meta_json(os.path.join(args.out, "metrics.json"), result)
                print(f"wrote metrics.json to {args.out}")
            else:
                print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
