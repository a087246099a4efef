"""Command-line entry point.

Exit codes: 0 on success, 1 for configuration problems and unusable metrics
inputs (every violation is listed) and unsupported requests, 2 for numeric or
other runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, Unsupported
from .harness import (
    as_floats,
    as_ints,
    read_config,
    run_ground_truth,
    run_metrics,
    run_sample,
    run_sweep,
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mirrorcoin",
        description="Learning-rate-free particle sampling on constrained domains.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="run one sampler, write particles/trace/meta")
    ps.add_argument("--config", required=True, help="key = value config file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", type=int, help="override the config seed")
    ps.add_argument("--n", type=int, help="override sampler.n_particles")

    pw = sub.add_parser("sweep", help="learning-rate grid plus the coin twin")
    pw.add_argument("--config", required=True)
    pw.add_argument("--out", required=True)
    pw.add_argument("--lrs", type=as_floats, help="override sweep.lrs")
    pw.add_argument("--seeds", type=as_ints, help="override sweep.seeds")
    pw.add_argument("--n", type=int, help="override sampler.n_particles")
    pw.add_argument("--workers", type=int, help="process pool size")

    pg = sub.add_parser("ground-truth", help="draw reference samples from the target")
    pg.add_argument("--config", required=True)
    pg.add_argument("--out", required=True)
    pg.add_argument("--n", type=int, required=True, help="number of samples")
    pg.add_argument("--seed", type=int, help="override the config seed")

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
    if getattr(args, "seed", None) is not None and args.command != "ground-truth":
        raw["seed"] = str(args.seed)
    if getattr(args, "n", None) is not None and args.command != "ground-truth":
        raw["sampler.n_particles"] = str(args.n)
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sample":
            run_sample(_load(args), args.out)
            print(f"wrote particles_final.csv, trace.csv, meta.json to {args.out}")
        elif args.command == "sweep":
            rows = run_sweep(_load(args), args.out, lrs=args.lrs,
                             seeds=args.seeds, max_workers=args.workers)
            print(f"wrote sweep.csv ({len(rows)} rows) to {args.out}")
        elif args.command == "ground-truth":
            samples = run_ground_truth(_load(args), args.out, args.n,
                                       seed=args.seed)
            print(f"wrote ground_truth.csv ({samples.shape[0]} rows) to {args.out}")
        elif args.command == "metrics":
            result = run_metrics(args.cloud, args.ref)
            text = json.dumps(result, indent=2, sort_keys=True)
            if args.out:
                import os
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, "metrics.json")
                with open(path, "w", encoding="utf-8", newline="\n") as f:
                    f.write(text + "\n")
                print(f"wrote metrics.json to {args.out}")
            else:
                print(text)
        return 0
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
