"""Call spans around mirrorcoin's layer functions, recorded from outside.

The benchmark wraps module attributes and class methods of an imported
mirrorcoin; the package itself is not changed.  Each call of a wrapped
function records one span (name, start, end, parent) in memory.  Spans are
written out as JSON lines when the traced command ends, and
:func:`aggregate` turns them into per-layer call counts and self time, where
self time is a span's duration minus the durations of its child spans.

Spans are per process.  A process forked while spans are open (the sweep's
pool workers) starts with an empty record and writes its spans out each time
its outermost span ends, because a pool worker is never told it is about to
stop.  Within a process, mirrorcoin calls its layers from one thread, so
child spans never overlap and their durations add up.
"""

from __future__ import annotations

import functools
import json
import os
import time

# (module, attribute, span name).  "Class.method" wraps the method for every
# instance.  Several attributes may share one span name, which then counts
# the calls of all of them.
LAYERS = (
    ("mirrorcoin.cli", "main", "cli.main"),
    ("mirrorcoin.harness", "build_plan", "harness.build_plan"),
    ("mirrorcoin.harness", "run_sweep", "harness.run_sweep"),
    ("mirrorcoin.harness", "_sweep_job", "harness.sweep_job"),
    ("mirrorcoin.harness", "write_particles_csv", "harness.write"),
    ("mirrorcoin.harness", "write_trace_csv", "harness.write"),
    ("mirrorcoin.harness", "write_sweep_csv", "harness.write"),
    ("mirrorcoin.harness", "write_meta_json", "harness.write"),
    ("mirrorcoin.samplers", "run_sampler", "samplers.run_sampler"),
    ("mirrorcoin.samplers", "msvgd_direction", "samplers.msvgd_direction"),
    ("mirrorcoin.samplers", "mksdd_direction", "samplers.mksdd_direction"),
    ("mirrorcoin.samplers", "stein_kernel_grad2", "samplers.stein_kernel_grad2"),
    ("mirrorcoin.samplers", "_RMSProp.step", "samplers.rmsprop_step"),
    ("mirrorcoin.kernels", "resolve_bandwidth", "kernels.resolve_bandwidth"),
    ("mirrorcoin.kernels", "radial_profile", "kernels.radial_profile"),
    ("mirrorcoin.metrics", "energy_distance", "metrics.energy_distance"),
    ("mirrorcoin.metrics", "ksd_vstat", "metrics.ksd_vstat"),
    ("mirrorcoin.geometry", "EntropicSimplexMap.dual_to_primal", "geometry.dual_to_primal"),
    ("mirrorcoin.geometry", "PositiveOrthantMap.dual_to_primal", "geometry.dual_to_primal"),
    ("mirrorcoin.geometry", "EntropicSimplexMap.is_interior", "geometry.is_interior"),
    ("mirrorcoin.geometry", "PositiveOrthantMap.is_interior", "geometry.is_interior"),
    ("mirrorcoin.geometry", "EntropicSimplexMap.hessian_inverse_apply",
     "geometry.hessian_inverse_apply"),
    ("mirrorcoin.geometry", "PositiveOrthantMap.hessian_inverse_apply",
     "geometry.hessian_inverse_apply"),
    ("mirrorcoin.geometry", "EntropicSimplexMap.d_inv_hessian_contract",
     "geometry.d_inv_hessian_contract"),
    ("mirrorcoin.geometry", "PositiveOrthantMap.d_inv_hessian_contract",
     "geometry.d_inv_hessian_contract"),
    ("mirrorcoin.targets", "MirroredDensity.dual_score_from_primal",
     "targets.dual_score_from_primal"),
    ("mirrorcoin.targets", "SparseDirichlet.sample_ground_truth", "targets.sample_ground_truth"),
    ("mirrorcoin.targets", "ExpOrthant.sample_ground_truth", "targets.sample_ground_truth"),
    ("mirrorcoin.targets", "UniformBox.sample_ground_truth", "targets.sample_ground_truth"),
    ("mirrorcoin.mied", "run_mied", "mied.run_mied"),
    ("mirrorcoin.mied", "mie_gradient", "mied.mie_gradient"),
    ("mirrorcoin.mied", "TanhBox.to_x", "mied.to_x"),
    ("mirrorcoin.coin", "KTCoin.step", "coin.step"),
    ("mirrorcoin.coin", "AdaptiveCoin.step", "coin.step"),
)

# Spans whose first argument is the path of a file the call writes.
WRITERS = ("harness.write",)

# The parent's self time in run_sweep is spent waiting for its pool workers,
# whose own spans already count that work.
WAITING = ("harness.run_sweep",)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, out_dir: str, clock=time.perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self.origin_pid = os.getpid()
        self._forget()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        self.spans = []   # [id, name, start, end, parent id or -1, bytes]
        self._open = []   # ids of the spans still running, innermost last
        self._next_id = 0

    def wrap(self, name: str, fn):
        counts_bytes = name in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._next_id, name, self.clock(), None,
                    self._open[-1] if self._open else -1, 0]
            self._next_id += 1
            self.spans.append(span)
            self._open.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                self._open.pop()
                if counts_bytes and os.path.isfile(args[0]):
                    span[5] = os.path.getsize(args[0])
                if not self._open and os.getpid() != self.origin_pid:
                    self.flush()

        return traced

    def flush(self) -> None:
        """Append the finished spans of this process to its spans file."""
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for sid, name, start, end, parent, nbytes in self.spans:
                f.write(json.dumps({"pid": pid, "id": sid, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "bytes": nbytes}) + "\n")
        self.spans = []


def install(tracer: Tracer, modules: dict, layers=LAYERS) -> list:
    """Wrap every layer found in ``modules`` (name -> module object).

    A module-level function is replaced in every given module that holds it,
    so names imported with ``from ... import`` are traced too.  Returns the
    layers that could not be found, as "module.attribute" strings.
    """
    missing = []
    for modname, attr, name in layers:
        mod = modules.get(modname)
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = vars(owner).get(fname) if owner is not None else None
        if not callable(fn):
            missing.append(f"{modname}.{attr}")
            continue
        traced = tracer.wrap(name, fn)
        if owner_name:
            setattr(owner, fname, traced)
            continue
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is fn:
                    setattr(other, key, traced)
    return missing


def read_spans(out_dir: str) -> list:
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its children's durations."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            key = (s["pid"], s["parent"])
            child[key] = child.get(key, 0.0) + (s["end"] - s["start"])
    return [(s["end"] - s["start"]) - child.get((s["pid"], s["id"]), 0.0)
            for s in spans]


def aggregate(spans: list) -> dict:
    """Per span name: calls, self and total seconds, bytes written; plus
    "busy_s", the self time of every span except the waiting ones.  Total
    time includes child spans; no layer calls itself, so it counts once."""
    layers = {}
    busy = 0.0
    for s, own in zip(spans, self_times(spans)):
        entry = layers.setdefault(
            s["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += s["end"] - s["start"]
        entry["bytes"] += s["bytes"]
        if s["name"] not in WAITING:
            busy += own
    return {"layers": layers, "busy_s": busy}
