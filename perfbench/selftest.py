"""Self-test of the span arithmetic in tracer.py.

Nested wrapped calls run against a fake clock, so every duration is known
exactly: self time must equal duration minus the child spans, and each span
must name the span that called it.  Run it with ``python3 perfbench/selftest.py``;
the traced benchmark runs it first as well.
"""

from __future__ import annotations

import sys
import tempfile
import types

import tracer


class _Clock:
    """Advances by one more unit on every reading: 1, 3, 6, 10, ..."""

    def __init__(self):
        self.now = 0.0
        self.step = 0.0

    def __call__(self):
        self.step += 1.0
        self.now += self.step
        return self.now


def run() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        t = tracer.Tracer(out_dir, clock=_Clock())
        mod = types.ModuleType("fake.layers")
        user = types.ModuleType("fake.user")

        def leaf():
            return 1

        def inner():
            return mod.leaf() + mod.leaf()

        class Box:
            def outer(self):
                return user.inner() + user.inner()

        mod.leaf, mod.inner, mod.Box = leaf, inner, Box
        user.inner = inner   # as if imported with "from fake.layers import inner"
        missing = tracer.install(t, {"fake.layers": mod, "fake.user": user}, layers=(
            ("fake.layers", "leaf", "leaf"),
            ("fake.layers", "inner", "inner"),
            ("fake.layers", "Box.outer", "outer"),
            ("fake.layers", "gone", "gone"),
        ))
        _check(missing == ["fake.layers.gone"], f"missing layers {missing}")
        _check(user.inner is mod.inner and mod.inner is not inner,
               "an imported name was not wrapped")
        _check(Box().outer() == 4, "wrapping changed a return value")
        t.flush()
        spans = tracer.read_spans(out_dir)

    names = [s["name"] for s in spans]
    _check(names == ["outer", "inner", "leaf", "leaf", "inner", "leaf", "leaf"],
           f"span order {names}")
    parents = [s["parent"] for s in spans]
    _check(parents == [-1, 0, 1, 1, 0, 4, 4], f"parent links {parents}")
    own = tracer.self_times(spans)
    for s, value in zip(spans, own):
        children = sum(c["end"] - c["start"] for c in spans if c["parent"] == s["id"])
        _check(value == (s["end"] - s["start"]) - children and value > 0,
               f"self time of {s['name']} span {s['id']}")
    agg = tracer.aggregate(spans)
    root = spans[0]["end"] - spans[0]["start"]
    _check(agg["busy_s"] == root, "self times do not add up to the root span")
    _check(agg["layers"]["leaf"]["calls"] == 4, "leaf call count")


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"span self-test failed: {what}")


if __name__ == "__main__":
    run()
    print("span self-test passed")
    sys.exit(0)
