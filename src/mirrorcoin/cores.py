"""The usable cores of a run, for pair work split by rows.

:func:`mirrorcoin.samplers.run_stack` holds a thread pool for the length of
a run (:func:`run_pool`), so that the run's calling thread and the pool
together make one thread per usable core.  Pair work split into parts
(MIED's row tiles, the energy metric's row blocks) runs its parts on
those threads through :func:`spread`.  Outside a run, and inside a sweep's
pool worker, every part runs in the calling thread.  A split never changes
how a value is computed, so the bits do not depend on the core count.
"""

from __future__ import annotations

import contextlib
import contextvars
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

# (pool, threads) of the run in this thread's context: the pool's threads and
# the calling one make ``threads``
_held = contextvars.ContextVar("mirrorcoin_run_pool", default=None)


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity outside Linux
        return os.cpu_count() or 1


@contextlib.contextmanager
def run_pool():
    """Give split work one thread per usable core until the block ends; no
    thread outlives it.  Inside a block already open, and in a process that
    multiprocessing started (a sweep's pool worker, which its siblings share
    the cores with), work stays in the calling thread."""
    threads = usable_cores()
    if _held.get() or threads < 2 or multiprocessing.parent_process() is not None:
        yield
        return
    with ThreadPoolExecutor(threads - 1) as pool:
        token = _held.set((pool, threads))
        try:
            yield
        finally:
            _held.reset(token)


def width() -> int:
    """The threads split work may use now: 1 outside a run."""
    held = _held.get()
    return held[1] if held else 1


def spread(work, parts: int) -> None:
    """Call ``work(k)`` for k in range(parts): part 0 in the calling thread,
    the rest on the run's pool, and return when every part has."""
    held = _held.get()
    if not held:
        for k in range(parts):
            work(k)
        return
    futures = [held[0].submit(work, k) for k in range(1, parts)]
    try:
        work(0)
    finally:
        for future in futures:
            future.result()
