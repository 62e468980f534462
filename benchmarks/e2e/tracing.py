"""Per-layer attribution for the traced pass.

A stage runs under ``cProfile`` on the coordinator thread; every
function's self time is then charged to a *bucket*: the ``repro``
package its file lives in, or — for the operating-system primitives the
real transports block in — one of ``wait`` / ``fork`` / ``pickle``.
Self time of anything else (numpy, stdlib, builtins) flows up the call
graph to the nearest caller that has a bucket.  Worker threads and child
processes are not profiled: their work reaches the coordinator as
``wait``, which is the definition the README gives.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import defaultdict
from typing import Any, Callable

import repro

_PKG_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: flows that reach a function nobody called (the benchmark's own stage
#: wrapper) or that are cut off by the depth cap land here
HARNESS = "bench"

# Python-level rules: (basename of the defining file, function name or
# None for every other function of that file)
_MULTIPROCESSING_RULES: dict[tuple[str, str | None], str] = {
    ("popen_fork.py", "wait"): "wait",
    ("popen_fork.py", "poll"): "wait",
    ("process.py", "join"): "wait",
    ("connection.py", "wait"): "wait",
    ("popen_fork.py", None): "fork",
    ("process.py", None): "fork",
    ("context.py", None): "fork",
    ("util.py", None): "fork",
    ("connection.py", None): "pickle",
    ("shared_memory.py", None): "pickle",
    ("reduction.py", None): "pickle",
}
_STDLIB_RULES = {
    "selectors.py": "wait",
    "threading.py": "wait",
    "queue.py": "wait",
    "pickle.py": "pickle",
}

# substrings of cProfile's names for C functions
_BUILTIN_RULES: tuple[tuple[str, str], ...] = (
    ("posix.fork", "fork"),
    ("posix.waitpid", "wait"),
    ("select.poll", "wait"),
    ("select.select", "wait"),
    ("_thread.lock", "wait"),
    ("time.sleep", "wait"),
    ("_pickle.", "pickle"),
    ("posix.read", "pickle"),
    ("posix.write", "pickle"),
    ("posix.pipe", "pickle"),
    ("posix.close", "pickle"),
    ("_posixshmem", "pickle"),
)


def classify(func: tuple[str, int, str]) -> str | None:
    """Bucket of one cProfile function key, or ``None`` to flow upward."""
    filename, _lineno, name = func
    if filename.startswith(_PKG_ROOT):
        head, sep, _rest = filename[len(_PKG_ROOT):].partition(os.sep)
        return head if sep else "repro"
    if filename == "~":
        for needle, bucket in _BUILTIN_RULES:
            if needle in name:
                return bucket
        return None
    parent, base = os.path.split(filename)
    if os.path.basename(parent) == "multiprocessing":
        rules = _MULTIPROCESSING_RULES
        return rules.get((base, name)) or rules.get((base, None))
    return _STDLIB_RULES.get(base)


def attribute(stats: dict) -> dict[str, float]:
    """Charge every function's self seconds in a ``pstats`` table to a bucket."""
    buckets: dict[str, float] = defaultdict(float)
    kind = {func: classify(func) for func in stats}

    # seconds waiting at a function without a bucket, to be passed upward
    rising: dict[tuple, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if kind[func] is not None:
            buckets[kind[func]] += tt
        elif not callers:
            buckets[HARNESS] += tt
        else:
            # the per-caller split of a function's own self time is exact
            for caller, edge in callers.items():
                rising[caller] += edge[2]

    # one hop per round, merged per function, so recursion among
    # bucketless functions decays instead of multiplying paths
    for _round in range(64):
        if not rising:
            break
        nxt: dict[tuple, float] = defaultdict(float)
        for func, seconds in rising.items():
            own = kind.get(func)
            callers = stats[func][4] if func in stats else {}
            if own is not None:
                buckets[own] += seconds
            elif not callers:
                buckets[HARNESS] += seconds
            else:
                # seconds that came up from callees are split as gprof
                # does: by the cumulative time spent under each caller
                total = sum(max(e[3], 0.0) for e in callers.values())
                for caller, edge in callers.items():
                    share = max(edge[3], 0.0) / total if total > 0 else 1 / len(callers)
                    nxt[caller] += seconds * share
        rising = nxt
    buckets[HARNESS] += sum(rising.values())
    return dict(buckets)


def profile_stage(fn: Callable[[], Any]) -> tuple[Any, float, dict[str, float]]:
    """Run ``fn`` under the profiler: ``(result, span seconds, buckets)``."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        out = fn()
    finally:
        prof.disable()
    span = time.perf_counter() - t0
    return out, span, attribute(pstats.Stats(prof).stats)


class PardoMeter:
    """Count and time the parallel regions of one transport instance by
    wrapping its public ``pardo``."""

    def __init__(self, transport: Any) -> None:
        self.calls = 0
        self.seconds = 0.0
        if transport is not None:
            inner = transport.pardo

            def pardo(thunks):
                t0 = time.perf_counter()
                try:
                    return inner(thunks)
                finally:
                    self.calls += 1
                    self.seconds += time.perf_counter() - t0

            transport.pardo = pardo
