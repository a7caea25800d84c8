"""In-memory span tracer for the hardywaves layers.

``Tracer.installed()`` wraps the public functions of each hardywaves module
and the public methods of the classes those modules export.  A wrapped
function is replaced under every name that refers to it in any loaded
hardywaves module (``from .evolve import propagate`` binds a second name in
``stability`` and ``cli``), so every caller goes through the wrapper.  On
exit the originals are put back.

Each call records a span ``(name, start, end, parent, task)``; ``parent`` is
the index of the enclosing span (-1 for a root) and ``task`` the identifier
of the benchmark task that caused it.  Per-name calls, inclusive time and
self time (inclusive minus the time of direct child spans) accumulate in
``calls``, ``total_s`` and ``self_s`` until ``reset_totals()``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "hardywaves"
MODULES = (
    "radial", "operators", "energies", "groundstate", "evolve",
    "stability", "checks", "kelvin",
)

# span names used by the per-layer metrics where the attribute name differs
ALIASES = {
    "operators.__init__": "operators.assemble",
    "groundstate.normalized_gradient_flow": "groundstate.flow",
    "stability.stability_experiment": "stability.experiment",
    "cli.main": "cli",
}


def _count_steps(counts, bound, result):
    counts["evolve.steps"] += int(bound.arguments["steps"])


def _count_iterations(counts, bound, result):
    counts["groundstate.iterations"] += int(result.iterations)


def _count_samples(counts, bound, result):
    counts["checks.samples"] += int(bound.arguments["sample_count"])


# counters taken at a layer boundary from the call's arguments or result
COUNTERS = {
    "evolve.propagate": _count_steps,
    "groundstate.flow": _count_iterations,
    "checks.check_hardy": _count_samples,
    "checks.check_ckn": _count_samples,
    "checks.check_ihs": _count_samples,
}


def _targets():
    """Yield (span name, owner, attribute, function) for every wrapped callable."""
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if not inspect.isgeneratorfunction(obj):  # work runs in the caller
                    yield f"{short}.{attr}", mod, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    public = not meth.startswith("_") or (
                        meth == "__init__" and short == "operators"
                    )
                    if public and inspect.isfunction(fn):
                        yield f"{short}.{meth}", obj, meth, fn
    cli = sys.modules[f"{PACKAGE}.cli"]
    yield "cli.main", cli, "main", cli.main


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # [span index, time covered by child spans]
        self.task = -1
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        """Record one span around the body (used for benchmark tasks)."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, index, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, 0.0])
        return index

    def _close(self, name: str, index: int, start: float) -> None:
        end = time.perf_counter()
        _, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent[0] if parent else -1, self.task)
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if parent:
            parent[1] += dur

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, index, start)
            if counter:
                counter(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target under every name that refers to it; restore on exit."""
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        replaced = []
        for name, owner, attr, fn in list(_targets()):
            wrapper = self._wrap(ALIASES.get(name, name), fn)
            if inspect.isclass(owner):
                replaced.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        replaced.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(replaced):
                setattr(owner, attr, fn)
