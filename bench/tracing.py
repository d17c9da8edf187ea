"""Span tracing of the qrevival package, installed from outside it.

``Tracer.install`` replaces every public module-level function of every
loaded ``qrevival`` module, and every public method of the classes those
modules define, with a wrapper that records a span.  The wrapper is put
into every module namespace that holds the original function, so calls
made through ``from .x import f`` are traced too.  Functions whose names
start with an underscore are left alone; their time counts in their
caller's self time.  ``Tracer.uninstall`` restores the originals, so
untraced runs execute the package unchanged.

Spans are kept in memory as ``[name, start, end, parent, iteration]``
and reduced to per-iteration self times, call counts and counters by
``Tracer.summary``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

PACKAGE = "qrevival"
ROOT = "bench.iteration"


def _short(module_name: str) -> str:
    return module_name.removeprefix(PACKAGE + ".")


class Tracer:
    """Records spans of qrevival calls, grouped by benchmark iteration.

    ``counters`` maps a span name such as ``"husimi.husimi_grid"`` to a
    function of the call's bound arguments returning ``{counter: value}``;
    counters whose name is in ``maxima`` keep the largest value, the rest
    are summed.
    """

    def __init__(self, counters=None, maxima=()):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._counters = counters or {}
        self._maxima = set(maxima)
        self._stack: list[int] = []
        self._iteration: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) \
                        and obj.__module__.startswith(PACKAGE) \
                        and id(obj) not in wrappers:
                    span = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    wrappers[id(obj)] = self._wrap(obj, span)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") \
                                or not isinstance(fn, types.FunctionType):
                            continue
                        span = f"{_short(mod.__name__)}.{fn.__qualname__}"
                        self._patched.append((obj, attr, fn))
                        setattr(obj, attr, self._wrap(fn, span))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if not name.startswith("_") and id(obj) in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, fn, span: str):
        counter = self._counters.get(span)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._iteration is None:
                return fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._count(counter(bound.arguments))
            return tracer._call(span, fn, args, kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------

    def _count(self, values: dict[str, float]) -> None:
        counts = self.counts[self._iteration]
        for key, value in values.items():
            if key in self._maxima:
                counts[key] = max(counts.get(key, value), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def _call(self, span: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [span, time.perf_counter(), None, parent, self._iteration]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def iteration(self, index: int, body):
        """Run ``body()`` as iteration ``index`` under a root span."""
        self._iteration = index
        try:
            return self._call(ROOT, body, (), {})
        finally:
            self._iteration = None

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[int, dict[str, float]]:
        """Per-iteration totals.

        Keys: ``<span>.self_s``, ``<span>.total_s`` (self plus callees)
        and ``<span>.calls`` per traced function, ``<module>.self_s`` per
        module, ``bench.iteration.self_s`` for time outside every
        qrevival call, ``wall_s`` for the root span, and every counter.
        The module self times and ``bench.iteration.self_s`` add up to
        ``wall_s``.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, (name, start, end, parent, it) in enumerate(self.spans):
            own = (end - start) - child[i]
            row = out[it]
            if name == ROOT:
                row["wall_s"] += end - start
                row[ROOT + ".self_s"] += own
                continue
            row[name + ".self_s"] += own
            row[name + ".total_s"] += end - start
            row[name + ".calls"] += 1
            row[name.split(".")[0] + ".self_s"] += own
        for it, counts in self.counts.items():
            out[it].update(counts)
        return {it: dict(row) for it, row in out.items()}
