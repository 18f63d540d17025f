"""In-memory span tracer that wraps the package's public functions.

``Tracer.install`` wraps every public function defined in the given
modules and rebinds it in every namespace that holds it, including names
bound with ``from ... import`` and the package's re-exports.  ``uninstall``
puts every original back.  A span is ``[name, start, end, parent, op,
work, failed]``; ``parent`` is the index of the enclosing span (-1 at top
level), ``work`` is the value of the function's work counter, if any.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, WORK, FAILED = range(7)
PACKAGE = "logsurf"  # namespaces under this package get the wrappers


class Tracer:
    def __init__(self, modules: dict, counters: dict | None = None):
        self.modules = modules  # layer name -> module
        self.counters = counters or {}
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[WORK] = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(qualname, fn, self.counters.get(qualname)))
        for ns in self.namespaces():
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def namespaces(self) -> list:
        return [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def aggregate(spans) -> dict:
    """Per function: calls, busy and self seconds, work and failures.

    Busy time counts only spans with no enclosing span of the same name,
    so recursion is not counted twice.
    """
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(
            span[NAME], {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0, "work3": 0, "failed": 0}
        )
        s["calls"] += 1
        s["self"] += selfs[i]
        s["work"] += span[WORK]
        s["work3"] += span[WORK] ** 3
        s["failed"] += bool(span[FAILED])
        if not has_ancestor(spans, i, span[NAME]):
            s["busy"] += span[END] - span[START]
    return stats


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
