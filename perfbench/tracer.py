"""Aggregate span tracer for one weakps CLI process.

``install`` wraps, from outside the package, every public function and
method of the weakps layer modules (plus dataclass ``__post_init__``, which
is where the state classes validate), by replacing the module and class
attributes that refer to them.  Nothing under ``src/`` changes.

A call into a wrapped function is one span.  Spans are not stored one by
one: the hot scalar paths make millions of them per run, so each function
keeps aggregate counters instead (calls, self time, inclusive time, array
points).  Self time is the span's duration minus the part of it that its
child spans cover, computed on a stack as spans close; the self times of all
spans therefore add up to the duration of the outermost span.

An exception that leaves a wrapped function is attributed to the innermost
wrapped function it came out of, and counted once, when a caller stops
propagating it (catches it or raises something else) or when it leaves the
outermost span.  That is how ``table1`` repetitions that fail show up by
error type.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "estimation", "counting", "weak", "kernels",
          "imperfections", "states", "contextuality")

# Slots of a stack frame [key, t0, child_s, pending] that the parent updates.
_CHILD, _PENDING = 2, 3


class Tracer:
    """Per-function aggregate counters fed by enter/exit events."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        # key -> [layer, calls, self_s, inclusive_s, points]
        self.stats: dict[str, list] = {}
        # (origin key, exception type name) -> exceptions whose propagation ended
        self.raised: Counter = Counter()
        self.spans = 0

    def register(self, key: str, layer: str) -> None:
        self.stats.setdefault(key, [layer, 0, 0.0, 0.0, 0])

    def enter(self, key: str, points: int = 0) -> None:
        entry = self.stats[key]
        entry[1] += 1
        entry[4] += points
        self.stack.append([key, self.clock(), 0.0, None])

    def exit(self, exc: BaseException | None = None) -> None:
        key, t0, child, pending = self.stack.pop()
        elapsed = self.clock() - t0
        entry = self.stats[key]
        entry[2] += elapsed - child
        entry[3] += elapsed
        self.spans += 1
        if exc is not None and pending is not None and pending[1] is exc:
            raised = pending  # still propagating from a child span
        else:
            if pending is not None:
                self._count(pending)  # this span caught it
            raised = None if exc is None else (key, exc)
        if not self.stack:
            if raised is not None:
                self._count(raised)
            return
        parent = self.stack[-1]
        parent[_CHILD] += elapsed
        if parent[_PENDING] is not None and (raised is None or parent[_PENDING][1] is not exc):
            self._count(parent[_PENDING])  # the parent caught an earlier one
        parent[_PENDING] = raised

    def _count(self, pending: tuple) -> None:
        origin, exc = pending
        self.raised[(origin, type(exc).__name__)] += 1

    def summary(self) -> dict:
        return {
            "functions": {k: list(v) for k, v in self.stats.items() if v[1]},
            "raised": [[k, t, n] for (k, t), n in sorted(self.raised.items())],
            "spans": self.spans,
        }


def _points(args: tuple) -> int:
    """Array length of a kernel's first argument (the angle or target grid)."""
    return int(getattr(args[0], "size", 1)) if args else 0


def _wrap(fn, key: str, tracer: Tracer, count_points: bool):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(key, _points(args) if count_points else 0)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            exit_(exc)
            raise
        exit_()
        return result

    return traced


def _targets(module, layer: str):
    """(key, owner, attribute name, descriptor kind, function) for everything
    the layer defines and exposes."""
    modname = module.__name__
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == modname:
            yield f"{layer}.{name}", module, name, "function", obj
        elif inspect.isclass(obj) and obj.__module__ == modname:
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr != "__post_init__":
                    continue
                key = f"{layer}.{name}.{attr}"
                if inspect.isfunction(raw):
                    yield key, obj, attr, "function", raw
                elif isinstance(raw, (classmethod, staticmethod)):
                    yield key, obj, attr, type(raw).__name__, raw.__func__
                elif isinstance(raw, property) and raw.fget is not None:
                    yield key, obj, attr, "property", raw.fget


def install(tracer: Tracer) -> None:
    """Wrap the weakps layers in place.

    Call after ``import weakps.cli``.  Every weakps module attribute that
    refers to a wrapped function (``from .x import f`` copies) is redirected
    to the same wrapper, so calls between layers are seen too.
    """
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"weakps.{layer}"]
        for key, owner, attr, kind, fn in _targets(module, layer):
            if id(fn) in replaced and kind == "function" and owner is module:
                continue
            tracer.register(key, layer)
            wrapped = _wrap(fn, key, tracer, count_points=(layer == "kernels"))
            if kind == "function":
                replaced.setdefault(id(fn), wrapped)
                setattr(owner, attr, replaced[id(fn)])
            elif kind == "property":
                old = vars(owner)[attr]
                setattr(owner, attr, property(wrapped, old.fset, old.fdel, old.__doc__))
            else:
                setattr(owner, attr, classmethod(wrapped) if kind == "classmethod"
                        else staticmethod(wrapped))
    for name, module in list(sys.modules.items()):
        if name == "weakps" or name.startswith("weakps."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
