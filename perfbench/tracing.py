"""Span recorder wrapped around the public functions of mcgroots' modules.

Every wrapper keeps per-name aggregates instead of a list of spans, so a
traced genus-25 build (about half a million calls) stays small in memory:

* ``calls``: every entry, recursive ones included;
* ``s``: inclusive time of the outermost span of that name (a recursive
  call is not counted twice);
* ``self_s``: each span's duration minus the time its direct child spans
  cover, summed.

A wrapper is installed at every lookup site a caller can reach: each
module attribute, each value of a module-level dict (``cli._ORACLES``
holds the oracles) and, for the wrapped methods, the class attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYER_MODULES = ("words", "presentation", "representations", "roots", "small_genus", "cli")

# (module, class, method, span name) for operators a caller never looks up by name.
WRAPPED_METHODS = (("representations", "IntMatrix", "__pow__", "representations.IntMatrix.pow"),)


class Tracer:
    """Aggregated spans for one traced pass; ``reset`` between passes."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat ``<span>.calls`` / ``<span>.s`` / ``<span>.self_s`` values."""
        out: dict[str, float] = {}
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
            out[f"{name}.s"] = self.inclusive.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0)
        return out

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack, depth_of = self._stack, self._depth
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth = depth_of.get(name, 0)
            depth_of[name] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth_of[name] = depth
                calls[name] = calls.get(name, 0) + 1
                self_time[name] = self_time.get(name, 0.0) + duration - children[0]
                if depth == 0:
                    inclusive[name] = inclusive.get(name, 0.0) + duration
                if stack:
                    stack[-1][0] += duration

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "mcgroots") -> None:
        """Wrap each layer module's public functions wherever they are bound."""
        wrappers: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not inspect.isclass(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]
        for short, cls_name, method, span_name in WRAPPED_METHODS:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            self._set(cls, method, self._wrap(span_name, getattr(cls, method)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
