"""A small in-memory span tracer for the benchmark's traced run.

``Tracer.trace(module, name)`` wraps a function and rebinds the wrapper
wherever the original is reachable by name inside the traced packages:
every loaded module that imported it and the module-level dicts that hold
it (such as a command table). ``Tracer.uninstall`` puts every original
back, so code outside the traced run calls the unwrapped functions and pays
nothing.

Each call records a span ``[name, start, end, parent]`` in a list. A span's
parent is the innermost open span on the same thread; on a thread with no
open span (a worker of a pool started inside a traced call) it is the
innermost open span of the thread that installed the tracer. Self time is a
span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import gc
import sys
import threading
import time
from collections import defaultdict


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans) -> dict:
    """Per-name aggregates of finished spans: calls, total_s, self_s and the
    list of durations."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append((span[1], span[2]))
    out: dict = {}
    for span in spans:
        name, start, end, _ = span
        duration = end - start
        covered = union_length(children.get(id(span), ()), start, end)
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": []})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered
        entry["durations"].append(duration)
    return out


class Tracer:
    def __init__(self, packages=("homebench",), clock=time.perf_counter):
        self.packages = tuple(packages)
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = None  # stack of the installing thread
        self._patches: list = []  # (holder, key, original, is_dict)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home
        return home[-1] if home else None

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def span_wrapper(self, fn, name: str, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result(tracer,
        result)`` may add counts from the return value."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, tracer._parent(stack)]
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                tracer.spans.append(span)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        """Wrap ``fn`` to count calls only, for functions too small and too
        frequent for a span each."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            # no lock here: a collection can start inside count() itself
            self.gc_pause_s += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- installing -----------------------------------------------------------

    def patch(self, holder, attr: str, make_wrapper) -> None:
        """Replace ``holder.attr`` (a module or class attribute) with
        ``make_wrapper(original)``, and rebind that wrapper wherever a module
        of the traced packages refers to the original by name or through a
        module-level dict."""
        original = getattr(holder, attr)
        wrapper = make_wrapper(original)
        self._set(holder, attr, wrapper, original, is_dict=False)
        if isinstance(holder, type):
            return
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, original, is_dict=False)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper, original, is_dict=True)

    def _modules(self) -> list:
        return [module for name, module in list(sys.modules.items())
                if name.split(".")[0] in self.packages]

    def _set(self, holder, key, wrapper, original, is_dict: bool) -> None:
        if is_dict:
            holder[key] = wrapper
        else:
            setattr(holder, key, wrapper)
        self._patches.append((holder, key, original, is_dict))

    def trace(self, holder, attr: str, name: str = None, on_result=None) -> None:
        label = name or f"{getattr(holder, '__name__', holder)}.{attr}"
        self.patch(holder, attr, lambda fn: self.span_wrapper(fn, label, on_result))

    def count_calls(self, holder, attr: str, name: str) -> None:
        self.patch(holder, attr, lambda fn: self.count_wrapper(fn, name))

    def install(self) -> None:
        """Start recording on this thread and take gc pause times."""
        self._home = self._stack()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched reference, newest first, and stop gc timing."""
        for holder, key, original, is_dict in reversed(self._patches):
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._home = None

    # -- reading --------------------------------------------------------------

    def drain(self) -> dict:
        """Summarize and forget everything recorded since the last drain."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = dict(self.counts), defaultdict(int)
            pause, self.gc_pause_s = self.gc_pause_s, 0.0
            collections, self.gc_collections = self.gc_collections, 0
        return {"spans": summarize(spans), "counts": counts,
                "gc_pause_s": pause, "gc_collections": collections}
