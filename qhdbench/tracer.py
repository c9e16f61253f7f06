"""Spans and counters recorded from outside the qhd package.

The tracer wraps public functions of the qhd modules by rebinding them.  A
name brought in with `from .algebra import multiply` is a separate binding
in every importing module, so each function is patched wherever a qhd
module binds it; class attributes are patched on the class.  `restore()`
puts every original back.

A span is (name, start, end, parent index).  Spans stay in memory until
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

WRAPPED_MARK = "__qhdbench_wrapped__"


def qhd_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qhd" or name.startswith("qhd."))]


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent]
        self.counts = Counter()
        self._stack: list = []
        self._patches: list = []   # (owner, attr, original)

    # -- patching -------------------------------------------------------------

    def _rebind(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn, wrapper):
        """Rebind `fn` to `wrapper` in every qhd module that binds it."""
        hits = 0
        for mod in qhd_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._rebind(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is not bound in any qhd module")

    def patch_method(self, cls, attr, wrapper):
        self._rebind(cls, attr, wrapper)

    def patch_item(self, mapping: dict, key, wrapper):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def spanned(self, name, fn, prepare=None, measure=None):
        """`fn` inside a span.  `prepare(args)` runs before the span opens and
        may replace the arguments; `measure(args, result)` runs after it
        closes and returns counter increments."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if measure is not None:
                counts.update(measure(args, result))
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn, distinct=None):
        """`fn` with a call counter and no span; `distinct(args)` keys the
        arguments whose distinct values are counted as `name.distinct`."""
        counts = self.counts
        seen: set = set()

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if distinct is not None:
                key = distinct(args)
                if key not in seen:
                    seen.add(key)
                    counts[name + ".distinct"] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, summed duration, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), kids in zip(self.spans, child):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - kids)
        return out


def leftover_wrappers() -> list:
    """Names in qhd modules and their classes still bound to a wrapper."""
    found = []
    for mod in qhd_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
            if isinstance(value, dict):
                for key, item in value.items():
                    if getattr(item, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{attr}[{key!r}]")
    return found
