"""In-memory spans around the public functions of the pesignal modules.

A Tracer replaces a function everywhere the program looks it up: every
pesignal module attribute bound to the original object, and any dict
entry holding it (the CLI dispatches through ``cli._COMMANDS``). Each
call records one span (name, start, end, parent) plus whatever counts
the caller's count function reads from the arguments and the return
value. Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, parent, name, start, end, counts]
        self._stack = []
        self._patches = []  # (namespace, key, original), restored in reverse

    def wrap(self, name: str, fn, count=None):
        """fn with a span recorded around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, self.clock(), None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self.clock()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, count=None, extra=()) -> bool:
        """Swap module.attr in every pesignal module and dict in extra that holds it.

        Returns False, patching nothing, when the module has no such attribute.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = self.wrap(name, original, count)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "pesignal":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)
        for table in extra:
            for key, value in list(table.items()):
                if value is original:
                    self._patches.append((table, key, original))
                    table[key] = wrapped
        return True

    def restore(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def self_time(span, spans) -> float:
    """Span duration minus the part of it covered by its direct children."""
    start, end = span[3], span[4]
    covered = 0.0
    reach = start
    for child in sorted((s for s in spans if s[1] == span[0]), key=lambda s: s[3]):
        lo, hi = max(child[3], reach), min(child[4], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def outermost(spans, names) -> list:
    """Spans named in names that have no ancestor named in names."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    picked = []
    for span in spans:
        if span[2] not in names:
            continue
        parent = span[1]
        while parent is not None and by_id[parent][2] not in names:
            parent = by_id[parent][1]
        if parent is None:
            picked.append(span)
    return picked


def total(spans, names) -> float:
    """Wall time of the named layer: outermost spans only, so nesting is not counted twice."""
    return sum(s[4] - s[3] for s in outermost(spans, names))


def count(spans, name: str, key: str) -> int:
    return sum(s[5][key] for s in spans if s[2] == name and s[5])
