"""In-memory span tracer that wraps the program's callables from outside.

A span is one call of a wrapped callable. Spans are aggregated per name
(call count, total seconds, seconds spent in each directly nested span), so
the self time of a layer is its total minus its children. Calls made in
forked pool workers are not seen: the worker holds its own copy of the
tracer and exits with it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, NamedTuple


class Patch(NamedTuple):
    """Wrap ``owner.attr`` as span ``name``; ``make(original)`` builds a custom wrapper."""

    owner: Any
    attr: str
    name: str
    leaf: bool = False
    make: Callable | None = None


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, total seconds, {child name: seconds}]
        self.counters = {}
        self.records = []    # non-leaf spans: (op, name, depth, start, end)
        self.missing = []    # span names whose callable no longer exists
        self.op = None       # identifier shared by the spans of one op
        self._stack = []

    def wrap(self, name, fn, leaf=False):
        """Return ``fn`` timed as span ``name``.

        A ``leaf`` is a hot callable that opens no traced span itself: only
        its totals are kept, which keeps the tracing overhead down.
        """
        stats = self.stats.setdefault(name, [0, 0.0, {}])
        stack = self._stack
        clock = time.perf_counter

        def traced_leaf(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                if stack:
                    parent = stack[-1]
                    parent[name] = parent.get(name, 0.0) + elapsed

        if leaf:
            return traced_leaf

        def traced(*args, **kwargs):
            children = {}
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += end - start
                for child, seconds in children.items():
                    stats[2][child] = stats[2].get(child, 0.0) + seconds
                if stack:
                    stack[-1][name] = stack[-1].get(name, 0.0) + (end - start)
                self.records.append((self.op, name, len(stack), start, end))

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def patched(self, patches):
        """Apply each ``Patch`` for the ``with`` block, then restore the originals.

        A missing attribute is noted in ``missing`` and leaves the metrics
        built on it absent.
        """
        applied = []
        try:
            for p in patches:
                if not hasattr(p.owner, p.attr):
                    self.missing.append(p.name)
                    continue
                original = getattr(p.owner, p.attr)
                applied.append((p.owner, p.attr, original, p.attr in vars(p.owner)))
                setattr(p.owner, p.attr,
                        p.make(original) if p.make else self.wrap(p.name, original, p.leaf))
            yield self
        finally:
            for owner, attr, original, owned in reversed(applied):
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # The readers below raise KeyError for a span that was never installed.
    def total(self, name):
        return self.stats[name][1]

    def calls(self, name):
        return self.stats[name][0]

    def self_time(self, name):
        calls, total, children = self.stats[name]
        return total - sum(children.values())

    def child_time(self, name, child):
        self.stats[child]
        return self.stats[name][2].get(child, 0.0)

    def counter(self, name, span):
        """Counter ``name``, which is kept inside span ``span``."""
        self.stats[span]
        return self.counters.get(name, 0)

    def to_dict(self):
        return {
            "stats": {k: {"calls": c, "total_s": t, "children_s": ch}
                      for k, (c, t, ch) in self.stats.items()},
            "counters": self.counters,
            "missing": self.missing,
            "spans": [{"op": op, "name": n, "depth": d, "start": s, "end": e}
                      for op, n, d, s, e in self.records],
        }
