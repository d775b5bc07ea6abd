"""In-memory span tracer for one ``enspost`` process.

Spans are aggregated by their call path: every distinct path of span names
(``cli.main / cli.cmd_train / train.train_pool / ...``) is one :class:`Node`
holding the number of calls, the summed duration and the summed duration of
its direct children, so a node's self time is ``total - child``.  Nodes that
set ``samples`` also keep each call's duration, for medians and tails.

Autodiff ops are too many and too small for spans: they only count calls and
forward seconds per op name, and are not subtracted from any span's self
time.

After a fork (the ``ProcessPoolExecutor`` workers of ``train_pool``) the
child clears every aggregate but keeps the path it was forked at, so a
worker's tree holds only the worker's own work.  Nothing here imports
``enspost``; :mod:`stage` decides what to wrap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

perf_counter = time.perf_counter


class Node:
    __slots__ = ("name", "children", "calls", "total", "child", "samples")

    def __init__(self, name, samples=False):
        self.name = name
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.samples = array("d") if samples else None

    def clear(self):
        self.calls, self.total, self.child = 0, 0.0, 0.0
        if self.samples is not None:
            self.samples = array("d")
        for node in self.children.values():
            node.clear()

    def to_dict(self):
        out = {"name": self.name, "calls": self.calls, "total": self.total,
               "child": self.child,
               "children": [c.to_dict() for c in self.children.values()]}
        if self.samples is not None:
            out["samples"] = list(self.samples)
        return out


class Tracer:
    """Span stack, per-op counters and free-form counters of one process."""

    def __init__(self):
        self.root = Node("root")
        self.stack = [self.root]
        self.ops = {}          # op name -> [calls, seconds]
        self.counters = {}     # counter name -> number
        self.sets = {}         # set name -> set of distinct keys
        self.samples = {}      # sample name -> list of seconds
        self.missing = []     # wrap targets that were not found
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, samples=False, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` run outside the timed interval."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, samples)
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                node.calls += 1
                node.total += duration
                parent.child += duration
                if node.samples is not None:
                    node.samples.append(duration)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def op(self, name, fn):
        """``fn`` wrapped to count calls and forward seconds of one op."""
        slot = self.ops.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            slot[1] += perf_counter() - t0
            slot[0] += 1
            return result

        return wrapper

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_key(self, name, key):
        self.sets.setdefault(name, set()).add(key)

    def add_sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def inside(self, name):
        """True when a span called ``name`` is open on the stack."""
        return any(node.name == name for node in self.stack)

    # -- processes -----------------------------------------------------------

    def _after_fork(self):
        self.pid = os.getpid()
        self.root.clear()
        for slot in self.ops.values():
            slot[0], slot[1] = 0, 0.0
        self.counters.clear()
        self.sets.clear()
        self.samples.clear()

    def snapshot(self):
        return {
            "pid": self.pid,
            "tree": self.root.to_dict(),
            "ops": {k: list(v) for k, v in self.ops.items()},
            "counters": dict(self.counters),
            "sets": {k: sorted(map(repr, v)) for k, v in self.sets.items()},
            "samples": self.samples,
            "missing": self.missing,
        }

    def dump(self, path):
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)
