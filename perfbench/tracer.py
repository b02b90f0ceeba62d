"""Span recording by rebinding public functions of the program's modules.

A span holds a name, a start and an end (``time.perf_counter``), the index
of the enclosing span (-1 at top level) and the id of the unit of work it
belongs to.  Spans live in flat arrays while the benchmark runs and are
written out once at the end.  Wrapping happens only from the benchmark's
side: a target is rebound in the module (or on the class) through which the
program calls it, and restored afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


def arg(args, kwargs, index, name, default=None):
    """Argument `name` of a wrapped call, given positionally or by keyword."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Records spans and counters around rebound functions.

    A target is ``(module, "attr" or "Class.attr", span_name, hook)``;
    span_name may be a function of (args, kwargs).  A hook runs after the
    call as ``hook(tracer, args, kwargs, result, seconds)`` and feeds
    counters and captures.  Targets that the program no longer defines are
    listed in ``missing`` instead of failing the run.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.current_unit = 0
        self.context = None          # label the workload sets, e.g. a variant
        self.counters = {}
        self.captures = {}
        self.missing = []
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def capture(self, key, value):
        self.captures[key] = value

    def _wrapper(self, fn, name, hook):
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.unit.append(self.current_unit)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.end[idx] = t1
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, t1 - t0)
            return result
        return wrapper

    def install(self, targets):
        for module, attr, name, hook in targets:
            owner = sys.modules.get(module) or importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrapper(fn, name, hook))
            self._undo.append((owner, leaf, fn))
        return self

    def restore(self):
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # ------------------------------------------------------------- analysis

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, unit, self time."""
        name = np.array(self.name_idx, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "unit": np.array(self.unit, dtype=np.int64),
                "dur": dur, "self": dur - child}

    def has_ancestor(self, child_name, ancestor_name):
        """Indices of `ancestor_name` spans that enclose a `child_name` span."""
        cid = self._name_ids.get(child_name, -1)
        aid = self._name_ids.get(ancestor_name, -1)
        found = set()
        for i, nid in enumerate(self.name_idx):
            if nid != cid:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_idx[p] == aid:
                    found.add(p)
                p = self.parent[p]
        return found

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=a["name"],
                            start=a["start"], end=a["end"], parent=a["parent"],
                            unit=a["unit"])
