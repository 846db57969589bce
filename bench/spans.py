"""Timing shims for the traced benchmark run.

A :class:`Tracer` replaces public functions of the package, at the place
where the calling module looks them up, with shims that record one span
each: a name, a start, an end and the parent span.  Spans stay in memory
as flat arrays and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` wrapped in a shim that records a span per call."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return shim

    def install(self, name, sites, on_result=None):
        """Shim ``getattr(owner, attr)`` for every ``(owner, attr)`` site.

        Class attributes are patched in the class ``__dict__``, so methods,
        classmethods and inherited lookups all go through the shim.
        """
        for owner, attr in sites:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(original, classmethod):
                shim = classmethod(self.wrap(original.__func__, name, on_result))
            else:
                shim = self.wrap(original, name, on_result)
            setattr(owner, attr, shim)
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __len__(self):
        return len(self.start)

    def summary(self, lo=0, groups=None):
        """Per span name: calls, self seconds and median call microseconds,
        over the spans from index ``lo`` on.  ``groups`` maps extra keys to
        lists of span names whose spans are pooled."""
        name = np.frombuffer(self.name, dtype=np.int32)[lo:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:]
        dur = (np.frombuffer(self.end, dtype=float)[lo:]
               - np.frombuffer(self.start, dtype=float)[lo:])
        child = np.zeros(dur.size)
        inner = parent >= lo
        np.add.at(child, parent[inner] - lo, dur[inner])
        own = dur - child
        members = {self.names[nid]: [nid] for nid in np.unique(name)}
        for key, group in (groups or {}).items():
            members[key] = [self._ids[g] for g in group if g in self._ids]
        out = {}
        for key, nids in members.items():
            sel = np.isin(name, nids)
            if not sel.any():
                continue
            out[key] = {
                "calls": int(sel.sum()),
                "self_s": float(own[sel].sum()),
                "call_us.p50": float(np.median(dur[sel])) * 1e6,
            }
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
