"""Span tracer installed into a package from outside, without editing it.

Each traced callable is replaced by a wrapper that records one span per call:
its name, its parent span, the request it belongs to, and its start and end.
Spans are kept in flat arrays in memory and written out once, after the run.
Module-level functions are rebound in every module of the package that holds
them, since `from .group import multiply`-style imports make private copies
of the name; methods are patched on their class.  `uninstall` puts every
original back.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name = array("i")
        self._parent = array("q")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._current = -1
        self.request_wall = []
        self.counters = defaultdict(float)  # (request, counter) -> total
        self._patches = []

    # -- installation -----------------------------------------------------
    def install(self, targets, package: str):
        """Wrap each (span name, owner, attribute, on_result) target.  owner
        is a class or a module of `package`; on_result(tracer, result), if
        given, runs after each call that returns."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == package or name.startswith(package + "."))]
        for span, owner, attr, on_result in targets:
            if span in self.names:
                nid = self.names.index(span)
            else:
                nid = len(self.names)
                self.names.append(span)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(nid, original, on_result))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, nid, fn, on_result):
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer._current)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- recording ----------------------------------------------------------
    @contextmanager
    def request(self):
        """Spans opened inside share one request id."""
        self._current = len(self.request_wall)
        t0 = time.perf_counter()
        try:
            yield self._current
        finally:
            self.request_wall.append(time.perf_counter() - t0)
            self._current = -1

    def count(self, counter: str, value: float):
        self.counters[(self._current, counter)] += value

    # -- results ------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self._name, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "request": np.frombuffer(self._request, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def aggregate(self) -> list:
        """Per request, {span name: (calls, inclusive s, self s)} plus the
        request's counters under "counters" and its total self time under
        "self_total_s".  Self time is a span's duration minus the time its
        direct children cover."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        n_names = len(self.names)
        out = []
        for req in range(len(self.request_wall)):
            mask = a["request"] == req
            ids = a["name"][mask]
            calls = np.bincount(ids, minlength=n_names)
            incl = np.bincount(ids, weights=dur[mask], minlength=n_names)
            selft = np.bincount(ids, weights=own[mask], minlength=n_names)
            spans = {name: (int(calls[i]), float(incl[i]), float(selft[i]))
                     for i, name in enumerate(self.names)}
            out.append({
                "spans": spans,
                "counters": {k: v for (r, k), v in self.counters.items()
                             if r == req},
                "self_total_s": float(own[mask].sum()),
                "wall_s": self.request_wall[req],
            })
        return out

    def dump(self, path):
        np.savez(path, **self.arrays())
