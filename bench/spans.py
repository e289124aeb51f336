"""Span tracing from outside the program.

``Tracer.install`` replaces, in each ``cutcheck`` module, the functions that
module looks up from another ``cutcheck`` module (``cutcheck.engine.unify``,
not ``cutcheck.terms.unify``) with a wrapper that records a span.  A count
is then a count of boundary crossings: recursion inside a module is not
counted per level.  The public checkers of ``verify`` are also wrapped where
``verify`` calls them itself, so each checker gets its own span.

A span holds its name, start, end, parent span and job id; spans are kept
in flat arrays and written out when the run ends.  A layer is a module; its
self time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

PACKAGE = "cutcheck"
INTRA_MODULE = {"cutcheck.verify"}  # modules whose own public functions are also wrapped


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.counts: dict = defaultdict(int)  # derived from return values
        self.job_counts: dict = defaultdict(lambda: defaultdict(int))
        self.wrapped: set = set()  # "layer.function" names that were wrapped
        self.unreadable: set = set()  # names whose return value a hook could not read
        self._summary = None

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: int = 1):
        self.counts[name] += amount
        self.job_counts[self.job_id][name] += amount

    def span(self, name: str, fn, on_return=None, on_raise=None):
        """A wrapper around ``fn`` that records one span per call."""
        nid = self._intern(name)
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                stack.pop()
            if on_return is not None:
                try:
                    on_return(result)
                except (AttributeError, TypeError):  # the return value has another shape now
                    self.unreadable.add(name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks: dict):
        """Wrap every cross-module function reference in the package.

        ``hooks`` maps "layer.function" to ``(on_return, on_raise)`` callbacks
        that derive counts from what the function returned or raised.
        """
        modules = [m for n, m in sys.modules.items() if n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                # a generator function returns before its work is done: not timed
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not owner.startswith(PACKAGE + ".") or inspect.isgeneratorfunction(obj)):
                    continue
                if owner == module.__name__ and owner not in INTRA_MODULE:
                    continue
                name = f"{owner.rpartition('.')[2]}.{getattr(obj, '__name__', attr)}"
                on_return, on_raise = hooks.get(name, (None, None))
                setattr(module, attr, self.span(name, obj, on_return, on_raise))
                self.wrapped.add(name)

    def begin_job(self, job_id: int):
        self.job_id = job_id

    def summary(self):
        """Per function name: calls, inclusive seconds and self seconds; and
        self seconds per layer.  Computed once, after the pass."""
        if self._summary is None:
            n = len(self.start)
            dur = [e - s for s, e in zip(self.start, self.end)]
            child = [0.0] * n
            for i, p in enumerate(self.parent):
                if p >= 0:
                    child[p] += dur[i]
            calls: dict = defaultdict(int)
            incl: dict = defaultdict(float)
            self_s: dict = defaultdict(float)
            for nid, d, c in zip(self.name_id, dur, child):
                calls[nid] += 1
                incl[nid] += d
                self_s[nid] += d - c
            names = self.names
            calls = defaultdict(int, {names[k]: v for k, v in calls.items()})
            incl = defaultdict(float, {names[k]: v for k, v in incl.items()})
            self_s = defaultdict(float, {names[k]: v for k, v in self_s.items()})
            layers: dict = defaultdict(float)
            for name, v in self_s.items():
                layers[name.partition(".")[0]] += v
            self._summary = calls, incl, self_s, layers
        return self._summary

    def write(self, directory: Path):
        """Write the spans: ``names.json`` (the name table) and one binary
        file per field, named ``<field>.<array typecode>`` and readable with
        ``array.array(typecode).frombytes``; ``name_id`` indexes the name
        table, ``parent`` is a span index or -1, ``start``/``end`` are
        ``time.perf_counter`` seconds."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.json").write_text(json.dumps(self.names), encoding="utf-8")
        for field in ("name_id", "parent", "job", "start", "end"):
            values = getattr(self, field)
            with open(directory / f"{field}.{values.typecode}", "wb") as fh:
                values.tofile(fh)
