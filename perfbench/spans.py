"""In-memory layer spans, recorded from outside the program.

A span is opened around every call that goes through a wrapped name: the
attribute a calling module looks a function up under, such as
``coalflow.verify.energy_two_sample`` (a function imported into ``verify``)
or ``coalflow.skeleton.SkeletonFlow.clusters_at_index`` (a method).  The
program's own files are never edited; wrappers are installed with
``setattr`` and removed again by ``uninstall``.

Spans nest through a stack, so a span's self time is its duration minus the
time covered by the spans opened inside it (calls are single-threaded, so
children never overlap).  Spans are kept in compact arrays and written out
once, by ``dump``, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter

perf_counter = time.perf_counter


def resolve(target: str):
    """(owner, attribute) for a dotted target such as ``pkg.mod.Class.meth``.

    Raises AttributeError or ImportError when the name no longer exists."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        inspect.getattr_static(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"cannot import any prefix of {target!r}")


def patch(target: str, make_wrapper):
    """Replace ``target`` by ``make_wrapper(original)``; returns an undo
    callable.  Static methods stay static methods."""
    owner, attr = resolve(target)
    static = inspect.getattr_static(owner, attr)
    is_static = isinstance(static, staticmethod)
    original = static.__func__ if is_static else getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
    return lambda: setattr(owner, attr, static)


class Capture:
    """Keeps the positional arguments and result of every call through one
    name, so checks can read samples the program hands between layers."""

    def __init__(self, target: str):
        self.calls: list = []
        patch(target, self._wrap)

    def _wrap(self, fn):
        calls = self.calls

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, result))
            return result
        return captured


class Tracer:
    """Span recorder.  ``install`` wraps a table of targets; a target that
    no longer exists is listed in ``absent`` and skipped."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counters: Counter = Counter()
        self.absent: list = []
        self._stack: list = []
        self._next_id = 0
        self._undo: list = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, sid, parent, nid, t0, t1, self_time) -> None:
        self.span_id.append(sid)
        self.parent.append(parent)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.self_time.append(self_time)

    def record(self, name: str, t0: float, t1: float) -> int:
        """Append a finished top-level span with no children; returns its
        id."""
        sid = self._next_id
        self._next_id += 1
        self._append(sid, -1, self._nid(name), t0, t1, t1 - t0)
        return sid

    def _make_wrapper(self, span, on_result, fn):
        stack = self._stack
        fixed = None if callable(span) else self._nid(span)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._nid(span(args))
            sid = self._next_id
            self._next_id += 1
            frame = [0.0]
            parent = stack[-1][1] if stack else -1
            stack.append((frame, sid))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0][0] += dur
                self._append(sid, parent, nid, t0, t1, dur - frame[0])
            if on_result is not None:
                on_result(self.counters, args, result)
            return result
        return traced

    def install(self, table) -> None:
        """table: iterable of (target, span name or fn(args) -> name,
        on_result or None)."""
        for target, span, on_result in table:
            try:
                self._undo.append(patch(
                    target, lambda fn, s=span, o=on_result:
                    self._make_wrapper(s, o, fn)))
            except (AttributeError, ImportError):
                self.absent.append(target)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def aggregate(self) -> dict:
        """span name -> [calls, total seconds, self seconds]."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for nid, t0, t1, st in zip(self.name_id, self.start, self.end,
                                   self.self_time):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += st
        return out

    def merge(self, other: dict, name: str, t0: float, t1: float) -> None:
        """Fold a dumped tracer from a child process in, under a new span
        ``name`` covering the child's lifetime [t0, t1] as seen from here.
        perf_counter is the system monotonic clock, so times line up."""
        sid = self._next_id
        base = sid + 1
        remap = {c: base + i for i, c in enumerate(other["span_id"])}
        self._next_id = base + len(remap)
        names = other["names"]
        covered = 0.0
        for csid, par, nid, c0, c1, st in zip(*(other[k] for k in (
                "span_id", "parent", "name_id", "start", "end", "self_time"))):
            if par not in remap:
                covered += c1 - c0
            self._append(remap[csid], remap.get(par, sid),
                         self._nid(names[nid]), c0, c1, st)
        self._append(sid, -1, self._nid(name), t0, t1, t1 - t0 - covered)
        self.counters.update(other["counters"])
        for target in other["absent"]:
            if target not in self.absent:
                self.absent.append(target)

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "span_id": list(self.span_id), "parent": list(self.parent),
            "name_id": list(self.name_id), "start": list(self.start),
            "end": list(self.end), "self_time": list(self.self_time),
            "counters": dict(self.counters), "absent": self.absent,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))
