"""Span tracing of otp_remctl from outside: the source stays untouched.

``Tracer.install`` replaces every public function and method defined in
the seven layer modules with a wrapper that records one span per call
(name, start, end, parent span, command id, size of the first argument),
and rebinds every alias the package's modules hold (``protocol`` imports
``otp_encrypt`` by name, ``cli`` imports ``charge``, ...).  ``uninstall``
puts the originals back.  Spans stay in compact arrays in memory and are
written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  The wrapper's
own bookkeeping for a child lands in the parent's self time, and the
traced run reports how much slower the flight runs with tracing on.
"""

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "otp_remctl"
LAYERS = ("entropy", "keystore", "frame", "protocol", "channel", "randtest", "cli")


def _arg_size(value) -> int:
    if isinstance(value, int):
        return value
    try:
        return len(value)
    except TypeError:
        return -1


class Tracer:
    def __init__(self) -> None:
        self.names = []
        self._ids = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.cmd = array("q")
        self.size = array("q")
        self._stack = []
        self.cmd_id = -1
        self._patches = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cmd.append(self.cmd_id)
        self.size.append(size)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, size: int = -1):
        """A span for the benchmark's own phases (layer ``bench``)."""
        sid = self._open(self.name_id(name), size)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str, arg_index: int):
        nid = self.name_id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opened(nid, _arg_size(args[arg_index]) if len(args) > arg_index else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(sid)

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", 0))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, layer)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, replaced[id(obj)][1])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, 0))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, 1))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, 1)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ analysis

    def columns(self, lo: int = 0, hi: int | None = None) -> dict:
        """Span arrays for spans lo..hi-1, with duration and self time in ns."""
        hi = len(self) if hi is None else hi
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = end - start
        inside = parent >= 0
        children = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        return {
            "name": np.frombuffer(self.name, dtype=np.int64)[lo:hi],
            "parent": parent,
            "cmd": np.frombuffer(self.cmd, dtype=np.int64)[lo:hi],
            "size": np.frombuffer(self.size, dtype=np.int64)[lo:hi],
            "dur": dur,
            "self": dur - children,
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), start=np.array(self.start),
                 end=np.array(self.end), parent=np.array(self.parent),
                 name=np.array(self.name), cmd=np.array(self.cmd), size=np.array(self.size))


class SpanStats:
    """Per-name and per-layer aggregates over a range of spans."""

    def __init__(self, tracer: Tracer, lo: int = 0, hi: int | None = None) -> None:
        self.tracer = tracer
        self.c = tracer.columns(lo, hi)

    def mask(self, name: str) -> np.ndarray:
        nid = self.tracer._ids.get(name)
        return self.c["name"] == nid if nid is not None else np.zeros(len(self.c["name"]), bool)

    def durations(self, name: str, where=None) -> np.ndarray:
        m = self.mask(name)
        if where is not None:
            m &= where
        return self.c["dur"][m]

    def sizes(self, name: str) -> np.ndarray:
        return self.c["size"][self.mask(name)]

    def self_total(self, name: str) -> int:
        return int(self.c["self"][self.mask(name)].sum())

    def children_of(self, parent_name: str) -> np.ndarray:
        """Mask of spans whose parent span is named ``parent_name``."""
        parents = np.flatnonzero(self.mask(parent_name))
        return np.isin(self.c["parent"], parents)

    def layer_self_ns(self) -> dict:
        layer_of = np.array([n.split(".")[0] for n in self.tracer.names] or [""])
        per_span = layer_of[self.c["name"]] if len(self.c["name"]) else np.array([], str)
        return {layer: int(self.c["self"][per_span == layer].sum())
                for layer in LAYERS + ("bench",)}
