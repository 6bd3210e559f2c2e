"""In-memory span recorder for the traced run.

The tracer replaces the public functions and methods of each ctqwalk
module with wrappers that record a span (name, start, end, parent) per
call, and restores the originals afterwards. Nothing under ``src/``
changes: the wrappers are installed from here, around the calls into
each layer. Spans live in per-thread arrays (the CLI's time-grid pool
calls in from worker threads) and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import threading
import time
from array import array

import numpy as np

import ctqwalk

LAYERS = ("graphs", "linalg", "dynamics", "nonclassicality", "cli")
#: private methods traced as well, because they hold a layer's heavy work:
#: the Pade fallback's dense exponential per step. One that is gone is skipped.
INTERNAL = (("linalg", "Superoperator", "_expm_matrix"),)


class _Buffer:
    """Spans of one thread; ``parent`` indexes this buffer, -1 for a root."""

    __slots__ = ("thread", "name", "parent", "start", "end", "stack")

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        b = self._buffer()
        i = len(b.start)
        b.name.append(nid)
        b.parent.append(b.stack[-1] if b.stack else -1)
        b.stack.append(i)
        b.end.append(0.0)
        b.start.append(time.perf_counter())
        return b, i

    @staticmethod
    def _close(b: _Buffer, i: int) -> None:
        b.end[i] = time.perf_counter()
        b.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        b, i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(b, i)

    def _wrap(self, name: str, fn):
        nid, open_, close = self._name_id(name), self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b, i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(b, i)

        return traced

    def _wrapper(self, name: str, fn):
        if name not in self._wrappers:
            self._wrappers[name] = self._wrap(name, fn)
        return self._wrappers[name]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of each layer module, and ``INTERNAL``.

        Methods are patched on their class; module functions are patched in
        their own module and wherever another ctqwalk module (or the package
        namespace) imported them by name.
        """
        originals: dict[int, tuple[object, object]] = {}
        modules = [importlib.import_module(f"ctqwalk.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrapper(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                            self._patch(obj, attr, self._wrapper(f"{layer}.{name}.{attr}", fn))
        for layer, cls_name, attr in INTERNAL:
            cls = getattr(modules[LAYERS.index(layer)], cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if inspect.isfunction(fn):
                self._patch(cls, attr, self._wrapper(f"{layer}.{cls_name}.{attr}", fn))
        for mod in [ctqwalk, *modules]:
            for name, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, name, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def has(self, name: str) -> bool:
        """Whether a function of that name was found and wrapped."""
        return name in self._ids

    def mark(self) -> dict[int, int]:
        """Current length of every buffer, to delimit the spans of one block."""
        return {id(b): len(b.start) for b in self.buffers}

    def stats(self, lo: dict[int, int], hi: dict[int, int]) -> dict[str, np.ndarray]:
        """Per-name totals over the spans recorded between two marks.

        Returns ``count``, ``total`` (summed duration) and ``self`` (duration
        minus the duration of direct children, i.e. time in that function's
        own code) as arrays indexed by name id.
        """
        k = len(self.names)
        out = {key: np.zeros(k) for key in ("count", "total", "self")}
        for b in self.buffers:
            a, z = lo.get(id(b), 0), hi.get(id(b), 0)
            if z <= a:
                continue
            names = np.frombuffer(b.name, dtype=np.int32)[a:z]
            parents = np.frombuffer(b.parent, dtype=np.int32)[a:z]
            dur = (np.frombuffer(b.end, dtype=np.float64)[a:z]
                   - np.frombuffer(b.start, dtype=np.float64)[a:z])
            own = dur.copy()
            inner = parents >= a
            np.subtract.at(own, parents[inner] - a, dur[inner])
            out["count"] += np.bincount(names, minlength=k)
            out["total"] += np.bincount(names, weights=dur, minlength=k)
            out["self"] += np.bincount(names, weights=own, minlength=k)
        return out

    def layer_of(self) -> np.ndarray:
        """Layer index (into ``LAYERS``) of each name id, -1 for other spans."""
        return np.array([LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS else -1
                         for n in self.names])

    def write(self, path, t0: float) -> int:
        """Write every span (times relative to ``t0``) as gzipped JSON."""
        payload = {"names": self.names, "threads": [
            {"thread": b.thread, "name": b.name.tolist(), "parent": b.parent.tolist(),
             "start": [x - t0 for x in b.start], "end": [x - t0 for x in b.end]}
            for b in self.buffers]}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
        return sum(len(b.start) for b in self.buffers)
