"""In-memory spans at the public function boundaries of entmon's modules.

``Tracer`` wraps every public function (and public method of a public class)
defined in each layer module, and installs the wrapper under every name that
binds the original in the package: ``entmon.cli.exclusion_report`` and
``entmon.detector.pair_block`` are patched as well as the defining module's
own names, so calls between modules are traced too. Private helpers are not
wrapped; their time counts toward the public function that called them.

A span is (name id, parent span, start, end). Spans are appended to flat
arrays while traced code runs and are only summarised after the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("statevec", "tensor", "frames", "detector", "families", "cli")
# root span around one benchmark operation; its layer is the harness itself
OP = "bench.op"


class Tracer:
    def __init__(self, package):
        self.names: list[str] = [OP]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_n = array("i")  # qubit count of each op span, -1 elsewhere
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(obj, f"{layer}.{name}")
                    for ns in namespaces:
                        for attr, value in vars(ns).items():
                            if value is obj:
                                self._patches.append((ns, attr, obj, traced))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")

    def _wrap_methods(self, cls, prefix: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                self._patches.append((cls, name, member, self._wrap(member, f"{prefix}.{name}")))
            elif isinstance(member, classmethod):
                traced = classmethod(self._wrap(member.__func__, f"{prefix}.{name}"))
                self._patches.append((cls, name, member, traced))

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack, name_id, parent, start, end, op_n = (
            self._stack, self.name_id, self.parent, self.start, self.end, self.op_n,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_n.append(-1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def op(self, n: int, fn, *args):
        """Run one benchmark operation on an n-qubit input under a root span."""
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(-1)
        self.op_n.append(n)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "op_n": np.frombuffer(self.op_n, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so their durations add.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def root_op_n(parent: np.ndarray, op_n: np.ndarray) -> np.ndarray:
    """Qubit count of the op span each span descends from (-1 for none).

    Spans are numbered in entry order, so a parent precedes its children.
    """
    out = op_n.copy()
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            out[i] = out[p]
    return out
