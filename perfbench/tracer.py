"""Spans around the public functions of each ``tiltmat`` layer.

The tracer swaps a timing wrapper in for every public function of the layer
modules, at every module that binds it: ``cli``, ``harness``, ``reversible``
and ``spectral`` import names with ``from .core import tilt``, so patching
only the defining module would miss most calls.  Spans nest through a stack,
stay in compact in-memory arrays while the run lasts, and are written once
at the end.  A layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "io", "core", "validation", "reversible", "spectral", "harness")

# Called once per matrix entry by io.format_matrix; a span each would swamp
# the format time it belongs to.
UNWRAPPED = {"io.float_repr"}


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.label_ids = array("i")
        self.parents = array("i")
        self.stack: list[int] = []
        self.op_bounds: list[tuple[int, int]] = []
        self.labels: list[str] = []
        originals = []
        for layer in LAYERS:
            module = importlib.import_module(f"tiltmat.{layer}")
            for name, obj in vars(module).items():
                label = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and label not in UNWRAPPED
                ):
                    self.labels.append(label)
                    originals.append(obj)
        self.wrappers = {id(fn): self._wrap(fn, k) for k, fn in enumerate(originals)}
        self.bindings = [
            (module, attr, obj)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "tiltmat" or mod_name.startswith("tiltmat.")
            for attr, obj in vars(module).items()
            if id(obj) in self.wrappers
        ]

    def _wrap(self, fn, label_id: int):
        starts, ends, label_ids, parents = self.starts, self.ends, self.label_ids, self.parents
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            label_ids.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        self.op_bounds.append((len(self.starts), -1))
        for module, attr, obj in self.bindings:
            setattr(module, attr, self.wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in self.bindings:
            setattr(module, attr, obj)
        first, _ = self.op_bounds[-1]
        self.op_bounds[-1] = (first, len(self.starts))

    def per_op(self) -> tuple[np.ndarray, np.ndarray]:
        """Self milliseconds and call counts, shaped (ops, labels)."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        labels = np.frombuffer(self.label_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = ends - starts
        child = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        self_ms = 1e3 * (duration - child)
        n_labels = len(self.labels)
        ops = len(self.op_bounds)
        self_per_op = np.zeros((ops, n_labels))
        calls_per_op = np.zeros((ops, n_labels))
        for k, (first, last) in enumerate(self.op_bounds):
            lab = labels[first:last]
            self_per_op[k] = np.bincount(lab, weights=self_ms[first:last], minlength=n_labels)
            calls_per_op[k] = np.bincount(lab, minlength=n_labels)
        return self_per_op, calls_per_op

    def save(self, path: str) -> None:
        """Write every span: label, parent span, start and end (seconds), and op ranges."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            op_bounds=np.array(self.op_bounds, dtype=np.int64).reshape(-1, 2),
        )
