"""Span tracing around the package's public functions, installed from outside.

The tracer replaces each public function of a layer module with a wrapper
that records a span (name, start, end, parent) and restores the originals on
exit. Nothing inside the package changes: calls are intercepted where a
module looks the name up, so a function is patched in every loaded package
module that binds it (``evaluation.predict`` as well as the names that
``evaluation`` imported from ``preprocess`` and ``baseband``).

Span names use the defining layer module (``preprocess.unfold_normalize``
even when called through ``evaluation``); a function from outside the layers
is named after the layer that binds it (``baseband.resample`` is scipy's
``resample`` as ``channel_apply`` calls it).

Two completeness counts ride along:

* per recording tape, the wrapped primitive-op calls whose output the tape
  recorded, compared with ``len(tape)`` when ``training.mse_loss`` returns;
* the batch rows passed to each model forward.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from contextlib import contextmanager

PACKAGE = "dofdm_lab"
LAYERS = (
    "baseband",
    "preprocess",
    "config",
    "autodiff",
    "transdetector",
    "dnn_detector",
    "training",
    "checkpoint",
    "evaluation",
)
PRIMITIVE_OPS = (
    "matmul",
    "add",
    "mul",
    "scale",
    "transpose",
    "reshape",
    "concat_rows",
    "concat_cols",
    "stack_channels",
    "slice_rows",
    "slice_cols",
    "mean",
    "tanh_op",
    "mish",
    "softmax_rows",
    "normalize_rows",
    "layer_norm",
    "conv2d_same",
)
OPS = ("linear",) + PRIMITIVE_OPS
# functions from outside the layers, traced under the layer that binds them
FOREIGN = (("baseband", "resample"), ("training", "zero_all_grads"))
# (module, class, method, span name)
METHODS = (
    ("autodiff", "Tape", "backward", "autodiff.Tape.backward"),
    ("transdetector", "TransDetector", "forward", "transdetector.forward"),
    ("dnn_detector", "DnnDetector", "forward", "dnn_detector.forward"),
)
MODEL_FORWARDS = ("transdetector.forward", "dnn_detector.forward")
WRITERS = ("checkpoint.save_checkpoint", "preprocess.save_dataset")


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.names = set()  # every span name a wrapper records
        self._stack = []
        self._patches = []
        self.span_bytes = {}  # span index -> bytes written by that call
        self.forward_rows = {name: 0 for name in MODEL_FORWARDS}
        self.forward_nodes = []
        self.tape_mismatches = []
        self.tapes_checked = 0
        self._tape_counts = {}
        self._paused = 0

    # ---- spans ----

    @contextmanager
    def paused(self):
        """Calls made inside run untraced and uncounted (output checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        self.names.add(name)

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- installation ----

    def install(self, modules: dict) -> None:
        """Patch every layer function; modules maps layer name -> module."""
        loaded = [m for n, m in sys.modules.items() if n.startswith(PACKAGE + ".") and m is not None]
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, obj, self._after_hook(layer, attr))
                for holder in loaded:
                    if vars(holder).get(attr) is obj:
                        self._patch(holder, attr, wrapped)
        for layer, attr in FOREIGN:
            mod = modules[layer]
            self._patch(mod, attr, self._wrap(f"{layer}.{attr}", getattr(mod, attr)))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrap(name, vars(cls)[meth], self._after_hook_method(name)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, modules: dict):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    # ---- completeness and byte hooks ----

    def _after_hook(self, layer: str, attr: str):
        name = f"{layer}.{attr}"
        if layer == "autodiff" and attr in PRIMITIVE_OPS:
            return self._count_op
        if name == "training.mse_loss":
            return self._check_tape
        if name in WRITERS:
            return self._count_bytes
        return None

    def _count_bytes(self, idx, args, kwargs, result) -> None:
        self.span_bytes[idx] = os.path.getsize(args[0])

    def _after_hook_method(self, name: str):
        if name not in MODEL_FORWARDS:
            return None

        def hook(idx, args, kwargs, result):
            _, tape, windows = args[:3]
            self.forward_rows[name] += windows.shape[0]
            if tape.recording and name == "transdetector.forward":
                self.forward_nodes.append(len(tape))

        return hook

    def _count_op(self, idx, args, kwargs, result) -> None:
        tape = args[0]
        if tape.recording and result._on_tape:
            self._tape_counts[id(tape)] = self._tape_counts.get(id(tape), 0) + 1

    def _check_tape(self, idx, args, kwargs, result) -> None:
        tape = args[0]
        if not tape.recording:
            return
        counted = self._tape_counts.pop(id(tape), 0)
        self.tapes_checked += 1
        if counted != len(tape):
            self.tape_mismatches.append((counted, len(tape)))


# ---- derived per-layer figures ----


def summarize(spans: list, span_bytes: dict) -> dict:
    """name -> {'calls', 's', 'self_s', 'bytes'} per phase ('setup' or 'timed').

    A span's phase is the name of its root span ('bench.setup' or
    'bench.round'); self time is its duration minus its children's.
    """
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    out = {"setup": {}, "timed": {}}
    for i, (name, start, end, _) in enumerate(spans):
        phase = {"bench.setup": "setup", "bench.round": "timed"}.get(spans[root[i]][0])
        if phase is None or name.startswith("bench."):
            continue
        row = out[phase].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        row["calls"] += 1
        row["bytes"] += span_bytes.get(i, 0)
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
