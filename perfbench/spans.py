"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers that :func:`install` puts around the public
functions of each qfdiv module (and around the constructors of the value
classes that validate their input).  Modules import names from each other
(``from .fdiv import quantum_f_divergence``), so a wrapper is bound in every
``qfdiv.*`` namespace that holds the original; otherwise calls between layers
would bypass it.  :func:`uninstall` restores every binding.

A span is ``(name_id, start_ns, end_ns, parent_index, op_id)``.  Times come
from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux).  Self time is a span's
duration minus the durations of its direct children; the recorder is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# module -> layer; the rng primitives belong to the channels layer
LAYER_OF_MODULE = {
    "qfdiv.linalg": "linalg",
    "qfdiv.fdiv": "fdiv",
    "qfdiv.condent": "condent",
    "qfdiv.channels": "channels",
    "qfdiv.rng": "channels",
    "qfdiv.propsuite": "propsuite",
}
# the cli layer runs only in child processes, which the probes time from outside
LAYERS = ("linalg", "fdiv", "condent", "channels", "propsuite")
BENCH_LAYER = "bench"

# classes whose constructor validates its input, so constructing one is work
_TRACED_CLASSES = (
    ("qfdiv.linalg", "DensityOperator"),
    ("qfdiv.condent", "BipartiteState"),
    ("qfdiv.channels", "KrausChannel"),
)


class Tracer:
    """Collects spans; ``names[i]`` and ``layers[i]`` describe name id ``i``."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    @contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER):
        nid = self.name_id(name, layer)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent, self.op_id)

    def _wrap(self, fn, name: str, layer: str):
        nid = self.name_id(name, layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        """Wrap every public qfdiv function and rebind it in every qfdiv namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "qfdiv" or n.startswith("qfdiv.")}
        wrapped = {}  # id(original) -> wrapper
        for mod_name, layer in LAYER_OF_MODULE.items():
            mod = modules[mod_name]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                ):
                    short = mod_name.split(".", 1)[1]
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", layer))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name in _TRACED_CLASSES:
            cls = getattr(modules[mod_name], cls_name)
            init = cls.__dict__["__init__"]
            short = mod_name.split(".", 1)[1]
            self._saved.append((cls, "__init__", init))
            cls.__init__ = self._wrap(init, f"{short}.{cls_name}", LAYER_OF_MODULE[mod_name])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per-name call counts, total ns and self ns over all recorded spans."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child_ns[i]
        return calls, total, own

    def layer_self_ns(self) -> dict[str, int]:
        _, _, own = self.self_times()
        out = {layer: 0 for layer in (*LAYERS, BENCH_LAYER)}
        for name, ns in own.items():
            out[self.layers[self._ids[name]]] += ns
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the name table, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                      "names": self.names, "layers": self.layers}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
