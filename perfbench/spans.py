"""Spans around the public functions of each braket module.

A Tracer wraps each traced function and patches the wrapper onto every
name the function is looked up under (for example `sl2c.clebsch_gordan`,
`cli.rep_to_json`, `braket.parse`), so calls are caught at each module
boundary without touching the library. Spans live in memory and are
written out once, at the end of the traced process.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or -1, op the id of the benchmark operation it belongs to.
Spans are written as one float array, with names as indices into a table,
so that writing them out costs little beside the traced work.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# The layers are braket's modules; each traced name is module.function.
TRACED = {
    "cg": ("clebsch_gordan", "radical_sum"),
    "sl2c": ("build_rep", "build_rep_diag", "rotation_basis", "orthonormal_basis",
             "rep_signature"),
    "linalg": ("inverse", "signature", "expm", "kron"),
    "serialize": ("rep_to_json", "rep_from_json", "dump_json", "load_json",
                  "environment_from_json", "matrix_from_json"),
    "dsl": ("parse", "evaluate"),
    "transforms": ("group_element", "is_symmetry", "transform_operator",
                   "transform_metric"),
    "projections": ("orthonormal_split", "subspace_projector", "is_perp"),
}
LAYERS = tuple(TRACED) + ("cli",)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.names: list[str] = []
        self.bytes_out = 0
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block; used around cli.main."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (self._name_id(name), start, end, parent, self.op)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counts_bytes = name == "serialize.dump_json"
        name = self._name_id(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counts_bytes:
                self.bytes_out += len(result)
            return result

        return traced

    def install(self):
        """Patch a wrapper onto every braket name bound to a traced function."""
        modules = [importlib.import_module("braket")] + [
            mod for key, mod in sys.modules.items() if key.startswith("braket.")
        ]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"braket.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def reset(self):
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self._stack.clear()
        self.bytes_out = 0

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "wb") as f:
            np.savez(f, spans=np.asarray(self.spans, dtype=float).reshape(-1, 5),
                     names=np.asarray(self.names), bytes_out=self.bytes_out)


class Profile:
    """Per-name and per-layer totals over one or more span lists."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # outermost spans of each name only
        self.self_time = defaultdict(float)  # by name
        self.layer_self = defaultdict(float)
        self.bytes_out = 0
        self.cli_main: list[tuple[int, float, float]] = []  # (op, duration, library self inside)

    def add(self, spans: list, bytes_out: int = 0):
        """Fold in spans given as (name, start, end, parent, op) tuples."""
        self.bytes_out += bytes_out
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child_time[k]
            self.calls[name] += 1
            self.self_time[name] += own
            self.layer_self[name.split(".")[0]] += own
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                self.busy[name] += dur
        # Library self time under each cli.main span, for the coverage check.
        inside = defaultdict(float)
        for k, (name, start, end, parent, _) in enumerate(spans):
            top = k
            while spans[top][3] >= 0:
                top = spans[top][3]
            if top != k and not name.startswith("cli."):
                inside[top] += end - start - child_time[k]
        for k, (name, start, end, parent, op) in enumerate(spans):
            if name == "cli.main":
                self.cli_main.append((op, end - start, inside[k]))

    def add_file(self, path):
        with np.load(path) as doc:
            names = doc["names"].tolist()
            spans = [(names[int(n)], start, end, int(parent), int(op))
                     for n, start, end, parent, op in doc["spans"].tolist()]
            self.add(spans, int(doc["bytes_out"]))
