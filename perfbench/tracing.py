"""Spans around the public functions of nilgrade, installed from outside.

A `Tracer` replaces each wrapped function at every module attribute that
refers to it (so `carnot.is_grading_operator`, imported by name from
`derivability`, is wrapped as well as `derivability.is_grading_operator`)
and restores the originals on `uninstall`.  Spans are kept in memory as
(name, start, end, parent span id, request id); a span's self time is its
duration minus the durations of its direct children, which never overlap
because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# Layer -> wrapped public functions.  `linalg` is only called from inside
# the other layers; its time stays in its callers' self time.
WRAPPED: dict[str, tuple[str, ...]] = {
    "lie": ("parse_algebra", "lower_central_series", "adapted_basis", "change_of_basis"),
    "derivability": ("e_invariant", "is_A_derivable", "e_of_operator", "is_grading_operator"),
    "carnot": ("grading_from_operator", "carnot_algebra", "carnot_pair", "serialize_carnot"),
    "bch": ("bch_table", "bch_product", "carnot_product", "law_difference"),
    "goodman": ("goodman_check", "dilate", "guivarch_norm"),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)

# Calls whose arguments and results feed the counts computed after a run.
RECORDED = frozenset({
    "derivability.e_invariant",
    "derivability.is_A_derivable",
    "bch.bch_product",
    "goodman.goodman_check",
})

NAME, START, END, PARENT, REQUEST, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple[str, object, tuple, object]] = []
        self.request: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"nilgrade.{layer}") for layer in WRAPPED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nilgrade" or name.startswith("nilgrade."))]
        for span_name in SPAN_NAMES:
            layer, fn_name = span_name.split(".")
            original = getattr(layers[layer], fn_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        record = name in RECORDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.request, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
            if record:
                calls.append((name, span[REQUEST], args, result))
            return result

        return traced

    def totals(self, requests: set | None = None) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name, over the given requests."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span in self.spans:
            if requests is not None and span[REQUEST] not in requests:
                continue
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - span[CHILD]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "request": str(span[REQUEST]),
                    "self_s": span[END] - span[START] - span[CHILD],
                }) + "\n")
