"""Span tracing around the package's public functions, for the traced run.

``Tracer.install`` wraps each function listed in ``TIMED`` and rebinds every
alias of it across the loaded ``radialflow.*`` namespaces (the modules import
each other's functions by name, so patching the defining module alone would
miss most calls). Each call records a span with its name, start, end and
parent span; a layer's self time is its span time minus its child spans.
Per-element helpers such as ``loads.injection_current`` are deliberately not
wrapped, so the number of spans stays proportional to solves, not to nodes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


def nbytes(obj: Any) -> int:
    """Bytes of the arrays a function returned: an array's ``nbytes``, the
    arrays reachable through dataclass fields, or the UTF-8 length of text."""
    if isinstance(obj, str):
        return len(obj.encode())
    seen: set[int] = set()

    def walk(value: Any) -> int:
        if id(value) in seen:
            return 0
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            return value.nbytes
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return sum(walk(getattr(value, f.name)) for f in dataclasses.fields(value))
        return 0

    return walk(obj)


def _in_bytes(args, result) -> int:
    return len(args[0].encode())


def _out_bytes(args, result) -> int:
    return nbytes(result)


def _iterations(args, result) -> int:
    return result.iterations


# (module, function, counters): each counter is (metric name, measure).
TIMED: tuple[tuple[str, str, tuple[tuple[str, Callable], ...]], ...] = (
    ("io", "parse_feeder", (("io.parse_feeder.in_bytes", _in_bytes),)),
    ("io", "write_solution", (("io.write_solution.out_bytes", _out_bytes),)),
    ("network", "validate_radial", ()),
    ("network", "tree_structure", ()),
    ("network", "build_incidence", (("network.build_incidence.out_bytes", _out_bytes),)),
    ("network", "reduced_impedance", (("network.reduced_impedance.out_bytes", _out_bytes),)),
    ("network", "branch_impedance_matrix",
     (("network.branch_impedance_matrix.out_bytes", _out_bytes),)),
    ("network", "ybus", (("network.ybus.out_bytes", _out_bytes),)),
    ("linsolve", "assemble", (("linsolve.assemble.out_bytes", _out_bytes),)),
    ("linsolve", "solve_linear", ()),
    ("linsolve", "solve_linear_full", ()),
    ("loads", "load_vectors", ()),
    ("loads", "nodal_injections", ()),
    ("bfs", "solve_bfs", (("bfs.iterations", _iterations),)),
    ("bfs", "residual", ()),
    ("metrics", "branch_flows", ()),
    ("metrics", "summarize", ()),
    ("metrics", "node_errors", ()),
    ("metrics", "luvr", ()),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counters: dict[str, float] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed self time (``<name>.self_s``), call count
    (``<name>.calls``) and every counter, summed over the spans."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.name}.self_s"] = totals.get(f"{span.name}.self_s", 0.0) + own
        totals[f"{span.name}.calls"] = totals.get(f"{span.name}.calls", 0) + 1
        for key, value in span.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)


class Tracer:
    """Collects spans in memory; wrappers exist only between ``install``
    and ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counters) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            for key, measure in counters:
                record.counters[key] = measure(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for module, name, counters in TIMED:
            original = getattr(importlib.import_module(f"radialflow.{module}"), name)
            replacements[id(original)] = (
                original, self._wrap(f"{module}.{name}", original, counters)
            )
        for modname, mod in list(sys.modules.items()):
            if modname != "radialflow" and not modname.startswith("radialflow."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)
