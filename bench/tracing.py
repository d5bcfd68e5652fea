"""Spans around the calls into each semiphi layer, installed from outside.

The tracer wraps public functions of the package's modules and patches the
wrapper into every ``semiphi`` submodule that imported the original (so
internal calls are seen too), and wraps three methods on their classes.
Spans ``(name, start, end, parent, request, extra)`` are kept in memory;
``extra`` carries the per-call quantity a derived metric needs.  No file of
the package is modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Layer (= package module) -> traced public functions.
FUNCTIONS = {
    "numerics": ["is_psd", "column_span_onb", "nullspace_onb", "least_squares_operator", "operator_norm"],
    "algebra": ["contains", "pinch"],
    "modules": ["validate_module", "is_submodule", "orthogonal_complement"],
    "cpmaps": ["choi", "kraus", "stinespring"],
    "extension": [
        "extend_semi_phi",
        "ksgns",
        "gram_pair",
        "is_phi_map",
        "is_completely_semi_phi",
        "semiphi_witness",
        "phi_extension_obstruction",
    ],
    "paulsen": ["block_map", "is_cp_system_map", "decompose_system_element"],
    "serialization": ["load_problem", "cp_map_from_json", "module_from_json", "module_map_from_json", "dump_report"],
    "cli": ["main"],
}
# Layer -> (class, method) wrapped on the class itself.
METHODS = {
    "modules": [("ConcreteModule", "coefficients")],
    "cpmaps": [("CPMap", "apply_ambient")],
    "paulsen": [("SystemMap", "apply_n")],
}
# Span name -> extra recorded per call, from the positional arguments.
EXTRAS = {
    "modules.validate_module": lambda args: id(args[0]),
    "numerics.nullspace_onb": lambda args: int(np.prod(np.shape(args[0]))),
}
REQUEST = "request"
ENGINE = "extension.extend_semi_phi"
OBSTRUCTION = "extension.phi_extension_obstruction"


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{layer}.{cls}.{meth}" for layer, pairs in METHODS.items() for cls, meth in pairs]
    return names


class Tracer:
    """Owns the span list and the patch table; ``install``/``uninstall`` swap
    the wrappers in and out so untraced requests run the original code."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = -1
        self.child_import_ms = 0.0
        self._open = (-1, 0.0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra_of = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extra = extra_of(args) if extra_of else None
                spans[idx] = (name, start, end, parent, tracer.request, extra)

        return traced

    def _build_patches(self) -> None:
        import semiphi
        import semiphi.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "semiphi" or n.startswith("semiphi.")]
        for layer, fns in FUNCTIONS.items():
            home = sys.modules[f"semiphi.{layer}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is orig:
                            self._patches.append((mod, attr, orig, wrapper))
        for layer, pairs in METHODS.items():
            home = sys.modules[f"semiphi.{layer}"]
            for cls_name, meth in pairs:
                cls = getattr(home, cls_name)
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig, self._wrap(f"{layer}.{cls_name}.{meth}", orig)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def begin(self, request: int) -> None:
        self.request = request
        self._open = (len(self.spans), time.perf_counter())
        self._stack.append(self._open[0])
        self.spans.append(None)

    def end(self) -> None:
        idx, start = self._open
        self._stack.pop()
        self.spans[idx] = (REQUEST, start, time.perf_counter(), -1, self.request, None)

    def extend(self, spans: list) -> None:
        """Append spans recorded elsewhere (a child process), re-basing parent
        indices and tagging them with the current request."""
        base = len(self.spans)
        for name, start, end, parent, _, extra in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, self.request, extra))

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def per_layer(spans: list, requests: int) -> dict[str, float]:
    """Per-request counts and self times for every traced name, plus the
    derived counts named in the benchmark definition."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    validated = defaultdict(set)
    nullspace_elems = 0
    for idx, (name, start, end, parent, req, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[idx]
        if name == "modules.validate_module":
            validated[req].add(extra)
        elif name == "numerics.nullspace_onb":
            nullspace_elems += extra
    n = max(requests, 1)
    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / n
    out["numerics.nullspace_onb.input_elems"] = nullspace_elems / n
    distinct = sum(len(ids) for ids in validated.values())
    out["modules.validate_module.repeat_ratio"] = calls["modules.validate_module"] / distinct if distinct else 0.0
    engine_s = sum(e - s for name, s, e, *_ in spans if name == ENGINE)
    stage_s = stage_table(spans)
    others = [t for name, t in stage_s.items() if name != OBSTRUCTION]
    obstruction = stage_s.get(OBSTRUCTION, 0.0)
    out[f"{ENGINE}.obstruction_share"] = obstruction / engine_s if engine_s else 0.0
    out[f"{ENGINE}.obstruction_lead"] = obstruction / max(others) if others and max(others) else 0.0
    return out


def stage_table(spans: list) -> dict[str, float]:
    """Inclusive seconds of each direct child stage of the engine."""
    stage_s = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0 and spans[parent][0] == ENGINE:
            stage_s[name] += end - start
    return dict(sorted(stage_s.items(), key=lambda kv: -kv[1]))
