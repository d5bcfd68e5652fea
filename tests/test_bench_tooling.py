"""The benchmark's tracer and extension requests still fit the library.

``bench/tracing.py`` wraps functions and methods by name and
``bench/workloads.py`` reads ``extend_semi_phi(...).report`` by key, so a
rename in the library would otherwise only surface mid-benchmark.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_resolves_every_traced_name(bench_modules):
    tracing, _ = bench_modules
    tracer = tracing.Tracer()  # raises if a traced name is gone
    wrappers = {id(wrapper) for *_, wrapper in tracer._patches}
    assert len(wrappers) == len(tracing.span_names())


def test_extend_requests_run_traced(bench_modules, tmp_path):
    """One semi and one exact extend_wide request, each checked by the
    workload's own call (which reads the report keys), under the tracer."""
    tracing, workloads = bench_modules
    requests = workloads.extend_wide(7, str(tmp_path))
    picked = [next(r for r in requests if r.kind == kind) for kind in ("extend_semi", "extend_exact")]
    for req in picked:
        req.call(None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, req in enumerate(picked):
            tracer.begin(i)
            req.call(tracer)
            tracer.end()
    finally:
        tracer.uninstall()
    layers = tracing.per_layer(tracer.spans, len(picked))
    assert layers["modules.validate_module.repeat_ratio"] == 1.0
    assert layers["extension.phi_extension_obstruction.calls"] == 1.0
    # The input semi check on F; the universal map's pair on E reads the
    # obstruction's table.
    assert layers["extension.gram_pair.calls"] == 1.0
    assert layers["modules.ConcreteModule.coefficients.calls"] == 1.0
