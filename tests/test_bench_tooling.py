"""The benchmark's tracer and extension requests still fit the library.

``bench/tracing.py`` wraps functions and methods by name and
``bench/workloads.py`` reads ``extend_semi_phi(...).report`` by key, so a
rename in the library would otherwise only surface mid-benchmark.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from semiphi import serialization as ser
from semiphi.fixtures import example_2_1

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


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
    # The input semi check on F; the carrier map's pair on E reads the
    # obstruction's table.
    assert layers["extension.gram_pair.calls"] == 1.0
    # The engine factors through the carrier map, with no orthonormal basis.
    assert layers["extension.ksgns.calls"] == 0.0
    assert layers["numerics.column_span_onb.calls"] == 0.0
    assert layers["modules.ConcreteModule.coefficients.calls"] == 1.0


def run_fresh(argv, **kwargs):
    """Run ``argv`` in a fresh interpreter that imports this checkout's
    package and writes no bytecode into bench/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120, **kwargs)


# The distinct span names a traced child records on example 2.1 (n = 1).  No
# decision calls cpmaps.choi: the CP views read the Choi blocks.
CHILD_SPANS = {
    "check-cp": [
        "cli.main",
        "serialization.cp_map_from_json",
        "serialization.dump_report",
        "serialization.load_problem",
    ],
    "extend": [
        "cli.main",
        "cpmaps.kraus",
        "cpmaps.stinespring",
        "extension.extend_semi_phi",
        "extension.gram_pair",
        "extension.phi_extension_obstruction",
        "modules.ConcreteModule.coefficients",
        "modules.validate_module",
        "numerics.least_squares_operator",
        "numerics.nullspace_onb",
        "numerics.operator_norm",
        "serialization.cp_map_from_json",
        "serialization.dump_report",
        "serialization.load_problem",
        "serialization.module_from_json",
        "serialization.module_map_from_json",
    ],
}


@pytest.mark.parametrize("command", sorted(CHILD_SPANS))
def test_traced_cli_child_records_every_span(command, tmp_path):
    """The cli_files child builds the tracer after ``import semiphi.cli``
    alone, so it reaches layers that the command has not run yet."""
    fx = example_2_1(1)
    payload = {
        "phi": ser.cp_map_to_json(fx.phi),
        "Phi": ser.module_map_to_json(fx.phi_map),
        "E": ser.module_to_json(fx.e),
    }
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"schema_version": "1", "payload": payload}))
    spans = tmp_path / "spans.json"
    done = run_fresh([str(BENCH / "cli_child.py"), str(spans), command, str(problem), "--json"])
    assert done.returncode == 0, done.stderr
    recorded = json.loads(spans.read_text())["spans"]
    assert sorted({span[0] for span in recorded}) == CHILD_SPANS[command]


def test_tracer_patches_package_names_read_after_it():
    """A package name first read after the tracer is built (as a benchmark
    request does) reads the wrapper while the tracer is installed and the
    original after it is removed."""
    script = (
        "import semiphi, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "assert semiphi.is_cp_system_map.__wrapped__ is semiphi.paulsen.is_cp_system_map.__wrapped__\n"
        "tracer.uninstall()\n"
        "assert not hasattr(semiphi.is_cp_system_map, '__wrapped__')\n"
    )
    done = run_fresh(["-c", script], cwd=BENCH)
    assert done.returncode == 0, done.stderr
