import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import semiphi.cli as cli
import semiphi.extension as ext
import semiphi.paulsen as paulsen
import semiphi.serialization as ser
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    ExtensionInputError,
    HermiticityError,
    MembershipError,
    ModuleMap,
    NotCompletelyPositiveError,
    PreconditionError,
    SelfCheckError,
    ShapeError,
    SystemDecompositionError,
    block_map,
    canonical_compacts_extension,
    identity_cp_map,
    transpose_map,
)
from semiphi.cli import EXIT_INTERNAL, main
from semiphi.fixtures import compacts_fixture, example_2_1, scalar_fixture

from conftest import full_rectangular_module


def write_problem(path, payload):
    path.write_text(json.dumps({"schema_version": "1", "payload": payload}))
    return str(path)


@pytest.fixture
def ex21_file(tmp_path):
    fx = example_2_1(1)
    return write_problem(
        tmp_path / "ex21.json",
        {
            "phi": ser.cp_map_to_json(fx.phi),
            "Phi": ser.module_map_to_json(fx.phi_map),
            "E": ser.module_to_json(fx.e),
            "F": ser.module_to_json(fx.f),
        },
    )


def test_extend_scalar_model(ex21_file, capsys):
    assert main(["extend", ex21_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["extension_semi_ok"] is True
    values = report["witnesses"]["phi_prime_values"]
    # First basis direction maps to 1, the complement direction to 0.
    assert values[0][0][0] == pytest.approx([1.0, 0.0])
    assert np.allclose(values[1], 0.0)


def test_compare_on_a_parsed_file(tmp_path, capsys):
    # Gamma's domain and E are parsed into two equal modules.
    fx = compacts_fixture(2)
    gamma = canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)
    path = write_problem(
        tmp_path / "compare.json",
        {
            "phi": ser.cp_map_to_json(fx.phi),
            "Phi": ser.module_map_to_json(fx.phi_map),
            "E": ser.module_to_json(fx.e),
            "Gamma": ser.module_map_to_json(gamma),
        },
    )
    assert main(["compare", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["unique_extension_matches"] is True


def test_obstruction_refuted(ex21_file, capsys):
    assert main(["obstruction", ex21_file, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["margins"]["obstruction_norm"] > 0.1
    assert "non" in report["verdicts"]["note"]


SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas.md"


def documented_keys(command):
    """The ``verdicts``, ``margins`` and ``witnesses`` names of one row of the
    report table in docs/schemas.md, in the order listed."""
    for line in SCHEMAS.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] == command and len(cells) == 4:  # not the input table's row
            return [re.findall(r"`([a-z][a-z0-9_]*)`", cell) for cell in cells[1:4]]
    raise AssertionError(f"no report row for {command!r}")


@pytest.mark.parametrize(
    "command, argv, code",
    [
        ("extend", ["extend", "{file}"], 0),
        ("obstruction", ["obstruction", "{file}"], 1),
        ("demo example-2-1", ["demo", "example-2-1", "--n", "2"], 0),
        ("demo example-3-9", ["demo", "example-3-9", "--n", "2"], 0),
    ],
)
def test_report_keys_in_documented_order(ex21_file, capsys, command, argv, code):
    assert main([a.format(file=ex21_file) for a in argv] + ["--json"]) == code
    report = json.loads(capsys.readouterr().out)
    keys = [list(report[part]) for part in ("verdicts", "margins", "witnesses")]
    assert keys == documented_keys(command)


def test_check_cp_transpose(tmp_path, capsys):
    path = write_problem(
        tmp_path / "tp.json", {"phi": ser.cp_map_to_json(transpose_map(BlockAlgebra((2,))))}
    )
    assert main(["check-cp", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["margins"]["choi_lambda_min"] == pytest.approx(-1.0)


def test_check_semiphi_and_witness(tmp_path, capsys):
    pm, phi = scalar_fixture(2.0)
    payload = {"phi": ser.cp_map_to_json(phi), "Phi": ser.module_map_to_json(pm)}
    path = write_problem(tmp_path / "c2.json", payload)
    assert main(["check-semiphi", path]) == 1
    capsys.readouterr()
    assert main(["witness", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["margins"]["gap"] == pytest.approx(3.0)
    # c = 1 satisfies the criterion
    pm1, phi1 = scalar_fixture(1.0)
    path1 = write_problem(
        tmp_path / "c1.json",
        {"phi": ser.cp_map_to_json(phi1), "Phi": ser.module_map_to_json(pm1)},
    )
    assert main(["check-semiphi", path1]) == 0


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-cp", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_payload_key(tmp_path, capsys):
    path = write_problem(tmp_path / "empty.json", {})
    assert main(["check-cp", str(path)]) == 2


def _set_entry(payload, value):
    payload["phi"]["values_on_units"][0][0][0] = value


PAIRS = "expected nested [re, im] pairs"
LIST = "expected a list of matrices"


@pytest.mark.parametrize(
    "command, corrupt, location",
    [
        ("check-cp", lambda p: _set_entry(p, {"re": 1.0}), f"phi.values_on_units[0]: {PAIRS}"),
        ("check-cp", lambda p: _set_entry(p, [1.0, 0.0, 5.0]), f"phi.values_on_units[0]: {PAIRS}"),
        ("check-cp", lambda p: p["phi"].update(values_on_units=5), f"phi.values_on_units: {LIST}"),
        ("obstruction", lambda p: p["E"].update(basis=7), f"E.basis: {LIST}"),
        ("check-phi", lambda p: p["Phi"].update(values=None), f"Phi.values: {LIST}"),
    ],
    ids=["object-entry", "three-numbers", "number-for-list", "basis-number", "null-values"],
)
def test_malformed_matrices_are_input_errors(tmp_path, capsys, command, corrupt, location):
    # Each of these once escaped as a traceback with exit 1 ("refuted"), or,
    # for the third number in a pair, was dropped and the file accepted.
    fx = example_2_1(1)
    payload = {
        "phi": ser.cp_map_to_json(fx.phi),
        "Phi": ser.module_map_to_json(fx.phi_map),
        "E": ser.module_to_json(fx.e),
        "F": ser.module_to_json(fx.f),
    }
    corrupt(payload)
    assert main([command, write_problem(tmp_path / "bad.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {location}\n"


def test_unexpected_exception_is_internal_error(ex21_file, monkeypatch, capsys):
    def broken(*args):
        raise KeyError("no such entry")

    monkeypatch.setitem(cli.COMMANDS, "extend", (broken, True))
    assert main(["extend", ex21_file, "--json"]) == EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("KeyError: 'no such entry'\n")


def test_input_errors_are_value_errors():
    # main() maps every ValueError to exit 2 and a SelfCheckError to exit 3.
    for cls in (
        ser.SchemaError,
        ShapeError,
        HermiticityError,
        MembershipError,
        NotCompletelyPositiveError,
        ExtensionInputError,
        PreconditionError,
        SystemDecompositionError,
    ):
        assert issubclass(cls, ValueError), cls
    assert not issubclass(SelfCheckError, ValueError)


def test_stinespring_command(tmp_path, capsys):
    fx = example_2_1(1)
    path = write_problem(tmp_path / "id.json", {"phi": ser.cp_map_to_json(fx.phi)})
    assert main(["stinespring", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["margins"]["rank"] == 1


def test_demos_all_pass(capsys):
    for name in ("example-2-1", "example-3-4", "example-3-9", "compacts-2-6"):
        assert main(["demo", name, "--n", "2", "--seed", "7"]) == 0, name
    capsys.readouterr()


def test_cli_import_leaves_the_fixtures_unloaded():
    """A fresh process that imports the CLI does not load the fixtures,
    which only the demos read, and every demo still runs there."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys, contextlib, io\n"
        "import semiphi.cli as cli\n"
        "assert 'semiphi.fixtures' not in sys.modules\n"
        "for name in ('example-2-1', 'example-3-4', 'example-3-9', 'compacts-2-6'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['demo', name, '--n', '2']) == 0, name\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_demos_reuse_engine_stages(monkeypatch, capsys):
    counts = {"_extend": 0, "phi_extension_obstruction": 0}
    for name in counts:
        original = getattr(ext, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (ext, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert main(["demo", "compacts-2-6", "--n", "2"]) == 0
    assert counts == {"_extend": 1, "phi_extension_obstruction": 1}
    counts.update(_extend=0, phi_extension_obstruction=0)
    assert main(["demo", "example-2-1", "--n", "2"]) == 0
    assert counts == {"_extend": 1, "phi_extension_obstruction": 1}
    capsys.readouterr()


def test_demo_example_3_9_reports_both_restrictions(monkeypatch, capsys):
    assert main(["demo", "example-3-9", "--n", "2", "--seed", "4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"extension_exists": True, "restriction_agrees": True}
    assert report["margins"]["cp_restriction_defect"] == 0.0
    # extension_exists reads the CP part's restriction, not a constant.
    monkeypatch.setattr(cli, "_cp_restriction_defect", lambda *args: 1.0)
    assert main(["demo", "example-3-9", "--n", "2", "--seed", "4", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"extension_exists": False, "restriction_agrees": True}
    assert report["margins"]["cp_restriction_defect"] == 1.0


def test_demo_size_bound(capsys):
    assert main(["demo", "example-2-1", "--n", "9"]) == 2


def test_demo_deterministic_given_seed(capsys):
    assert main(["demo", "example-3-9", "--n", "2", "--seed", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["demo", "example-3-9", "--n", "2", "--seed", "3", "--json"]) == 0
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    a["timings"] = b["timings"] = None
    assert a == b


def test_tol_env_var(tmp_path, monkeypatch, ex21_file):
    monkeypatch.setenv("SEMIPHI_TOL", "1e-6")
    assert main(["extend", ex21_file]) == 0
    monkeypatch.setenv("SEMIPHI_TOL", "not-a-number")
    assert main(["extend", ex21_file]) == 2


@pytest.mark.parametrize(
    "how, value",
    [("flag", "nan"), ("flag", "inf"), ("env", "nan"), ("file", float("nan")), ("file", float("inf"))],
)
def test_non_finite_tolerance_is_input_error(tmp_path, monkeypatch, capsys, how, value):
    # An infinite tolerance passes every test and NaN fails every one: both
    # are refused before any verdict, for the transpose map (not CP) and the
    # identity map (CP) alike.
    for phi in (transpose_map(BlockAlgebra((2,))), identity_cp_map(BlockAlgebra((2,)))):
        doc = {"schema_version": "1", "payload": {"phi": ser.cp_map_to_json(phi)}}
        if how == "file":
            doc["tolerance"] = {"abs_tol": value, "rel_tol": 1e-9}
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))  # json writes and reads NaN and Infinity
        if how == "env":
            monkeypatch.setenv("SEMIPHI_TOL", value)
        argv = ["check-cp", str(path)] + (["--tol", value] if how == "flag" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err and "nonnegative" in captured.err


def test_self_check_failure_is_internal_error(ex21_file, monkeypatch, capsys):
    # A universal map that fails its own compatibility re-check is a defect
    # in the toolkit: it must not read as "refuted" (1) or "bad input" (2).
    monkeypatch.setattr(ext, "_block_defect", lambda *args: ext.PhiMapReport(False, 1.0, (0, 0)))
    assert main(["extend", ex21_file, "--json"]) == EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: universal map failed" in captured.err


def test_witness_command_decides_once(tmp_path, monkeypatch, capsys):
    fx = example_2_1(2)
    bad = ModuleMap(fx.f, 2, 2, tuple(3.0 * v for v in fx.phi_map.values))
    path = write_problem(
        tmp_path / "refuted.json",
        {"phi": ser.cp_map_to_json(fx.phi), "Phi": ser.module_map_to_json(bad)},
    )
    counts = {"gram_pair": 0, "eigh": 0, "eigvalsh": 0}
    for owner, name in ((ext, "gram_pair"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert main(["witness", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["witness_exists"] is True
    assert report["margins"]["gap"] > 0.0
    # One eigh decides and gives the witness vector; no eigenvalue-only solve.
    assert counts == {"gram_pair": 1, "eigh": 1, "eigvalsh": 0}


def paulsen_problem(tmp_path, name, phi_map, phi, codomain):
    payload = {
        "phi": ser.cp_map_to_json(phi),
        "Phi": ser.module_map_to_json(phi_map),
        "codomain_module": ser.module_to_json(codomain),
    }
    return write_problem(tmp_path / name, payload)


def scalar_paulsen_problem(tmp_path, c):
    """Multiplication by ``c`` on the scalars: CP as a system map iff |c| <= 1."""
    pm, phi = scalar_fixture(c)
    codomain = ConcreteModule(BlockAlgebra((1,)), 1, (np.array([[1.0]], dtype=complex),))
    return paulsen_problem(tmp_path, f"scalar-{c}.json", pm, phi, codomain)


def test_paulsen_command(tmp_path, capsys):
    fx = example_2_1(2)
    codomain = full_rectangular_module(2, 2)
    path = paulsen_problem(tmp_path, "paulsen.json", fx.phi_map, fx.phi, codomain)
    reports = []
    for _ in range(2):
        assert main(["paulsen", path, "--seed", "5", "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    sm = block_map(fx.phi_map, fx.phi, codomain)
    assert reports[0]["verdicts"] == {
        "cp_system_map": True,
        "unital": sm.unital,
        "domain_dimension": sm.domain.dimension,
        "codomain_dimension": sm.codomain.dimension,
    }
    for report in reports:
        del report["timings"]
    assert reports[0] == reports[1]
    assert main(["paulsen", scalar_paulsen_problem(tmp_path, 2.0), "--seed", "5", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["cp_system_map"] is False
    assert report["margins"]["gram_margin"] < 0.0


def test_paulsen_sampling_refutation_is_internal_error(tmp_path, monkeypatch, capsys):
    # A positive Gram verdict that PSD sampling refutes is a defect, not a
    # verdict.  Every level-1 sample of the scalar map with c = 2 is refuted.
    original = paulsen.is_completely_semi_phi
    monkeypatch.setattr(
        paulsen, "is_completely_semi_phi", lambda *a, **k: dataclasses.replace(original(*a, **k), ok=True)
    )
    assert main(["paulsen", scalar_paulsen_problem(tmp_path, 2.0), "--seed", "5", "--json"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: positive verdict refuted by PSD sampling (level 1, lambda_min ")
