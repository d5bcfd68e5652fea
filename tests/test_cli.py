import json

import numpy as np
import pytest

import semiphi.cli as cli
import semiphi.extension as ext
import semiphi.serialization as ser
from semiphi import BlockAlgebra, ModuleMap, canonical_compacts_extension, transpose_map
from semiphi.cli import EXIT_INTERNAL, main
from semiphi.fixtures import compacts_fixture, example_2_1, scalar_fixture


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
    counts = {"gram_pair": 0, "is_psd": 0}
    for name in counts:
        original = getattr(ext, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ext, name, counted)
    assert main(["witness", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["witness_exists"] is True
    assert report["margins"]["gap"] > 0.0
    assert counts == {"gram_pair": 1, "is_psd": 1}
