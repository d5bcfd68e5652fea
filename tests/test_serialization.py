import json

import numpy as np
import pytest

import semiphi.serialization as ser
from semiphi import BlockAlgebra, ToleranceProfile
from semiphi.fixtures import example_2_1, random_cp_map, random_semi_phi_fixture


def test_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(ser.matrix_from_json(ser.matrix_to_json(m)), m)
    for empty in (np.zeros((0, 0)), np.zeros((2, 0))):
        assert ser.matrix_from_json(ser.matrix_to_json(empty)).shape == empty.shape


def test_matrix_bad_payload():
    # Entries are two numbers: a string or null for a number, a third number
    # or a ragged row is malformed.
    for bad in ([[1.0, 2.0]], [[["1.0", 0.0]]], [[[None, 0.0]]], [[[1.0, 0.0, 5.0]]], [[[1.0, 0.0]], [[1.0]]]):
        with pytest.raises(ser.SchemaError):
            ser.matrix_from_json(bad)


def test_algebra_roundtrip():
    a = BlockAlgebra((2, 1, 3))
    assert ser.algebra_from_json(ser.algebra_to_json(a)) == a


def test_module_roundtrip():
    fx = example_2_1(2)
    back = ser.module_from_json(ser.module_to_json(fx.e))
    assert back.algebra == fx.e.algebra
    assert back.row_dim == fx.e.row_dim
    for a, b in zip(back.basis, fx.e.basis):
        assert np.array_equal(a, b)


def test_cp_map_roundtrip(rng):
    phi = random_cp_map(BlockAlgebra((2, 1)), 2, 2, rng)
    back = ser.cp_map_from_json(ser.cp_map_to_json(phi))
    assert back.domain == phi.domain
    assert back.target_dim == phi.target_dim
    for a, b in zip(back.values, phi.values):
        assert np.array_equal(a, b)


def test_module_map_roundtrip(rng):
    fx = random_semi_phi_fixture(rng)
    back = ser.module_map_from_json(ser.module_map_to_json(fx.phi_map))
    assert (back.h1_dim, back.h2_dim) == (fx.phi_map.h1_dim, fx.phi_map.h2_dim)
    for a, b in zip(back.values, fx.phi_map.values):
        assert np.array_equal(a, b)


def test_tolerance_parsing():
    tol = ser.tolerance_from_json({"abs_tol": 1e-6, "rel_tol": 1e-7})
    assert tol == ToleranceProfile(1e-6, 1e-7)
    assert ser.tolerance_from_json(None) == ToleranceProfile()
    with pytest.raises(ser.SchemaError):
        ser.tolerance_from_json("loose")


def test_load_problem_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ser.SchemaError, match="line"):
        ser.load_problem(str(bad))

    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text(json.dumps({"schema_version": "9", "payload": {}}))
    with pytest.raises(ser.SchemaError, match="schema_version"):
        ser.load_problem(str(wrong_version))

    no_payload = tmp_path / "np.json"
    no_payload.write_text(json.dumps({"schema_version": "1"}))
    with pytest.raises(ser.SchemaError, match="payload"):
        ser.load_problem(str(no_payload))


def test_dump_report_handles_numpy_scalars():
    report = {
        "verdicts": {"ok": np.bool_(True)},
        "margins": {"x": np.float64(1.5), "z": 1 + 2j},
        "witnesses": {"m": np.eye(2, dtype=complex)},
    }
    parsed = json.loads(ser.dump_report(report))
    assert parsed["verdicts"]["ok"] is True
    assert parsed["margins"]["z"] == [1.0, 2.0]
    assert parsed["witnesses"]["m"][0][0] == [1.0, 0.0]
