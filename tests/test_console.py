"""Six checks of the CI workflow, run in Tier-1 as child processes: five of
``python -m semiphi.cli`` on problem files written under ``tmp_path`` (the
seeded ``paulsen`` reports, the malformed-input exit code, non-orthogonal
bases, the rescaled carrier inputs and the rescaled ``stinespring``) and one
large extension under a memory ceiling.  In-process tests call
``cli.main()`` and never see the exit status or the stderr of the
interpreter itself."""

import json
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from semiphi import BlockAlgebra, ConcreteModule, CPMap, ModuleMap, from_kraus, ksgns, serialization as ser
from semiphi.fixtures import (
    _column_module,
    _random_unitary,
    compacts_fixture,
    example_2_1,
    random_contraction,
    random_cp_map,
    random_semi_phi_fixture,
)

from conftest import full_rectangular_module

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"


def run_cli(*args):
    """``python -m semiphi.cli *args`` in a fresh interpreter that imports
    this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "semiphi.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def three_block_fixture():
    """A system over three algebra blocks of sizes 3, 2 and 1 whose module
    leaves the block of size 2 without columns."""
    fx = random_semi_phi_fixture(np.random.default_rng(26), max_q=6)
    f = fx.phi_map.domain
    assert f.algebra.blocks == (3, 2, 1)
    assert [bool(np.any(f._basis_stack[:, :, sl])) for sl in f.algebra.block_slices()] == [True, False, True]
    return fx


PAULSEN_PROBLEMS = {
    "paulsen": lambda: example_2_1(2),
    "paulsen-two-blocks": lambda: compacts_fixture(2),
    "paulsen-three-blocks": three_block_fixture,
}


@pytest.mark.parametrize("name", sorted(PAULSEN_PROBLEMS))
def test_seeded_paulsen_reports_agree(name, tmp_path):
    # Runs at two seeds exit 0 with no traceback and agree apart from
    # `timings`: the certificate of a positive verdict draws nothing.
    fx = PAULSEN_PROBLEMS[name]()
    payload = {
        "phi": ser.cp_map_to_json(fx.phi),
        "Phi": ser.module_map_to_json(fx.phi_map),
        "codomain_module": ser.module_to_json(full_rectangular_module(fx.phi_map.h2_dim, fx.phi_map.h1_dim)),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"schema_version": "1", "payload": payload}))
    reports = []
    for seed in ("7", "8"):
        done = run_cli("paulsen", str(path), "--seed", seed, "--json")
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        report = json.loads(done.stdout)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["verdicts"]["cp_system_map"] is True


def test_malformed_input_exits_2_without_traceback(tmp_path):
    # A malformed matrix list is an input error (exit 2), not "refuted"
    # (exit 1) and not an escaped exception with its traceback.
    path = tmp_path / "malformed.json"
    path.write_text(
        '{"schema_version": "1", "payload": {"phi": {"algebra": {"blocks": [1]}, "target_dim": 1, "values_on_units": 5}}}'
    )
    done = run_cli("check-cp", str(path))
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


def write_problem(path, payload):
    path.write_text(json.dumps({"schema_version": "1", "payload": payload}))
    return str(path)


def mixed(stack):
    """Element j becomes element j plus half of each element before it."""
    d = len(stack)
    upper = np.eye(d) + 0.5 * np.triu(np.ones((d, d)), 1)
    return tuple(np.tensordot(upper.T, stack, axes=1))


@pytest.mark.parametrize("command", [["extend"], ["paulsen", "--seed", "7"]], ids=["extend", "paulsen"])
def test_non_orthogonal_bases_agree(command, tmp_path):
    # Every generated basis is orthogonal, so projection and the rank count
    # read its Gram product; mixing each basis (and Phi's values on F) by one
    # invertible upper-triangular matrix sends them through the SVD path
    # instead.  The span, the map and so every verdict and exit code stay
    # the same.
    fx = compacts_fixture(2)
    f, e = fx.phi_map.domain, fx.e
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)  # all of M_2 over M_2
    runs = []
    for name, mix in (("orthonormal", tuple), ("mixed", mixed)):
        f_mix = ConcreteModule(f.algebra, f.row_dim, mix(f._basis_stack))
        payload = {
            "phi": ser.cp_map_to_json(fx.phi),
            "Phi": ser.module_map_to_json(ModuleMap(f_mix, fx.phi_map.h1_dim, fx.phi_map.h2_dim, mix(fx.phi_map._value_stack))),
            "E": ser.module_to_json(ConcreteModule(e.algebra, e.row_dim, mix(e._basis_stack))),
            "codomain_module": ser.module_to_json(ConcreteModule(BlockAlgebra((2,)), 2, mix(units))),
        }
        done = run_cli(command[0], write_problem(tmp_path / f"{name}.json", payload), *command[1:], "--json")
        assert "Traceback" not in done.stderr
        runs.append((done.returncode, json.loads(done.stdout)["verdicts"]))
    assert runs[0] == runs[1]


def carrier_systems():
    """The CI step's two algebras, in its order from one generator: over
    BlockAlgebra((2, 2)) in C^10, one block's columns spanning a single row
    (dim F = 16, N = 64), and over BlockAlgebra((2, 2, 2)) in C^12, three
    columns per block (dim F = 18, N = 72)."""
    rng = np.random.default_rng(7)
    u = _random_unitary(10, rng)
    yield "two", BlockAlgebra((2, 2)), 10, [u[:, :1], u[:, 1:8]], rng
    u = _random_unitary(12, rng)
    yield "three", BlockAlgebra((2, 2, 2)), 12, [u[:, 3 * b : 3 * b + 3] for b in range(3)], rng


def test_rescaled_carrier_inputs_agree(tmp_path):
    # From N = 64 on, over any number of algebra blocks, check-semiphi and
    # witness decide on the signed Choi carrier.  A semi map (norm 0.5) and
    # a refuted one (norm 2) times the universal map are written with F's
    # basis and Phi's values scaled by c; both commands exit 0 on the semi
    # map and 1 on the refuted one, at every c, with equal verdicts.
    for name, algebra, p, spans, rng in carrier_systems():
        phi = random_cp_map(algebra, 4, 2, rng)
        universal = np.array(ksgns(phi, _column_module(algebra, p, spans)).map.values)
        for label, norm in (("semi", 0.5), ("refuted", 2.0)):
            k = random_contraction(4, universal.shape[1], rng)
            values = norm / np.linalg.norm(k, 2) * np.matmul(k, universal)
            for command in ("check-semiphi", "witness"):
                runs = set()
                for c in (1e-3, 1.0, 1e3):
                    f = _column_module(algebra, p, [c * v for v in spans])
                    payload = {"phi": ser.cp_map_to_json(phi), "Phi": ser.module_map_to_json(ModuleMap(f, 4, 4, tuple(c * values)))}
                    done = run_cli(command, write_problem(tmp_path / f"{name}-{label}-{c}.json", payload), "--json")
                    assert "Traceback" not in done.stderr
                    runs.add((done.returncode, json.dumps(json.loads(done.stdout)["verdicts"], sort_keys=True)))
                assert len(runs) == 1, (name, label, command, runs)
                assert runs.pop()[0] == (0 if label == "semi" else 1)


def test_rescaled_stinespring_agrees(tmp_path):
    # The dilation's reconstruction defect is decided at the map's own
    # scale.  One CP map with one Kraus operator (its dilation keeps the one
    # Choi eigenvalue at every c) is written at c = 1e-8, 1 and 1e10;
    # `stinespring` exits 0 on each file with equal verdicts, and the
    # dilation reconstructs.
    rng = np.random.default_rng(0)
    kraus = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    phi = from_kraus(BlockAlgebra((3,)), [kraus], target_dim=2)
    verdicts = {}
    for c in ("1e-8", "1", "1e10"):
        scaled = CPMap(phi.domain, phi.target_dim, tuple(float(c) * phi._value_stack))
        done = run_cli("stinespring", write_problem(tmp_path / f"stinespring-{c}.json", {"phi": ser.cp_map_to_json(scaled)}), "--json")
        assert done.returncode == 0, done.stderr
        verdicts[c] = json.loads(done.stdout)["verdicts"]
    assert verdicts["1"]["dilation_reconstructs"] is True
    assert verdicts["1e-8"] == verdicts["1"] == verdicts["1e10"]


# One extension at dim E 392 over BlockAlgebra((14, 14)) (dim F 196, m = k =
# 4), built as bench/problems.py builds its problems.
LARGE_EXTENSION = """
import sys

import numpy as np

sys.path.insert(0, sys.argv[1])
import problems as P
import semiphi

pr = P.make_problem(np.random.default_rng([1, 392]), (14, 14), (14, 14), (7, 7), 30, 4, 4, 2, False)
assert len(pr.e_basis) == 392 and len(pr.f_basis) == 196
res = semiphi.extend_semi_phi(P.module_map(pr, pr.semi), P.module(pr, pr.e_basis), P.cp_map(pr))
assert res.report["extension_semi_ok"]
"""


def test_large_extension_under_a_memory_ceiling():
    # The CI step "One large extension under a memory ceiling" runs this
    # test.  At that size the pair kernel's tables take values first, whose
    # one temporary is m^2 times the basis slices; products first held a
    # 1.9 GB product array and its transposed copy, and the process peaked
    # near 2.1 GB.  The child, on one BLAS thread, must finish under 800 MB
    # of peak RSS (the largest of this process's waited-for children).
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run(
        [sys.executable, "-c", LARGE_EXTENSION, str(BENCH)], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    assert peak_mb < 800, f"peak RSS {peak_mb:.0f} MB"
