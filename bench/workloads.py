"""The three workloads: seeded request pools and the calls that serve them.

Each request performs one library call (or one CLI child process), then
checks the outcome against the answer known from the construction and an
independent re-evaluation; any exception marks the request failed.  Request
order is fixed (size-major, kinds interleaved) and the seed changes only the
random content, so every seed has the same cost profile.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import problems as P
import semiphi
from checks import expect

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
M = K = 4  # CP target dimension and module-map codomain dimension
RANK = 2  # Kraus rank of the generated CP maps
INSTANCES = 2  # random problems per shape in a pool
CHILD_TIMEOUT_S = 60


@dataclass
class Request:
    kind: str
    # call(tracer) performs the request and raises on a wrong outcome;
    # ``tracer`` is None for untraced requests.
    call: Callable


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


# ---------------------------------------------------------------------------
# extend_wide: the extension engine over BlockAlgebra((6, 6)).

# (E column dims per block, F column dims per block, exact branch)
WIDE_SHAPES = [
    ((1, 1), (1, 0), False),
    ((2, 1), (1, 0), False),
    ((2, 2), (1, 1), False),
    ((1, 1), (1, 0), True),
    ((1, 2), (1, 0), True),
    ((1, 3), (1, 0), True),
]


def _extend_call(pr: P.Problem):
    def call(tracer):
        values = pr.extend_values
        res = semiphi.extend_semi_phi(P.module_map(pr, values), P.module(pr, pr.e_basis), P.cp_map(pr))
        rep = res.report
        expect(bool(rep["extension_semi_ok"]), "extension not certified semi")
        expect(bool(rep["input_is_phi_map"]) == pr.exact, "wrong input_is_phi_map verdict")
        expect(bool(rep["obstruction_vanishes"]) == pr.exact, "wrong obstruction verdict")
        checks.extension(pr, values, np.array(res.phi_prime.values))

    return call


def extend_wide(seed: int, out_dir: str) -> list[Request]:
    reqs = []
    for inst in range(INSTANCES):
        for s, (e_cols, f_cols, exact) in enumerate(WIDE_SHAPES):
            rng = _rng(seed, 1, inst, s)
            pr = P.make_problem(rng, (6, 6), e_cols, f_cols, sum(e_cols) + 2, M, K, RANK, exact)
            reqs.append(Request("extend_exact" if exact else "extend_semi", _extend_call(pr)))
    return reqs


# ---------------------------------------------------------------------------
# decide_narrow: verdicts and refutations over BlockAlgebra((2, 2)).

NARROW_COLS = (4, 5, 6)  # column dims per block: dim F = 16, 20, 24
PAULSEN_SAMPLES, PAULSEN_LEVELS = 2, 3


def _decide_calls(pr: P.Problem, sample_seed: list[int]) -> dict[str, Callable]:
    def cp(tracer):
        expect(bool(semiphi.is_completely_positive(P.cp_map(pr))), "CP map refuted")

    def phi_map(tracer):
        expect(bool(semiphi.is_phi_map(P.module_map(pr, pr.universal), P.cp_map(pr))), "universal map refuted")

    def semi(tracer):
        expect(bool(semiphi.is_completely_semi_phi(P.module_map(pr, pr.semi), P.cp_map(pr))), "semi map refuted")

    def witness(tracer):
        w = semiphi.semiphi_witness(P.module_map(pr, pr.refuted), P.cp_map(pr))
        checks.witness(pr, pr.refuted, np.array(w.vectors), float(w.gap))

    def cp_system(tracer):
        phi = P.cp_map(pr)
        sm = semiphi.block_map(P.module_map(pr, pr.semi), phi, P.codomain_module(K, M))
        rng = np.random.default_rng(sample_seed)
        verdict = semiphi.is_cp_system_map(sm, rng=rng, samples=PAULSEN_SAMPLES, max_level=PAULSEN_LEVELS)
        expect(bool(verdict), "CP system map refuted")

    return {"cp": cp, "phi_map": phi_map, "semi": semi, "witness": witness, "cp_system": cp_system}


def decide_narrow(seed: int, out_dir: str) -> list[Request]:
    reqs = []
    for inst in range(INSTANCES):
        for s, c in enumerate(NARROW_COLS):
            rng = _rng(seed, 2, inst, s)
            pr = P.make_problem(rng, (2, 2), (c, c), (c, c), 2 * c + 2, M, K, RANK, False)
            calls = _decide_calls(pr, [seed, 3, inst, s])
            reqs += [Request(kind, call) for kind, call in calls.items()]
    return reqs


# ---------------------------------------------------------------------------
# cli_files: one `semiphi` child process per request over schema-v1 files.

CLI_COLS = (4, 6, 8)  # column dims per block: dim E = 16, 24, 32
EXIT_OK, EXIT_REFUTED = 0, 1
# (command, problem file, expected exit status) per size
CLI_PLAN = [
    ("extend", "semi", EXIT_OK),
    ("extend", "exact", EXIT_OK),
    ("obstruction", "semi", EXIT_REFUTED),
    ("obstruction", "exact", EXIT_OK),
    ("check-semiphi", "semi", EXIT_OK),
    ("witness", "refuted", EXIT_REFUTED),
    ("check-cp", "semi", EXIT_OK),
    ("stinespring", "semi", EXIT_OK),
    ("paulsen", "semi", EXIT_OK),
]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_report(cmd: str, pr: P.Problem, values: np.ndarray, seed: list[int], rep: dict) -> None:
    """Verdict and re-evaluation for one command's JSON report."""
    v = rep["verdicts"]
    if cmd == "extend":
        expect(v["extension_semi_ok"] is True, "extension not certified semi")
        expect(v["input_is_phi_map"] is pr.exact, "wrong input_is_phi_map verdict")
        expect(v["obstruction_vanishes"] is pr.exact, "wrong obstruction verdict")
        prime = np.array([checks.matrix(x) for x in rep["witnesses"]["phi_prime_values"]])
        checks.extension(pr, values, prime)
    elif cmd == "obstruction":
        expect(v["obstruction_vanishes"] is pr.exact, "wrong obstruction verdict")
    elif cmd == "check-semiphi":
        expect(v["completely_semi_phi"] is True, "semi map refuted")
    elif cmd == "witness":
        expect(v["witness_exists"] is True, "no witness for a refuted map")
        vectors = np.array([checks.matrix(x).reshape(-1) for x in rep["witnesses"]["vectors"]])
        checks.witness(pr, values, vectors, float(rep["margins"]["gap"]))
    elif cmd == "check-cp":
        expect(v["completely_positive"] is True, "CP map refuted")
    elif cmd == "stinespring":
        expect(v["dilation_reconstructs"] is True, "dilation does not reconstruct")
        checks.dilation(pr, checks.matrix(rep["witnesses"]["V"]), np.random.default_rng(seed))
    elif cmd == "paulsen":
        expect(v["cp_system_map"] is True, "CP system map refuted")


def _cli_call(cmd: str, path: str, pr: P.Problem, values: np.ndarray, code: int, seed: list[int], out_dir: str):
    cli_seed = int(np.random.default_rng(seed).integers(2**31))
    args = [cmd, path, "--json"] + (["--seed", str(cli_seed)] if cmd == "paulsen" else [])
    env = _child_env()
    span_file = os.path.join(out_dir, "child-spans.json")

    def call(tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "semiphi.cli", *args]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), span_file, *args]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None:
            with open(span_file) as handle:
                child = json.load(handle)
            tracer.extend(child["spans"])
            tracer.child_import_ms += child["import_ms"]
        # Exit 1 is also what an escaped internal error gives; a traceback
        # tells it apart from a refutation.
        expect("Traceback" not in proc.stderr, f"internal error: {proc.stderr.strip()[-300:]}")
        expect(proc.returncode == code, f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()[-300:]}")
        _check_report(cmd, pr, values, seed, json.loads(proc.stdout))

    return call


def cli_files(seed: int, out_dir: str) -> list[Request]:
    reqs = []
    for s, c in enumerate(CLI_COLS):
        rng = _rng(seed, 4, s)
        semi = P.make_problem(rng, (2, 2), (c, c), (c // 2, c // 2), 2 * c + 2, M, K, RANK, False)
        exact = P.make_problem(rng, (2, 2), (c, c), (c, 0), 2 * c + 2, M, K, RANK, True)
        files = {}
        for label, pr, values in (
            ("semi", semi, semi.semi),
            ("refuted", semi, semi.refuted),
            ("exact", exact, exact.universal),
        ):
            path = os.path.join(out_dir, f"problem-{c}-{label}.json")
            with open(path, "w") as out:
                json.dump(P.problem_json(pr, values), out)
            files[label] = (path, pr, values)
        for cmd, label, code in CLI_PLAN:
            path, pr, values = files[label]
            call = _cli_call(cmd, path, pr, values, code, [seed, 5, s], out_dir)
            reqs.append(Request(f"{cmd}:{label}", call))
    return reqs


WORKLOADS = {"extend_wide": extend_wide, "decide_narrow": decide_narrow, "cli_files": cli_files}

# The host-speed probe kernel (see ``speed``) whose kind of work each
# workload's requests spend their time on.  decide_narrow's pair loops are
# numpy call overhead on tiny arrays; the extension engine and the CLI child
# (import, decoding, the engine on dim-16..32 modules) are closer to dense
# linear algebra.  On runs of the same code, each choice gave the steadier
# figures of the two kernels.
PROBE_KERNEL = {"extend_wide": "dense", "decide_narrow": "dispatch", "cli_files": "dense"}
