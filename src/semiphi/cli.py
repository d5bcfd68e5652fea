"""Command-line surface.

Exit-code contract: 0 = property holds / construction succeeded, 1 =
property refuted (with a witness where applicable), 2 = input or validation
error, 3 = an internal self-check failed or an unexpected exception escaped
(a defect, not a verdict; the latter prints its traceback).  The split lets
shell pipelines branch on mathematics versus plumbing.
``--json`` emits a machine-readable report; ``SEMIPHI_TOL`` sets the default
tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

# Layers are read through their (lazily run) modules at call time, so that a
# command runs only the layers it calls.
from . import cpmaps, extension, modules, paulsen
from . import serialization as ser
from .algebra import BlockAlgebra
from .numerics import (
    SelfCheckError,
    ToleranceProfile,
    _fixture_agrees,
    _fixture_identity_holds,
    _reconstruction_threshold,
)
from .serialization import SchemaError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _default_tol() -> float:
    env = os.environ.get("SEMIPHI_TOL")
    if env is None:
        return 1e-9
    try:
        return float(env)
    except ValueError:
        raise SchemaError(f"SEMIPHI_TOL is not a number: {env!r}")


def _tolerance(args, doc: dict | None) -> ToleranceProfile:
    if args.tol is not None:
        return ToleranceProfile(abs_tol=args.tol, rel_tol=args.tol)
    if doc is not None and doc.get("tolerance") is not None:
        return ser.tolerance_from_json(doc["tolerance"])
    base = _default_tol()
    return ToleranceProfile(abs_tol=base, rel_tol=base)


#: Payload key -> the ``serialization`` reader that parses it.  Readers are
#: named, not held, so that a wrapper patched into the module is called.
LOADERS = {
    "phi": "cp_map_from_json",
    "Phi": "module_map_from_json",
    "Gamma": "module_map_from_json",
    "E": "module_from_json",
    "F": "module_from_json",
    "codomain_module": "module_from_json",
}


def _load(doc: dict, *keys: str) -> list:
    """The payload's ``keys``, each parsed with the key as its location."""
    payload = doc["payload"]
    for key in keys:
        if key not in payload:
            raise SchemaError(f"payload is missing '{key}'")
    return [getattr(ser, LOADERS[key])(payload[key], key) for key in keys]


# Every command returns ``(ok, verdicts, margins, witnesses)``; ``main``
# builds the report and maps ``ok`` to exit 0 or 1.


def cmd_check_cp(args, doc, tol):
    (phi,) = _load(doc, "phi")
    psd = cpmaps.is_completely_positive(phi, tol)
    return psd.ok, {"completely_positive": psd.ok}, {"choi_lambda_min": psd.lambda_min}, {}


def cmd_stinespring(args, doc, tol):
    (phi,) = _load(doc, "phi")
    dil = cpmaps.stinespring(phi, tol)
    defect = dil.reconstruction_defect(phi)
    # The dilation is a construction: it succeeds whatever the check says.
    return (
        True,
        {"dilation_reconstructs": defect <= _reconstruction_threshold(tol, phi._value_stack)},
        {"reconstruction_defect": defect, "rank": dil.rank},
        {"V": ser.matrix_to_json(dil.V)},
    )


def cmd_check_phi(args, doc, tol):
    phi, phi_map = _load(doc, "phi", "Phi")
    verdict = extension.is_phi_map(phi_map, phi, tol)
    return (
        verdict.ok,
        {"phi_map": verdict.ok},
        {"worst_defect": verdict.worst_defect},
        {"worst_pair": list(verdict.worst_pair) if verdict.worst_pair else None},
    )


def cmd_check_semiphi(args, doc, tol):
    phi, phi_map = _load(doc, "phi", "Phi")
    verdict = extension.is_completely_semi_phi(phi_map, phi, tol)
    return verdict.ok, {"completely_semi_phi": verdict.ok}, {"gram_margin": verdict.margin}, {}


def cmd_witness(args, doc, tol):
    phi, phi_map = _load(doc, "phi", "Phi")
    verdict = extension._choi_semi(phi_map, phi, tol, vectors=True)
    if verdict.ok:
        verdicts = {"completely_semi_phi": True, "witness_exists": False}
        return True, verdicts, {"gram_margin": verdict.margin}, {}
    witness = extension._witness_from_report(phi_map, phi, verdict)
    return (
        False,
        {"completely_semi_phi": False, "witness_exists": True},
        {"gap": witness.gap, "lhs": witness.lhs, "rhs": witness.rhs},
        {"vectors": [ser.matrix_to_json(v.reshape(1, -1)) for v in witness.vectors]},
    )


def cmd_obstruction(args, doc, tol):
    phi, e, f = _load(doc, "phi", "E", "F")
    obs = extension.phi_extension_obstruction(phi, f, e, tol)
    verdicts = {"obstruction_vanishes": obs.vanishes}
    if not obs.vanishes:
        verdicts["note"] = (
            "nonzero obstruction: no non-degenerate exactly compatible map on F "
            "has an exactly compatible extension to E"
        )
    return obs.vanishes, verdicts, {"obstruction_norm": obs.norm}, {}


#: The report fields ``extend`` emits as verdicts and as margins, in order.
EXTEND_VERDICTS = ("extension_semi_ok", "input_is_phi_map", "obstruction_vanishes")
EXTEND_MARGINS = ("restriction_defect", "extension_semi_margin", "contraction_norm", "obstruction_norm")


def cmd_extend(args, doc, tol):
    phi, phi_map, e = _load(doc, "phi", "Phi", "E")
    result = extension.extend_semi_phi(phi_map, e, phi, tol)
    rep = result.report
    return (
        rep.extension_semi_ok,
        {name: getattr(rep, name) for name in EXTEND_VERDICTS},
        {name: getattr(rep, name) for name in EXTEND_MARGINS},
        {"phi_prime_values": [ser.matrix_to_json(v) for v in result.phi_prime.values]},
    )


def cmd_compare(args, doc, tol):
    phi, phi_map, e, gamma = _load(doc, "phi", "Phi", "E", "Gamma")
    result = extension.extend_semi_phi(phi_map, e, phi, tol)
    same = extension.compare_extensions(gamma, result, tol)
    return same, {"unique_extension_matches": same}, {}, {}


def cmd_paulsen(args, doc, tol):
    phi, phi_map, codomain = _load(doc, "phi", "Phi", "codomain_module")
    sm = paulsen.block_map(phi_map, phi, codomain, tol)
    verdict = paulsen.is_cp_system_map(sm, tol, rng=np.random.default_rng(args.seed))
    verdicts = {
        "cp_system_map": verdict.ok,
        "unital": sm.unital,
        "domain_dimension": sm.domain.dimension,
        "codomain_dimension": sm.codomain.dimension,
    }
    return verdict.ok, verdicts, {"gram_margin": verdict.margin}, {}


def _demo_example_2_1(n: int, tol, rng) -> tuple[bool, dict, dict]:
    from .fixtures import example_2_1

    fx = example_2_1(n)
    verdicts, margins = {}, {}
    result = extension.extend_semi_phi(fx.phi_map, fx.e, fx.phi, tol)
    verdicts["phi_map_on_submodule"] = result.report.input_is_phi_map
    verdicts["extension_semi_ok"] = result.report.extension_semi_ok
    margins["restriction_defect"] = result.report.restriction_defect
    # The extension must coincide with extension-by-zero on the whole module.
    defect = extension._largest_norm(result.phi_prime._value_stack - fx.e._basis_stack[:, :n])
    verdicts["extension_is_zero_padding"] = _fixture_agrees(defect)
    margins["zero_padding_defect"] = defect
    on_e = extension._block_defect(result.phi_prime, result.gram, tol)
    verdicts["extension_not_phi_map_on_e"] = not on_e.ok
    margins["phi_map_defect_on_e"] = on_e.worst_defect
    verdicts["obstruction_nonzero"] = not result.report.obstruction_vanishes
    margins["obstruction_norm"] = result.report.obstruction_norm
    try:
        extension.compare_extensions(result.phi_prime, result, tol)
        verdicts["uniqueness_precondition_refused"] = False
    except extension.PreconditionError:
        verdicts["uniqueness_precondition_refused"] = True
    return all(verdicts.values()), verdicts, margins


def _demo_example_3_4(n: int, tol, rng) -> tuple[bool, dict, dict]:
    ex = paulsen.example_3_4_map(n)
    verdicts, margins = {}, {}
    eye = np.eye(2 * n, dtype=complex)
    unital_defect = float(np.linalg.norm(ex.apply_ambient(eye) - np.eye(4 * n)))
    verdicts["unital"] = _fixture_identity_holds(unital_defect)
    psd = cpmaps.is_completely_positive(ex, tol)
    verdicts["completely_positive"] = psd.ok
    margins["choi_lambda_min"] = psd.lambda_min
    corner = paulsen.is_corner_preserving(ex.values, (n, n), (2 * n, 2 * n), tol)
    verdicts["corner_preserving"] = corner.ok
    margins["violations"] = [
        {"part": part, "entry": list(entry), "magnitude": mag}
        for part, entry, mag in corner.violations
    ]
    margins["corner_image_entries"] = [list(e) for e in corner.corner_image_entries]
    ok = verdicts["unital"] and verdicts["completely_positive"] and not corner.ok
    return ok, verdicts, margins


def _demo_example_3_9(n: int, tol, rng) -> tuple[bool, dict, dict]:
    from .fixtures import random_cp_map, random_contraction, random_orthogonal_module_pair

    algebra = BlockAlgebra((1, 1))
    f_mod, g_mod = random_orthogonal_module_pair(algebra, rng, max_dim=3)
    phi = random_cp_map(algebra, 1, 1, rng)
    universal = extension.ksgns(phi, g_mod, tol).map
    c = random_contraction(n, universal.h2_dim, rng)
    phi_map = extension.ModuleMap(g_mod, 1, n, tuple(c @ v for v in universal.values))
    embedding = modules.BlockEmbedding.identity(algebra)
    psi_map, psi = paulsen.injectivity_demo(g_mod, f_mod, embedding, phi_map, phi, tol)
    restriction = extension._largest_norm(psi_map.apply(g_mod._basis_stack, tol) - phi_map._value_stack)
    cp_restriction = paulsen._cp_restriction_defect(psi, phi, embedding)
    agrees = _fixture_agrees(restriction)
    verdicts = {"extension_exists": _fixture_agrees(cp_restriction) and agrees, "restriction_agrees": agrees}
    margins = {"restriction_defect": restriction, "cp_restriction_defect": cp_restriction}
    return verdicts["extension_exists"], verdicts, margins


def _demo_compacts_2_6(n: int, tol, rng) -> tuple[bool, dict, dict]:
    from .fixtures import compacts_fixture

    fx = compacts_fixture(n)
    verdicts, margins = {}, {}
    canonical, result, certificate = extension._canonical_compacts(fx.phi_map, fx.e, fx.phi, tol)
    verdicts["zero_padding_is_phi_map"] = certificate.ok
    defect = extension._largest_norm(canonical._value_stack - result.phi_prime._value_stack)
    verdicts["matches_engine_output"] = _fixture_agrees(defect)
    margins["engine_agreement_defect"] = defect
    return all(verdicts.values()), verdicts, margins


DEMOS = {
    "example-2-1": _demo_example_2_1,
    "example-3-4": _demo_example_3_4,
    "example-3-9": _demo_example_3_9,
    "compacts-2-6": _demo_compacts_2_6,
}


def cmd_demo(args, doc, tol):
    if not 1 <= args.n <= 6:
        raise SchemaError("demo size n must be between 1 and 6")
    ok, verdicts, margins = DEMOS[args.name](args.n, tol, np.random.default_rng(args.seed))
    return ok, verdicts, margins, {}


COMMANDS = {
    "check-cp": (cmd_check_cp, True),
    "stinespring": (cmd_stinespring, True),
    "check-phi": (cmd_check_phi, True),
    "check-semiphi": (cmd_check_semiphi, True),
    "witness": (cmd_witness, True),
    "obstruction": (cmd_obstruction, True),
    "extend": (cmd_extend, True),
    "compare": (cmd_compare, True),
    "paulsen": (cmd_paulsen, True),
    "demo": (cmd_demo, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiphi",
        description="Checks and constructions for module maps over block C*-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_input) in COMMANDS.items():
        p = sub.add_parser(name)
        if takes_input:
            p.add_argument("input", help="problem file (JSON)")
        else:
            p.add_argument("name", choices=sorted(DEMOS), help="demo name")
            p.add_argument("--n", type=int, default=1, help="fixture size (<= 6)")
        p.add_argument("--tol", type=float, default=None, help="override tolerance")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    Every input error of the package is a ``ValueError`` and exits 2; a
    failed self-check exits 3, and so does any other exception, whose
    traceback goes to stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, takes_input = COMMANDS[args.command]
    started = time.perf_counter()
    try:
        doc = ser.load_problem(args.input) if takes_input else None
        ok, verdicts, margins, witnesses = handler(args, doc, _tolerance(args, doc))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SelfCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        import traceback  # loaded only here: numpy does not import it

        traceback.print_exc()
        return EXIT_INTERNAL
    if args.json:
        timings = {"seconds": time.perf_counter() - started}
        report = {"verdicts": verdicts, "margins": margins, "witnesses": witnesses, "timings": timings}
        print(ser.dump_report(report))
    else:
        for name, value in verdicts.items():
            print(f"{name}: {value}")
        for name, value in margins.items():
            print(f"{name} = {value}")
    return EXIT_OK if ok else EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
