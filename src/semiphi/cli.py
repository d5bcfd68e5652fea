"""Command-line surface.

Exit-code contract: 0 = property holds / construction succeeded, 1 =
property refuted (with a witness where applicable), 2 = input or validation
error, 3 = an internal self-check failed (a defect, not a verdict).  The
split lets shell pipelines branch on mathematics versus plumbing.
``--json`` emits a machine-readable report; ``SEMIPHI_TOL`` sets the default
tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import serialization as ser
from .algebra import BlockAlgebra
from .cpmaps import (
    NotCompletelyPositiveError,
    is_completely_positive,
    stinespring,
)
from .extension import (
    ExtensionInputError,
    PreconditionError,
    SelfCheckError,
    _block_defect,
    _canonical_compacts,
    _largest_norm,
    _refutable_semi,
    _witness_from_report,
    compare_extensions,
    extend_semi_phi,
    is_completely_semi_phi,
    is_phi_map,
    phi_extension_obstruction,
)
from .fixtures import compacts_fixture, example_2_1
from .modules import BlockEmbedding, MembershipError
from .numerics import HermiticityError, ShapeError, ToleranceProfile
from .paulsen import (
    block_map,
    example_3_4_map,
    injectivity_demo,
    is_corner_preserving,
    is_cp_system_map,
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


def _payload(doc: dict, *keys: str) -> list:
    payload = doc["payload"]
    out = []
    for key in keys:
        if key not in payload:
            raise SchemaError(f"payload is missing '{key}'")
        out.append(payload[key])
    return out


def _report(verdicts: dict, margins: dict, witnesses: dict | None, started: float) -> dict:
    return {
        "verdicts": verdicts,
        "margins": margins,
        "witnesses": witnesses or {},
        "timings": {"seconds": time.perf_counter() - started},
    }


def cmd_check_cp(args, doc, tol, started):
    (phi_raw,) = _payload(doc, "phi")
    phi = ser.cp_map_from_json(phi_raw)
    psd = is_completely_positive(phi, tol)
    report = _report(
        {"completely_positive": psd.ok},
        {"choi_lambda_min": psd.lambda_min},
        None,
        started,
    )
    return (EXIT_OK if psd.ok else EXIT_REFUTED), report


def cmd_stinespring(args, doc, tol, started):
    (phi_raw,) = _payload(doc, "phi")
    phi = ser.cp_map_from_json(phi_raw)
    dil = stinespring(phi, tol)
    defect = dil.reconstruction_defect(phi)
    report = _report(
        {"dilation_reconstructs": defect <= tol.threshold(1.0) * 1e3},
        {"reconstruction_defect": defect, "rank": dil.rank},
        {"V": ser.matrix_to_json(dil.V)},
        started,
    )
    return EXIT_OK, report


def cmd_check_phi(args, doc, tol, started):
    phi_raw, map_raw = _payload(doc, "phi", "Phi")
    phi = ser.cp_map_from_json(phi_raw)
    phi_map = ser.module_map_from_json(map_raw)
    verdict = is_phi_map(phi_map, phi, tol)
    report = _report(
        {"phi_map": verdict.ok},
        {"worst_defect": verdict.worst_defect},
        {"worst_pair": list(verdict.worst_pair) if verdict.worst_pair else None},
        started,
    )
    return (EXIT_OK if verdict.ok else EXIT_REFUTED), report


def cmd_check_semiphi(args, doc, tol, started):
    phi_raw, map_raw = _payload(doc, "phi", "Phi")
    phi = ser.cp_map_from_json(phi_raw)
    phi_map = ser.module_map_from_json(map_raw)
    verdict = is_completely_semi_phi(phi_map, phi, tol)
    report = _report(
        {"completely_semi_phi": verdict.ok},
        {"gram_margin": verdict.margin},
        None,
        started,
    )
    return (EXIT_OK if verdict.ok else EXIT_REFUTED), report


def cmd_witness(args, doc, tol, started):
    phi_raw, map_raw = _payload(doc, "phi", "Phi")
    phi = ser.cp_map_from_json(phi_raw)
    phi_map = ser.module_map_from_json(map_raw)
    verdict = _refutable_semi(phi_map, phi, tol)
    if verdict.ok:
        report = _report(
            {"completely_semi_phi": True, "witness_exists": False},
            {"gram_margin": verdict.margin},
            None,
            started,
        )
        return EXIT_OK, report
    witness = _witness_from_report(phi_map, phi, verdict)
    report = _report(
        {"completely_semi_phi": False, "witness_exists": True},
        {"gap": witness.gap, "lhs": witness.lhs, "rhs": witness.rhs},
        {"vectors": [ser.matrix_to_json(v.reshape(1, -1)) for v in witness.vectors]},
        started,
    )
    return EXIT_REFUTED, report


def cmd_obstruction(args, doc, tol, started):
    phi_raw, e_raw, f_raw = _payload(doc, "phi", "E", "F")
    phi = ser.cp_map_from_json(phi_raw)
    e = ser.module_from_json(e_raw, "E")
    f = ser.module_from_json(f_raw, "F")
    obs = phi_extension_obstruction(phi, f, e, tol)
    verdicts = {"obstruction_vanishes": obs.vanishes}
    if not obs.vanishes:
        verdicts["note"] = (
            "nonzero obstruction: no non-degenerate exactly compatible map on F "
            "has an exactly compatible extension to E"
        )
    report = _report(verdicts, {"obstruction_norm": obs.norm}, None, started)
    return (EXIT_OK if obs.vanishes else EXIT_REFUTED), report


#: The report fields ``extend`` emits as verdicts and as margins, in order.
EXTEND_VERDICTS = ("extension_semi_ok", "input_is_phi_map", "obstruction_vanishes")
EXTEND_MARGINS = ("restriction_defect", "extension_semi_margin", "contraction_norm", "obstruction_norm")


def cmd_extend(args, doc, tol, started):
    phi_raw, map_raw, e_raw = _payload(doc, "phi", "Phi", "E")
    phi = ser.cp_map_from_json(phi_raw)
    phi_map = ser.module_map_from_json(map_raw)
    e = ser.module_from_json(e_raw, "E")
    result = extend_semi_phi(phi_map, e, phi, tol)
    rep = result.report
    report = _report(
        {name: getattr(rep, name) for name in EXTEND_VERDICTS},
        {name: getattr(rep, name) for name in EXTEND_MARGINS},
        {"phi_prime_values": [ser.matrix_to_json(v) for v in result.phi_prime.values]},
        started,
    )
    return (EXIT_OK if rep.extension_semi_ok else EXIT_REFUTED), report


def cmd_compare(args, doc, tol, started):
    phi_raw, map_raw, e_raw, gamma_raw = _payload(doc, "phi", "Phi", "E", "Gamma")
    phi = ser.cp_map_from_json(phi_raw)
    phi_map = ser.module_map_from_json(map_raw)
    e = ser.module_from_json(e_raw, "E")
    gamma = ser.module_map_from_json(gamma_raw, "Gamma")
    result = extend_semi_phi(phi_map, e, phi, tol)
    same = compare_extensions(gamma, result, tol)
    report = _report({"unique_extension_matches": same}, {}, None, started)
    return (EXIT_OK if same else EXIT_REFUTED), report


def cmd_paulsen(args, doc, tol, started):
    phi_raw, map_raw, cod_raw = _payload(doc, "phi", "Phi", "codomain_module")
    phi = ser.cp_map_from_json(phi_raw)
    phi_map = ser.module_map_from_json(map_raw)
    codomain = ser.module_from_json(cod_raw, "codomain_module")
    sm = block_map(phi_map, phi, codomain, tol)
    rng = np.random.default_rng(args.seed)
    verdict = is_cp_system_map(sm, tol, rng=rng)
    report = _report(
        {
            "cp_system_map": verdict.ok,
            "unital": sm.unital,
            "domain_dimension": sm.domain.dimension,
            "codomain_dimension": sm.codomain.dimension,
        },
        {"gram_margin": verdict.margin},
        None,
        started,
    )
    return (EXIT_OK if verdict.ok else EXIT_REFUTED), report


def _demo_example_2_1(n: int, tol, rng) -> tuple[bool, dict, dict]:
    fx = example_2_1(n)
    verdicts, margins = {}, {}
    result = extend_semi_phi(fx.phi_map, fx.e, fx.phi, tol)
    verdicts["phi_map_on_submodule"] = result.report.input_is_phi_map
    verdicts["extension_semi_ok"] = result.report.extension_semi_ok
    margins["restriction_defect"] = result.report.restriction_defect
    # The extension must coincide with extension-by-zero on the whole module.
    defect = _largest_norm(result.phi_prime._value_stack - fx.e._basis_stack[:, :n])
    verdicts["extension_is_zero_padding"] = defect <= 1e-8
    margins["zero_padding_defect"] = defect
    on_e = _block_defect(result.phi_prime, result.gram, tol)
    verdicts["extension_not_phi_map_on_e"] = not on_e.ok
    margins["phi_map_defect_on_e"] = on_e.worst_defect
    verdicts["obstruction_nonzero"] = not result.report.obstruction_vanishes
    margins["obstruction_norm"] = result.report.obstruction_norm
    try:
        compare_extensions(result.phi_prime, result, tol)
        verdicts["uniqueness_precondition_refused"] = False
    except PreconditionError:
        verdicts["uniqueness_precondition_refused"] = True
    return all(verdicts.values()), verdicts, margins


def _demo_example_3_4(n: int, tol, rng) -> tuple[bool, dict, dict]:
    ex = example_3_4_map(n)
    verdicts, margins = {}, {}
    eye = np.eye(2 * n, dtype=complex)
    unital_defect = float(np.linalg.norm(ex.apply(eye) - np.eye(4 * n)))
    verdicts["unital"] = unital_defect <= 1e-12
    psd = is_completely_positive(ex.as_cp_map(), tol)
    verdicts["completely_positive"] = psd.ok
    margins["choi_lambda_min"] = psd.lambda_min
    corner = is_corner_preserving(ex.unit_images, (n, n), (2 * n, 2 * n), tol)
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
    from .extension import ModuleMap, ksgns

    algebra = BlockAlgebra((1, 1))
    f_mod, g_mod = random_orthogonal_module_pair(algebra, rng, max_dim=3)
    phi = random_cp_map(algebra, 1, 1, rng)
    universal = ksgns(phi, g_mod, tol).map
    c = random_contraction(n, universal.h2_dim, rng)
    phi_map = ModuleMap(g_mod, 1, n, tuple(c @ v for v in universal.values))
    embedding = BlockEmbedding.identity(algebra)
    psi_map, psi = injectivity_demo(g_mod, f_mod, embedding, phi_map, phi, tol)
    restriction = _largest_norm(psi_map.apply(g_mod._basis_stack, tol) - phi_map._value_stack)
    verdicts = {"extension_exists": True, "restriction_agrees": restriction <= 1e-8}
    margins = {"restriction_defect": restriction}
    return verdicts["restriction_agrees"], verdicts, margins


def _demo_compacts_2_6(n: int, tol, rng) -> tuple[bool, dict, dict]:
    fx = compacts_fixture(n)
    verdicts, margins = {}, {}
    canonical, result, certificate = _canonical_compacts(fx.phi_map, fx.e, fx.phi, tol)
    verdicts["zero_padding_is_phi_map"] = certificate.ok
    defect = _largest_norm(canonical._value_stack - result.phi_prime._value_stack)
    verdicts["matches_engine_output"] = defect <= 1e-8
    margins["engine_agreement_defect"] = defect
    return all(verdicts.values()), verdicts, margins


DEMOS = {
    "example-2-1": _demo_example_2_1,
    "example-3-4": _demo_example_3_4,
    "example-3-9": _demo_example_3_9,
    "compacts-2-6": _demo_compacts_2_6,
}


def cmd_demo(args, doc, tol, started):
    if args.name not in DEMOS:
        raise SchemaError(f"unknown demo {args.name!r}; choose from {sorted(DEMOS)}")
    if not 1 <= args.n <= 6:
        raise SchemaError("demo size n must be between 1 and 6")
    rng = np.random.default_rng(args.seed)
    ok, verdicts, margins = DEMOS[args.name](args.n, tol, rng)
    report = _report(verdicts, margins, None, started)
    return (EXIT_OK if ok else EXIT_REFUTED), report


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


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(ser.dump_report(report))
        return
    for name, value in report["verdicts"].items():
        print(f"{name}: {value}")
    for name, value in report["margins"].items():
        print(f"{name} = {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, takes_input = COMMANDS[args.command]
    started = time.perf_counter()
    try:
        doc = ser.load_problem(args.input) if takes_input else None
        tol = _tolerance(args, doc)
        code, report = handler(args, doc, tol, started)
    except (
        SchemaError,
        ShapeError,
        HermiticityError,
        MembershipError,
        NotCompletelyPositiveError,
        ExtensionInputError,
        PreconditionError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SelfCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _print_report(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
