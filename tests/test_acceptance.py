"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with its number
so the suite's verdict can be read off the captured output.
"""

import numpy as np

from semiphi import (
    BlockAlgebra,
    canonical_compacts_extension,
    compare_extensions,
    extend_semi_phi,
    from_kraus,
    is_completely_positive,
    is_completely_semi_phi,
    is_corner_preserving,
    is_cp_system_map,
    is_phi_map,
    phi_extension_obstruction,
    semiphi_witness,
    stinespring,
    transpose_map,
)
from semiphi.fixtures import (
    example_2_1,
    random_containment_fixture,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
    random_violating_module_map,
    scalar_fixture,
)
from semiphi.paulsen import block_map, example_3_4_map, injectivity_demo
from conftest import full_rectangular_module, sampled_level_violation


def record(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_stacked_pair_reproduction():
    worst_pad = worst_obstruction = 0.0
    ok = True
    for n in (1, 2, 3):
        fx = example_2_1(n)
        ok &= is_phi_map(fx.phi_map, fx.phi).ok
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        pad = max(
            float(np.linalg.norm(v - b[:n, :]))
            for b, v in zip(fx.e.basis, res.phi_prime.values)
        )
        worst_pad = max(worst_pad, pad)
        ok &= pad <= 1e-8
        report = is_phi_map(res.phi_prime, fx.phi)
        ok &= not report.ok
        obstruction = phi_extension_obstruction(fx.phi, fx.f, fx.e)
        i, j = report.worst_pair
        perp = obstruction.complement
        ok &= perp.contains_matrix(fx.e.basis[i]) or perp.contains_matrix(fx.e.basis[j])
        ok &= obstruction.norm > 0.1
        worst_obstruction = max(worst_obstruction, obstruction.norm)
    record(
        1,
        ok,
        f"zero-padding extension reproduced for n=1,2,3 "
        f"(pad defect {worst_pad:.2e}, obstruction {worst_obstruction:.2f})",
    )


def test_criterion_2_extension_of_random_semi_maps():
    rng = np.random.default_rng(20240201)
    worst_restriction, worst_margin = 0.0, 0.0
    ok = True
    for _ in range(200):
        fx = random_semi_phi_fixture(rng, max_q=4, max_dim=4, max_target=3)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        worst_restriction = max(worst_restriction, res.report["restriction_defect"])
        worst_margin = min(worst_margin, res.report["extension_semi_margin"])
        ok &= res.report["restriction_defect"] <= 1e-8
        ok &= res.report["extension_semi_ok"]
        ok &= res.report["extension_semi_margin"] >= -1e-8
    record(
        2,
        ok,
        f"200 random extensions (worst restriction {worst_restriction:.2e}, "
        f"worst margin {worst_margin:.2e})",
    )


def test_criterion_3_complement_killed_and_exact_identities():
    rng = np.random.default_rng(20240301)
    worst_i, worst_ii = 0.0, 0.0
    ok = True
    for _ in range(50):
        fx = random_vanishing_obstruction_fixture(rng)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        ok &= res.report["input_is_phi_map"]
        ok &= res.report["obstruction_vanishes"]
        worst_i = max(worst_i, res.report["complement_killed_defect"])
        worst_ii = max(worst_ii, res.report["exact_on_complemented_defect"])
        ok &= res.report["complement_killed_defect"] <= 1e-9
        ok &= res.report["exact_on_complemented_defect"] <= 1e-8
    record(
        3,
        ok,
        f"50 vanishing-obstruction fixtures (complement defect {worst_i:.2e}, "
        f"identity defect {worst_ii:.2e})",
    )


def test_criterion_4_gram_criterion_vs_brute_force():
    rng = np.random.default_rng(20240401)
    positives = negatives = 0
    ok = True
    for t in range(200):
        fx = random_semi_phi_fixture(rng, max_q=4, max_dim=4, max_target=3)
        phi_map = fx.phi_map if t % 2 == 0 else random_violating_module_map(fx, rng)
        verdict = is_completely_semi_phi(phi_map, fx.phi)
        if verdict.ok:
            positives += 1
            excess = sampled_level_violation(phi_map, fx.phi, rng, samples=50)
            scale = max(float(np.linalg.norm(verdict.gram.g_phi)), 1.0)
            ok &= excess <= 1e-8 * scale
        else:
            negatives += 1
            w = semiphi_witness(phi_map, fx.phi)
            scale = max(w.lhs, w.rhs, 1.0)
            ok &= w.gap > 1e-10 * scale
    ok &= positives >= 50 and negatives >= 50  # genuinely mixed population
    record(
        4,
        ok,
        f"200 pairs vs level-sampling oracle ({positives} satisfying, "
        f"{negatives} refuted with witnesses)",
    )


def test_criterion_5_stinespring_and_transpose_rejection():
    rng = np.random.default_rng(20240501)
    worst_defect = 0.0
    ok = True
    for _ in range(100):
        q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        count = int(rng.integers(1, 4))
        algebra = BlockAlgebra((q,))
        ops = [
            (rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q)))
            / np.sqrt(2.0 * q * count)
            for _ in range(count)
        ]
        phi = from_kraus(algebra, ops)
        dil = stinespring(phi)
        worst_defect = max(worst_defect, dil.reconstruction_defect(phi))
        ok &= dil.reconstruction_defect(phi) <= 1e-10
        generating_rank = int(
            np.linalg.matrix_rank(np.column_stack([k.reshape(-1) for k in ops]))
        )
        ok &= dil.rank == generating_rank
    tp_report = is_completely_positive(transpose_map(BlockAlgebra((2,))))
    ok &= not tp_report.ok
    ok &= abs(tp_report.lambda_min + 1.0) <= 1e-9
    record(
        5,
        ok,
        f"100 dilations reconstruct (worst defect {worst_defect:.2e}); "
        f"transpose rejected with lambda_min {tp_report.lambda_min:.6f}",
    )


def test_criterion_6_system_map_equivalence():
    rng = np.random.default_rng(20240601)
    ok = True
    agreements = 0
    for t in range(100):
        fx = random_semi_phi_fixture(rng, max_q=3, max_dim=3, max_target=3)
        phi_map = fx.phi_map if t % 2 == 0 else random_violating_module_map(fx, rng)
        k, m = phi_map.h2_dim, phi_map.h1_dim
        codomain = full_rectangular_module(k, m)
        sm = block_map(phi_map, fx.phi, codomain)
        direct = is_completely_semi_phi(phi_map, fx.phi)
        # Positive verdicts are certified by an explicit CP extension; a
        # failed certificate raises and fails the criterion.
        system = is_cp_system_map(sm)
        ok &= system.ok == direct.ok
        agreements += int(system.ok == direct.ok)
    pm, phi = scalar_fixture(2.0)
    scalar_codomain = full_rectangular_module(1, 1)
    sm = block_map(pm, phi, scalar_codomain)
    image = sm.apply(np.ones((2, 2), dtype=complex))
    ok &= np.allclose(image, [[1.0, 2.0], [2.0, 1.0]])
    record(
        6,
        ok,
        f"system-map CP verdict matched the direct criterion on {agreements}/100 "
        "fixtures; scalar c=2 image is [[1,2],[2,1]]",
    )


def test_criterion_7_shuffle_map_properties():
    ok = True
    details = []
    for h in (1, 2):
        ex = example_3_4_map(h)
        unital_defect = float(np.linalg.norm(ex.apply(np.eye(2 * h)) - np.eye(4 * h)))
        ok &= unital_defect <= 1e-12
        cp_report = is_completely_positive(ex)
        ok &= cp_report.lambda_min >= -1e-10
        corner = is_corner_preserving(ex.values, (h, h), (2 * h, 2 * h))
        ok &= not corner.ok and len(corner.violations) > 0
        # The corner's image support lands in the far (1,4) block position:
        # rows in the first h, columns in the last h of the 4h ambient.
        ok &= len(corner.corner_image_entries) > 0
        ok &= all(r < h and c >= 3 * h for r, c in corner.corner_image_entries)
        if h == 1:
            ok &= corner.corner_image_entries == ((0, 3),)
        details.append(f"h={h}: lambda_min {cp_report.lambda_min:.1e}")
    record(
        7,
        ok,
        "shuffle map unital, CP, corner violation at the (1,4) entry ("
        + "; ".join(details)
        + ")",
    )


def test_criterion_8_extension_along_containments():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    ok = True
    successes = 0
    for t in range(50):
        n = (t % 3) + 1
        fx = random_containment_fixture(rng, n)
        psi_map, psi = injectivity_demo(fx.g, fx.f, fx.embedding, fx.phi_map, fx.phi)
        j = fx.embedding.column_map()
        restriction = 0.0
        for b, orig in zip(fx.g.basis, fx.phi_map.values):
            restriction = max(
                restriction, float(np.linalg.norm(psi_map.apply(b @ j.T) - orig))
            )
        worst = max(worst, restriction)
        ok &= restriction <= 1e-8
        ok &= is_completely_semi_phi(psi_map, psi).ok
        successes += 1
    record(
        8,
        ok,
        f"{successes}/50 containment extensions into column modules "
        f"(worst restriction {worst:.2e})",
    )


def test_criterion_9_uniqueness_against_independent_construction():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    ok = True
    for _ in range(50):
        fx = random_vanishing_obstruction_fixture(rng)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        gamma = canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)
        ok &= compare_extensions(gamma, res)
        diff = max(
            (
                float(np.linalg.norm(a - b))
                for a, b in zip(gamma.values, res.phi_prime.values)
            ),
            default=0.0,
        )
        worst = max(worst, diff)
        ok &= diff <= 1e-8
    record(
        9,
        ok,
        f"independent zero-padding construction matched the engine on 50 fixtures "
        f"(worst value gap {worst:.2e})",
    )
