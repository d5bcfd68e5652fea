"""The batched pair kernel against per-pair reference loops.

Each reference below evaluates ``phi(<x_i, y_j>)`` one pair at a time with
``apply_ambient`` and ``inner_product_matrix``, the way the engine did before
it was batched, so the comparisons never run the kernel on both sides.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    ModuleMap,
    extend_semi_phi,
    from_kraus,
    gram_pair,
    is_phi_map,
    ksgns,
    phi_extension_obstruction,
    zero_module_map,
)
from semiphi.fixtures import (
    example_2_1,
    random_cp_map,
    random_orthogonal_module_pair,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
    random_violating_module_map,
)
from semiphi.modules import inner_product_matrix
from semiphi.numerics import DEFAULT_TOL


def pair_value(phi, x, y):
    return phi.apply_ambient(inner_product_matrix(x, y))


def reference_is_phi_map(phi_map, phi, tol=DEFAULT_TOL):
    """(ok, worst_defect, worst_pair, defects) from the per-pair loop."""
    basis, values = phi_map.domain.basis, phi_map.values
    d = len(basis)
    defects = np.zeros((d, d))
    ok, worst, worst_pair = True, 0.0, None
    for i, j in itertools.product(range(d), repeat=2):
        lhs = values[i].conj().T @ values[j]
        rhs = pair_value(phi, basis[i], basis[j])
        defects[i, j] = np.linalg.norm(lhs - rhs)
        if defects[i, j] > worst:
            worst, worst_pair = defects[i, j], (i, j)
        if defects[i, j] > tol.threshold(max(np.linalg.norm(lhs), np.linalg.norm(rhs))):
            ok = False
    return ok, worst, worst_pair, defects


def reference_obstruction_norms(phi, f_perp, e):
    """(scale, worst): the largest ``|phi(<x, y>)|`` over e x e (at least 1)
    and over f_perp x e (at least 0)."""
    scale = max([1.0] + [np.linalg.norm(pair_value(phi, x, y), 2) for x in e.basis for y in e.basis])
    worst = max([0.0] + [np.linalg.norm(pair_value(phi, z, x), 2) for z in f_perp.basis for x in e.basis])
    return scale, worst


def reference_exact_on_complemented(phi_prime, phi, f, f_perp, e):
    worst = 0.0
    y_basis = list(f.basis) + list(f_perp.basis)
    for x, vx in zip(e.basis, phi_prime.values):
        for y in y_basis:
            vy = phi_prime.apply(y)
            worst = max(worst, np.linalg.norm(vx.conj().T @ vy - pair_value(phi, x, y)))
            worst = max(worst, np.linalg.norm(vy.conj().T @ vx - pair_value(phi, y, x)))
    return worst


def assert_phi_map_matches(phi_map, phi):
    ok, worst, worst_pair, defects = reference_is_phi_map(phi_map, phi)
    report = is_phi_map(phi_map, phi)
    assert report.ok is ok
    assert report.worst_defect == pytest.approx(worst, rel=1e-9, abs=1e-12)
    if worst > 1e-9:
        # Pairs (i, j) and (j, i) tie in exact arithmetic; rounding may
        # break the tie either way, but the chosen pair must attain the max.
        assert defects[report.worst_pair] == pytest.approx(worst, rel=1e-9)
    elif worst == 0.0:
        assert report.worst_pair is None


def assert_gram_matches(phi_map, phi):
    g_phi = gram_pair(phi_map, phi).g_phi
    basis, m = phi_map.domain.basis, phi.target_dim
    for i, j in itertools.product(range(len(basis)), repeat=2):
        block = g_phi[i * m : (i + 1) * m, j * m : (j + 1) * m]
        np.testing.assert_allclose(block, pair_value(phi, basis[i], basis[j]), atol=1e-12)


def assert_obstruction_matches(phi, f, e):
    obs = phi_extension_obstruction(phi, f, e)
    scale, worst = reference_obstruction_norms(phi, obs.complement, e)
    assert obs.norm == pytest.approx(worst, rel=1e-9, abs=1e-12)
    assert obs.vanishes is bool(worst <= DEFAULT_TOL.threshold(scale))


def assert_extension_matches(phi_map, e, phi):
    result = extend_semi_phi(phi_map, e, phi)
    f = phi_map.domain
    if result.report.exact_on_complemented_defect is not None:
        f_perp = phi_extension_obstruction(phi, f, e).complement
        expected = reference_exact_on_complemented(result.phi_prime, phi, f, f_perp, e)
        assert result.report["exact_on_complemented_defect"] == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )
    return result


def random_fixture(seed):
    rng = np.random.default_rng(seed)
    family = (random_semi_phi_fixture, random_vanishing_obstruction_fixture)[seed % 2]
    return family(rng)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_fixtures_match_reference_loops(seed):
    fx = random_fixture(seed)
    universal = ksgns(fx.phi, fx.e).map
    violating = random_violating_module_map(fx, np.random.default_rng(seed))
    for phi_map in (fx.phi_map, universal, violating):
        assert_phi_map_matches(phi_map, fx.phi)
        assert_gram_matches(phi_map, fx.phi)
    assert_obstruction_matches(fx.phi, fx.f, fx.e)
    result = assert_extension_matches(fx.phi_map, fx.e, fx.phi)
    assert_phi_map_matches(result.phi_prime, fx.phi)


def test_vanishing_obstruction_fixtures_reach_the_exact_branch():
    reached = 0
    for seed in range(1, 40, 2):
        fx = random_fixture(seed)
        result = assert_extension_matches(fx.phi_map, fx.e, fx.phi)
        reached += result.report.exact_on_complemented_defect is not None
    assert reached >= 10


def test_exact_arithmetic_worst_pair_is_first_row_major_maximum():
    # 0/1 data: every defect is exact, so ties between (i, j) and (j, i)
    # stay ties and the first maximum in row-major order is well defined.
    for n in (1, 2, 3):
        fx = example_2_1(n)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        # Doubling Phi on the last basis element of f makes its diagonal
        # block the unique worst pair.
        doubled = ModuleMap(fx.f, n, n, fx.phi_map.values[:-1] + (2.0 * fx.phi_map.values[-1],))
        for phi_map in (res.phi_prime, doubled):
            ok, worst, worst_pair, _ = reference_is_phi_map(phi_map, fx.phi)
            report = is_phi_map(phi_map, fx.phi)
            assert (report.ok, report.worst_defect, report.worst_pair) == (ok, worst, worst_pair)
        assert worst_pair == (fx.f.dim - 1, fx.f.dim - 1) and worst == 3.0
        assert_obstruction_matches(fx.phi, fx.f, fx.e)


@pytest.mark.parametrize("seed", range(6))
def test_zero_submodule_and_zero_cp_map(seed):
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra((1, 2))
    e, f = random_orthogonal_module_pair(algebra, rng, max_dim=4)
    empty = ConcreteModule(algebra, e.row_dim, ())
    m = 2
    zero_phi = from_kraus(algebra, [], target_dim=m)
    cases = [
        (zero_module_map(empty, m, 2), random_cp_map(algebra, m, 2, rng)),
        (zero_module_map(empty, m, 2), zero_phi),
        (zero_module_map(f, m, 3), zero_phi),
        (zero_module_map(f, m, 3), random_cp_map(algebra, m, 2, rng)),
    ]
    for phi_map, phi in cases:
        assert_phi_map_matches(phi_map, phi)
        assert_gram_matches(phi_map, phi)
        assert_obstruction_matches(phi, phi_map.domain, e)
        assert_extension_matches(phi_map, e, phi)
    # The zero CP map kills every inner product, so the exact branch runs.
    result = assert_extension_matches(zero_module_map(empty, m, 2), e, zero_phi)
    assert result.report["exact_on_complemented_defect"] == 0.0
    report = is_phi_map(ModuleMap(empty, m, 2, ()), zero_phi)
    assert (report.ok, report.worst_defect, report.worst_pair) == (True, 0.0, None)


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2, 3)])
@pytest.mark.parametrize("m", [1, 3])
def test_per_block_pair_kernel_matches_the_ambient_loop(blocks, m):
    """``apply_pairs`` contracts each block slice against its own values;
    the reference maps each full product ``x_i* y_j`` with ``apply_ambient``."""
    rng = np.random.default_rng(sum(blocks) + 10 * m)
    algebra = BlockAlgebra(blocks)
    phi = random_cp_map(algebra, m, 2, rng)
    q, p = algebra.ambient_dim, 3
    # Arbitrary matrices, not module elements: the pinch drops the
    # off-block entries of their products.
    xs = rng.standard_normal((4, p, q)) + 1j * rng.standard_normal((4, p, q))
    ys = rng.standard_normal((5, p, q)) + 1j * rng.standard_normal((5, p, q))
    got = phi.apply_pairs(xs, ys)
    assert got.shape == (4, 5, m, m)
    for i, j in itertools.product(range(4), range(5)):
        np.testing.assert_allclose(got[i, j], pair_value(phi, xs[i], ys[j]), rtol=0, atol=1e-13)
    assert phi.apply_pairs(xs[:0], ys).shape == (0, 5, m, m)
