"""The batched pair kernel against per-pair reference loops.

Each reference below evaluates ``phi(<x_i, y_j>)`` one pair at a time with
``apply_ambient`` and ``inner_product_matrix``, the way the engine did before
it was batched, so the comparisons never run the kernel on both sides.
"""

import itertools
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    ExtensionInputError,
    ModuleMap,
    SelfCheckError,
    extend_semi_phi,
    from_kraus,
    gram_pair,
    is_phi_map,
    ksgns,
    phi_extension_obstruction,
    zero_module_map,
)
from semiphi.cpmaps import _pair_order, _products_first, _values_first
from semiphi.fixtures import (
    _random_unitary,
    compacts_fixture,
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
    y_values = [phi_prime.apply(y) for y in y_basis]
    for x, vx in zip(e.basis, phi_prime.values):
        for y, vy in zip(y_basis, y_values):
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
    elif report.worst_defect == 0.0:
        assert report.worst_pair is None
    else:
        # A rounding-level defect may sit where the reference finds none.
        assert defects[report.worst_pair] == pytest.approx(worst, abs=1e-12)


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
@example(47798155)  # the kernel finds a 1.66e-19 defect where the reference finds 0.0
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


# ---------------------------------------------------------------------------
# The two contraction orders of the pair kernel.  Each size group of blocks
# takes products first or values first, whichever needs fewer multiply-adds
# at its shapes; both are checked here on their own against the per-pair
# reference, whatever the rule would pick.

ORDERS = [_products_first, _values_first]


def table_by(order, phi, xs, ys):
    """The pair table with every size group contracted in ``order``."""
    m = phi.target_dim
    table = np.zeros((len(xs), len(ys), m * m), dtype=complex)
    for n, columns, values in phi._size_groups:
        table += order(xs[:, :, columns], ys[:, :, columns], n, values)
    return table.reshape(len(xs), len(ys), m, m)


def assert_matches_ambient_loop(table, phi, xs, ys):
    assert table.shape == (len(xs), len(ys), phi.target_dim, phi.target_dim)
    for i, j in itertools.product(range(len(xs)), range(len(ys))):
        np.testing.assert_allclose(table[i, j], pair_value(phi, xs[i], ys[j]), rtol=0, atol=1e-13)


def random_stack(rng, d, p, q):
    return rng.standard_normal((d, p, q)) + 1j * rng.standard_normal((d, p, q))


def group_orders(phi, dx, dy, p):
    """The order the rule picks for each size group, in group order."""
    m = phi.target_dim
    return [_pair_order(dx, dy, len(values) // (n * n), n, p, m) for n, _, values in phi._size_groups]


@pytest.mark.parametrize("order", ORDERS, ids=lambda order: order.__name__)
@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2, 3), (2, 1, 2)])
@pytest.mark.parametrize("m", [1, 3])
def test_each_contraction_order_matches_the_ambient_loop(order, blocks, m):
    """Both orders, called directly on every size group (the blocks of size
    2 in ``(2, 1, 2)`` are not adjacent), against ``apply_ambient`` on each
    full product ``x_i* y_j``."""
    rng = np.random.default_rng(sum(blocks) + 10 * m)
    algebra = BlockAlgebra(blocks)
    phi = random_cp_map(algebra, m, 2, rng)
    q, p = algebra.ambient_dim, 3
    xs, ys = random_stack(rng, 4, p, q), random_stack(rng, 5, p, q)
    assert_matches_ambient_loop(table_by(order, phi, xs, ys), phi, xs, ys)
    assert table_by(order, phi, xs[:0], ys).shape == (0, 5, m, m)
    assert table_by(order, phi, xs, ys[:0]).shape == (4, 0, m, m)


@given(
    blocks=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    m=st.integers(min_value=1, max_value=4),
    p=st.integers(min_value=0, max_value=4),
    dx=st.integers(min_value=0, max_value=5),
    dy=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(blocks=[1, 6], m=2, p=3, dx=4, dy=5, seed=0)  # products first on the 1, values first on the 6
@example(blocks=[6, 1, 6], m=2, p=3, dx=5, dy=4, seed=1)
@example(blocks=[2], m=1, p=0, dx=3, dy=2, seed=2)
@settings(max_examples=40, deadline=None)
def test_pair_kernel_matches_the_ambient_loop_in_either_order(blocks, m, p, dx, dy, seed):
    """``apply_pairs``, and each order on its own, over mixed block sizes
    (one call may run both orders), p = 0, unequal and empty stacks."""
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra(tuple(blocks))
    phi = random_cp_map(algebra, m, 2, rng)
    xs, ys = random_stack(rng, dx, p, algebra.ambient_dim), random_stack(rng, dy, p, algebra.ambient_dim)
    assert_matches_ambient_loop(phi.apply_pairs(xs, ys), phi, xs, ys)
    for order in ORDERS:
        assert_matches_ambient_loop(table_by(order, phi, xs, ys), phi, xs, ys)


def test_one_call_runs_both_orders():
    """The property's first example takes one group of each order, so its
    ``apply_pairs`` call sums a share from each."""
    phi = random_cp_map(BlockAlgebra((1, 6)), 2, 2, np.random.default_rng(0))
    assert group_orders(phi, 4, 5, 3) == [_products_first, _values_first]


def test_flop_rule_at_the_benchmark_shapes(monkeypatch):
    """Every table of decide_narrow and cli_files ((2, 2) blocks) keeps
    products first, so their tables are those of the single-order kernel;
    every extend_wide E table ((6, 6) blocks, dim E 12-24) takes values
    first.  The shapes are read off the benchmark generator's problems."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    monkeypatch.syspath_prepend(str(BENCH))
    import problems
    import workloads

    def orders(blocks, e_cols, f_cols, exact=False, tables=("e", "f")):
        rng = np.random.default_rng(0)
        args = (sum(e_cols) + 2, workloads.M, workloads.K, workloads.RANK, exact)
        pr = problems.make_problem(rng, blocks, e_cols, f_cols, *args)
        phi = problems.cp_map(pr)
        stacks = {"e": np.array(pr.e_basis), "f": np.array(pr.f_basis)}
        return {order for name in tables for order in group_orders(phi, len(stacks[name]), len(stacks[name]), pr.p)}

    for c in workloads.NARROW_COLS:
        assert orders((2, 2), (c, c), (c, c)) == {_products_first}
    for c in workloads.CLI_COLS:
        assert orders((2, 2), (c, c), (c // 2, c // 2)) == {_products_first}
        assert orders((2, 2), (c, c), (c, 0), exact=True) == {_products_first}
    for e_cols, f_cols, exact in workloads.WIDE_SHAPES:
        assert orders((6, 6), e_cols, f_cols, exact, tables=("e",)) == {_values_first}


def test_large_self_table_peak_memory_within_four_tables():
    """A dim-196 self-table over (14, 14) at m = 4 takes values first, whose
    one temporary is m^2 times the stack's slices: the peak stays below four
    times the 9.8 MB table, where products first held a (2, 196, 196, 14, 14)
    product array and its transposed copy (a 492 MB peak, 50 tables)."""
    rng = np.random.default_rng(0)
    phi = random_cp_map(BlockAlgebra((14, 14)), 4, 2, rng)
    xs = random_stack(rng, 196, 16, 28)
    assert group_orders(phi, 196, 196, 16) == [_values_first]
    phi.apply_pairs(xs[:1], xs[:1])  # warm the cached size groups
    tracemalloc.start()
    try:
        table = phi.apply_pairs(xs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 196 * 196 * 16 * np.dtype(complex).itemsize
    assert peak < 4 * table.nbytes


# ---------------------------------------------------------------------------
# The one phi~(<e_i, e_j>) table: the obstruction forms it once, and its
# f_perp x e block, the obstruction norm and the exact branch's two
# e x (f + f_perp) tables are contractions of it.  The references evaluate
# every pair on the explicit basis matrices of e, f and f_perp.

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def reference_table(phi, xs, ys):
    """``phi(<x_a, y_b>)`` for two lists of matrices, one pair at a time."""
    m = phi.target_dim
    out = np.zeros((len(xs), len(ys), m, m), dtype=complex)
    for (a, x), (b, y) in itertools.product(enumerate(xs), enumerate(ys)):
        out[a, b] = pair_value(phi, x, y)
    return out


def extension_cases(family, monkeypatch):
    """``(phi_map, e, phi)`` problems of one family: the two random fixtures
    at seeds 0-39, the worked examples, and ``extend_wide``-shaped problems
    from the benchmark's generator."""
    if family in ("semi", "vanishing"):
        make = random_semi_phi_fixture if family == "semi" else random_vanishing_obstruction_fixture
        fixtures = [make(np.random.default_rng(seed)) for seed in range(40)]
        return [(fx.phi_map, fx.e, fx.phi) for fx in fixtures]
    if family == "examples":
        fixtures = [example_2_1(n) for n in (1, 2, 3)] + [compacts_fixture(2)]
        return [(fx.phi_map, fx.e, fx.phi) for fx in fixtures]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    monkeypatch.syspath_prepend(str(BENCH))
    import problems
    import workloads

    cases = []
    for seed, (s, (e_cols, f_cols, exact)) in itertools.product(range(2), enumerate(workloads.WIDE_SHAPES)):
        rng = np.random.default_rng([seed, 1, 0, s])
        pr = problems.make_problem(
            rng, (6, 6), e_cols, f_cols, sum(e_cols) + 2, workloads.M, workloads.K, workloads.RANK, exact
        )
        cases.append((problems.module_map(pr, pr.extend_values), problems.module(pr, pr.e_basis), problems.cp_map(pr)))
    return cases


def rescaled(phi_map, e, scale):
    """The problem with every basis element of e and f, and so every value
    of the map, multiplied by ``scale``."""
    f = phi_map.domain
    e2 = ConcreteModule(e.algebra, e.row_dim, tuple(scale * e._basis_stack))
    f2 = ConcreteModule(f.algebra, f.row_dim, tuple(scale * f._basis_stack))
    return ModuleMap(f2, phi_map.h1_dim, phi_map.h2_dim, tuple(scale * phi_map._value_stack)), e2


def assert_shared_table_matches(phi_map, e, phi):
    """The obstruction's f_perp x e block, norm and verdict, and the exact
    branch's two defects, against the per-pair references; returns the
    engine's verdicts (or the name of the error it raised)."""
    f = phi_map.domain
    obs = phi_extension_obstruction(phi, f, e)
    f_perp, coeffs = obs.complement, obs._coefficients
    # f_perp's basis is e's basis times the coefficients, by construction.
    assert np.array_equal(e._basis_columns @ coeffs, f_perp._basis_columns)
    table = reference_table(phi, e.basis, e.basis)
    size = float(np.linalg.norm(table, 2, axis=(-2, -1)).max(initial=0.0))
    atol = 1e-12 * size
    block = reference_table(phi, f_perp.basis, e.basis)
    np.testing.assert_allclose(np.tensordot(np.conj(coeffs).T, obs._table, axes=1), block, rtol=0, atol=atol)
    worst = float(np.linalg.norm(block, 2, axis=(-2, -1)).max(initial=0.0))
    assert obs.norm == pytest.approx(worst, rel=1e-9, abs=atol)
    assert obs.vanishes is bool(worst <= DEFAULT_TOL.threshold(max(size, 1.0)))
    try:
        result = extend_semi_phi(phi_map, e, phi)
    except (ExtensionInputError, SelfCheckError) as err:
        return type(err).__name__
    report = result.report
    if report.exact_on_complemented_defect is not None:
        killed = max([0.0] + [np.linalg.norm(result.phi_prime.apply(z)) for z in f_perp.basis])
        assert report.complement_killed_defect == pytest.approx(killed, rel=1e-9, abs=1e-12 * np.sqrt(size))
        expected = reference_exact_on_complemented(result.phi_prime, phi, f, f_perp, e)
        assert report.exact_on_complemented_defect == pytest.approx(expected, rel=1e-9, abs=atol)
    return (
        report.obstruction_vanishes,
        report.input_is_phi_map,
        report.extension_semi_ok,
        report.exact_on_complemented_defect is not None,
    )


FAMILIES = ["semi", "vanishing", "examples", "wide"]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("family", FAMILIES)
def test_shared_table_matches_reference_loops(family, scale, monkeypatch):
    for phi_map, e, phi in extension_cases(family, monkeypatch):
        assert_shared_table_matches(*rescaled(phi_map, e, scale), phi)


@pytest.mark.parametrize("family", FAMILIES)
def test_verdicts_survive_a_unitary_change_of_basis(family, monkeypatch):
    rng = np.random.default_rng(2024)
    exact = 0
    for phi_map, e, phi in extension_cases(family, monkeypatch):
        want = assert_shared_table_matches(phi_map, e, phi)
        change = _random_unitary(e.dim, rng) if e.dim else np.zeros((0, 0))
        mixed = ConcreteModule(e.algebra, e.row_dim, tuple(np.tensordot(change, e._basis_stack, axes=1)))
        assert assert_shared_table_matches(phi_map, mixed, phi) == want
        exact += want[-1]
    if family != "semi":
        assert exact  # the exact branch ran on some of them


@pytest.mark.xfail(
    strict=True,
    reason="absolute tolerance floors: on small bases a nonzero obstruction and a nonzero "
    "compatibility defect read as vanishing; on large ones the input semi check, whose "
    "threshold is taken at the scale of the gap itself, fails an exactly compatible input on "
    "rounding, and the universal map fails its self-check on blocks that vanish exactly",
)
@pytest.mark.parametrize("family", ["semi", "vanishing", "examples"])
def test_verdicts_survive_rescaling(family, monkeypatch):
    for phi_map, e, phi in extension_cases(family, monkeypatch):
        want = assert_shared_table_matches(phi_map, e, phi)
        for scale in SCALES:
            assert assert_shared_table_matches(*rescaled(phi_map, e, scale), phi) == want

