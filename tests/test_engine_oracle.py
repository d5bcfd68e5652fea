"""The extension engine against a route through the whole carrier space.

The engine factors the input through the carrier map in block row
coordinates, ``x -> (+)_k (U_k* x[:, block k] (x) I_{rho_k}) V_k``, on
``sum_k dim W_k rho_k`` rows.  The oracle below shares no code with it or
with ``kraus`` and ``ksgns``: its Kraus vectors come from one ``eigh`` of the
whole Choi matrix assembled here, its carrier columns ``(x (x) I_r) V`` on
all ``p r`` rows from one ``np.kron`` per basis element, the least squares
runs on the columns of F's own basis, the extension is ``S0 C`` and its semi
verdict is read off a fresh Gram pair.  The carrier map is an isometric
compression of the oracle's, so both routes give the same verdicts and
errors, and the same values up to rounding.
"""

import numpy as np
import pytest

import semiphi.extension as ext
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ExtensionInputError,
    ModuleMap,
    PreconditionError,
    extend_semi_phi,
    gram_pair,
    phi_extension_obstruction,
    zero_module_map,
)
from semiphi.fixtures import (
    compacts_fixture,
    example_2_1,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
    random_violating_module_map,
)
from semiphi.numerics import (
    DEFAULT_TOL,
    _construction_threshold,
    _contraction_bound,
    least_squares_operator,
    operator_norm,
)
from conftest import block_case, block_rows, full_carrier, full_dilation

AGREE = 1e-14
FIELDS = ("contraction_norm", "least_squares_residual", "restriction_defect", "extension_semi_margin")


def full_route(phi_map, e, phi, tol=DEFAULT_TOL):
    """``extend_semi_phi`` through the whole carrier space of
    ``conftest.full_carrier``: the extension's values and the report fields
    compared here, or the exception the route raises."""
    ext._check_compatible(phi_map, phi)
    try:
        obstruction = phi_extension_obstruction(phi, phi_map.domain, e, tol)
    except ext._InvalidModuleError as err:
        raise ExtensionInputError(str(err)) from None
    except PreconditionError:
        raise ExtensionInputError("the map's domain must be a submodule of e") from None
    semi = ext._semi_verdict(gram_pair(phi_map, phi), tol)
    if not semi.ok:
        raise ExtensionInputError(f"input map is not completely semi-compatible (margin {semi.margin:.3e})")
    v, r = full_dilation(phi, tol)
    f, m, k = phi_map.domain, phi_map.h1_dim, phi_map.h2_dim
    c_f = full_carrier(f._basis_stack, v, r)
    a_cols = c_f.transpose(1, 0, 2).reshape(f.row_dim * r, f.dim * m)
    b_cols = phi_map.stacked_columns()
    s0, residual = least_squares_operator(a_cols, b_cols, tol)
    b_scale = float(np.linalg.norm(b_cols)) if b_cols.size else 0.0
    if residual > _construction_threshold(tol, max(b_scale, 1.0)):
        raise ExtensionInputError(f"least-squares system for the contraction is inconsistent (residual {residual:.3e})")
    s0_norm = operator_norm(s0)
    if s0_norm > _contraction_bound(tol):
        raise ExtensionInputError(f"factoring operator has norm {s0_norm:.6f} > 1; semi hypothesis violated")
    phi_prime = ModuleMap(e, m, k, tuple(s0 @ full_carrier(e._basis_stack, v, r)))
    restriction = np.linalg.norm(s0 @ c_f - phi_map._value_stack, axis=(-2, -1)).max(initial=0.0)
    verdict = ext._semi_verdict(gram_pair(phi_prime, phi), tol)
    fields = dict(zip(FIELDS, (s0_norm, residual, float(restriction), verdict.margin)))
    return phi_prime._value_stack, verdict.ok, fields


def outcome(run):
    try:
        return run()
    except Exception as err:  # the routes must fail alike
        return type(err), str(err)


def assert_routes_agree(phi_map, e, phi, tol=DEFAULT_TOL, rows=None):
    """Both routes agree; the contraction acts on ``rows`` carrier rows
    (``sum_k dim W_k rho_k`` unless given)."""
    engine = outcome(lambda: extend_semi_phi(phi_map, e, phi, tol))
    oracle = outcome(lambda: full_route(phi_map, e, phi, tol))
    if isinstance(oracle[0], type):
        assert engine == oracle
        return
    values, semi_ok, fields = oracle
    assert not isinstance(engine, tuple), engine
    report = engine.report
    assert report.extension_semi_ok == semi_ok
    assert engine.phi_prime._value_stack.shape == values.shape
    assert np.abs(engine.phi_prime._value_stack - values).max(initial=0.0) <= AGREE
    for name, value in fields.items():
        assert abs(report[name] - value) <= AGREE, name
    rows = block_rows(e, phi, tol) if rows is None else rows
    assert engine.contraction.shape == (phi_map.h2_dim, rows)


def mixed(stack):
    """Element j becomes element j plus half of element j - 1: a basis
    change of condition number below 3 at every size, so both routes round
    alike at the scale of the unmixed problem."""
    upper = np.eye(len(stack)) + 0.5 * np.eye(len(stack), k=1)
    return tuple(np.tensordot(upper.T, stack, axes=1)) if len(stack) else ()


def mixed_case(phi_map, e):
    """``phi_map`` and ``e`` on non-orthogonal bases of the same spans: the
    basis and the values mixed alike, so the map is the same."""
    f = phi_map.domain
    f_mix = ConcreteModule(f.algebra, f.row_dim, mixed(f._basis_stack))
    mixed_map = ModuleMap(f_mix, phi_map.h1_dim, phi_map.h2_dim, mixed(phi_map._value_stack))
    return mixed_map, ConcreteModule(e.algebra, e.row_dim, mixed(e._basis_stack))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize(
    "make", [random_semi_phi_fixture, random_vanishing_obstruction_fixture], ids=["semi", "vanishing"]
)
def test_random_fixtures(make, seed):
    rng = np.random.default_rng(seed)
    fx = make(rng)
    assert_routes_agree(fx.phi_map, fx.e, fx.phi)
    # A map scaled past the contraction regime is refused alike.
    assert_routes_agree(random_violating_module_map(fx, rng), fx.e, fx.phi)
    if seed % 4 == 0:
        assert_routes_agree(*mixed_case(fx.phi_map, fx.e), fx.phi)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make", [example_2_1, compacts_fixture], ids=["example_2_1", "compacts"])
def test_named_fixtures(make, n):
    fx = make(n)
    assert_routes_agree(fx.phi_map, fx.e, fx.phi)
    assert_routes_agree(*mixed_case(fx.phi_map, fx.e), fx.phi)


@pytest.mark.parametrize("name", ["block_without_columns", "tall_block", "ties_across_blocks", "fallback"])
def test_block_shapes(name):
    phi_map, e, phi = block_case(name)
    carrier, dil = ext._carrier_map(phi, e, DEFAULT_TOL)
    full = e.row_dim * dil.rank
    if name == "fallback":
        # U = I_p: the rows of the whole carrier space, not dim W rho.
        assert not ext._compresses(e._block_rows[0], e.row_dim + e.dim)
        assert carrier.h2_dim == full > block_rows(e, phi)
    else:
        assert carrier.h2_dim == block_rows(e, phi) < full
    assert_routes_agree(phi_map, e, phi, rows=carrier.h2_dim)
    assert_routes_agree(*mixed_case(phi_map, e), phi, rows=carrier.h2_dim)
    # A map scaled past the contraction regime is refused alike.
    scaled = ModuleMap(phi_map.domain, phi_map.h1_dim, phi_map.h2_dim, tuple(3.0 * phi_map._value_stack))
    assert_routes_agree(scaled, e, phi, rows=carrier.h2_dim)


def edge_case(name):
    """One degenerate input ``(phi_map, e, phi)`` over example 2.1 (n = 2)."""
    fx = example_2_1(2)
    algebra, p, m, k = fx.e.algebra, fx.e.row_dim, fx.phi.target_dim, fx.phi_map.h2_dim
    empty = ConcreteModule(algebra, p, ())
    if name == "zero_cp_map":
        zero = CPMap(fx.phi.domain, m, tuple(0.0 * fx.phi._value_stack))
        return zero_module_map(fx.f, m, k), fx.e, zero
    if name == "zero_f":
        return ModuleMap(empty, m, k, ()), fx.e, fx.phi
    if name == "zero_e_and_f":
        return ModuleMap(empty, m, k, ()), empty, fx.phi
    if name == "target_dim_0":
        phi = CPMap(fx.phi.domain, 0, tuple(np.zeros((len(fx.phi.values), 0, 0))))
        return zero_module_map(fx.f, 0, k), fx.e, phi
    if name == "k_0":
        return zero_module_map(fx.f, m, 0), fx.e, fx.phi
    assert name == "row_dim_0"
    rowless = ConcreteModule(algebra, 0, ())
    return ModuleMap(rowless, m, k, ()), rowless, fx.phi


@pytest.mark.parametrize("name", ["zero_cp_map", "zero_f", "zero_e_and_f", "target_dim_0", "k_0", "row_dim_0"])
def test_edge_inputs(name):
    phi_map, e, phi = edge_case(name)
    assert_routes_agree(phi_map, e, phi)
    assert extend_semi_phi(phi_map, e, phi).report.extension_semi_ok


def test_invalid_inputs_fail_alike():
    fx = example_2_1(2)
    # Not a submodule: the roles of e and f swapped.
    total = ModuleMap(fx.e, 2, 2, tuple(b[:2, :] for b in fx.e.basis))
    assert_routes_agree(total, fx.f, fx.phi)
    # A CP map over another algebra.
    other = CPMap(BlockAlgebra((1,)), 2, (np.eye(2),))
    assert_routes_agree(fx.phi_map, fx.e, other)
