"""The extension engine against its route through the universal map.

The engine factors the input through the carrier map ``x -> (x (x) I_r) V``
and takes no orthonormal basis of the carrier space.  The oracle below is
the route it replaced: ``ksgns(phi, e)`` gives ``Q`` and the universal map
``x -> Q* (x (x) I_r) V``, the least squares runs on ``Q* C_F`` (the
universal vectors on F, formed from F's own basis), the extension is
``S0 Q* C`` and its semi verdict is read off a fresh Gram pair.  Both routes
give the same verdicts and errors, and the same values up to rounding.
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
    ksgns,
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
    dagger,
    least_squares_operator,
    operator_norm,
)

AGREE = 1e-14
FIELDS = ("contraction_norm", "least_squares_residual", "restriction_defect", "extension_semi_margin")


def universal_route(phi_map, e, phi, tol=DEFAULT_TOL):
    """``extend_semi_phi`` through ``ksgns``: the extension's values and the
    report fields compared here, or the exception the route raises."""
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
    kres = ksgns(phi, e, tol)
    f, m, k = phi_map.domain, phi_map.h1_dim, phi_map.h2_dim
    r, p, q = kres.dilation.rank, f.row_dim, phi.domain.ambient_dim
    # Q* (f_i (x) I_r) V from F's own basis, as columns (l fast).
    c_f = (f._basis_stack @ kres.dilation.V.reshape(q, r * m)).reshape(f.dim, p * r, m)
    univ_on_f = dagger(kres.onb) @ c_f
    a_cols = univ_on_f.transpose(1, 0, 2).reshape(kres.onb.shape[1], f.dim * m)
    b_cols = phi_map.stacked_columns()
    s0, residual = least_squares_operator(a_cols, b_cols, tol)
    b_scale = float(np.linalg.norm(b_cols)) if b_cols.size else 0.0
    if residual > _construction_threshold(tol, max(b_scale, 1.0)):
        raise ExtensionInputError(f"least-squares system for the contraction is inconsistent (residual {residual:.3e})")
    s0_norm = operator_norm(s0)
    if s0_norm > _contraction_bound(tol):
        raise ExtensionInputError(f"factoring operator has norm {s0_norm:.6f} > 1; semi hypothesis violated")
    phi_prime = ModuleMap(e, m, k, tuple(s0 @ kres.map._value_stack))
    restriction = np.linalg.norm(s0 @ univ_on_f - phi_map._value_stack, axis=(-2, -1)).max(initial=0.0)
    verdict = ext._semi_verdict(gram_pair(phi_prime, phi), tol)
    fields = dict(zip(FIELDS, (s0_norm, residual, float(restriction), verdict.margin)))
    return phi_prime._value_stack, verdict.ok, fields


def outcome(run):
    try:
        return run()
    except Exception as err:  # the routes must fail alike
        return type(err), str(err)


def assert_routes_agree(phi_map, e, phi):
    engine = outcome(lambda: extend_semi_phi(phi_map, e, phi))
    oracle = outcome(lambda: universal_route(phi_map, e, phi))
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
    # The contraction acts on the carrier space C^p (x) C^r.
    assert engine.contraction.shape == (phi_map.h2_dim, e.row_dim * engine.dilation.rank)


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make", [example_2_1, compacts_fixture], ids=["example_2_1", "compacts"])
def test_named_fixtures(make, n):
    fx = make(n)
    assert_routes_agree(fx.phi_map, fx.e, fx.phi)


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
