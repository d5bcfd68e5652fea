"""The blockwise module form: the rank count of ``validate_module`` against
its full per-pair and per-unit pass, the Frobenius Gram complement against
the constraint of every inner product, and the inputs the Gram complement
needs (a valid ``e``) as input errors.

The references here never run the fast kernels they check: the full pass is
``modules._full_validation`` and the complement reference builds the
``(dim f * q^2) x dim e`` constraint of all products ``f_j* e_k``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiphi.modules as modules
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ExtensionInputError,
    ModuleMap,
    PreconditionError,
    canonical_compacts_extension,
    extend_semi_phi,
    identity_cp_map,
    is_submodule,
    orthogonal_complement,
    phi_extension_obstruction,
    validate_module,
)
from semiphi import serialization as ser
from semiphi.cli import main
from semiphi.fixtures import (
    compacts_fixture,
    example_2_1,
    random_block_algebra,
    random_orthogonal_module_pair,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
)
from semiphi.numerics import DEFAULT_TOL, EPS, _rank_cut, _rounding_band, adjoint_products, column_span_onb, nullspace_onb

from conftest import full_rectangular_module
from test_carrier import SPANS, bound_problem


def assert_count_matches_full_pass(module):
    """``validate_module`` returns exactly the full pass's report, and the
    rank count, where it decides, gives the full pass's verdict."""
    full = modules._full_validation(module, DEFAULT_TOL)
    assert validate_module(module) == full
    count = modules._rank_count(module, DEFAULT_TOL)
    if count is not None:
        assert count is full.ok
    return count, full


def with_basis(module, stack):
    return ConcreteModule(module.algebra, module.row_dim, tuple(stack))


def random_fixture(seed):
    family = (random_semi_phi_fixture, random_vanishing_obstruction_fixture)[seed % 2]
    return family(np.random.default_rng(seed))


def parity_modules():
    out = []
    for seed in range(60):
        fx = random_fixture(seed)
        out += [fx.e, fx.f]
    for n in (1, 2, 3):
        for fx in (example_2_1(n), compacts_fixture(n)):
            out += [fx.e, fx.f]
    out.append(full_rectangular_module(3, 2))
    return out


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def mixed(module, rng):
    """The same span under a random unitary change of basis."""
    u = random_unitary(module.dim, rng)
    return with_basis(module, np.einsum("ij,jpq->ipq", u, module._basis_stack))


class TestRankCountParity:
    def test_every_fixture_is_decided_valid_by_the_count(self):
        for module in parity_modules():
            count, full = assert_count_matches_full_pass(module)
            assert count is True and full.ok

    def test_zero_module(self):
        zero = ConcreteModule(BlockAlgebra((1, 2)), 3, ())
        assert assert_count_matches_full_pass(zero) == (True, modules.ModuleValidation(True, ()))

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_deficient_basis(self, seed):
        fx = random_fixture(seed)
        stack = fx.e._basis_stack
        dependent = np.concatenate([stack, (stack[:1] + 2.0 * stack[-1:])])
        count, full = assert_count_matches_full_pass(with_basis(fx.e, dependent))
        assert count is False and not full.ok
        assert full.violations[-1] == f"basis is linearly dependent (rank {fx.e.dim} of {fx.e.dim + 1})"

    @pytest.mark.parametrize("seed", range(12))
    def test_missing_block_column(self, seed):
        fx = random_fixture(seed)
        stack, blocks = fx.e._basis_stack, fx.e.algebra.blocks
        # Basis elements run over the block columns of each W_k vector, so
        # dropping one in a block of size >= 2 keeps its W_k vector in the
        # other columns of that block but not in this one.
        block_of = np.repeat(np.arange(len(blocks)), blocks)
        column = np.linalg.norm(stack, axis=1).argmax(axis=1)
        wide = np.flatnonzero(np.array(blocks)[block_of[column]] >= 2)
        if not wide.size:
            pytest.skip("every basis element fills a whole block component")
        count, full = assert_count_matches_full_pass(with_basis(fx.e, np.delete(stack, wide[-1], axis=0)))
        assert count is False and not full.ok
        assert any("right action" in v for v in full.violations)

    def test_non_orthogonal_column_spaces(self):
        count, full = assert_count_matches_full_pass(tilted_column_spaces())
        assert count is not True and not full.ok
        assert full.violations[0] == "inner product of basis (0,1) escapes the algebra"

    @pytest.mark.parametrize("size", [1e-3, 1e-6, 1e-9, 1e-10, 1e-12])
    def test_perturbed_basis(self, size):
        counts = []
        for seed in range(12):
            fx = random_fixture(seed)
            if fx.e.dim == fx.e.row_dim * fx.e.algebra.ambient_dim:
                continue  # e is every p x q matrix, so noise stays inside
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(fx.e._basis_stack.shape) * size
            count, full = assert_count_matches_full_pass(with_basis(fx.e, fx.e._basis_stack + noise))
            counts.append(count)
            if size >= 1e-6:
                assert count is not True and not full.ok
        if size in (1e-9, 1e-10):
            # Noise at the tolerance leaves the count near its thresholds,
            # and the full pass decides.
            assert None in counts

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_badly_scaled_basis(self, scale):
        for module in parity_modules()[:40]:
            assert_count_matches_full_pass(with_basis(module, scale * module._basis_stack))

    @pytest.mark.parametrize("scale", 10.0 ** np.arange(-12, 7))
    def test_every_random_fixture_validates_at_every_scale(self, scale):
        # Rank cuts and right-action thresholds are taken in units of the
        # largest basis norm, so no scale makes a valid basis look dependent.
        nonzero = [m for seed in range(40) for m in (random_fixture(seed).e, random_fixture(seed).f) if m.dim]
        assert len(nonzero) == 72
        for module in nonzero:
            count, full = assert_count_matches_full_pass(with_basis(module, scale * module._basis_stack))
            assert count is True and full.ok

    @pytest.mark.parametrize("scale", 10.0 ** np.arange(-12, 7, 2))
    def test_escaping_products_are_rejected_at_every_scale(self, scale):
        tilted = tilted_column_spaces()
        cases = [
            (escaping_rows(), ("inner product of basis (0,1) escapes the algebra", "inner product of basis (1,0) escapes the algebra")),
            (tilted, validate_module(tilted).violations),
        ]
        assert cases[1][1][0] == "inner product of basis (0,1) escapes the algebra"
        for module, violations in cases:
            count, full = assert_count_matches_full_pass(with_basis(module, scale * module._basis_stack))
            assert count is not True
            assert full.violations == violations

    def test_invalid_one_dimensional_span(self):
        e = span_of_e11()
        count, full = assert_count_matches_full_pass(e)
        assert count is False
        assert full.violations == ("right action of unit (0,1) on basis 0 leaves the span",)


class TestValidationBeyondTheProductRange:
    """A basis whose products of four entries leave the floating-point range
    is validated rescaled by a power of two, so its report is the unit
    basis's: validity depends on the span alone."""

    @pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e80, 1e100, 1e155, 1e160])
    def test_report_does_not_move(self, scale):
        cases = [span_of_e11(), tilted_column_spaces(), escaping_rows(), *parity_modules()[:40]]
        for module in cases:
            assert validate_module(with_basis(module, scale * module._basis_stack)) == validate_module(module)

    def test_bases_in_range_are_validated_as_given(self):
        for module in parity_modules()[:40]:
            for scale in (1e-30, 1e30):
                scaled = with_basis(module, scale * module._basis_stack)
                assert modules._in_range(scaled) is scaled


class TestBlockRows:
    """The module's row form per algebra block against an SVD of the block
    columns, on the carrier tests' spans (full, deficient, nearly deficient,
    zero and tall blocks over one to four blocks, at scales 1e-6...1e6), with
    each block's columns scaled by up to 1e-4 against the others."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.integers(1, 3), st.sampled_from(SPANS), st.floats(-4.0, 0.0)), min_size=1, max_size=4
        ),
        st.integers(1, 6),
        st.integers(1, 6),
        st.floats(-6.0, 6.0),
    )
    def test_bounds_hold_and_the_count_agrees(self, seed, layout, p, d, log_scale):
        blocks, spans, tilts = zip(*layout)
        module = bound_problem(seed, blocks, spans, p, d, 2, 1, "cp", log_scale, 0.0)[0].domain
        stack = module._basis_stack.copy()
        for sl, tilt in zip(module.algebra.block_slices(), tilts):
            stack[:, :, sl] *= 10.0**tilt
        module = with_basis(module, stack)
        count = modules._rank_count(module, DEFAULT_TOL)
        assert count is None or count == modules._full_validation(module, DEFAULT_TOL).ok
        # A count that gets past the whole basis's rank decides only once every
        # block has cleared its rank cut on the row form; the block's SVD must
        # then cut at the same rank, and clear of the cut by the factor too.
        unit = module._basis_unit
        whole = _rank_cut(module._factorization.singular_values, DEFAULT_TOL, unit)
        blocks_cleared = count is not None and whole == (module.dim, True)
        for sl, rows in zip(module.algebra.block_slices(), module._block_rows):
            y = module._basis_stack[:, :, sl].transpose(1, 0, 2).reshape(p, -1)
            s = np.linalg.svd(y, compute_uv=False)
            band = 8 * sum(y.shape) * EPS * np.linalg.norm(y)
            r = rows.values.size
            # The residual bounds the dropped tail from above, and the kept
            # eigenvalues less the rounding allowance the rank count takes
            # bound the kept singular values from below: the two bounds its
            # clear-cut tests read.
            allowance = _rounding_band(sum(y.shape), np.linalg.norm(y) ** 2)
            assert np.sqrt(rows.residual_mass) >= np.linalg.norm(s[r:]) - band
            assert np.all(np.sqrt(np.clip(rows.values[::-1] - allowance, 0.0, None)) <= s[:r] + band)
            if blocks_cleared:
                assert _rank_cut(s, DEFAULT_TOL, unit) == (r, True)


def escaping_rows():
    """All 1 x 2 rows over C (+) C: closed under the action, but [1, 0]*
    [0, 1] is off the diagonal."""
    return ConcreteModule(BlockAlgebra((1, 1)), 1, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))


def matrix_rows():
    """The first and the second row of 2 x 2 matrices over M_2: two valid
    modules, neither inside the other."""
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    algebra = BlockAlgebra((2,))
    return ConcreteModule(algebra, 2, tuple(units[:2])), ConcreteModule(algebra, 2, tuple(units[2:]))


class TestMembershipAtEveryScale:
    """Membership takes its absolute tolerance in units of the module's
    largest basis norm, as validation does, so a basis that validates at a
    small scale cannot pass as a submodule of a span it escapes."""

    SCALES = 10.0 ** np.arange(-12, 7)

    @pytest.mark.parametrize("scale", SCALES)
    def test_second_row_is_not_a_submodule_of_the_first(self, scale):
        first, second = (with_basis(m, scale * m._basis_stack) for m in matrix_rows())
        assert validate_module(second).ok
        assert is_submodule(first, first)
        assert not is_submodule(second, first)
        assert not first.contains_matrix(second._basis_stack)
        with pytest.raises(ValueError, match="^f must be a submodule of e$"):
            orthogonal_complement(second, first)
        phi = identity_cp_map(first.algebra)
        with pytest.raises(PreconditionError, match="^obstruction requires f to be a submodule of e$"):
            phi_extension_obstruction(phi, second, first)
        phi_map = ModuleMap(second, 2, 2, tuple(second._basis_stack))
        with pytest.raises(ExtensionInputError, match="^the map's domain must be a submodule of e$"):
            extend_semi_phi(phi_map, first, phi)

    @pytest.mark.parametrize("scale", SCALES)
    def test_every_random_fixture_submodule_is_contained(self, scale):
        for seed in range(40):
            fx = random_fixture(seed)
            e, f = (with_basis(m, scale * m._basis_stack) for m in (fx.e, fx.f))
            assert is_submodule(f, e)


def constraint_complement(f, e, tol=DEFAULT_TOL):
    """The complement from the constraint ``f_j* x = 0`` on every entry of
    every product, one row per entry."""
    q = e.algebra.ambient_dim
    products = adjoint_products(f._basis_stack, e._basis_stack)
    constraint = products.transpose(0, 2, 3, 1).reshape(f.dim * q * q, e.dim)
    return e._basis_columns @ nullspace_onb(constraint, tol)


def projector(columns):
    onb = column_span_onb(columns, DEFAULT_TOL, height=columns.shape[0])
    return onb @ onb.conj().T


def assert_complement_matches(f, e):
    got = orthogonal_complement(f, e)
    want = constraint_complement(f, e) if f.dim else e._basis_columns
    assert got.dim == want.shape[1] == e.dim - f.dim
    got_cols = got._basis_columns if got.dim else np.zeros((want.shape[0], 0))
    assert np.abs(projector(got_cols) - projector(want)).max(initial=0.0) <= 1e-12
    return got


class TestGramComplementParity:
    def test_fixtures(self):
        for seed in range(60):
            fx = random_fixture(seed)
            assert_complement_matches(fx.f, fx.e)
        for n in (1, 2, 3):
            for fx in (example_2_1(n), compacts_fixture(n)):
                assert_complement_matches(fx.f, fx.e)
                assert orthogonal_complement(fx.e, fx.e).dim == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_algebras_and_mixed_bases(self, seed):
        rng = np.random.default_rng(seed)
        e, f = random_orthogonal_module_pair(random_block_algebra(rng), rng, max_dim=8)
        assert_complement_matches(f, e)
        assert_complement_matches(mixed(f, rng), mixed(e, rng))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    which=st.sampled_from(["e", "f", "both"]),
)
@settings(max_examples=40, deadline=None)
def test_verdict_and_complement_dimension_are_invariant(seed, scale, which):
    """A unitary change of basis and a scaling leave the span, and with it the
    validation verdict and the complement dimension, unchanged."""
    rng = np.random.default_rng(seed)
    e, f = random_orthogonal_module_pair(random_block_algebra(rng), rng, max_dim=8)
    invalid = with_basis(e, e._basis_stack[:-1]) if e.dim > 1 else span_of_e11()
    for module in (e, f, invalid):
        verdict = validate_module(module).ok
        assert validate_module(mixed(module, rng)).ok is verdict
        assert validate_module(with_basis(module, scale * module._basis_stack)).ok is verdict
    dim = orthogonal_complement(f, e).dim

    def moved(module):
        return with_basis(module, scale * mixed(module, rng)._basis_stack)

    e2 = moved(e) if which != "f" else e
    f2 = moved(f) if which != "e" else f
    assert orthogonal_complement(f2, e2).dim == dim


def tilted_column_spaces():
    """Columns over BlockAlgebra((1, 2)) whose block column spaces are not
    orthogonal, so inner products escape the algebra."""
    rng = np.random.default_rng(3)
    u = random_unitary(3, rng)
    tilted = (u[:, 1] + 0.5 * u[:, 0]) / np.linalg.norm(u[:, 1] + 0.5 * u[:, 0])
    basis = []
    for c, w in ((0, u[:, 0]), (1, tilted), (2, tilted)):
        x = np.zeros((3, 3), dtype=complex)
        x[:, c] = w
        basis.append(x)
    return ConcreteModule(BlockAlgebra((1, 2)), 3, tuple(basis))


def span_of_e11():
    """``span{E_11}`` over ``M_2``: its inner products lie in the algebra,
    but it is not closed under the right action."""
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    return ConcreteModule(BlockAlgebra((2,)), 2, (e11,))


class TestInvalidAmbientModule:
    MESSAGE = "e is not a valid module: right action of unit (0,1) on basis 0 leaves the span"

    def setup_method(self):
        self.e = span_of_e11()
        self.f = ConcreteModule(self.e.algebra, 2, ())
        self.phi = identity_cp_map(self.e.algebra)
        self.phi_map = ModuleMap(self.f, 2, 2, ())

    def test_engine_raises_an_input_error(self):
        with pytest.raises(ExtensionInputError) as info:
            extend_semi_phi(self.phi_map, self.e, self.phi)
        assert str(info.value) == self.MESSAGE

    def test_obstruction_raises_a_precondition_error(self):
        with pytest.raises(PreconditionError) as info:
            phi_extension_obstruction(self.phi, self.f, self.e)
        assert str(info.value) == self.MESSAGE
        with pytest.raises(PreconditionError, match="right action of unit"):
            canonical_compacts_extension(self.phi_map, self.e, self.phi)

    def test_complement_raises_a_value_error(self):
        with pytest.raises(ValueError) as info:
            orthogonal_complement(self.f, self.e)
        assert type(info.value) is ValueError
        assert str(info.value) == self.MESSAGE

    def test_submodule_failure_keeps_its_message(self):
        # f escapes e and e is invalid: the submodule check comes first.
        other = ConcreteModule(self.e.algebra, 2, (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError, match="^f must be a submodule of e$"):
            orthogonal_complement(other, self.e)
        with pytest.raises(ExtensionInputError, match="^the map's domain must be a submodule of e$"):
            extend_semi_phi(ModuleMap(other, 2, 2, (np.eye(2),)), self.e, self.phi)

    @pytest.mark.parametrize("command", ["extend", "obstruction"])
    def test_cli_exits_with_an_input_error(self, command, tmp_path, capsys):
        payload = {
            "phi": ser.cp_map_to_json(self.phi),
            "Phi": ser.module_map_to_json(self.phi_map),
            "E": ser.module_to_json(self.e),
            "F": ser.module_to_json(self.f),
        }
        path = tmp_path / "invalid_e.json"
        path.write_text(json.dumps({"schema_version": "1", "payload": payload}))
        assert main([command, str(path), "--json"]) == 2
        assert capsys.readouterr().err.strip() == f"error: {self.MESSAGE}"


def test_empty_submodule_forms_the_e_table_once_in_the_obstruction(monkeypatch):
    """With f = 0 the complement is e, and the obstruction reads both its
    scale and its norm off one ``phi~(<e_i, e_j>)`` table (the engine's
    count on this fixture is ``TestStagesRunOnce`` in test_extension.py)."""
    fx = random_semi_phi_fixture(np.random.default_rng(12345))
    assert fx.f.dim == 0
    e_stack = fx.e._basis_stack
    tables = []
    apply_pairs = CPMap.apply_pairs

    def counted(phi, xs, ys):
        tables.append((xs is e_stack, ys is e_stack))
        return apply_pairs(phi, xs, ys)

    monkeypatch.setattr(CPMap, "apply_pairs", counted)
    report = phi_extension_obstruction(fx.phi, fx.f, fx.e)
    assert tables == [(True, True)]
    assert report.complement is fx.e
