import numpy as np
import pytest

from semiphi import (
    BlockAlgebra,
    BlockEmbedding,
    ConcreteModule,
    MembershipError,
    contains,
    embed_module,
    inner_product_matrix,
    is_contained_pair,
    is_submodule,
    orthogonal_complement,
    validate_module,
)
from semiphi.fixtures import example_2_1, random_block_algebra, random_orthogonal_module_pair
from semiphi.numerics import ShapeError
from conftest import full_rectangular_module


def scalar_column_module():
    """C^2 as a module over the scalars."""
    algebra = BlockAlgebra((1,))
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    return ConcreteModule(algebra, 2, (e1, e2))


class TestValidation:
    def test_full_matrix_module_is_valid(self):
        assert validate_module(full_rectangular_module(2, 2)).ok

    def test_not_closed_under_right_action(self):
        algebra = BlockAlgebra((2,))
        basis = (np.array([[1.0, 0.0], [0.0, 0.0]]),)
        report = validate_module(ConcreteModule(algebra, 2, basis))
        assert not report.ok
        assert any("right action" in v for v in report.violations)

    def test_stacked_pair_model_is_valid(self):
        for n in (1, 2, 3):
            fx = example_2_1(n)
            assert validate_module(fx.e).ok
            assert validate_module(fx.f).ok

    def test_dependent_basis_flagged(self):
        algebra = BlockAlgebra((1,))
        b = np.array([[1.0]], dtype=complex)
        report = validate_module(ConcreteModule(algebra, 1, (b, 2 * b)))
        assert any("dependent" in v for v in report.violations)

    def test_violation_list_for_all_three_axioms(self):
        # Over C (+) M_2: x0 is a valid block-0 column, x1 has both block-1
        # columns filled in different rows, x2 = x0 + x1 straddles the blocks.
        algebra = BlockAlgebra((1, 2))
        x0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        x1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        report = validate_module(ConcreteModule(algebra, 2, (x0, x1, x0 + x1)))
        assert not report.ok
        assert report.violations == (
            "inner product of basis (0,1) escapes the algebra",
            "inner product of basis (0,2) escapes the algebra",
            "inner product of basis (1,0) escapes the algebra",
            "inner product of basis (1,2) escapes the algebra",
            "inner product of basis (2,0) escapes the algebra",
            "inner product of basis (2,1) escapes the algebra",
            "inner product of basis (2,2) escapes the algebra",
            # Units (1,1), (1,2) and (2,1) all move x1 and x2 out of the
            # span; only the first in unit order is reported.
            "right action of unit (1,1) on basis 1 leaves the span",
            "right action of unit (1,1) on basis 2 leaves the span",
            "basis is linearly dependent (rank 2 of 3)",
        )

    def test_zero_module_is_valid(self):
        assert validate_module(ConcreteModule(BlockAlgebra((1, 2)), 2, ())).ok


class TestInnerProduct:
    def test_stacked_pair_formula(self, rng):
        fx = example_2_1(2)
        t1, s1 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        t2, s2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        x = np.vstack([t1, s1]).astype(complex)
        y = np.vstack([t2, s2]).astype(complex)
        assert fx.e.contains_matrix(np.stack([x, y]))
        got = inner_product_matrix(x, y)
        assert contains(fx.e.algebra, got)
        assert np.allclose(got, t1.conj().T @ t2 + s1.conj().T @ s2)

    def test_adjoint_symmetry(self, rng):
        e = full_rectangular_module(3, 2)
        for _ in range(10):
            x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            y = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            assert np.allclose(
                inner_product_matrix(x, y).conj().T, inner_product_matrix(y, x)
            )

    def test_right_linearity_over_algebra(self, rng):
        e = full_rectangular_module(3, 2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.allclose(
            inner_product_matrix(x, y @ a), inner_product_matrix(x, y) @ a
        )

    def test_escaping_product_rejected(self):
        algebra = BlockAlgebra((1, 1))
        # A subspace whose products fall outside the diagonal blocks.
        b1 = np.array([[1.0, 0.0]], dtype=complex)
        b2 = np.array([[0.0, 1.0]], dtype=complex)
        e = ConcreteModule(algebra, 1, (b1, b2))
        assert not contains(algebra, inner_product_matrix(b1 + b2, b1))
        assert validate_module(e).violations == (
            "inner product of basis (0,1) escapes the algebra",
            "inner product of basis (1,0) escapes the algebra",
        )


class TestMembership:
    def test_coefficients_roundtrip(self, rng):
        e = full_rectangular_module(2, 3)
        m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        c = e.coefficients(m)
        assert np.allclose(e.from_coefficients(c), m)

    def test_outside_span_rejected(self):
        fx = example_2_1(1)
        with pytest.raises(MembershipError):
            fx.f.coefficients(np.array([[0.0], [1.0]]))


class TestSubmoduleAndComplement:
    def test_top_half_is_submodule(self):
        fx = example_2_1(2)
        assert is_submodule(fx.f, fx.e)
        assert not is_submodule(fx.e, fx.f)
        assert is_submodule(fx.e, fx.e)

    def test_scalar_complement(self):
        e = scalar_column_module()
        f = ConcreteModule(e.algebra, 2, (e.basis[0],))
        perp = orthogonal_complement(f, e)
        assert perp.dim == 1
        assert abs(abs(perp.basis[0][1, 0]) - 1.0) < 1e-12

    def test_complement_of_everything_is_zero(self):
        e = scalar_column_module()
        assert orthogonal_complement(e, e).dim == 0

    def test_complement_orthogonality_exact(self, rng):
        for _ in range(10):
            algebra = random_block_algebra(rng, max_q=3)
            e, f = random_orthogonal_module_pair(algebra, rng, max_dim=3)
            perp = orthogonal_complement(f, e)
            for z in perp.basis:
                for y in f.basis:
                    assert np.linalg.norm(inner_product_matrix(z, y)) < 1e-10

    def test_double_complement_and_dimension_split(self, rng):
        for _ in range(10):
            algebra = random_block_algebra(rng, max_q=3)
            e, f = random_orthogonal_module_pair(algebra, rng, max_dim=4)
            perp = orthogonal_complement(f, e)
            assert f.dim + perp.dim == e.dim
            back = orthogonal_complement(perp, e)
            assert back.dim == f.dim
            assert all(f.contains_matrix(b) for b in back.basis)


class TestDirectSum:
    def test_internal_recovers_ambient(self):
        # f and its complement are an internal direct sum spanning e.
        e = scalar_column_module()
        f = ConcreteModule(e.algebra, 2, (e.basis[0],))
        perp = orthogonal_complement(f, e)
        total = ConcreteModule(e.algebra, 2, f.basis + perp.basis)
        assert total.dim == 2
        assert np.linalg.matrix_rank(total._basis_columns) == 2
        assert all(total.contains_matrix(b) for b in e.basis)


class TestEmbedding:
    def test_identity_containment(self):
        fx = example_2_1(1)
        ident = BlockEmbedding.identity(fx.e.algebra)
        assert is_contained_pair(fx.f, fx.e, ident)
        assert is_contained_pair(fx.e, fx.e, ident)

    def test_crossing_embedding_rejected(self):
        with pytest.raises(ValueError):
            BlockEmbedding(BlockAlgebra((2,)), BlockAlgebra((1, 1)), (0,))

    def test_block_injection_roundtrip(self, rng):
        emb = BlockEmbedding(BlockAlgebra((2,)), BlockAlgebra((1, 2)), (1,))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(emb.compress(emb.embed(a)), a)

    def test_escaping_span_breaks_containment(self):
        fx = example_2_1(1)
        ident = BlockEmbedding.identity(fx.e.algebra)
        outside = ConcreteModule(
            fx.f.algebra, 2, (np.array([[0.0], [1.0]], dtype=complex),)
        )
        assert not is_contained_pair(outside, fx.f, ident)

    def test_embedded_module_stays_valid(self):
        emb = BlockEmbedding(BlockAlgebra((2,)), BlockAlgebra((2, 1)), (0,))
        m = full_rectangular_module(2, 2)
        big = embed_module(m, emb)
        assert validate_module(big).ok


def test_basis_shape_enforced():
    with pytest.raises(ShapeError):
        ConcreteModule(BlockAlgebra((2,)), 2, (np.eye(3),))
