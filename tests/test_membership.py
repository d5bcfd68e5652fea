"""Stacked membership: ``coefficients``, ``contains_matrix`` and
``ModuleMap.apply`` on an ``(n, p, q)`` stack against the same calls one
matrix at a time, and one submodule check per engine call."""

import numpy as np
import pytest

import semiphi.modules as modules
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    MembershipError,
    ShapeError,
    extend_semi_phi,
    orthogonal_complement,
    phi_extension_obstruction,
    zero_module_map,
)
from semiphi.fixtures import compacts_fixture, example_2_1, random_semi_phi_fixture


class TestStackedAgainstOneByOne:
    @pytest.mark.parametrize("seed", range(8))
    def test_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        fx = random_semi_phi_fixture(rng)
        stack = fx.f._basis_stack
        got = fx.e.coefficients(stack)
        assert got.shape == (fx.f.dim, fx.e.dim)
        for row, b in zip(got, fx.f.basis):
            assert np.allclose(row, fx.e.coefficients(b), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_contains_matrix(self, seed):
        rng = np.random.default_rng(seed)
        fx = random_semi_phi_fixture(rng)
        # Elements of f, then random matrices that escape e unless e is everything.
        noise = rng.standard_normal((3, fx.e.row_dim, fx.e.algebra.ambient_dim))
        stack = np.concatenate([fx.f._basis_stack, noise + 0j])
        assert fx.e.contains_matrix(stack) == all(fx.e.contains_matrix(x) for x in stack)
        assert fx.e.contains_matrix(fx.f._basis_stack)

    @pytest.mark.parametrize("seed", range(8))
    def test_module_map_apply(self, seed):
        rng = np.random.default_rng(seed)
        fx = random_semi_phi_fixture(rng)
        phi_map, f = fx.phi_map, fx.f
        coeffs = rng.standard_normal((4, f.dim)) + 1j * rng.standard_normal((4, f.dim))
        stack = np.array([f.from_coefficients(c) for c in coeffs])
        got = phi_map.apply(stack)
        assert got.shape == (4, phi_map.h2_dim, phi_map.h1_dim)
        for image, c, x in zip(got, coeffs, stack):
            reference = sum((ci * v for ci, v in zip(c, phi_map.values)), np.zeros_like(image))
            assert np.allclose(image, reference, atol=1e-12)
            assert np.allclose(image, phi_map.apply(x), atol=1e-12)

    def test_zero_module(self):
        zero = ConcreteModule(BlockAlgebra((1, 2)), 2, ())
        stack = np.zeros((3, 2, 3), dtype=complex)
        assert zero.coefficients(stack).shape == (3, 0)
        assert zero.contains_matrix(stack)
        images = zero_module_map(zero, 2, 4).apply(stack)
        assert images.shape == (3, 4, 2) and not images.any()
        stack[1, 0, 0] = 1.0
        assert not zero.contains_matrix(stack)

    def test_empty_stack(self):
        fx = example_2_1(2)
        empty = np.zeros((0, fx.e.row_dim, fx.e.algebra.ambient_dim))
        assert fx.e.coefficients(empty).shape == (0, fx.e.dim)
        assert fx.e.contains_matrix(empty)
        assert fx.phi_map.apply(empty).shape == (0, fx.phi_map.h2_dim, fx.phi_map.h1_dim)


class TestStackedErrors:
    def test_first_escaping_element_names_its_residual(self):
        fx = example_2_1(2)
        e, f = fx.f, fx.e  # the top half as the module, all of M_4x2 as the source
        outside = [b for b in f.basis if not e.contains_matrix(b)]
        first, second = 2.0 * outside[0], outside[1]
        stack = np.stack([e.basis[0], first, e.basis[1], second])
        with pytest.raises(MembershipError) as one:
            e.coefficients(first)
        with pytest.raises(MembershipError) as stacked:
            e.coefficients(stack)
        assert str(stacked.value) == str(one.value)
        assert "2.000e+00" in str(one.value)

    def test_nan_in_stack(self):
        fx = example_2_1(1)
        stack = np.array(fx.e._basis_stack)
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError) as info:
            fx.e.coefficients(stack)
        assert type(info.value) is ValueError
        assert str(info.value) == "matrix entries must be finite"
        with pytest.raises(ValueError) as info:
            fx.e.contains_matrix(stack)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 1), (1,), (4,), (1, 2, 2, 1)])
    def test_bad_shapes(self, shape):
        fx = example_2_1(1)  # 2x1 matrices
        with pytest.raises(ShapeError):
            fx.e.coefficients(np.zeros(shape))
        with pytest.raises(ShapeError):
            fx.e.contains_matrix(np.zeros(shape))
        with pytest.raises(ShapeError):
            fx.phi_map.apply(np.zeros(shape))

    def test_non_stack_keeps_the_matrix_message(self):
        fx = example_2_1(1)
        with pytest.raises(ShapeError, match=r"expected a 2-d array, got shape \(1, 2, 1, 1\)"):
            fx.e.coefficients(np.zeros((1, 2, 1, 1)))


class CallCounter:
    """Records the modules ``validate_module`` is called on and counts calls
    to ``ConcreteModule.coefficients``."""

    def __init__(self, monkeypatch):
        self.validated = []
        self.coefficients = 0
        validate, coefficients = modules.validate_module, ConcreteModule.coefficients

        def counted_validate(module, *args, **kwargs):
            self.validated.append(module)
            return validate(module, *args, **kwargs)

        def counted_coefficients(*args, **kwargs):
            self.coefficients += 1
            return coefficients(*args, **kwargs)

        monkeypatch.setattr(modules, "validate_module", counted_validate)
        monkeypatch.setattr(ConcreteModule, "coefficients", counted_coefficients)

    def reset(self):
        self.validated, self.coefficients = [], 0

    def assert_validated_once_each(self, *expected):
        """Each expected module validated exactly once, in order, matched by
        identity, and nothing else validated."""
        assert len(self.validated) == len(expected)
        assert all(got is want for got, want in zip(self.validated, expected))


class TestOneSubmoduleCheck:
    @pytest.mark.parametrize("fixture", [example_2_1, compacts_fixture])
    def test_one_validation_per_call(self, fixture, monkeypatch):
        fx = fixture(2)
        assert fx.phi_map.domain is fx.f
        counter = CallCounter(monkeypatch)
        extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        counter.assert_validated_once_each(fx.f, fx.e)
        counter.reset()
        phi_extension_obstruction(fx.phi, fx.f, fx.e)
        counter.assert_validated_once_each(fx.f, fx.e)
        counter.reset()
        orthogonal_complement(fx.f, fx.e)
        counter.assert_validated_once_each(fx.f, fx.e)

    @pytest.mark.parametrize("fixture", [example_2_1, compacts_fixture])
    def test_coefficient_calls_do_not_grow_with_the_module(self, fixture, monkeypatch):
        counter = CallCounter(monkeypatch)
        counts = []
        for n in (2, 4):  # dim E 8 and 32
            fx = fixture(n)
            counter.reset()
            extend_semi_phi(fx.phi_map, fx.e, fx.phi)
            counts.append(counter.coefficients)
        # One projection of f onto e, in the submodule check; the engine
        # reads the obstruction's coefficients for every later stage.
        assert counts == [1, 1]
