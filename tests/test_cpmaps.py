import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiphi import (
    BlockAlgebra,
    NotCompletelyPositiveError,
    choi,
    compose,
    from_kraus,
    identity_cp_map,
    is_completely_positive,
    kraus,
    stinespring,
    trace_cp_map,
    transpose_map,
)
from semiphi.cpmaps import CPMap
from semiphi.fixtures import random_block_algebra, random_cp_map
from semiphi.numerics import HermiticityError, ShapeError


M2 = BlockAlgebra((2,))


class TestChoi:
    def test_identity_map(self):
        j = choi(identity_cp_map(M2))
        vec = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.allclose(j, np.outer(vec, vec))
        assert np.linalg.matrix_rank(j) == 1

    def test_trace_map(self):
        assert np.allclose(choi(trace_cp_map(M2)), np.eye(2))

    def test_pinch_map(self):
        j = choi(identity_cp_map(BlockAlgebra((1, 1))))
        assert np.allclose(np.diag(j), [1.0, 0.0, 0.0, 1.0])
        assert np.count_nonzero(j) == 2

    def test_hermiticity_guard(self):
        values = (np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))
        bad = CPMap(M2, 1, values)
        with pytest.raises(HermiticityError):
            choi(bad)


class TestCpPredicate:
    def test_identity_accepted(self):
        assert is_completely_positive(identity_cp_map(M2)).ok

    def test_transpose_rejected(self):
        report = is_completely_positive(transpose_map(M2))
        assert not report.ok
        assert report.lambda_min == pytest.approx(-1.0, abs=1e-9)

    def test_kraus_built_maps_accepted(self, rng):
        for _ in range(20):
            algebra = random_block_algebra(rng, max_q=4)
            phi = random_cp_map(algebra, int(rng.integers(1, 4)), int(rng.integers(1, 3)), rng)
            assert is_completely_positive(phi).ok

    def test_cp_minus_transpose_rejected(self, rng):
        phi = random_cp_map(M2, 2, 2, rng)
        tp = transpose_map(M2)
        values = tuple(v - 5.0 * t for v, t in zip(phi.values, tp.values))
        assert not is_completely_positive(CPMap(M2, 2, values)).ok


def rank_one_difference(blocks, seed):
    """The difference of two rank-one random CP maps into M_3 over
    ``BlockAlgebra(blocks)``: not CP."""
    algebra = BlockAlgebra(blocks)
    rng = np.random.default_rng(seed)
    first, second = random_cp_map(algebra, 3, 1, rng), random_cp_map(algebra, 3, 1, rng)
    return CPMap(algebra, 3, tuple(first._value_stack - second._value_stack))


def rescaled(phi, c):
    return CPMap(phi.domain, phi.target_dim, tuple(c * phi._value_stack))


RECIPE_BLOCKS = [(2, 2), (3, 1), (2,), (3, 2, 1)]


class TestScaleFreeCpVerdict:
    """The Choi verdict of is_completely_positive and kraus is decided in
    units of the Choi matrix's own largest eigenvalue modulus."""

    @pytest.mark.parametrize("blocks", RECIPE_BLOCKS)
    @pytest.mark.parametrize("c", [1.0, 1e-4, 1e-8, 1e-10, 1e-12])
    def test_non_cp_map_refuted_at_every_scale(self, blocks, c):
        for seed in range(20):
            phi = rescaled(rank_one_difference(blocks, seed), c)
            report = is_completely_positive(phi)
            assert not report.ok
            with pytest.raises(NotCompletelyPositiveError):
                kraus(phi)
            with pytest.raises(NotCompletelyPositiveError):
                stinespring(phi)

    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.sampled_from(RECIPE_BLOCKS),
        exponent=st.floats(-12.0, 12.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_verdicts_do_not_move_under_scaling(self, seed, blocks, exponent):
        c = 10.0**exponent
        rng = np.random.default_rng(seed)
        algebra = BlockAlgebra(blocks)
        phi = rescaled(random_cp_map(algebra, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng), c)
        assert is_completely_positive(phi).ok
        ops = kraus(phi)
        recon = np.array([sum(k @ u @ k.conj().T for k in ops) for u in algebra.matrix_units()])
        assert np.abs(recon - phi._value_stack).max() <= 1e-12 * np.abs(phi._value_stack).max()
        assert not is_completely_positive(rescaled(rank_one_difference(blocks, seed), c)).ok

    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.sampled_from(RECIPE_BLOCKS),
        exponent=st.floats(-12.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_hermiticity_precondition_does_not_move_under_scaling(self, seed, blocks, exponent):
        # The values on E_01 and E_10 of a CP map miss adjointness by half
        # their size; choi, kraus and is_completely_positive refuse it at
        # every scale, with the same error.  A threshold with an absolute
        # part passed it below about 1e-9.
        rng = np.random.default_rng(seed)
        algebra = BlockAlgebra(blocks)
        values = random_cp_map(algebra, 2, int(rng.integers(1, 4)), rng)._value_stack.copy()
        values[algebra.unit_index_pairs().index((0, 1))] *= 1.5
        phi = rescaled(CPMap(algebra, 2, tuple(values)), 10.0**exponent)
        message = "values on units (0,1) and (1,0) are not adjoint-consistent"
        for view in (choi, kraus, is_completely_positive):
            with pytest.raises(HermiticityError) as info:
                view(phi)
            assert str(info.value) == message

    def test_zero_map_is_cp_of_rank_zero(self):
        zero = CPMap(BlockAlgebra((2, 1)), 3, tuple(np.zeros((5, 3, 3))))
        report = is_completely_positive(zero)
        assert report.ok and report.lambda_min == 0.0
        assert kraus(zero) == [] and stinespring(zero).rank == 0


class TestKraus:
    def test_identity_single_operator(self):
        ops = kraus(identity_cp_map(M2))
        assert len(ops) == 1
        # Unique up to phase.
        assert np.allclose(np.abs(ops[0]), np.eye(2))

    def test_zero_map_empty(self):
        zero = CPMap(M2, 2, tuple(np.zeros((2, 2)) for _ in range(4)))
        assert kraus(zero) == []

    def test_rejects_non_cp(self):
        with pytest.raises(NotCompletelyPositiveError):
            kraus(transpose_map(M2))

    def test_reconstruction_on_random_maps(self, rng):
        for _ in range(100):
            algebra = random_block_algebra(rng, max_q=4)
            rank = int(rng.integers(1, 4))
            phi = random_cp_map(algebra, int(rng.integers(1, 4)), rank, rng)
            ops = kraus(phi)
            for unit, value in zip(algebra.matrix_units(), phi.values):
                recon = sum(k @ unit @ k.conj().T for k in ops)
                assert np.linalg.norm(recon - value) < 1e-8


class TestStinespring:
    def test_identity(self):
        dil = stinespring(identity_cp_map(M2))
        assert dil.rank == 1
        assert dil.V.shape == (2, 2)
        assert dil.reconstruction_defect(identity_cp_map(M2)) < 1e-12

    def test_trace(self):
        tr = trace_cp_map(M2)
        dil = stinespring(tr)
        assert dil.rank == 2
        assert dil.V.shape == (4, 1)
        assert dil.reconstruction_defect(tr) < 1e-12
        # V is an isometry onto its range with V*V = phi(I) = tr(I)... = 2.
        assert np.vdot(dil.V, dil.V).real == pytest.approx(2.0)

    def test_pinch(self):
        ph = identity_cp_map(BlockAlgebra((1, 1)))
        dil = stinespring(ph)
        assert dil.rank == 2
        assert dil.reconstruction_defect(ph) < 1e-12

    def test_random_maps_defect_and_rank(self, rng):
        for _ in range(50):
            algebra = random_block_algebra(rng, max_q=4)
            m = int(rng.integers(1, 4))
            rank = int(rng.integers(1, 3))
            phi = random_cp_map(algebra, m, rank, rng)
            dil = stinespring(phi)
            assert dil.reconstruction_defect(phi) < 1e-10
            j = choi(phi)
            eig = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
            numerical_rank = int(np.count_nonzero(eig > 1e-9 * max(eig[-1], 1.0)))
            assert dil.rank == numerical_rank


class TestApplication:
    def test_apply_identity(self, rng):
        phi = identity_cp_map(M2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(phi.apply(a), a)

    def test_apply_rejects_off_algebra(self):
        phi = identity_cp_map(BlockAlgebra((1, 1)))
        with pytest.raises(ValueError):
            phi.apply(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_on_unit(self):
        tr = trace_cp_map(M2)
        assert tr.apply(np.diag([1.0, 0.0]))[0, 0] == pytest.approx(1.0)


class TestCompose:
    def test_pinch_then_trace(self):
        sub = BlockAlgebra((1, 1))
        tr = trace_cp_map(BlockAlgebra((2,)))
        comp = compose(tr, identity_cp_map(sub))
        assert comp.apply(np.diag([3.0, 4.0]))[0, 0] == pytest.approx(7.0)

    def test_dimension_guard(self):
        with pytest.raises(ShapeError):
            compose(trace_cp_map(M2), trace_cp_map(M2))


def test_from_kraus_unitality(rng):
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    phi = from_kraus(M2, [u])
    assert phi.is_unital()
