import numpy as np
import pytest

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
