import numpy as np
import pytest

from semiphi import BlockAlgebra, contains, is_psd, off_block_mass, pinch
from semiphi.numerics import ShapeError


def test_block_bookkeeping():
    a = BlockAlgebra((2, 1))
    assert a.ambient_dim == 3
    assert a.dimension == 5
    assert a.block_slices() == [slice(0, 2), slice(2, 3)]


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        BlockAlgebra(())
    with pytest.raises(ValueError):
        BlockAlgebra((2, 0))


def test_unit_enumeration_block_major_row_major():
    a = BlockAlgebra((2, 1))
    assert a.unit_index_pairs() == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    units = a.matrix_units()
    assert len(units) == 5
    assert units[1][0, 1] == 1.0 and np.count_nonzero(units[1]) == 1


def test_contains():
    a = BlockAlgebra((1, 1))
    assert contains(a, np.diag([1.0, 4.0]))
    assert not contains(a, np.array([[1.0, 2.0], [3.0, 4.0]]))
    full = BlockAlgebra((2,))
    assert contains(full, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_contains_shape_check():
    with pytest.raises(ShapeError):
        contains(BlockAlgebra((2,)), np.eye(3))


def test_pinch():
    a = BlockAlgebra((1, 1))
    out = pinch(a, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert isinstance(out, np.ndarray)
    assert np.allclose(out, np.diag([1.0, 4.0]))
    full = BlockAlgebra((2,))
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(pinch(full, m), m)


def test_pinch_idempotent_and_contractive(rng):
    a = BlockAlgebra((2, 1))
    for _ in range(20):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        once = pinch(a, m)
        twice = pinch(a, once)
        assert np.allclose(once, twice)
        assert contains(a, once)
        assert np.linalg.norm(once, 2) <= np.linalg.norm(m, 2) + 1e-12


def test_off_block_mass():
    a = BlockAlgebra((1, 1))
    assert off_block_mass(a, np.array([[1.0, 3.0], [4.0, 1.0]])) == pytest.approx(5.0)


def test_positivity():
    a = BlockAlgebra((1, 1))
    assert is_psd(pinch(a, np.eye(2))).ok
    assert not is_psd(pinch(a, np.diag([1.0, -1.0]))).ok


def test_gram_elements_are_positive(rng):
    # The pinch is a positive map: it keeps x* x positive.
    a = BlockAlgebra((1, 2))
    for _ in range(10):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_psd(pinch(a, x.conj().T @ x)).ok


def test_element_shape_enforced():
    with pytest.raises(ShapeError, match=r"expected a 2x2 matrix, got \(3, 3\)"):
        pinch(BlockAlgebra((2,)), np.eye(3))
