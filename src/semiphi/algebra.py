"""Finite-dimensional C*-algebras as block-diagonal matrix algebras.

A :class:`BlockAlgebra` with blocks ``(n_1, ..., n_b)`` is the algebra of
``q x q`` matrices (``q = sum n_i``) vanishing off the diagonal blocks.
Every finite-dimensional C*-algebra is *-isomorphic to one of these, and
every algebra here is unital with identity ``I_q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DEFAULT_TOL, ShapeError, ToleranceProfile, as_matrix

__all__ = [
    "BlockAlgebra",
    "contains",
    "off_block_mass",
    "pinch",
]


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix algebras, embedded block-diagonally."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("need at least one block, every block size >= 1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def ambient_dim(self) -> int:
        return sum(self.blocks)

    @property
    def dimension(self) -> int:
        """Linear dimension: sum of the squared block sizes."""
        return sum(n * n for n in self.blocks)

    def block_slices(self) -> list[slice]:
        out, offset = [], 0
        for n in self.blocks:
            out.append(slice(offset, offset + n))
            offset += n
        return out

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    @cached_property
    def _mask(self) -> np.ndarray:
        q = self.ambient_dim
        mask = np.zeros((q, q), dtype=bool)
        for sl in self.block_slices():
            mask[sl, sl] = True
        return mask

    def unit_index_pairs(self) -> list[tuple[int, int]]:
        """Global (row, col) positions of the matrix units, block-major then
        row-major within each block.  This enumeration is the wire order for
        CP-map values."""
        pairs = []
        for sl in self.block_slices():
            for i in range(sl.start, sl.stop):
                for j in range(sl.start, sl.stop):
                    pairs.append((i, j))
        return pairs

    def matrix_unit(self, i: int, j: int) -> np.ndarray:
        unit = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        unit[i, j] = 1.0
        return unit

    def matrix_units(self) -> list[np.ndarray]:
        return [self.matrix_unit(i, j) for i, j in self.unit_index_pairs()]


def _check_shape(algebra: BlockAlgebra, m: np.ndarray) -> None:
    q = algebra.ambient_dim
    if m.shape != (q, q):
        raise ShapeError(f"expected a {q}x{q} matrix, got {m.shape}")


def off_block_mass(algebra: BlockAlgebra, m) -> float:
    """Frobenius mass of the entries outside the diagonal blocks."""
    arr = as_matrix(m)
    _check_shape(algebra, arr)
    return float(np.linalg.norm(arr[~algebra._mask]))


def contains(algebra: BlockAlgebra, m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff the off-block mass of ``m`` is below tolerance."""
    arr = as_matrix(m)
    _check_shape(algebra, arr)
    scale = float(np.linalg.norm(arr))
    return off_block_mass(algebra, arr) <= tol.threshold(scale)


def pinch(algebra: BlockAlgebra, m) -> np.ndarray:
    """Conditional expectation onto the algebra: zero the off-block entries.

    Idempotent, unital, and (completely) positive.
    """
    arr = as_matrix(m)
    _check_shape(algebra, arr)
    return np.where(algebra._mask, arr, 0.0)
