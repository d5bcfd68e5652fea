"""Completely positive maps on block algebras.

A :class:`CPMap` stores one ``m x m`` value per matrix unit of its domain
algebra (block-major enumeration, see
:meth:`~semiphi.algebra.BlockAlgebra.unit_index_pairs`).  Maps on proper
block algebras are extended to all of ``M_q`` by precomposing with the
pinching conditional expectation before taking Choi, Kraus, or Stinespring
views; restricting back to the algebra recovers the original map, and the
pinch is CP and unital so positivity certificates transfer both ways.

The dilation used downstream is ``a -> a (x) I_r`` with ``r`` the Choi rank;
it is minimal whenever the domain is a full matrix algebra.  The pinch makes
the Choi matrix block diagonal, so each map solves it once per algebra block
(:attr:`CPMap._choi_spectra`) and each Kraus operator lives on one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import BlockAlgebra, contains
from .numerics import (
    DEFAULT_TOL,
    HermiticityError,
    PsdReport,
    ShapeError,
    ToleranceProfile,
    _check_hermitian,
    _hermitian_part,
    _matrix_stack,
    _psd_report,
    _rank_cut,
    _scale_free_psd_verdict,
    adjoint_products,
    as_matrix,
    dagger,
)

__all__ = [
    "NotCompletelyPositiveError",
    "CPMap",
    "StinespringDilation",
    "from_kraus",
    "identity_cp_map",
    "trace_cp_map",
    "transpose_map",
    "compose",
    "choi",
    "is_completely_positive",
    "kraus",
    "stinespring",
]


class NotCompletelyPositiveError(ValueError):
    """Kraus/Stinespring views were requested for a non-CP map."""


@dataclass(eq=False)
class CPMap:
    """Linear map from a block algebra into the ``m x m`` matrices."""

    domain: BlockAlgebra
    target_dim: int
    values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        m = self.target_dim
        if m < 0:
            raise ValueError("target dimension must be nonnegative")
        if len(self.values) != self.domain.dimension:
            raise ShapeError(
                f"need {self.domain.dimension} values (one per matrix unit), "
                f"got {len(self.values)}"
            )
        # The values as one ``(T, m, m)`` array, in matrix-unit order.
        self._value_stack = _matrix_stack(self.values, (m, m), "values")
        self.values = tuple(self._value_stack)

    @cached_property
    def _unit_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index arrays of the matrix units, in value order."""
        rows, cols = np.array(self.domain.unit_index_pairs()).T
        return rows, cols

    @cached_property
    def _choi_spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The spectrum of the symmetrized Choi matrix ``(J + J*) / 2``, one
        ``eigh`` per algebra block: the pinch makes ``J`` block diagonal, and
        block ``k`` is the ``n_k m x n_k m`` matrix of the values on that
        block's units (rows ``(b, l)``, ``b`` the block's own column).  Per
        block, its ascending eigenvalues and unit eigenvectors; :func:`kraus`
        and the signed Choi carrier of the semi criterion read them."""
        m, values = self.target_dim, self._value_stack
        spectra, start = [], 0
        for n in self.domain.blocks:
            block = values[start : start + n * n].reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)
            spectra.append(tuple(np.linalg.eigh((block + dagger(block)) / 2.0)))
            start += n * n
        return tuple(spectra)

    @cached_property
    def _adjoint_index(self) -> np.ndarray:
        """For each unit ``E_ij`` the value index of ``E_ji``."""
        rows, cols = self._unit_positions
        q = self.domain.ambient_dim
        index_at = np.empty(q * q, dtype=np.intp)
        index_at[rows * q + cols] = np.arange(len(rows))
        return index_at[cols * q + rows]

    @cached_property
    def _ambient_tensor(self) -> np.ndarray:
        """(m, m, q, q) tensor of the pinch-extended map on the matrix units."""
        q, m = self.domain.ambient_dim, self.target_dim
        w = np.zeros((m, m, q, q), dtype=complex)
        rows, cols = self._unit_positions
        w[:, :, rows, cols] = self._value_stack.transpose(1, 2, 0)
        return w

    def check_hermiticity(self, tol: ToleranceProfile = DEFAULT_TOL) -> None:
        """Verify the value on ``E_ji`` is the adjoint of the value on ``E_ij``.

        All unit pairs are compared in one pass over the value stack, each at
        the threshold of the larger of its two norms; the error names the
        first offending unit in value order.
        """
        values, adjoint = self._value_stack, self._adjoint_index
        adjoints = values[adjoint].conj().transpose(0, 2, 1)
        defect = np.linalg.norm(values - adjoints, axis=(-2, -1))
        norms = np.linalg.norm(values, axis=(-2, -1))
        bad = np.flatnonzero(defect > tol.threshold(np.maximum(norms, norms[adjoint])))
        if bad.size:
            i, j = self.domain.unit_index_pairs()[bad[0]]
            raise HermiticityError(
                f"values on units ({i},{j}) and ({j},{i}) are not adjoint-consistent"
            )

    def apply_ambient(self, m) -> np.ndarray:
        """Apply the pinch-extended map to any ``q x q`` matrix."""
        arr = as_matrix(m)
        q = self.domain.ambient_dim
        if arr.shape != (q, q):
            raise ShapeError(f"expected a {q}x{q} matrix")
        return np.einsum("abij,ij->ab", self._ambient_tensor, arr)

    @cached_property
    def _size_groups(self) -> list[tuple[int, slice | np.ndarray, np.ndarray]]:
        """The algebra blocks grouped by size ``n``: per group, the ambient
        columns of its blocks, block after block, and the ``(b n^2, m^2)``
        matrix of their values (each block's rows of the block-major value
        stack, in the same order).  Adjacent blocks take slices (views)."""
        blocks, m = self.domain.blocks, self.target_dim
        values = self._value_stack.reshape(len(self._value_stack), m * m)
        col0 = np.cumsum((0,) + blocks)
        row0 = np.cumsum((0,) + tuple(n * n for n in blocks))
        groups = []
        for n in dict.fromkeys(blocks):
            ks = [k for k, size in enumerate(blocks) if size == n]
            if ks[-1] - ks[0] == len(ks) - 1:
                cols = slice(col0[ks[0]], col0[ks[-1] + 1])
                rows = slice(row0[ks[0]], row0[ks[-1] + 1])
            else:
                cols = np.concatenate([np.arange(col0[k], col0[k + 1]) for k in ks])
                rows = np.concatenate([np.arange(row0[k], row0[k + 1]) for k in ks])
            groups.append((n, cols, values[rows]))
        return groups

    def apply_pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The pinch-extended map on every inner product ``xs[i]* ys[j]``.

        ``xs`` and ``ys`` are ``(d_x, p, q)`` and ``(d_y, p, q)`` stacks of
        module elements, such as a module basis; the result is the
        ``(d_x, d_y, m, m)`` array of ``phi~(<x_i, y_j>)``, in place of
        ``d_x * d_y`` calls to :meth:`apply_ambient`.  The pinch keeps only
        the diagonal blocks of each inner product, so each group of ``b``
        equal-size blocks (size ``n``) contracts its block slices of ``xs``
        and ``ys`` against its blocks' ``(n^2, m^2)`` values, in one of two
        orders (see :func:`_pair_order`):

        * products first (:func:`_products_first`) forms every block product
          ``x_i[:, k]* y_j[:, k]`` and maps them with one matmul, which
          costs ``d_x d_y b n^2 (p + m^2)`` multiply-adds and a
          ``(b, d_x, d_y, n, n)`` temporary;
        * values first (:func:`_values_first`) contracts each ``x_i``'s
          conjugate slices with the values and then ``y_j``'s slices with
          that, which costs ``d_x b p n m^2 (n + d_y)`` and one temporary
          ``m^2`` times the size of ``xs``' slices, with no product array.

        Each group takes the order with the smaller count, from its shapes
        alone.
        """
        q, m = self.domain.ambient_dim, self.target_dim
        if xs.shape[1:] != ys.shape[1:] or xs.shape[2:] != (q,):
            raise ShapeError(
                f"expected two stacks of p x {q} matrices, got {xs.shape} and {ys.shape}"
            )
        (dx, p, _), dy = xs.shape, len(ys)
        values = None
        for n, columns, group_values in self._size_groups:
            order = _pair_order(dx, dy, len(group_values) // (n * n), n, p, m)
            mapped = order(xs[:, :, columns], ys[:, :, columns], n, group_values)
            values = mapped if values is None else np.add(values, mapped, out=values)
        return values.reshape(dx, dy, m, m)

    def apply(self, a, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """Apply to an algebra element; rejects matrices outside the algebra."""
        arr = as_matrix(a)
        if not contains(self.domain, arr, tol):
            raise ValueError("matrix is not in the domain algebra")
        return self.apply_ambient(arr)

    def is_unital(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        img = self.apply_ambient(self.domain.identity())
        eye = np.eye(self.target_dim, dtype=complex)
        return float(np.linalg.norm(img - eye)) <= tol.threshold(1.0)


# The two contraction orders of one size group of :meth:`CPMap.apply_pairs`.
# Each takes the group's ``(d_x, p, b n)`` and ``(d_y, p, b n)`` column slices
# of the two stacks (block after block), the block size ``n`` and the group's
# ``(b n^2, m^2)`` values, and returns the group's ``(d_x, d_y, m^2)`` share
# of the table.


def _products_first(x_cols: np.ndarray, y_cols: np.ndarray, n: int, group_values: np.ndarray) -> np.ndarray:
    """Every block product ``x_i[:, k]* y_j[:, k]``, from one batched
    :func:`~semiphi.numerics.adjoint_products` with the blocks as the batch,
    mapped by one matmul against the values."""
    (dx, p, bn), dy, mm = x_cols.shape, len(y_cols), group_values.shape[1]
    b = bn // n
    # (b, d, p, n): the slices of each block of the group, block-major.
    x_blocks = x_cols.reshape(dx, p, b, n).transpose(2, 0, 1, 3)
    y_blocks = y_cols.reshape(dy, p, b, n).transpose(2, 0, 1, 3)
    products = adjoint_products(x_blocks, y_blocks).transpose(1, 2, 0, 3, 4)
    return (products.reshape(dx * dy, b * n * n) @ group_values).reshape(dx, dy, mm)


def _values_first(x_cols: np.ndarray, y_cols: np.ndarray, n: int, group_values: np.ndarray) -> np.ndarray:
    """``W[i, k, s, c] = sum_a conj(x_i[s, (k, a)]) phi(E_ac)`` over the
    units ``E_ac`` of block ``k``, by one matmul broadcast over the ``x_i``;
    then each ``y_j``'s slices as one row ``(k, s, c)`` against ``W``, one
    matmul per ``x_i`` writing its rows of the table.  No ``n^2``-sized
    product array is formed."""
    (dx, p, bn), dy, mm = x_cols.shape, len(y_cols), group_values.shape[1]
    b = bn // n
    x_blocks = np.conj(x_cols.reshape(dx, p, b, n).transpose(0, 2, 1, 3))
    w = x_blocks @ group_values.reshape(b, n, n * mm)  # (d_x, b, p, n m^2)
    y_rows = y_cols.reshape(dy, p, b, n).transpose(0, 2, 1, 3).reshape(dy, b * p * n)
    return y_rows @ w.reshape(dx, b * p * n, mm)


def _pair_order(dx: int, dy: int, b: int, n: int, p: int, m: int):
    """The contraction order with fewer multiply-adds on a group of ``b``
    blocks of size ``n``; products first on a tie."""
    products = dx * dy * b * n * n * (p + m * m)
    values = dx * b * p * n * m * m * (n + dy)
    return _values_first if values < products else _products_first


def from_kraus(algebra: BlockAlgebra, kraus_ops, target_dim: int | None = None) -> CPMap:
    """Build the CP map ``a -> sum_t K_t a K_t*`` from ``m x q`` Kraus operators."""
    q = algebra.ambient_dim
    ops = [as_matrix(k) for k in kraus_ops]
    if ops:
        m = ops[0].shape[0]
        if any(k.shape != (m, q) for k in ops):
            raise ShapeError(f"all Kraus operators must be m x {q} with a common m")
    else:
        if target_dim is None:
            raise ValueError("target_dim is required for an empty Kraus set")
        m = target_dim
    values = []
    for unit in algebra.matrix_units():
        acc = np.zeros((m, m), dtype=complex)
        for k in ops:
            acc += k @ unit @ dagger(k)
        values.append(acc)
    return CPMap(algebra, m, tuple(values))


def identity_cp_map(algebra: BlockAlgebra) -> CPMap:
    """The inclusion of the algebra into ``M_q``.

    Its pinch extension is the conditional expectation of ``M_q`` onto the
    block algebra.
    """
    q = algebra.ambient_dim
    return CPMap(algebra, q, tuple(algebra.matrix_units()))


def trace_cp_map(algebra: BlockAlgebra) -> CPMap:
    """The trace into ``M_1``.  Public as the simplest CP map to the scalars,
    a state up to normalization."""
    values = tuple(np.array([[np.trace(u)]], dtype=complex) for u in algebra.matrix_units())
    return CPMap(algebra, 1, values)


def transpose_map(algebra: BlockAlgebra) -> CPMap:
    """The transpose on the ambient, restricted to the algebra.  Positive but
    (for any block of size >= 2) not completely positive.  Public as the
    standard example the CP check rejects, built by the CLI and acceptance
    tests."""
    q = algebra.ambient_dim
    values = tuple(u.T.copy() for u in algebra.matrix_units())
    return CPMap(algebra, q, values)


def compose(outer: CPMap, inner: CPMap) -> CPMap:
    """Composite ``outer~ o inner`` (outer extended over its ambient by pinch)."""
    if outer.domain.ambient_dim != inner.target_dim:
        raise ShapeError(
            "outer domain ambient dimension must equal inner target dimension"
        )
    values = tuple(outer.apply_ambient(v) for v in inner.values)
    return CPMap(inner.domain, outer.target_dim, values)


def choi(phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Choi matrix ``sum_ij E_ij (x) phi~(E_ij)`` of the pinch-extended map.

    Runs the map's hermiticity check once (one pass over all unit pairs) and
    assembles the matrix with one scatter of the value stack.
    """
    phi.check_hermiticity(tol)
    return _choi_matrix(phi)


def _choi_matrix(phi: CPMap) -> np.ndarray:
    """The Choi matrix assembled from the stored values, without the
    hermiticity check of :func:`choi`."""
    q, m = phi.domain.ambient_dim, phi.target_dim
    blocks = np.zeros((q, q, m, m), dtype=complex)
    rows, cols = phi._unit_positions
    blocks[rows, cols] = phi._value_stack
    return blocks.transpose(0, 2, 1, 3).reshape(q * m, q * m)


def is_completely_positive(phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL) -> PsdReport:
    """CP iff the Choi matrix is PSD; the report carries the margin (from an
    eigenvalue-only solve).  The Choi matrix must be hermitian within
    tolerance, as :func:`~semiphi.numerics.is_psd` asks, but the verdict is
    decided at a threshold in units of its largest eigenvalue modulus
    (:func:`~semiphi.numerics._scale_free_psd_verdict`), so a map that is not
    CP is refuted at every scale and the zero map is CP."""
    return _psd_report(_hermitian_part(choi(phi, tol), tol), tol, _scale_free_psd_verdict)


def kraus(phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL) -> list[np.ndarray]:
    """Kraus operators of the pinch-extended map, from Choi eigenvectors.

    One call makes one :func:`choi` (so one hermiticity check) and reads the
    map's one spectrum of its symmetrized Choi matrix (one ``eigh`` per
    algebra block, cached on the map), from which both the CP verdict of
    :func:`is_completely_positive` and the operators are read.  The verdict
    and the eigenvalue cutoff are taken over all blocks' eigenvalues at
    once, in units of the largest, so a rescaled map keeps every operator, a
    map that is not CP raises at every scale, and the zero map has no
    operator.  Each operator is zero off one algebra block; they come block
    after block, largest eigenvalue first within a block.  They are
    canonical only up to unitary mixing, so compare Kraus sets via the
    reconstruction identity, never entrywise.
    """
    _check_hermitian(choi(phi, tol), tol)
    spectra = phi._choi_spectra
    eigvals = np.sort(np.concatenate([lam for lam, _ in spectra]))
    if eigvals.size:
        ok, lam_min = _scale_free_psd_verdict(eigvals, tol)
        if not ok:
            raise NotCompletelyPositiveError(f"map is not completely positive (Choi lambda_min = {lam_min:.3e})")
    # The rank cut of all eigenvalues at once: each block keeps its own that
    # are at least the smallest kept one.
    rank = _rank_cut(eigvals[::-1], tol, eigvals.max(initial=0.0))[0]
    floor = eigvals[-rank] if rank else np.inf
    q, m = phi.domain.ambient_dim, phi.target_dim
    ops = []
    for (lam, vecs), sl in zip(spectra, phi.domain.block_slices()):
        keep = lam >= floor
        # Eigenvalues ascend, so the kept ones are taken largest first.
        lams, kept = lam[keep][::-1], vecs[:, keep][:, ::-1]
        block_ops = np.zeros((len(lams), m, q), dtype=complex)
        block_ops[:, :, sl] = np.sqrt(lams)[:, None, None] * kept.T.reshape(len(lams), sl.stop - sl.start, m).transpose(0, 2, 1)
        ops.extend(block_ops)
    return ops


@dataclass(eq=False)
class StinespringDilation:
    """Dilation ``phi(a) = V* (a (x) I_r) V`` on ``C^q (x) C^r``, from the
    block-local Kraus operators of :func:`kraus`: the first ``block_ranks[0]``
    live on the first algebra block, and so on, so row ``(i, t)`` of ``V`` is
    zero unless ``t`` belongs to the block of ``i``."""

    algebra: BlockAlgebra
    target_dim: int
    kraus: tuple[np.ndarray, ...]
    rank: int
    V: np.ndarray
    block_ranks: tuple[int, ...]

    def reconstruction_defect(self, phi: CPMap) -> float:
        """Max over matrix units of ``|phi(u) - V*(u (x) I_r)V|``, all from
        one product of the ``r x m`` row blocks: ``V*(E_ij (x) I_r)V = V_i* V_j``."""
        q, m = phi.domain.ambient_dim, self.target_dim
        blocks = self.V.reshape(q, self.rank, m)
        rows, cols = phi._unit_positions
        recon = adjoint_products(blocks, blocks)[rows, cols]
        defects = np.linalg.norm(recon - phi._value_stack, 2, axis=(-2, -1))
        return float(defects.max(initial=0.0))


def stinespring(phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL) -> StinespringDilation:
    """Assemble the dilation from the Kraus operators.

    ``V h = sum_t (K_t* h) (x) e_t`` with the ``C^q (x) C^r`` ordering, so
    ``V[(i*r + t), a] = conj(K_t[a, i])``.  Each operator is zero off one
    block, so it is counted in the block of its largest column.
    """
    q, m, blocks = phi.domain.ambient_dim, phi.target_dim, phi.domain.blocks
    ops = kraus(phi, tol)
    r = len(ops)
    ops = np.stack(ops) if r else np.zeros((0, m, q), dtype=complex)
    owner = np.repeat(np.arange(len(blocks)), blocks)[np.abs(ops).sum(axis=1).argmax(axis=1)]
    counts = tuple(int(c) for c in np.bincount(owner, minlength=len(blocks)))
    v = ops.conj().transpose(2, 0, 1).reshape(q * r, m)
    return StinespringDilation(phi.domain, m, tuple(ops), r, v, counts)
