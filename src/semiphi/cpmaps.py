"""Completely positive maps on block algebras.

A :class:`CPMap` stores one ``m x m`` value per matrix unit of its domain
algebra (block-major enumeration, see
:meth:`~semiphi.algebra.BlockAlgebra.unit_index_pairs`).  Maps on proper
block algebras are extended to all of ``M_q`` by precomposing with the
pinching conditional expectation before taking Choi, Kraus, or Stinespring
views; restricting back to the algebra recovers the original map, and the
pinch is CP and unital so positivity certificates transfer both ways.

The dilation used downstream is ``a -> a (x) I_r`` with ``r`` the Choi rank;
it is minimal whenever the domain is a full matrix algebra.
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
    _matrix_stack,
    _psd_eigh,
    adjoint_products,
    as_matrix,
    dagger,
    is_psd,
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

    def apply_pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The pinch-extended map on every inner product ``xs[i]* ys[j]``.

        ``xs`` and ``ys`` are ``(d_x, p, q)`` and ``(d_y, p, q)`` stacks of
        module elements, such as a module basis; the result is the
        ``(d_x, d_y, m, m)`` array of ``phi~(<x_i, y_j>)``.  All
        ``d_x * d_y`` inner products come from one call to
        :func:`~semiphi.numerics.adjoint_products` and are mapped by one
        matmul against the ``(m^2, q^2)`` matrix of the map, in place of
        ``d_x * d_y`` calls to :meth:`apply_ambient`.
        """
        q, m = self.domain.ambient_dim, self.target_dim
        if xs.shape[1:] != ys.shape[1:] or xs.shape[2:] != (q,):
            raise ShapeError(
                f"expected two stacks of p x {q} matrices, got {xs.shape} and {ys.shape}"
            )
        products = adjoint_products(xs, ys).reshape(len(xs) * len(ys), q * q)
        values = products @ self._ambient_tensor.reshape(m * m, q * q).T
        return values.reshape(len(xs), len(ys), m, m)

    def apply(self, a, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """Apply to an algebra element; rejects matrices outside the algebra."""
        arr = as_matrix(a)
        if not contains(self.domain, arr, tol):
            raise ValueError("matrix is not in the domain algebra")
        return self.apply_ambient(arr)

    def apply_n(self, n: int, block_matrix) -> np.ndarray:
        """Amplification: apply the (pinch-extended) map entrywise to an
        ``n x n`` operator matrix of ``q x q`` blocks."""
        q, m = self.domain.ambient_dim, self.target_dim
        arr = as_matrix(block_matrix)
        if arr.shape != (n * q, n * q):
            raise ShapeError(f"expected a {n * q}x{n * q} matrix")
        blocks = arr.reshape(n, q, n, q).transpose(0, 2, 1, 3)
        out = np.einsum("abij,uvij->uavb", self._ambient_tensor, blocks)
        return out.reshape(n * m, n * m)

    def is_unital(self, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        img = self.apply_ambient(self.domain.identity())
        eye = np.eye(self.target_dim, dtype=complex)
        return float(np.linalg.norm(img - eye)) <= tol.threshold(1.0)


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
    values = tuple(np.array([[np.trace(u)]], dtype=complex) for u in algebra.matrix_units())
    return CPMap(algebra, 1, values)


def transpose_map(algebra: BlockAlgebra) -> CPMap:
    """The transpose on the ambient, restricted to the algebra.  Positive but
    (for any block of size >= 2) not completely positive; used as a standard
    rejection fixture."""
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
    """CP iff the Choi matrix is PSD; the report carries the margin."""
    return is_psd(choi(phi, tol), tol)


def kraus(phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL) -> list[np.ndarray]:
    """Kraus operators of the pinch-extended map, from Choi eigenvectors.

    One call makes one :func:`choi` (so one hermiticity check) and one
    eigendecomposition of the symmetrized Choi matrix, from which both the
    CP verdict of :func:`is_completely_positive` and the operators are read.
    Eigenvalue cutoff is relative to the largest eigenvalue; the returned
    operators are canonical only up to unitary mixing, so compare Kraus sets
    via the reconstruction identity, never entrywise.
    """
    report, eigvals, eigvecs = _psd_eigh(choi(phi, tol), tol)
    if not report.ok:
        raise NotCompletelyPositiveError(
            f"map is not completely positive (Choi lambda_min = {report.lambda_min:.3e})"
        )
    if eigvals.size == 0:
        return []
    q, m = phi.domain.ambient_dim, phi.target_dim
    # Eigenvalues ascend, so the kept ones are the top `rank`, taken largest first.
    rank = int(np.count_nonzero(eigvals > tol.threshold(float(eigvals[-1]))))
    lams, vecs = eigvals[::-1][:rank], eigvecs[:, ::-1][:, :rank]
    ops = np.sqrt(lams)[:, None, None] * vecs.T.reshape(rank, q, m).transpose(0, 2, 1)
    return list(ops)


@dataclass(eq=False)
class StinespringDilation:
    """Dilation ``phi(a) = V* (a (x) I_r) V`` on ``C^q (x) C^r``."""

    algebra: BlockAlgebra
    target_dim: int
    kraus: tuple[np.ndarray, ...]
    rank: int
    V: np.ndarray

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
    ``V[(i*r + t), a] = conj(K_t[a, i])``.
    """
    ops = kraus(phi, tol)
    q, m = phi.domain.ambient_dim, phi.target_dim
    r = len(ops)
    if r == 0:
        v = np.zeros((0, m), dtype=complex)
        return StinespringDilation(phi.domain, m, (), 0, v)
    stacked = np.stack(ops)  # (r, m, q)
    v = stacked.conj().transpose(2, 0, 1).reshape(q * r, m)
    return StinespringDilation(phi.domain, m, tuple(ops), r, v)
