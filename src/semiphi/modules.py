"""Hilbert C*-modules realized as matrix subspaces with the x*y inner product.

A :class:`ConcreteModule` over a :class:`~semiphi.algebra.BlockAlgebra` in
``M_q`` is a span of ``p x q`` matrices, closed under right multiplication
by the algebra, whose pairwise products ``x* y`` land back in the algebra.
The zero module (empty basis) is representable because orthogonal
complements can return it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import BlockAlgebra
from .numerics import (
    DEFAULT_TOL,
    EPS,
    NEAR_FACTOR,
    ShapeError,
    ToleranceProfile,
    _matrix_stack,
    _rank_cut,
    _rounding_band,
    adjoint_products,
    as_matrix,
    dagger,
    nullspace_onb,
)

__all__ = [
    "MembershipError",
    "ConcreteModule",
    "ModuleValidation",
    "validate_module",
    "inner_product_matrix",
    "is_submodule",
    "orthogonal_complement",
    "BlockEmbedding",
    "embed_module",
    "is_contained_pair",
]


class MembershipError(ValueError):
    """A matrix is not in the span of a module's basis."""


#: The band ``c`` of the orthogonality test of :class:`_BasisFactorization`:
#: off-diagonal Gram entries within ``c * N * EPS`` of the Cauchy-Schwarz
#: scale count as rounding.
_GRAM_BAND = 4.0

#: ``np.linalg.pinv``'s default cut: a singular value at most this times the
#: largest gets no inverse.
_PINV_RCOND = 1e-15


@dataclass(frozen=True)
class _BasisFactorization:
    """The one factorization of a module's basis columns ``B`` (``N x d``,
    ``N = p*q``) that projection and the rank count read.

    It starts from the Gram product ``G = B* B``.  Each computed entry is
    within ``gamma_N |b_i| |b_j|`` of its exact value, ``gamma_N = N u / (1 -
    N u) <= N * EPS`` with ``u = EPS / 2`` the unit roundoff (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.1), so for an exactly
    orthogonal basis every computed off-diagonal entry of ``C = D^-1/2 G
    D^-1/2``, ``D = diag(G)``, is below about ``N * EPS / 2`` in absolute
    value, and every diagonal one is within a few ``EPS`` of 1.  The basis
    counts as orthogonal when no column is zero and every computed ``|C -
    I|_ij`` is at most :data:`_GRAM_BAND` ``* N * EPS``: the factor 4 admits
    every exactly orthogonal basis with room for one built by a
    backward-stable step (a computed complement).  Then

    * the pseudo-inverse is ``D^-1 B*``, with ``np.linalg.pinv``'s cut (a column whose norm is at most
      :data:`_PINV_RCOND` times the largest gets a zero row), and
    * the singular values are the sorted column norms, each within the
      relative ``spread`` of its exact value: with ``B = Q D^(1/2)``,
      Ostrowski's theorem puts ``s_i(B)`` between ``s_min(Q)`` and
      ``s_max(Q)`` times the i-th column norm, and the singular values of
      ``Q`` squared are the eigenvalues of ``C``, within ``|C - I|_F`` of 1.  ``spread`` bounds that norm by ``d`` times the
      largest computed ``|C_ij - delta_ij|`` plus ``2 N EPS`` for the
      rounding of ``G`` and of the ratios.

    Any other basis takes one thin SVD ``B = U S V*``: the pseudo-inverse is
    ``V S^+ U*`` with the same cut, the singular values are ``S`` and the
    spread is 0.  An approximate pseudo-inverse moves no membership verdict:
    every caller decides on the explicit residual ``|B c - y|`` of the
    returned coefficients, which is at least the distance of ``y`` from the
    span and, for an orthogonal basis, exceeds it by at most about
    ``spread * |y|``, far below any threshold.
    """

    pinv: np.ndarray  # (d, N)
    singular_values: np.ndarray  # descending
    spread: float

    @classmethod
    def of(cls, columns: np.ndarray, gram: np.ndarray) -> "_BasisFactorization":
        n, d = columns.shape
        norms_sq = gram.diagonal().real
        if norms_sq.min(initial=np.inf) > 0.0 and norms_sq.max(initial=0.0) < np.inf:
            norms = np.sqrt(norms_sq)
            worst = float(np.abs(gram / np.outer(norms, norms) - np.eye(d)).max(initial=0.0))
            spread = d * (worst + 2 * n * EPS)
            if worst <= _GRAM_BAND * n * EPS and spread < 1.0:
                inverse = 1.0 / norms_sq
                inverse[norms <= _PINV_RCOND * norms.max(initial=0.0)] = 0.0
                return cls(dagger(columns) * inverse[:, None], np.sort(norms)[::-1], spread)
        u, s, vh = np.linalg.svd(columns, full_matrices=False)
        keep = s > _PINV_RCOND * s.max(initial=0.0)
        inverse = np.divide(1.0, s, out=np.zeros(s.size), where=keep)
        return cls((dagger(vh) * inverse) @ dagger(u), s, 0.0)


# One algebra block's rows of a module basis (see ConcreteModule._block_rows).
_BlockRows = namedtuple("_BlockRows", "values onb coords residual_mass")


@dataclass(eq=False)
class ConcreteModule:
    """Subspace of ``p x q`` matrices acting as a right Hilbert module."""

    algebra: BlockAlgebra
    row_dim: int
    basis: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        # The basis as one ``(dim, p, q)`` array, the input of the batched
        # pair kernels.
        self._basis_stack = _matrix_stack(
            self.basis, (self.row_dim, self.algebra.ambient_dim), "basis element"
        )
        self.basis = tuple(self._basis_stack)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _basis_columns(self) -> np.ndarray:
        return self._basis_stack.reshape(self.dim, self.row_dim * self.algebra.ambient_dim).T

    @cached_property
    def _gram(self) -> np.ndarray:
        """The Frobenius Gram matrix ``tr(b_i* b_j)`` of the basis."""
        columns = self._basis_columns
        return dagger(columns) @ columns

    @cached_property
    def _basis_unit(self) -> float:
        """The largest Frobenius norm of a basis element (0 for the zero
        module), read off the Gram diagonal: the unit in which membership
        and validation take their absolute tolerance.  The rounding of a
        residual or of a singular value scales with it, so rescaling the
        basis moves no verdict."""
        return float(np.sqrt(self._gram.diagonal().real.max(initial=0.0)))

    @cached_property
    def _factorization(self) -> _BasisFactorization:
        return _BasisFactorization.of(self._basis_columns, self._gram)

    @cached_property
    def _block_rows(self) -> tuple[_BlockRows, ...]:
        """Per algebra block, from one ``eigh`` of the row Gram ``y y*`` of
        its block columns ``y`` (``p x (dim * width)``): the eigenvalues above
        ``_rounding_band(p + dim * width, lambda_max)`` (ascending), their
        eigenvectors ``U``, the coordinates ``U* y`` and the residual mass
        ``|y - U U* y|_F^2``, formed explicitly."""
        forms = []
        for sl in self.algebra.block_slices():
            y = self._basis_stack[:, :, sl].transpose(1, 0, 2).reshape(self.row_dim, self.dim * (sl.stop - sl.start))
            ev, vecs = np.linalg.eigh(y @ dagger(y))
            keep = ev > _rounding_band(sum(y.shape), ev.max(initial=0.0))
            onb = vecs[:, keep]
            coords = dagger(onb) @ y
            residual = y - onb @ coords
            forms.append(_BlockRows(ev[keep], onb, coords, float(np.vdot(residual, residual).real)))
        return tuple(forms)

    def coefficients(self, m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """Coefficients over the basis of one ``p x q`` matrix (shape
        ``(dim,)``) or of each matrix of an ``(n, p, q)`` stack (shape
        ``(n, dim)``), from one projection onto the span (see
        :meth:`_project`).

        Raises :class:`MembershipError` for the first matrix, in stack order,
        whose explicit residual ``|B c - y|`` exceeds its threshold.
        """
        arr = np.asarray(m, dtype=complex)
        if arr.ndim != 3:
            arr = as_matrix(arr)
        elif not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        p, q = self.row_dim, self.algebra.ambient_dim
        if arr.shape[-2:] != (p, q):
            raise ShapeError(f"expected shape {(p, q)}")
        vecs = arr.reshape(*arr.shape[:-2], p * q)
        coeffs, residual = self._project(vecs)
        threshold = tol.bounded_threshold(np.linalg.norm(vecs, axis=-1), self._basis_unit)
        outside = np.flatnonzero(residual > threshold)
        if outside.size:
            raise MembershipError(
                f"matrix outside the module span (residual {residual.flat[outside[0]]:.3e})"
            )
        return coeffs

    def _project(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients over the basis of the row-major flattened matrices
        ``vecs`` (shape ``(..., p*q)``), and the distance of each from the span.

        The coefficients come from the pseudo-inverse of the basis'
        one factorization (:class:`_BasisFactorization`): ``D^-1 B*`` for an
        orthogonal basis, with no SVD, else one thin SVD per module.  The
        distance is the explicit residual of those coefficients."""
        coeffs = vecs @ self._factorization.pinv.T
        residual = np.linalg.norm(coeffs @ self._basis_columns.T - vecs, axis=-1)
        return coeffs, residual

    def contains_matrix(self, m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        """True iff the ``p x q`` matrix, or every matrix of the
        ``(n, p, q)`` stack, lies in the span."""
        try:
            self.coefficients(m, tol)
        except MembershipError:
            return False
        return True

    def from_coefficients(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if coeffs.shape[0] != self.dim:
            raise ShapeError(f"expected {self.dim} coefficients")
        q = self.algebra.ambient_dim
        if self.dim == 0:
            return np.zeros((self.row_dim, q), dtype=complex)
        return (self._basis_columns @ coeffs).reshape(self.row_dim, q)


@dataclass(frozen=True)
class ModuleValidation:
    ok: bool
    violations: tuple[str, ...]


def inner_product_matrix(x, y) -> np.ndarray:
    """Raw module inner product ``x* y`` of two equally-shaped matrices.
    Public as the module's inner product itself; the kernels batch it."""
    xm, ym = as_matrix(x), as_matrix(y)
    if xm.shape != ym.shape:
        raise ShapeError("inner product needs equal shapes")
    return dagger(xm) @ ym


def validate_module(module: ConcreteModule, tol: ToleranceProfile = DEFAULT_TOL) -> ModuleValidation:
    """Check the module axioms and report every violation found.

    Axioms: inner products land in the algebra, the span is closed under the
    right algebra action, and the basis is linearly independent.  A rank
    count decides first (see :func:`_rank_count`); only when it finds the
    module invalid, or finds one of its quantities near a threshold, does
    the full pass run, which tests every basis pair and every matrix unit,
    decides, and names each violation.  Both read the basis rank, and the
    full pass its projections, off the module's one factorization
    (:class:`_BasisFactorization`): the Gram product alone for an
    orthogonal basis, one thin SVD for any other; the rank count reads each
    block off the module's row form (:class:`_BlockRows`).

    Validity depends on the span alone, so a basis whose largest entry has a
    binary exponent beyond ``+-np.finfo(float).maxexp // 8`` (``2^+-128``) is
    validated times the power of two that brings that entry into ``[0.5,
    1)``, an exact rescaling.  Within that range every product of four
    entries lies within ``2^+-512``: sums of them stay finite, and products
    clear the smallest normal number, with a factor ``2^500`` to spare.
    """
    module = _in_range(module)
    if _rank_count(module, tol):
        return ModuleValidation(True, ())
    return _full_validation(module, tol)


def _in_range(module: ConcreteModule) -> ConcreteModule:
    """The module itself, or the same span with its basis rescaled by a
    power of two as :func:`validate_module` describes."""
    stack = module._basis_stack
    exponent = int(np.frexp(np.abs(stack).max(initial=0.0))[1])
    if abs(exponent) <= np.finfo(float).maxexp // 8:
        return module
    scaled = np.ldexp(stack.real, -exponent) + 1j * np.ldexp(stack.imag, -exponent)
    return ConcreteModule(module.algebra, module.row_dim, tuple(scaled))


def _rank_count(module: ConcreteModule, tol: ToleranceProfile) -> bool | None:
    """The module axioms decided from the blockwise form: True (valid) or
    False (invalid) when every deciding quantity clears its threshold by
    :data:`~semiphi.numerics.NEAR_FACTOR`, None when one is near it.

    Over ``A = (+)_k M_{n_k}`` let ``W_k`` be the span of the columns that
    the basis has in block ``k``.  The span always lies in
    ``(+)_k {x : the block-k columns of x lie in W_k}``, of dimension
    ``sum_k n_k dim W_k``; it is a module iff it is that whole space and the
    ``W_k`` are pairwise orthogonal.  So the module is valid iff its basis
    has rank ``dim``, ``sum_k n_k dim W_k = dim`` and the ``W_k`` are
    orthogonal.  A True verdict also bounds each quantity the full pass
    thresholds (off-block products, right-action residuals) below its
    threshold over the factor.  Like the full pass, it takes its rank cuts
    and right-action thresholds in units of the largest basis norm, so
    rescaling the basis moves no verdict.
    """
    d, p, blocks = module.dim, module.row_dim, module.algebra.blocks
    if d == 0:
        return True
    if p == 0:
        return None
    unit, basis = module._basis_unit, module._factorization
    rank, clear = _rank_cut(basis.singular_values, tol, unit)
    if not clear:
        return None
    if rank < d:
        return False
    # W_k from the block's row form: y y* is formed within gamma_(d n) |y|_F^2
    # in 2-norm (Higham 3.5) and eigh adds p EPS times its norm, so by Weyl
    # each kept singular value is at least sqrt(value - allowance), and the
    # residual bounds the dropped ones and their tail (Eckart-Young, any U).
    forms = module._block_rows
    for rows, n in zip(forms, blocks):
        cut = tol.bounded_threshold(np.sqrt(rows.values.max(initial=0.0)), unit)
        allowance = _rounding_band(p + d * n, rows.values.sum() + rows.residual_mass)  # |y|_F^2
        kept = np.sqrt(max(rows.values.min(initial=np.inf) - allowance, 0.0))
        if kept < NEAR_FACTOR * cut or NEAR_FACTOR * np.sqrt(rows.residual_mass) > cut:
            return None
    ranks = [rows.values.size for rows in forms]
    if sum(n * r for n, r in zip(blocks, ranks)) != d:
        return False
    tails = np.sqrt([rows.residual_mass for rows in forms])
    # Off-block products x_i[:, k]* x_j[:, l], k != l, in units of the
    # Cauchy-Schwarz scale |x_i| |x_j| the full pass thresholds them at: with
    # Q_k an ONB of the kept W_k, each is at most |Q_k* Q_l|_F plus the terms
    # of the dropped tails over the smallest basis norm.
    col_norms = np.linalg.norm(module._basis_stack, axis=1)  # (d, q)
    rel_tails = tails / np.linalg.norm(col_norms, axis=1).min()
    onb = np.concatenate([rows.onb for rows in forms], axis=1)
    member = (np.repeat(np.arange(len(blocks)), ranks)[:, None] == np.arange(len(blocks))).astype(float)
    cosines = np.sqrt(member.T @ np.abs(dagger(onb) @ onb) ** 2 @ member)
    bound = cosines + rel_tails[:, None] + rel_tails[None, :] + np.outer(rel_tails, rel_tails)
    np.fill_diagonal(bound, 0.0)
    # In these units every pair's threshold is at least that of a zero product.
    if np.linalg.norm(bound) * NEAR_FACTOR > tol.bounded_threshold(0.0, 1.0):
        return None
    # Right action: x_i E_rc is column r of x_i placed at column c.  Its
    # distance from the span is at most its distance from the blockwise
    # space (at most the residual of its block) plus its norm
    # times the sine between the two equal-dimensional spaces, itself at
    # most (dropped mass + projection rounding) / s_min, with s_max and s_min
    # moved outwards by the spread of the listed singular values.
    s_max = basis.singular_values[0] * (1.0 + basis.spread)
    s_min = basis.singular_values[-1] * (1.0 - basis.spread)
    sine = (np.linalg.norm(tails) + p * module.algebra.ambient_dim * EPS * s_max) / s_min
    distance = tails[np.repeat(np.arange(len(blocks)), blocks)] + col_norms * sine
    if np.any(distance * NEAR_FACTOR > tol.bounded_threshold(col_norms, unit)):
        return None
    return True


def _full_validation(module: ConcreteModule, tol: ToleranceProfile) -> ModuleValidation:
    """The per-pair and per-unit pass of :func:`validate_module`, which names
    every violation."""
    violations: list[str] = []
    algebra, d = module.algebra, module.dim
    q = algebra.ambient_dim
    stack = module._basis_stack
    products = adjoint_products(stack, stack)
    off_block = np.linalg.norm(products[:, :, ~algebra._mask], axis=-1)
    norms = np.linalg.norm(stack, axis=(-2, -1))
    # Each product is held to the threshold of its size within its
    # Cauchy-Schwarz bound |x_i| |x_j|, so rescaling the basis moves no verdict.
    scale = np.linalg.norm(products.reshape(d, d, q * q), axis=-1)
    for i, j in np.argwhere(off_block > tol.bounded_threshold(scale, np.outer(norms, norms))):
        violations.append(f"inner product of basis ({i},{j}) escapes the algebra")
    # x_i E_u for every basis element and matrix unit, tested against the
    # span in one residual; only the first failing unit is reported.
    units = np.stack(algebra.matrix_units())
    moved = (stack[:, None] @ units).reshape(d, len(units), module.row_dim * q)
    _, residual = module._project(moved)
    unit = module._basis_unit
    outside = residual > tol.bounded_threshold(np.linalg.norm(moved, axis=-1), unit)
    pairs = algebra.unit_index_pairs()
    for i in range(d):
        hits = np.flatnonzero(outside[i])
        if hits.size:
            r, c = pairs[hits[0]]
            violations.append(f"right action of unit ({r},{c}) on basis {i} leaves the span")
    if module.dim:
        rank = _rank_cut(module._factorization.singular_values, tol, unit)[0]
        if rank != module.dim:
            violations.append(f"basis is linearly dependent (rank {rank} of {module.dim})")
    return ModuleValidation(not violations, tuple(violations))


def _same_footprint(f: ConcreteModule, e: ConcreteModule) -> None:
    if f.algebra.blocks != e.algebra.blocks:
        raise ShapeError("modules live over different algebras")
    if f.row_dim != e.row_dim:
        raise ShapeError("modules have different row dimensions")


def is_submodule(f: ConcreteModule, e: ConcreteModule, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff span(f) is contained in span(e) and f is a valid module."""
    return _submodule_coefficients(f, e, tol) is not None


def _submodule_coefficients(f: ConcreteModule, e: ConcreteModule, tol: ToleranceProfile) -> np.ndarray | None:
    """The test of :func:`is_submodule` with the projection it is read
    from: the ``(dim f, dim e)`` coefficients of f's basis over e's
    (:meth:`ConcreteModule.coefficients`) when f is a valid module whose
    span lies in e's, else None."""
    _same_footprint(f, e)
    if not validate_module(f, tol).ok:
        return None
    try:
        return e.coefficients(f._basis_stack, tol)
    except MembershipError:
        return None


def _invalid_module_message(e: ConcreteModule, tol: ToleranceProfile) -> str | None:
    """None for a valid module, else a message naming its first violation."""
    report = validate_module(e, tol)
    return None if report.ok else f"e is not a valid module: {report.violations[0]}"


def orthogonal_complement(
    f: ConcreteModule, e: ConcreteModule, tol: ToleranceProfile = DEFAULT_TOL
) -> ConcreteModule:
    """The submodule ``{x in e : <x, y> = 0 for all y in f}``.

    Validates both modules once: f through :func:`is_submodule`, then e,
    whose first violation the ``ValueError`` names.  For a submodule f of a
    valid module e the constraint is the ``dim f x dim e`` Frobenius Gram
    matrix ``tr(f_j* e_k)``: ``f_j* x`` lies in the algebra and f is closed
    under the right action, so ``tr(a* f_j* x) = tr((f_j a)* x)`` vanishes
    for every algebra element ``a`` and every j iff ``f_j* x = 0`` for
    every j.  The complement is its nullspace over the coefficients of
    ``x`` in e's basis.
    """
    if not is_submodule(f, e, tol):
        raise ValueError("f must be a submodule of e")
    message = _invalid_module_message(e, tol)
    if message:
        raise ValueError(message)
    return _complement(f, e, tol)[0]


def _complement(
    f: ConcreteModule, e: ConcreteModule, tol: ToleranceProfile
) -> tuple[ConcreteModule, np.ndarray]:
    """The body of :func:`orthogonal_complement`, for callers that have
    already checked that f is a submodule of the valid module e, with the
    ``dim e x dim f_perp`` matrix ``C`` of the complement's coefficients
    over e's basis: ``f_perp_a = sum_i C[i, a] e_i``, exact by construction
    (``C`` is the identity when f = 0 and the complement is e itself)."""
    if e.dim == 0:
        return ConcreteModule(e.algebra, e.row_dim, ()), np.zeros((0, 0), dtype=complex)
    if f.dim == 0:
        return e, np.eye(e.dim, dtype=complex)
    # Row j holds tr(f_j* e_k) in column k.
    constraint = dagger(f._basis_columns) @ e._basis_columns
    coeff_onb = nullspace_onb(constraint, tol)
    basis = (e._basis_columns @ coeff_onb).T.reshape(-1, e.row_dim, e.algebra.ambient_dim)
    return ConcreteModule(e.algebra, e.row_dim, tuple(basis)), coeff_onb


@dataclass(frozen=True)
class BlockEmbedding:
    """Block-aligned embedding of one block algebra into another's ambient.

    ``block_offsets[i]`` is the starting ambient index (in the target) of the
    i-th source block; each source block must land inside a single target
    block.  The identity embedding has matching blocks and zero-shifted
    offsets.
    """

    source: BlockAlgebra
    target: BlockAlgebra
    block_offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        offsets = tuple(int(o) for o in self.block_offsets)
        object.__setattr__(self, "block_offsets", offsets)
        if len(offsets) != len(self.source.blocks):
            raise ValueError("need one offset per source block")
        target_slices = self.target.block_slices()
        covered: set[int] = set()
        for n, off in zip(self.source.blocks, offsets):
            span = range(off, off + n)
            if not any(sl.start <= off and off + n <= sl.stop for sl in target_slices):
                raise ValueError(
                    f"source block of size {n} at offset {off} crosses target blocks"
                )
            if covered & set(span):
                raise ValueError("source blocks overlap in the target")
            covered |= set(span)

    @classmethod
    def identity(cls, algebra: BlockAlgebra) -> "BlockEmbedding":
        offsets = tuple(sl.start for sl in algebra.block_slices())
        return cls(algebra, algebra, offsets)

    def column_map(self) -> np.ndarray:
        """Selection matrix J (q_target x q_source) with J[iota(c), c] = 1."""
        j = np.zeros((self.target.ambient_dim, self.source.ambient_dim))
        for sl, off in zip(self.source.block_slices(), self.block_offsets):
            for k in range(sl.stop - sl.start):
                j[off + k, sl.start + k] = 1.0
        return j

    def embed(self, m) -> np.ndarray:
        """Push a source-ambient matrix forward into the target ambient."""
        j = self.column_map()
        return j @ as_matrix(m) @ j.T

    def compress(self, m) -> np.ndarray:
        """Pull a target-ambient matrix back onto the embedded coordinates."""
        j = self.column_map()
        return j.T @ as_matrix(m) @ j


def embed_module(e: ConcreteModule, embedding: BlockEmbedding) -> ConcreteModule:
    """View a module over the embedding's source as one over its target."""
    if e.algebra.blocks != embedding.source.blocks:
        raise ShapeError("module algebra does not match the embedding source")
    j = embedding.column_map()
    basis = tuple(b @ j.T for b in e.basis)
    return ConcreteModule(embedding.target, e.row_dim, basis)


def is_contained_pair(
    e: ConcreteModule,
    f: ConcreteModule,
    embedding: BlockEmbedding,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Containment of module/algebra pairs under a declared block embedding.

    True iff the embedded span of ``e`` sits inside ``f`` and the inner
    products of ``e`` agree with those computed in ``f`` after embedding.
    """
    if e.algebra.blocks != embedding.source.blocks or f.algebra.blocks != embedding.target.blocks:
        raise ShapeError("embedding endpoints do not match the modules")
    if e.row_dim != f.row_dim:
        raise ShapeError("row dimensions differ; no containment declared for that")
    e_in_f = embed_module(e, embedding)
    if not f.contains_matrix(e_in_f._basis_stack, tol):
        return False
    j = embedding.column_map()
    small = j @ adjoint_products(e._basis_stack, e._basis_stack) @ j.T
    big = adjoint_products(e_in_f._basis_stack, e_in_f._basis_stack)
    defect = np.linalg.norm(small - big, axis=(-2, -1))
    return not np.any(defect > tol.threshold(np.linalg.norm(small, axis=(-2, -1))))
