"""Operator systems built from a module and its algebra, block maps between
them, corner-preservation analysis, and the injectivity demonstration.

The system of a module ``E`` (subspace of ``p x q`` matrices over an algebra
``A``) lives inside ``M_(p+q)`` and is spanned by the scalar block, the
module corner, its adjoint corner, and the diagonal algebra block.  CP-ness
of a corner-structured map is decided through the Gram criterion for its
module part, with randomized PSD sampling as a falsification layer; deciding
CP for arbitrary maps defined only on an operator system (an SDP feasibility
problem) is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import BlockAlgebra, pinch
from .cpmaps import CPMap, compose, from_kraus
from .extension import (
    ExtensionInputError,
    ModuleMap,
    PreconditionError,
    SemiPhiReport,
    _largest_norm,
    extend_semi_phi,
    is_completely_semi_phi,
)
from .modules import (
    BlockEmbedding,
    ConcreteModule,
    MembershipError,
    embed_module,
    is_contained_pair,
)
from .numerics import (
    DEFAULT_TOL,
    SelfCheckError,
    ShapeError,
    ToleranceProfile,
    _NOT_FINITE,
    _construction_threshold,
    _matrix_stack,
    _not_hermitian,
    _psd_eigvalsh,
    _rounding_band,
    _sampling_tol,
    as_matrix,
    dagger,
)

__all__ = [
    "PaulsenSystem",
    "SystemMap",
    "SystemDecompositionError",
    "CornerReport",
    "build_system",
    "decompose_system_element",
    "block_map",
    "is_cp_system_map",
    "is_corner_preserving",
    "example_3_4_map",
    "injectivity_demo",
]


class SystemDecompositionError(ValueError):
    """A matrix does not lie in the operator system."""


@dataclass(frozen=True)
class _Compressions:
    """The compressions of a system's basis to its algebra blocks, see
    :attr:`PaulsenSystem._compressions`."""

    stack: np.ndarray  # (B, sum of s*s): each element's s x s compressions, flattened, by size
    groups: tuple[tuple[int, int], ...]  # (s, count) of each run of equal sizes s, in stack order
    bound: float  # Weyl factor of the shift's deviation, in units of |sample|_F

    def smallest_eigenvalues(self, parts: np.ndarray) -> np.ndarray:
        """lambda_min over all compressions of each of S samples, from the
        ``(S, n, n, sum of s*s)`` compressed blocks ``parts``: each group's
        compressions are symmetrized and solved by one ``eigvalsh``."""
        count, n = parts.shape[:2]
        lam, start = np.full(count, np.inf), 0
        for size, k in self.groups:
            stop = start + k * size * size
            z = parts[..., start:stop].reshape(count, n, n, k, size, size)
            z = z.transpose(3, 0, 1, 2, 4, 5).reshape(k * count, n, n, size, size)
            z = (z + _adjoint_blocks(z)) / 2.0
            lam = np.minimum(lam, np.linalg.eigvalsh(_block_matrices(z))[:, 0].reshape(k, count).min(axis=0))
            start = stop
        return lam


@dataclass(eq=False)
class PaulsenSystem:
    """The smallest operator system containing a module and its algebra.

    Over ``A = (+)_k M_(n_k)`` a module's block column spaces ``W_k`` (``r_k
    = dim W_k``) are pairwise orthogonal, so after one unitary change of
    ``C^p`` every level-n element is the direct sum of ``Lambda (x) I`` on
    ``((+)_k W_k)^perp`` and one compression of size ``n (r_k + n_k)`` per
    algebra block.  The sampler takes its shift from these compressions
    (:attr:`_compressions`) where the module's row form certifies the split.
    """

    module: ConcreteModule
    algebra: BlockAlgebra
    basis: tuple[np.ndarray, ...]
    corner_layout: tuple[int, int]

    def __post_init__(self) -> None:
        # The basis as one (dimension, d, d) array; ``basis`` holds views of it.
        self._basis_stack = _matrix_stack(self.basis, (self.ambient_dim,) * 2, "basis elements")
        self.basis = tuple(self._basis_stack)

    @property
    def ambient_dim(self) -> int:
        return sum(self.corner_layout)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    @cached_property
    def _compressions(self) -> _Compressions:
        """The basis of :func:`build_system` compressed to each algebra block
        k, ``V_k* b V_k`` with ``V_k = U_k (+) I_(n_k)`` and ``U_k`` the row
        basis of the module's block-k columns (:attr:`ConcreteModule._block_rows`),
        by slice assignment: the scalar element maps to ``I_(r_k) (+) 0``, a
        corner ``e_i`` to its coordinates ``U_k* e_i[:, block k]`` and its
        adjoint corner to their adjoint, a unit of block k to itself in the
        lower right and a unit of any other block to 0.  When every ``r_k``
        is 0 but ``p`` is not, one more 1 x 1 compression keeps the scalar
        alone.

        With the ``W_k`` pairwise orthogonal and ``U = [U_1, ..., U_K]``
        orthonormal, ``Lambda (x) I_(r_k)`` is a principal submatrix of
        compression k, so by Cauchy interlacing (Horn & Johnson 4.3) the
        smallest eigenvalue of a sample is the smallest over its
        compressions.  The computed row form misses that by the dropped row
        mass ``M`` (the sum of the blocks' ``residual_mass``) and by ``F = U*
        U - I``.  To first order in ``F``, whose square is far below rounding,
        the compressions differ from those of an orthonormal basis of the
        same span by ``F/2`` times their corners, and the parts of the
        sample they leave out hold the dropped rows of its corners and
        ``F/2`` times their corners again.  A corner ``x`` with coefficients
        ``c`` has dropped rows of norm at most ``sqrt(M) |c| <= sqrt(M) |x| /
        s_min`` (``s_min`` the smallest singular value of the module basis),
        and the corners of a sample ``X`` hold at most half of ``|X|_F^2``.
        By Weyl's inequality the shift therefore moves by at most ``bound
        * |X|_F`` with ``bound = sqrt(M / 2) / s_min + |F| / 2`` (``|F|_2``
        bounded by its largest absolute row sum), which no rescaling of the
        basis moves."""
        e, dim, forms = self.module, self.dimension, self.module._block_rows
        unit = 1 + 2 * e.dim  # the first unit of the current block, block-major as in build_system
        parts = []
        for w, form in zip(self.algebra.blocks, forms):
            r = form.values.size
            z = np.zeros((dim, r + w, r + w), dtype=complex)
            z[0, :r, :r] = np.eye(r)
            coords = form.coords.reshape(r, e.dim, w).transpose(1, 0, 2)
            z[1 : 1 + e.dim, :r, r:] = coords
            z[1 + e.dim : 1 + 2 * e.dim, r:, :r] = np.conj(coords).transpose(0, 2, 1)
            z[unit : unit + w * w, r:, r:] = np.eye(w * w).reshape(w * w, w, w)
            unit += w * w
            parts.append(z)
        if self.corner_layout[0] and not any(form.values.size for form in forms):
            scalar = np.zeros((dim, 1, 1), dtype=complex)
            scalar[0] = 1.0
            parts.append(scalar)
        parts.sort(key=lambda z: z.shape[1])
        sizes = [z.shape[1] for z in parts]
        groups = tuple((size, sizes.count(size)) for size in dict.fromkeys(sizes))
        stack = np.concatenate([z.reshape(dim, -1) for z in parts], axis=1)
        onb = np.concatenate([form.onb for form in forms], axis=1)
        defect = np.abs(dagger(onb) @ onb - np.eye(onb.shape[1])).sum(axis=1).max(initial=0.0)
        mass, dropped = sum(form.residual_mass for form in forms), 0.0
        if mass:  # then the basis has an element
            basis = e._factorization
            s_min = basis.singular_values[-1] * (1.0 - basis.spread)
            dropped = np.sqrt(mass / 2.0) / s_min if s_min > 0.0 else np.inf
        return _Compressions(stack, groups, float(dropped + defect / 2.0))

    def _splits(self, n: int) -> bool:
        """Whether level n takes its sample shift from the compressions:
        every compression is smaller than the system, and their Weyl factor
        is within the full ``eigvalsh``'s own rounding band
        ``_rounding_band(n * d, |X|_F)`` per unit of ``|X|_F``."""
        d, form = self.ambient_dim, self._compressions
        smaller = all(size < d for size, _ in form.groups)
        return smaller and form.bound <= _rounding_band(n * d, 1.0)


def build_system(e: ConcreteModule) -> PaulsenSystem:
    """Assemble the system basis: scalar block, module corner, adjoint corner,
    algebra diagonal.  Dimension is ``1 + 2*dim(E) + dim(A)``."""
    p, q, d = e.row_dim, e.algebra.ambient_dim, e.dim
    rows, cols = np.array(e.algebra.unit_index_pairs()).T
    stack = np.zeros((1 + 2 * d + len(rows), p + q, p + q), dtype=complex)
    stack[0, :p, :p] = np.eye(p)
    stack[1 : 1 + d, :p, p:] = e._basis_stack
    stack[1 + d : 1 + 2 * d, p:, :p] = np.conj(e._basis_stack).transpose(0, 2, 1)
    stack[1 + 2 * d + np.arange(len(rows)), p + rows, p + cols] = 1.0
    return PaulsenSystem(e, e.algebra, stack, (p, q))


def decompose_system_element(
    system: PaulsenSystem, x, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[complex, np.ndarray, np.ndarray, np.ndarray]:
    """Split a system element into (scalar, corner, adjoint-corner, diagonal).

    Rejects matrices whose top-left block is not a scalar multiple of the
    identity, whose corners escape the module span, or whose diagonal block
    escapes the algebra.
    """
    arr = as_matrix(x)
    p, q = system.corner_layout
    if arr.shape != (p + q, p + q):
        raise ShapeError(f"expected a {p + q}x{p + q} matrix")
    split = _split_blocks(system, arr[None], tol)
    _raise_first(split.failures)
    lam = complex(split.lam[0]) if p else 0.0
    return lam, split.corners[0], split.corners[1], split.diag[0]


# A batched check: one flag per block, and the exception for a block index.
_Check = tuple[np.ndarray, Callable[[int], Exception]]


@dataclass(frozen=True)
class _Split:
    """Decomposition of N stacked system blocks, see :func:`_split_blocks`."""

    lam: np.ndarray  # (N,) scalars of the top-left blocks
    corners: np.ndarray  # (2N, p, q): the N corners, then the N adjoint corners
    coeffs: np.ndarray  # (2N, dim E) their coefficients over the module basis
    residual: np.ndarray  # (2N,) their distances from the module span
    diag: np.ndarray  # (N, q, q) pinched diagonal blocks
    failures: list[_Check]


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of the matrices of an ``(N, a, b)`` stack, summed over
    its real and imaginary views: no temporary of the stack's size."""
    return np.sqrt(np.einsum("nij,nij->n", stack.real, stack.real) + np.einsum("nij,nij->n", stack.imag, stack.imag))


def _split_blocks(system: PaulsenSystem, blocks: np.ndarray, tol: ToleranceProfile) -> _Split:
    """Decompose a ``(N, p+q, p+q)`` stack of system blocks at once.

    All corners and adjoint corners are projected onto the module span by one
    :meth:`ConcreteModule._project`.  Nothing is raised here: ``failures``
    holds the four membership tests of :func:`decompose_system_element`, in
    its order, for :func:`_raise_first`.
    """
    p, q = system.corner_layout
    n_blocks = len(blocks)
    scale = np.maximum(_frobenius_norms(blocks), 1.0)
    top = blocks[:, :p, :p]
    lam = np.trace(top, axis1=-2, axis2=-1) / p if p else np.zeros(n_blocks, dtype=complex)
    top_off_scalar = top.copy()
    top_off_scalar[:, np.arange(p), np.arange(p)] -= lam[:, None]
    top_defect = _frobenius_norms(top_off_scalar)
    del top_off_scalar
    corners = np.concatenate([blocks[:, :p, p:], np.conj(blocks[:, p:, :p]).transpose(0, 2, 1)])
    vecs = corners.reshape(2 * n_blocks, p * q)
    coeffs, residual = system.module._project(vecs)
    # The span test of a corner is loosened by the scale of its whole block.
    loose_tol = tol.threshold(np.concatenate([scale, scale]))
    loose = residual > loose_tol + tol.rel_tol * np.linalg.norm(vecs, axis=-1)
    diag = blocks[:, p:, p:]
    mask = system.algebra._mask
    off_block = np.linalg.norm(diag[:, ~mask], axis=-1)

    def fail(message: str) -> Callable[[int], Exception]:
        return lambda i: SystemDecompositionError(message)

    failures: list[_Check] = [
        (top_defect > tol.threshold(scale), fail("top-left block is not a scalar multiple of I")),
        (loose[:n_blocks], fail("corner escapes the module span")),
        (loose[n_blocks:], fail("adjoint corner escapes the module span")),
        (off_block > tol.threshold(scale), fail("diagonal block escapes the algebra")),
    ]
    return _Split(lam, corners, coeffs, residual, np.where(mask, diag, 0.0), failures)


def _first_failure(
    failures: list[_Check], start: int = 0, stop: int | None = None
) -> tuple[int, Exception] | None:
    """The first failing block in stack order with the exception of its
    first failing check in list order; None if all pass.  Only blocks
    ``start:stop`` are searched; the block is an index into the whole
    stack."""
    if not any(flags[start:stop].any() for flags, _ in failures):
        return None
    hits = np.argwhere(np.stack([flags[start:stop] for flags, _ in failures], axis=1))
    block, check = start + int(hits[0, 0]), hits[0, 1]
    return block, failures[check][1](block)


def _raise_first(failures: list[_Check]) -> None:
    if (hit := _first_failure(failures)) is not None:
        raise hit[1]


@dataclass(eq=False)
class SystemMap:
    """Corner-structured map between two systems, acting as
    ``[[lam, x], [y*, a]] -> [[lam, Phi(x)], [Phi(y)*, phi(a)]]``."""

    domain: PaulsenSystem
    codomain: PaulsenSystem
    module_map: ModuleMap
    cp_map: CPMap
    unital: bool

    def apply(self, x, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        return self.apply_n(1, x, tol)

    def apply_n(self, n: int, x, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """Amplification: apply entrywise to an n x n matrix of system blocks.
        Public as the level-n map that complete positivity asks to be positive.

        A block is accepted exactly when the one-block path :meth:`apply`
        accepts it: the decomposition tests of
        :func:`decompose_system_element`, then the module map's own span test
        of the corner and of the adjoint corner at ``tol`` (stricter than the
        decomposition's).  If any block fails, the first failing one in
        row-major block order raises the exception of its first failing test.
        """
        arr = as_matrix(x)
        din = self.domain.ambient_dim
        if arr.shape != (n * din, n * din):
            raise ShapeError(f"expected a {n * din}x{n * din} matrix")
        images, failures = self._apply_stack(arr.reshape(1, n, din, n, din).transpose(0, 1, 3, 2, 4), tol)
        _raise_first(failures)
        return images[0]

    def _apply_stack(self, xs: np.ndarray, tol: ToleranceProfile) -> tuple[np.ndarray, list[_Check]]:
        """:meth:`apply_n` on the ``(S, n, n, din, din)`` blocks of S matrices:
        their images, and unraised the tests of all ``S*n^2`` blocks in stack
        order.  All blocks are decomposed by one projection onto the module
        span and mapped by one matmul each against the module map's value
        stack and the CP map's ambient tensor.  Blocks are mapped one by one,
        so :func:`is_cp_system_map` passes the blocks of all its samples as
        ``(N, 1, 1, din, din)`` and reads each sample's images and tests off
        its own range of the N."""
        n_samples, n, _, din, _ = xs.shape
        dout = self.codomain.ambient_dim
        n_blocks = n_samples * n * n
        blocks = xs.reshape(n_blocks, din, din)
        split = _split_blocks(self.domain, blocks, tol)
        module = self.module_map.domain
        if module is self.domain.module:
            coeffs, residual = split.coeffs, split.residual
        else:
            if split.corners.shape[1:] != (module.row_dim, module.algebra.ambient_dim):
                raise ShapeError(f"expected shape {(module.row_dim, module.algebra.ambient_dim)}")
            coeffs, residual = module._project(split.corners.reshape(len(split.corners), -1))
        outside = residual > tol.bounded_threshold(
            np.linalg.norm(split.corners, axis=(-2, -1)), module._basis_unit
        )

        def membership(offset: int) -> Callable[[int], Exception]:
            return lambda i: MembershipError(
                f"matrix outside the module span (residual {residual[offset + i]:.3e})"
            )

        failures = split.failures + [
            (outside[:n_blocks], membership(0)),
            (outside[n_blocks:], membership(n_blocks)),
        ]
        k, m = self.module_map.h2_dim, self.module_map.h1_dim
        values = self.module_map._value_stack.reshape(module.dim, k * m)
        images = (coeffs @ values).reshape(2, n_blocks, k, m)
        q, m_out = self.cp_map.domain.ambient_dim, self.cp_map.target_dim
        tensor = self.cp_map._ambient_tensor.reshape(m_out * m_out, q * q)
        diag = (split.diag.reshape(n_blocks, q * q) @ tensor.T).reshape(n_blocks, m_out, m_out)
        p_out = self.codomain.corner_layout[0]
        out = np.zeros((n_blocks, dout, dout), dtype=complex)
        out[:, :p_out, :p_out] = split.lam[:, None, None] * np.eye(p_out)
        out[:, :p_out, p_out:] = images[0]
        out[:, p_out:, :p_out] = np.conj(images[1]).transpose(0, 2, 1)
        out[:, p_out:, p_out:] = diag
        return _block_matrices(out.reshape(n_samples, n, n, dout, dout)), failures

    def compose(self, inner: "SystemMap", tol: ToleranceProfile = DEFAULT_TOL) -> "SystemMap":
        """Composite of two corner-structured maps, again corner-structured.
        Public as composition in the paper's category of systems."""
        if inner.codomain.corner_layout != self.domain.corner_layout:
            raise ShapeError("layouts do not compose")
        values = tuple(self.module_map.apply(inner.module_map._value_stack, tol))
        composed_module = ModuleMap(
            inner.module_map.domain,
            self.module_map.h1_dim,
            self.module_map.h2_dim,
            values,
        )
        return SystemMap(
            inner.domain,
            self.codomain,
            composed_module,
            compose(self.cp_map, inner.cp_map),
            self.unital and inner.unital,
        )


def block_map(
    phi_map: ModuleMap,
    phi: CPMap,
    codomain_module: ConcreteModule,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> SystemMap:
    """Corner-wise map assembled from a module map and a CP map.

    The codomain system is built from the declared range module and the CP
    map's range algebra; values escaping either raise.
    """
    if phi_map.domain.algebra.blocks != phi.domain.blocks:
        raise ShapeError("module map and CP map live over different algebras")
    p_out = codomain_module.row_dim
    q_out = codomain_module.algebra.ambient_dim
    if (phi_map.h2_dim, phi_map.h1_dim) != (p_out, q_out):
        raise ShapeError(
            "module map values must be elements of the declared codomain module"
        )
    if phi.target_dim != q_out:
        raise ShapeError("CP target dimension must match the codomain algebra ambient")
    if not codomain_module.contains_matrix(phi_map._value_stack, tol):
        raise ValueError("module-map range escapes the declared codomain module")
    values = phi._value_stack  # contains() on all values, each at its own norm
    off_block = np.linalg.norm(values[:, ~codomain_module.algebra._mask], axis=-1)
    if np.any(off_block > tol.threshold(np.linalg.norm(values, axis=(-2, -1)))):
        raise ValueError("CP-map range escapes the declared codomain algebra")
    unital = phi.is_unital(tol)
    return SystemMap(
        build_system(phi_map.domain),
        build_system(codomain_module),
        phi_map,
        phi,
        unital,
    )


def random_psd_system_element(
    system: PaulsenSystem, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Random PSD element of the n-th matrix level of the system, shifted to
    have smallest eigenvalue exactly zero.

    The element is ``sum_b kron(C_b, basis[b])`` with complex coefficient
    matrices ``C_b = R_b + i I_b``, symmetrized and shifted by its smallest
    eigenvalue.  That is the smallest over the element's compressions to
    the algebra blocks, each of size ``n (r_k + n_k)``
    (:attr:`PaulsenSystem._compressions`), where the module's row form
    certifies the split; otherwise it comes from the whole ``n (p+q)``
    matrix.  Either way the element is the same up to rounding, and the
    draws are unchanged.  Draw order (a
    compatibility contract: ``semiphi paulsen --seed`` reproduces its
    samples through it): one ``rng.standard_normal((B, 2, n, n))`` call,
    ``B`` the system dimension, with ``[b, 0]`` the real part ``R_b`` and
    ``[b, 1]`` the imaginary part ``I_b`` of the b-th basis element's
    coefficients.  This consumes the generator exactly as drawing
    ``R_0, I_0, R_1, I_1, ...`` as separate ``(n, n)`` arrays would.  S
    samples are one ``(S, B, 2, n, n)`` draw, the same stream as S calls;
    :func:`_psd_sample_stack` builds and maps those of several levels in one
    pass and shifts each level on its own view.
    """
    if n < 1:
        raise ValueError(f"level n must be at least 1, got {n}")
    blocks, _ = _psd_sample_stack(system, 1, (n,), rng)
    d = system.ambient_dim
    return _block_matrices(blocks.reshape(1, n, n, d, d))[0]


def _block_matrices(blocks: np.ndarray) -> np.ndarray:
    """The ``(S, n*a, n*a)`` matrices of an ``(S, n, n, a, a)`` block stack."""
    count, n, _, a, _ = blocks.shape
    return blocks.transpose(0, 1, 3, 2, 4).reshape(count, n * a, n * a)


def _level_views(stack: np.ndarray, count: int, levels):
    """Per level n of ``levels``: n, the index of its first block, and the
    ``(count, n, n, a, b)`` view of its blocks in an ``(N, a, b)`` stack
    holding the ``n*n`` blocks of ``count`` samples at each level in turn."""
    start = 0
    for n in levels:
        stop = start + count * n * n
        yield n, start, stack[start:stop].reshape(count, n, n, *stack.shape[1:])
        start = stop


def _adjoint_blocks(blocks: np.ndarray) -> np.ndarray:
    """The ``(S, n, n, a, a)`` blocks of ``M*`` for the matrices ``M`` whose
    blocks ``blocks`` holds, in one new array."""
    return np.conj(blocks.transpose(0, 2, 1, 4, 3))


def _psd_sample_stack(
    system: PaulsenSystem, count: int, levels, rng: np.random.Generator
) -> tuple[np.ndarray, list[dict]]:
    """The samples of :func:`random_psd_system_element`, ``count`` at each
    level of ``levels`` in turn, as one ``(N, d, d)`` block stack, and the
    generator state after each level's draw.

    Each level n is one ``(count, B, 2, n, n)`` draw, as in
    :func:`random_psd_system_element`.  The blocks of all levels are then
    built by one matmul against the system basis, and their compressions to
    the algebra blocks (:attr:`PaulsenSystem._compressions`) by one more;
    each level is symmetrized and shifted in place on its ``(count, n, n,
    d, d)`` view (:func:`_level_views`).  Its samples' shift is the smallest
    eigenvalue over their symmetrized compressions, one ``eigvalsh`` per
    group of equal size ``n (r_k + n_k)``, where
    :meth:`PaulsenSystem._splits` certifies that this is the full one within
    the full solve's rounding band; otherwise one ``eigvalsh`` of the full
    ``n d``-square samples.  The samples equal the per-level ones up to
    rounding."""
    d, dim = system.ambient_dim, system.dimension
    coeffs = np.empty((count * sum(n * n for n in levels), dim), dtype=complex)
    states = []
    for n, _, level in _level_views(coeffs, count, levels):
        level.real, level.imag = rng.standard_normal((count, dim, 2, n, n)).transpose(2, 0, 3, 4, 1)
        states.append(rng.bit_generator.state)
    x = (coeffs @ system._basis_stack.reshape(dim, d * d)).reshape(-1, d, d)
    form = system._compressions
    compressed = coeffs @ form.stack
    del coeffs
    views = zip(_level_views(x, count, levels), _level_views(compressed, count, levels))
    for (n, _, level), (_, _, parts) in views:
        level += _adjoint_blocks(level)
        level /= 2.0
        if system._splits(n):
            lam = form.smallest_eigenvalues(parts)
        else:
            lam = np.linalg.eigvalsh(_block_matrices(level))[:, 0]
        diagonal = np.einsum("siiaa->sia", level)  # a writable view
        diagonal -= lam[:, None, None]
    return x, states


def is_cp_system_map(
    sm: SystemMap,
    tol: ToleranceProfile = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    samples: int = 20,
    max_level: int = 3,
) -> SemiPhiReport:
    """CP verdict for a corner-structured map, via the equivalence with the
    Gram criterion for its module part.

    On a positive verdict, ``samples`` random PSD system elements at each
    level up to ``max_level`` are pushed through the amplified map and
    asserted PSD (a falsification layer for the equivalence, not the
    decision procedure); 0 for either draws nothing, and a negative value
    raises ``ValueError``.  Each level ``n`` is one ``(samples, B, 2, n, n)``
    draw (see :func:`random_psd_system_element`); the samples of all levels
    are built as one block stack (:func:`_psd_sample_stack`, which takes
    each level's shifts from the samples' per-block compressions where the
    module's row form certifies the split) and mapped by
    one :meth:`SystemMap._apply_stack`, whose rejections and non-finite
    images are flagged in one pass.  Then each level in turn is checked on
    its ``(samples, n, n, d, d)`` view of the images as
    :func:`~semiphi.numerics.is_psd` checks its input: hermitian defect,
    symmetrization, one eigenvalue-only solve of the whole images (the
    compressions serve only the samples' shifts).  The first failing sample in
    draw order raises for its first failing test: :meth:`SystemMap.apply_n`'s,
    :func:`~semiphi.numerics.is_psd`'s, then :class:`SelfCheckError`.  The
    generator is then at the end of that level's draw, as if no later level
    had been drawn.
    """
    for name, value in (("samples", samples), ("max_level", max_level)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    report = is_completely_semi_phi(sm.module_map, sm.cp_map, tol)
    if not (report.ok and rng is not None and samples > 0 and max_level > 0):
        return report
    levels = range(1, max_level + 1)
    blocks, states = _psd_sample_stack(sm.domain, samples, levels, rng)
    images, failures = sm._apply_stack(blocks[:, None, None], tol)
    del blocks
    rejected = np.stack([flags for flags, _ in failures], axis=1).any(axis=1)
    # A non-finite block is zeroed before any eigen-solve, as is_psd would
    # reject its matrix before solving.
    finite = np.isfinite(images).all(axis=(-2, -1))
    images[~finite] = 0.0
    scale_tol, d = _sampling_tol(tol), sm.codomain.ambient_dim
    for (n, start, level), state in zip(_level_views(images, samples, levels), states):
        stop = start + samples * n * n
        adjoints = _adjoint_blocks(level)
        defect = _frobenius_norms((level - adjoints).reshape(samples, -1, d))
        not_hermitian = defect > scale_tol.threshold(_frobenius_norms(level.reshape(samples, -1, d)))
        level += adjoints
        level /= 2.0
        del adjoints
        ok, lam = _psd_eigvalsh(_block_matrices(level), scale_tol)
        checks = [
            # A rejected sample raises for its first failing block.
            (rejected[start:stop].reshape(samples, -1).any(axis=1),
             lambda s: _first_failure(failures, start + s * n * n, start + (s + 1) * n * n)[1]),
            (~finite[start:stop].reshape(samples, -1).all(axis=1), lambda s: ValueError(_NOT_FINITE)),
            (not_hermitian, lambda s: _not_hermitian(defect[s])),
            (~ok, lambda s: SelfCheckError(
                f"positive verdict refuted by PSD sampling (level {n}, lambda_min {lam[s]:.3e})"
            )),
        ]
        if (hit := _first_failure(checks)) is not None:
            rng.bit_generator.state = state
            raise hit[1]
    return report


@dataclass(frozen=True)
class CornerReport:
    """Corner-preservation verdict with the offending entries.

    ``violations`` lists ``(part, (row, col), magnitude)`` for every image
    entry escaping its structural part; ``corner_image_entries`` records the
    support of the corner units' images as evidence of where the corner went.
    """

    ok: bool
    violations: tuple[tuple[str, tuple[int, int], float], ...]
    corner_image_entries: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def is_corner_preserving(
    unit_images,
    layout_in: tuple[int, int],
    layout_out: tuple[int, int],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> CornerReport:
    """Check that each structural part maps into its counterpart.

    ``unit_images`` gives the image of every matrix unit of the domain
    ambient, row-major.  The structural generators are the scalar block sum,
    the corner units, the adjoint-corner units, and the diagonal units; the
    scalar generator must additionally map to a multiple of the codomain
    scalar.  Each generator's image is read off the ``(d_in, d_in, d_out,
    d_out)`` stack of unit images, and each output entry belongs to one
    part: ``2*(row >= p_out) + (col >= p_out)`` numbers the scalar block,
    the corner, the adjoint corner and the diagonal block.
    """
    p_in, q_in = layout_in
    p_out, q_out = layout_out
    d_in, d_out = p_in + q_in, p_out + q_out
    images = [as_matrix(m) for m in unit_images]
    if len(images) != d_in * d_in:
        raise ShapeError(f"need {d_in * d_in} unit images")
    if any(m.shape != (d_out, d_out) for m in images):
        raise ShapeError(f"unit images must be {d_out}x{d_out}")
    # An empty domain has no unit images, and no generator escapes its part.
    cutoff = tol.threshold(max(max((float(np.linalg.norm(m)) for m in images), default=0.0), 1.0))
    stack = np.array(images).reshape(d_in, d_in, d_out, d_out)
    scalar = stack[range(p_in), range(p_in)].sum(axis=0)
    # The scalar image's defect from a multiple of the codomain scalar, which
    # may sit in no part.
    top = scalar[:p_out, :p_out]
    pattern = np.zeros_like(scalar)
    pattern[:p_out, :p_out] = top - (np.trace(top) / p_out if p_out else 0.0) * np.eye(p_out)
    corners = stack[:p_in, p_in:].reshape(p_in * q_in, d_out, d_out)
    adjoints = stack[p_in:, :p_in].transpose(1, 0, 2, 3).reshape(p_in * q_in, d_out, d_out)
    generators = np.concatenate([
        scalar[None], pattern[None],
        np.stack([corners, adjoints], axis=1).reshape(2 * p_in * q_in, d_out, d_out),
        stack[p_in:, p_in:].reshape(q_in * q_in, d_out, d_out),
    ])
    names = ["scalar", "scalar"] + ["corner", "adjoint_corner"] * (p_in * q_in) + ["diagonal"] * (q_in * q_in)
    parts = np.array([0, -1] + [1, 2] * (p_in * q_in) + [3] * (q_in * q_in))
    outer = np.arange(d_out) >= p_out
    escaped = (np.abs(generators) > cutoff) & (2 * outer[:, None] + outer != parts[:, None, None])
    violations = tuple(
        (names[g], (r, c), float(abs(generators[g, r, c]))) for g, r, c in zip(*map(np.ndarray.tolist, np.nonzero(escaped)))
    )
    _, rows, cols = np.nonzero(np.abs(corners) > cutoff)
    return CornerReport(not violations, violations, tuple(dict.fromkeys(zip(rows.tolist(), cols.tolist()))))


def example_3_4_map(h_dim: int) -> CPMap:
    """The displayed shuffle assignment from 2x2 blocks of ``h x h`` into
    4x4 blocks, on ``M_2h``: unital, completely positive, and not
    corner-preserving.  Its Kraus operators select the blocks it moves."""
    if h_dim < 1:
        raise ValueError("h_dim must be >= 1")
    eye, zero = np.eye(h_dim), np.zeros((h_dim, h_dim))
    ops = [
        np.block([[eye, zero], [zero, zero], [zero, zero], [zero, eye]]),
        np.block([[zero, zero], [zero, eye], [zero, zero], [zero, zero]]),
        np.block([[zero, zero], [zero, zero], [eye, zero], [zero, zero]]),
    ]
    return from_kraus(BlockAlgebra((2 * h_dim,)), ops)


def _cp_restriction_defect(psi: CPMap, phi: CPMap, embedding: BlockEmbedding) -> float:
    """Largest Frobenius norm of ``psi(iota(u)) - phi(u)`` over the matrix
    units ``u`` of ``phi``'s domain, ``iota`` the embedding: zero when
    ``psi`` extends ``phi`` along it."""
    images = np.stack([psi.apply_ambient(embedding.embed(u)) for u in phi.domain.matrix_units()])
    return _largest_norm(images - phi._value_stack)


def injectivity_demo(
    g: ConcreteModule,
    f: ConcreteModule,
    embedding: BlockEmbedding,
    phi_map: ModuleMap,
    phi: CPMap,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> tuple[ModuleMap, CPMap]:
    """Extend a morphism along a containment, demonstrating injectivity of
    column-module targets.

    The CP part is extended by pulling back through the embedding's
    compression and pinch, and checked to restrict to ``phi`` (see
    :func:`_cp_restriction_defect`) before the engine extends the module
    part.  The engine checks that the pair is a morphism on a submodule of
    ``f``; its input errors are raised as :class:`PreconditionError`.  The
    returned pair restricts to the input morphism on the embedded submodule;
    a pair that does not raises :class:`SelfCheckError`.
    """
    if not is_contained_pair(g, f, embedding, tol):
        raise PreconditionError("the declared containment does not hold")
    if not np.array_equal(phi_map.domain._basis_stack, g._basis_stack):
        raise PreconditionError("the module map must be defined on the contained module")

    big_algebra = f.algebra
    psi_values = tuple(
        phi.apply_ambient(pinch(phi.domain, embedding.compress(u)))
        for u in big_algebra.matrix_units()
    )
    psi = CPMap(big_algebra, phi.target_dim, psi_values)
    defect = _cp_restriction_defect(psi, phi, embedding)
    if defect > _construction_threshold(tol, _largest_norm(phi._value_stack)):
        raise SelfCheckError(f"extended CP map does not restrict to the input map (defect {defect:.3e})")

    lifted = ModuleMap(embed_module(g, embedding), phi_map.h1_dim, phi_map.h2_dim, phi_map.values)
    try:
        result = extend_semi_phi(lifted, f, psi, tol)
    except ExtensionInputError as err:
        raise PreconditionError(str(err)) from None
    # The engine's restriction defect is over the embedded basis and these values.
    if result.report.restriction_defect > _construction_threshold(tol, 1.0):
        raise SelfCheckError("extension failed to restrict to the input morphism")
    return result.phi_prime, psi
