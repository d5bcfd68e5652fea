"""Operator systems built from a module and its algebra, block maps between
them, corner-preservation analysis, and the injectivity demonstration.

The system of a module ``E`` (subspace of ``p x q`` matrices over an algebra
``A``) lives inside ``M_(p+q)`` and is spanned by the scalar block, the
module corner, its adjoint corner, and the diagonal algebra block.  CP-ness
of a corner-structured map is decided through the Gram criterion for its
module part, and a positive verdict is certified by an explicit CP extension
of the map to all of ``M_(p+q)`` (:func:`is_cp_system_map`); deciding CP
for arbitrary maps defined only on an operator system (an SDP feasibility
problem) is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import BlockAlgebra, pinch
from .cpmaps import CPMap, compose, from_kraus
from .extension import (
    ExtensionInputError,
    ModuleMap,
    PreconditionError,
    SemiPhiReport,
    _carrier_map,
    _contraction,
    _decide_gap,
    _dilation_carrier,
    _largest_norm,
    extend_semi_phi,
    gram_pair,
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
    _construction_threshold,
    _matrix_stack,
    _reconstruction_threshold,
    as_matrix,
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


@dataclass(eq=False)
class PaulsenSystem:
    """The smallest operator system containing a module and its algebra."""

    module: ConcreteModule
    algebra: BlockAlgebra
    basis: tuple[np.ndarray, ...]
    corner_layout: tuple[int, int]

    def __post_init__(self) -> None:
        # The basis as views of one (dimension, d, d) array.
        self.basis = tuple(_matrix_stack(self.basis, (self.ambient_dim,) * 2, "basis elements"))

    @property
    def ambient_dim(self) -> int:
        return sum(self.corner_layout)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)


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


def _raise_first(failures: list[_Check]) -> None:
    """Raise, for the first failing block in stack order, the exception of
    its first failing check in list order; return if all pass."""
    if not any(flags.any() for flags, _ in failures):
        return
    hits = np.argwhere(np.stack([flags for flags, _ in failures], axis=1))
    block, check = int(hits[0, 0]), hits[0, 1]
    raise failures[check][1](block)


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
        All ``n^2`` blocks are decomposed by one projection onto the module
        span and mapped by one matmul each against the module map's value
        stack and the CP map's ambient tensor.
        """
        arr = as_matrix(x)
        din, dout = self.domain.ambient_dim, self.codomain.ambient_dim
        if arr.shape != (n * din, n * din):
            raise ShapeError(f"expected a {n * din}x{n * din} matrix")
        n_blocks = n * n
        blocks = arr.reshape(n, din, n, din).transpose(0, 2, 1, 3).reshape(n_blocks, din, din)
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

        _raise_first(split.failures + [
            (outside[:n_blocks], membership(0)),
            (outside[n_blocks:], membership(n_blocks)),
        ])
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
        return out.reshape(n, n, dout, dout).transpose(0, 2, 1, 3).reshape(n * dout, n * dout)

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


def is_cp_system_map(
    sm: SystemMap,
    tol: ToleranceProfile = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    samples: int = 20,
    max_level: int = 3,
) -> SemiPhiReport:
    """CP verdict for a corner-structured map, via the equivalence with the
    Gram criterion for its module part, with a positive verdict certified
    by an explicit CP extension of the map to all of ``M_(p+q)``: Arveson's
    extension theorem made explicit through the Stinespring and KSGNS
    factorizations (Paulsen, *Completely Bounded Maps and Operator
    Algebras*, 2002, ch. 6-8; Lance, *Hilbert C*-Modules*, 1995, ch. 5).
    Verdict and certificate read one carrier and one QR.

    Let ``phi(a) = V* (a (x) I_r) V`` be the dilation and ``C`` the carrier
    map of the module map's domain (:func:`~semiphi.extension._carrier_map`,
    built first): ``C(x) = J* (x (x) I_r) V`` on ``c = sum_k dim W_k
    rho_k`` rows, with ``J = (+)_k U_k (x) I_{rho_k}`` the isometry from its
    block row coordinates into ``C^p (x) C^r``, whose range holds every ``(x
    (x) I_r) V``.  :func:`~semiphi.extension._decide_gap` decides the Gram
    gap on ``X = [C; B]`` (``B`` the module map's columns; from ``N = 64``
    on, :func:`~semiphi.extension._dilation_carrier`) or on the Gram pair
    (below that, or where the carrier's verdict is not clear).

    For a positive verdict, let ``S0`` be a contraction with ``S0 C(x_i) =
    Phi(x_i)`` on the basis, ``W = (J S0*) (+) V`` and ``D = (I_k - S0 S0*)
    (+) 0_m``.  Then::

        rho(Y) = W* (Y (x) I_r) W + (tr Y_11 / p) D

    (no trace term when ``p = 0``) is a compression of the *-homomorphism
    ``Y -> Y (x) I_r`` plus a state times ``D``, which is PSD when ``|S0| <=
    1``, so it is CP on all of ``M_(p+q)``; and on the system it is the map:
    ``lam (S0 S0* + I_k - S0 S0*) = lam I_k`` on the scalar block, ``S0 J*
    (x (x) I_r) V = S0 C(x) = Phi(x)`` on the corners and ``V* (a (x) I_r) V
    = phi(a)`` on the algebra.  ``J`` keeps the norm of ``S0``.  ``rho``
    itself is never formed.  ``S0`` is the least squares read off the ``R``
    of the QR of ``X*`` (the verdict's, or one taken here when the pair
    decided and ``c + k < N``), checked against the contraction bound and
    the corners' construction threshold; a failed check, or no usable
    ``R``, hands it to the one-SVD least squares of
    :func:`~semiphi.extension._contraction`, whose failed checks raise
    :class:`SelfCheckError`.  Then the dilation's reconstruction defect is
    checked at its threshold, the largest Frobenius defect against the
    threshold at the lower bound of its scale first and the exact spectral
    check only where that does not pass; a failure raises
    :class:`SelfCheckError`.

    A CP part that is not CP or fails its hermiticity check has no carrier
    map: the verdict is then :func:`is_completely_semi_phi`'s, a negative
    one is returned, and a positive one raises the dilation's
    :class:`~semiphi.cpmaps.NotCompletelyPositiveError` or
    :class:`~semiphi.numerics.HermiticityError`.  ``rng``, ``samples`` and
    ``max_level`` are not read; they remain for callers of the randomized
    PSD sampling that the certificate replaced.
    """
    phi_map, phi = sm.module_map, sm.cp_map
    try:
        carrier, dil = _carrier_map(phi, phi_map.domain, tol)
    except ValueError:
        # As when the verdict came first: an error of the carrier map (a CP
        # part that is not CP or not hermitian) stands only under a positive one.
        if (report := is_completely_semi_phi(phi_map, phi, tol)).ok:
            raise
        return report
    report = _decide_gap(lambda: _dilation_carrier(phi_map, phi, carrier, dil), lambda: gram_pair(phi_map, phi), tol)
    if not report.ok:
        return report
    columns, cols = carrier.stacked_columns(), phi_map.stacked_columns()
    if (r := report._r) is None and len(columns) + len(cols) < columns.shape[1]:
        r = np.linalg.qr(np.concatenate([columns, cols]).conj().T, mode="r")
    _contraction(columns, cols, tol, SelfCheckError, r)
    cheap = _largest_norm(dil._reconstruction_errors(phi)) <= _reconstruction_threshold(tol, phi._value_stack, exact=False)
    if not cheap and (defect := dil.reconstruction_defect(phi)) > _reconstruction_threshold(tol, phi._value_stack):
        raise SelfCheckError(f"Stinespring dilation does not reconstruct the CP map (defect {defect:.3e})")
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
