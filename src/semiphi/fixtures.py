"""Reproducible fixtures: the paper-style worked examples at parametric size
and seeded random generators for modules, submodules, and CP maps.

Random modules are built from mutually orthogonal column subspaces, one per
algebra block: a subspace of ``p x q`` matrices is closed under the right
block-algebra action exactly when its block-column pieces have the form
``{columns in V_i}``, and the inner products land in the algebra exactly
when the ``V_i`` are mutually orthogonal.  Submodules are then subspaces
``U_i <= V_i`` and the orthogonal complement is the blockwise complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BlockAlgebra
from .cpmaps import CPMap, from_kraus, identity_cp_map
from .extension import ModuleMap, ksgns
from .modules import BlockEmbedding, ConcreteModule
from .numerics import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "ExtensionFixture",
    "ContainmentFixture",
    "example_2_1",
    "scalar_fixture",
    "compacts_fixture",
    "random_block_algebra",
    "random_orthogonal_module_pair",
    "random_cp_map",
    "random_contraction",
    "random_semi_phi_fixture",
    "random_violating_module_map",
    "random_vanishing_obstruction_fixture",
    "random_containment_fixture",
]


@dataclass(eq=False)
class ExtensionFixture:
    """A complete extension problem: ambient module, submodule, CP map, and
    the map to extend."""

    e: ConcreteModule
    f: ConcreteModule
    phi: CPMap
    phi_map: ModuleMap


def _column_module(
    algebra: BlockAlgebra, p: int, subspaces: list[np.ndarray]
) -> ConcreteModule:
    """Module with block-i part {matrices whose columns lie in subspaces[i]}."""
    basis = []
    for sl, v in zip(algebra.block_slices(), subspaces):
        for k in range(v.shape[1]):
            for c in range(sl.start, sl.stop):
                mat = np.zeros((p, algebra.ambient_dim), dtype=complex)
                mat[:, c] = v[:, k]
                basis.append(mat)
    return ConcreteModule(algebra, p, tuple(basis))


def example_2_1(n: int) -> ExtensionFixture:
    """Two stacked copies of the full matrix algebra as a module over one
    copy, with the top-corner projection as the map to extend.

    The ambient module is all of ``M_{2n x n}`` over ``M_n``; the submodule
    keeps the top half; the CP map is the identity inclusion; the map sends
    the top block to itself.  Its unique semi-compatible extension is the
    extension-by-zero, which is not exactly compatible on the whole module,
    and the obstruction norm is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    algebra = BlockAlgebra((n,))
    p = 2 * n
    eye_p = np.eye(p, dtype=complex)
    full = _column_module(algebra, p, [eye_p])
    sub = _column_module(algebra, p, [eye_p[:, :n]])
    phi = identity_cp_map(algebra)
    # The units E_ic of M_n, c fast: the submodule basis order.
    phi_map = ModuleMap(sub, n, n, tuple(_units(n)))
    return ExtensionFixture(full, sub, phi, phi_map)


def _units(n: int) -> np.ndarray:
    """The matrix units of ``M_n`` as an ``(n*n, n, n)`` stack, row-major."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def scalar_fixture(c: complex) -> tuple[ModuleMap, CPMap]:
    """Multiplication by a scalar on the one-dimensional module over the
    scalars, against the identity: semi-compatible iff ``|c| <= 1``."""
    algebra = BlockAlgebra((1,))
    e = ConcreteModule(algebra, 1, (np.array([[1.0]], dtype=complex),))
    phi = identity_cp_map(algebra)
    phi_map = ModuleMap(e, 1, 1, (np.array([[c]], dtype=complex),))
    return phi_map, phi


def compacts_fixture(n: int) -> ExtensionFixture:
    """Two-block fixture where the CP map kills the second block.

    Ambient module: block-1 columns span the first ``n`` coordinates and
    block-2 columns the last ``n``; the submodule is the block-1 part, so
    the obstruction vanishes and the extension-by-zero is the unique exactly
    compatible extension.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    algebra = BlockAlgebra((n, n))
    p = 2 * n
    eye_p = np.eye(p, dtype=complex)
    e = _column_module(algebra, p, [eye_p[:, :n], eye_p[:, n:]])
    f = _column_module(algebra, p, [eye_p[:, :n], eye_p[:, :0]])
    # The first block's units come first and map to themselves; the second
    # block's map to zero.
    units = _units(n)
    phi = CPMap(algebra, n, tuple(np.concatenate([units, np.zeros_like(units)])))
    phi_map = ModuleMap(f, n, n, tuple(units))
    return ExtensionFixture(e, f, phi, phi_map)


def random_block_algebra(rng: np.random.Generator, max_q: int = 4) -> BlockAlgebra:
    q = int(rng.integers(1, max_q + 1))
    blocks = []
    while q > 0:
        b = int(rng.integers(1, q + 1))
        blocks.append(b)
        q -= b
    return BlockAlgebra(tuple(blocks))


def _random_unitary(p: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonal_module_pair(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    p: int | None = None,
    max_dim: int = 4,
) -> tuple[ConcreteModule, ConcreteModule]:
    """A random valid module and a random submodule of it.

    Column subspaces per block are drawn from the columns of one random
    unitary, so they are automatically mutually orthogonal.
    """
    nblocks = len(algebra.blocks)
    if p is None:
        p = int(rng.integers(nblocks, nblocks + 3))
    u = _random_unitary(p, rng)
    # Distribute column-subspace dimensions so the total module dimension
    # sum(d_i * n_i) stays within max_dim, with at least one nonzero piece.
    dims = [0] * nblocks
    budget_cols = p
    for _ in range(64):
        i = int(rng.integers(nblocks))
        if dims[i] + 1 > budget_cols:
            continue
        extra = algebra.blocks[i]
        if sum(d * n for d, n in zip(dims, algebra.blocks)) + extra > max_dim:
            continue
        dims[i] += 1
        budget_cols -= 1
        if rng.random() < 0.35 and any(dims):
            break
    if not any(dims):
        dims[int(np.argmin(algebra.blocks))] = 1
    subspaces, offset = [], 0
    for d in dims:
        subspaces.append(u[:, offset : offset + d])
        offset += d
    e = _column_module(algebra, p, subspaces)
    sub_dims = [int(rng.integers(0, d + 1)) for d in dims]
    sub_spaces = [v[:, :sd] for v, sd in zip(subspaces, sub_dims)]
    f = _column_module(algebra, p, sub_spaces)
    return e, f


def random_cp_map(
    algebra: BlockAlgebra,
    target_dim: int,
    rank: int,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> CPMap:
    """CP by construction: built from ``rank`` random Kraus operators."""
    q = algebra.ambient_dim
    ops = [
        scale * (rng.standard_normal((target_dim, q)) + 1j * rng.standard_normal((target_dim, q)))
        / np.sqrt(2.0 * q * max(rank, 1))
        for _ in range(rank)
    ]
    return from_kraus(algebra, ops, target_dim=target_dim)


def random_contraction(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    norm = np.linalg.norm(z, 2) if z.size else 1.0
    if norm == 0.0:
        return z
    return z * (rng.uniform(0.2, 1.0) / norm)


def random_semi_phi_fixture(
    rng: np.random.Generator,
    max_q: int = 4,
    max_dim: int = 4,
    max_target: int = 3,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ExtensionFixture:
    """Extension problem whose map satisfies the semi criterion by design:
    a random contraction composed with the universal map on the submodule."""
    algebra = random_block_algebra(rng, max_q)
    e, f = random_orthogonal_module_pair(algebra, rng, max_dim=max_dim)
    m = int(rng.integers(1, max_target + 1))
    k = int(rng.integers(1, max_target + 1))
    rank = int(rng.integers(1, 3))
    phi = random_cp_map(algebra, m, rank, rng)
    universal = ksgns(phi, f, tol).map
    c = random_contraction(k, universal.h2_dim, rng)
    values = tuple(c @ v for v in universal.values)
    phi_map = ModuleMap(f, m, k, values)
    return ExtensionFixture(e, f, phi, phi_map)


def random_vanishing_obstruction_fixture(
    rng: np.random.Generator,
    max_q: int = 4,
    max_dim: int = 4,
    max_target: int = 3,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ExtensionFixture:
    """Extension problem with an exactly compatible input map and a vanishing
    obstruction.

    The submodule keeps whole block components of the ambient module and the
    CP map is built from Kraus operators with zero columns on the dropped
    blocks, so inner products against the orthogonal complement are killed
    exactly.  The map to extend is the universal map on the submodule, hence
    exactly compatible and non-degenerate.
    """
    algebra = random_block_algebra(rng, max_q)
    nblocks = len(algebra.blocks)
    p = int(rng.integers(nblocks, nblocks + 3))
    u = _random_unitary(p, rng)
    dims = [0] * nblocks
    budget_cols = p
    for _ in range(64):
        i = int(rng.integers(nblocks))
        if dims[i] + 1 > budget_cols:
            continue
        if sum(d * n for d, n in zip(dims, algebra.blocks)) + algebra.blocks[i] > max_dim:
            continue
        dims[i] += 1
        budget_cols -= 1
    if not any(dims):
        dims[int(np.argmin(algebra.blocks))] = 1
    subspaces, offset = [], 0
    for d in dims:
        subspaces.append(u[:, offset : offset + d])
        offset += d
    e = _column_module(algebra, p, subspaces)
    kept = [bool(rng.integers(2)) for _ in range(nblocks)]
    if not any(k and d for k, d in zip(kept, dims)):
        # Keep at least one populated block so the submodule is nonzero.
        populated = [i for i, d in enumerate(dims) if d]
        kept[populated[int(rng.integers(len(populated)))]] = True
    f_spaces = [v if k else v[:, :0] for v, k in zip(subspaces, kept)]
    f = _column_module(algebra, p, f_spaces)
    m = int(rng.integers(1, max_target + 1))
    rank = int(rng.integers(1, 3))
    q = algebra.ambient_dim
    ops = []
    for _ in range(rank):
        k_op = (
            rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))
        ) / np.sqrt(2.0 * q * rank)
        for sl, keep in zip(algebra.block_slices(), kept):
            if not keep:
                k_op[:, sl] = 0.0
        ops.append(k_op)
    phi = from_kraus(algebra, ops, target_dim=m)
    phi_map = ksgns(phi, f, tol).map
    return ExtensionFixture(e, f, phi, phi_map)


@dataclass(eq=False)
class ContainmentFixture:
    """A containment of module/algebra pairs plus a morphism on the smaller
    pair, ready for extension along the containment."""

    g: ConcreteModule
    f: ConcreteModule
    embedding: BlockEmbedding
    phi: CPMap
    phi_map: ModuleMap


def random_containment_fixture(
    rng: np.random.Generator,
    target_rows: int,
    max_q: int = 4,
    max_dim: int = 4,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ContainmentFixture:
    """Random containment pair with a morphism into column vectors over the
    scalars.

    The bigger algebra is random; the smaller one takes a subset of its
    blocks whole, so the embedded module stays closed under the bigger
    algebra's action.  The morphism is a contraction composed with the
    universal map, with scalar-valued CP part.
    """
    big = random_block_algebra(rng, max_q)
    nblocks = len(big.blocks)
    chosen = sorted(rng.choice(nblocks, size=int(rng.integers(1, nblocks + 1)), replace=False).tolist())
    small = BlockAlgebra(tuple(big.blocks[i] for i in chosen))
    big_slices = big.block_slices()
    embedding = BlockEmbedding(small, big, tuple(big_slices[i].start for i in chosen))

    f_mod, sub = random_orthogonal_module_pair(big, rng, max_dim=max_dim)
    j = embedding.column_map()
    # Keep the submodule basis elements supported on the chosen blocks and
    # view them over the smaller algebra.
    kept_cols = [c for i in chosen for c in range(big_slices[i].start, big_slices[i].stop)]
    g_basis = []
    for b in sub.basis:
        support = [c for c in range(big.ambient_dim) if np.linalg.norm(b[:, c]) > 1e-12]
        if support and all(c in kept_cols for c in support):
            g_basis.append(b @ j)
    g = ConcreteModule(small, f_mod.row_dim, tuple(g_basis))

    phi = random_cp_map(small, 1, int(rng.integers(1, 3)), rng)
    universal = ksgns(phi, g, tol).map
    c = random_contraction(target_rows, universal.h2_dim, rng)
    values = tuple(c @ v for v in universal.values)
    phi_map = ModuleMap(g, 1, target_rows, values)
    return ContainmentFixture(g, f_mod, embedding, phi, phi_map)


def random_violating_module_map(
    fixture: ExtensionFixture, rng: np.random.Generator
) -> ModuleMap:
    """Scale the fixture's map past the contraction regime.

    The scale doubles until the semi criterion is refuted, so the result
    violates it whenever the map is nonzero; for a zero map (degenerate
    fixture) the scaled map is returned unchanged and still satisfies.
    """
    from .extension import is_completely_semi_phi

    base = fixture.phi_map
    s = float(rng.uniform(1.5, 3.0))
    for _ in range(12):
        values = tuple(s * v for v in base.values)
        candidate = ModuleMap(base.domain, base.h1_dim, base.h2_dim, values)
        if not is_completely_semi_phi(candidate, fixture.phi).ok:
            return candidate
        s *= 2.0
    return candidate
