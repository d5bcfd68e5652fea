"""Shared helpers: a brute-force sampler for the level-n operator inequality,
the whole carrier space of the carrier-map oracles and small builders used
across test files."""

import numpy as np
import pytest

from semiphi import BlockAlgebra, ConcreteModule, ModuleMap, identity_cp_map
from semiphi.fixtures import _column_module, _random_unitary, random_contraction, random_cp_map
from semiphi.modules import inner_product_matrix
from semiphi.numerics import DEFAULT_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def full_rectangular_module(rows: int, cols: int) -> ConcreteModule:
    """All of M_{rows x cols} as a module over the full matrix algebra."""
    algebra = BlockAlgebra((cols,))
    basis = []
    for i in range(rows):
        for j in range(cols):
            b = np.zeros((rows, cols), dtype=complex)
            b[i, j] = 1.0
            basis.append(b)
    return ConcreteModule(algebra, rows, tuple(basis))


def sampled_level_violation(phi_map, phi, rng, levels=(1, 2, 3), samples=50):
    """Brute-force probe of the level-n operator inequality.

    Draws random elements of the n x n matrix module (by coefficients over
    the domain basis), evaluates both sides of the inequality directly, and
    returns the largest eigenvalue excess found (positive means refuted).
    Independent of the Gram-matrix route: sides are assembled from the map
    values and fresh inner products.
    """
    basis = phi_map.domain.basis
    d, m, k = len(basis), phi_map.h1_dim, phi_map.h2_dim
    if d == 0:
        return 0.0
    v_stack = np.stack(phi_map.values)  # (d, k, m)
    p_blocks = np.stack(
        [
            [phi.apply_ambient(inner_product_matrix(basis[i], basis[j])) for j in range(d)]
            for i in range(d)
        ]
    )  # (d, d, m, m)
    worst = 0.0
    for n in levels:
        for _ in range(samples):
            c = rng.standard_normal((n, n, d)) + 1j * rng.standard_normal((n, n, d))
            # Phi_n(x): block (u, v) = sum_i c[u, v, i] * Phi(basis_i)
            amp = np.einsum("uvi,ikm->ukvm", c, v_stack).reshape(n * k, n * m)
            lhs = amp.conj().T @ amp
            rhs = np.einsum("wui,wvj,ijab->uavb", c.conj(), c, p_blocks).reshape(
                n * m, n * m
            )
            diff = lhs - rhs
            diff = (diff + diff.conj().T) / 2.0
            excess = float(np.linalg.eigvalsh(diff)[-1])
            worst = max(worst, excess)
    return worst


def full_dilation(phi, tol=DEFAULT_TOL):
    """``V`` (``q r x m``, rows ``(i, t)``) from one ``eigh`` of the whole
    symmetrized Choi matrix, its eigenvalues cut in units of the largest."""
    q, m = phi.domain.ambient_dim, phi.target_dim
    choi = np.zeros((q * m, q * m), dtype=complex)
    for (i, j), value in zip(phi.domain.unit_index_pairs(), phi.values):
        choi[i * m : (i + 1) * m, j * m : (j + 1) * m] = value
    lam, vecs = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    top = lam.max(initial=0.0)
    keep = lam > tol.bounded_threshold(top, top)
    vectors = vecs[:, keep] * np.sqrt(lam[keep])  # choi = sum_t w_t w_t*
    r = vectors.shape[1]
    return np.conj(vectors.reshape(q, m, r).transpose(0, 2, 1)).reshape(q * r, m), r


def full_carrier(basis, v, r):
    """The ``(dim, p r, m)`` carrier values ``(x (x) I_r) V``, one ``np.kron``
    per basis element."""
    p, m = basis.shape[1], v.shape[1]
    return np.array([np.kron(x, np.eye(r)) @ v for x in basis]).reshape(len(basis), p * r, m)


def universal_contraction(phi, f, k, rng):
    """A random contraction of the universal map on ``f``: semi-compatible."""
    v, r = full_dilation(phi)
    c_f = full_carrier(f._basis_stack, v, r)
    cols = c_f.transpose(1, 0, 2).reshape(c_f.shape[1], f.dim * phi.target_dim)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    onb = u[:, s > 1e-10 * s.max(initial=0.0)]
    return ModuleMap(f, phi.target_dim, k, tuple(random_contraction(k, onb.shape[1], rng) @ onb.conj().T @ c_f))


def block_case(name):
    """``(phi_map, e, phi)``, a semi-compatible map on a submodule of ``e``,
    whose carrier map on ``e`` is shaped as ``name``."""
    rng = np.random.default_rng(31)
    if name == "block_without_columns":
        # E has no column in the middle block of (2, 1, 2).
        algebra, p = BlockAlgebra((2, 1, 2)), 4
        u = _random_unitary(p, rng)
        e = _column_module(algebra, p, [u[:, :2], u[:, 2:2], u[:, 2:4]])
        f = _column_module(algebra, p, [u[:, :1], u[:, 2:2], u[:, 2:4]])
        phi = random_cp_map(algebra, 3, 2, rng)
        return universal_contraction(phi, f, 2, rng), e, phi
    if name == "tall_block":
        # p = 9 rows against dim E * width = 2 * 3 = 6 columns of the block.
        algebra, p = BlockAlgebra((3,)), 9
        u = _random_unitary(p, rng)
        e = _column_module(algebra, p, [u[:, :2]])
        f = _column_module(algebra, p, [u[:, :1]])
        phi = random_cp_map(algebra, 2, 3, rng)
        return universal_contraction(phi, f, 2, rng), e, phi
    if name == "ties_across_blocks":
        # identity_cp_map over (2, 2): equal Choi eigenvalues in both blocks.
        algebra, p = BlockAlgebra((2, 2)), 4
        u = _random_unitary(p, rng)
        e = _column_module(algebra, p, [u[:, :2], u[:, 2:]])
        f = _column_module(algebra, p, [u[:, :1], u[:, 2:3]])
        phi = identity_cp_map(algebra)
        return universal_contraction(phi, f, 3, rng), e, phi
    assert name == "fallback"
    e, f = fallback_modules()
    phi = random_cp_map(e.algebra, 2, 2, rng)
    return universal_contraction(phi, f, 2, rng), e, phi


def fallback_modules(eps=5e-8):
    """E spanned by the columns e_0 and e_0 + eps e_1 of C^3 over M_1, and F
    by e_0.  E's columns span C^2, but its row Gram cannot resolve eps: the
    row basis drops e_1 and leaves a residual far above rounding, so E's
    carrier map keeps all p rows.  F's columns leave the least squares well
    conditioned."""
    algebra = BlockAlgebra((1,))
    x1, x2 = np.zeros((3, 1), dtype=complex), np.zeros((3, 1), dtype=complex)
    x1[0, 0] = x2[0, 0] = 1.0
    x2[1, 0] = eps
    return ConcreteModule(algebra, 3, (x1, x2)), ConcreteModule(algebra, 3, (x1,))


def block_rows(e, phi, tol=DEFAULT_TOL):
    """``sum_k dim W_k rho_k`` from test-local ranks: of each block's basis
    columns, and of each block's Choi eigenvalues above the cut of
    :func:`full_dilation`."""
    m = phi.target_dim
    slices = phi.domain.block_slices()
    choi = np.zeros((phi.domain.ambient_dim * m,) * 2, dtype=complex)
    for (i, j), value in zip(phi.domain.unit_index_pairs(), phi.values):
        choi[i * m : (i + 1) * m, j * m : (j + 1) * m] = value
    lams = [np.linalg.eigvalsh(choi[sl.start * m : sl.stop * m, sl.start * m : sl.stop * m]) for sl in slices]
    top = max(lam.max(initial=0.0) for lam in lams)
    total = 0
    for lam, sl in zip(lams, slices):
        y = e._basis_stack[:, :, sl].transpose(1, 0, 2).reshape(e.row_dim, e.dim * (sl.stop - sl.start))
        rank = np.linalg.matrix_rank(y) if y.size else 0
        total += rank * int(np.count_nonzero(lam > tol.bounded_threshold(top, top)))
    return total
