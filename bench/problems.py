"""Seeded, size-parametric problem generator with known answers.

Every problem is built from column modules: over ``BlockAlgebra(blocks)``
the module whose block-``i`` part is ``{p x q matrices with block-i columns
in V_i, zero elsewhere}`` is closed under the right action, and its inner
products land in the algebra when the ``V_i`` are mutually orthogonal (they
are drawn from the columns of one random unitary).

The known answers come from the construction, not from the library:

* semi: a contraction (operator norm in [0.3, 0.9]) composed with the
  universal map ``ksgns(phi, F)`` satisfies the semi criterion, and is not
  exactly compatible;
* refuted: the same composition with an operator of norm in [1.5, 3]
  violates it, because the universal map is non-degenerate;
* exact: when ``F`` keeps whole block components of ``E`` and the Kraus
  operators have zero columns on the dropped blocks, ``phi`` kills every
  inner product against the complement, so the obstruction vanishes, and
  the universal map itself is exactly compatible.

Problems are plain numpy arrays; requests rebuild the library objects from
them so that no cached state carries over from one request to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import semiphi
from semiphi import serialization as ser


@dataclass(frozen=True)
class Problem:
    blocks: tuple[int, ...]
    p: int
    e_basis: np.ndarray  # (dim E, p, q)
    f_basis: np.ndarray  # (dim F, p, q)
    f_in_e: np.ndarray  # (dim F, dim E): f_j = sum_i f_in_e[j, i] e_i
    kraus: np.ndarray  # (r, m, q); phi(a) = sum_t K_t a K_t*
    phi_values: np.ndarray  # (dim A, m, m), values on the matrix units
    universal: np.ndarray  # (dim F, d_H, m), the KSGNS map on F
    semi: np.ndarray  # (dim F, k, m), contraction o universal
    refuted: np.ndarray  # (dim F, k, m), expansion o universal
    exact: bool  # F keeps whole blocks and phi kills the dropped ones

    @property
    def q(self) -> int:
        return sum(self.blocks)

    @property
    def m(self) -> int:
        return self.kraus.shape[1]

    @property
    def extend_values(self) -> np.ndarray:
        """The map handed to the extension engine: exact or semi branch."""
        return self.universal if self.exact else self.semi


def unit_pairs(blocks) -> list[tuple[int, int]]:
    """Matrix-unit positions, block-major then row-major (the wire order)."""
    pairs, off = [], 0
    for n in blocks:
        pairs += [(off + i, off + j) for i in range(n) for j in range(n)]
        off += n
    return pairs


def block_slices(blocks) -> list[slice]:
    out, off = [], 0
    for n in blocks:
        out.append(slice(off, off + n))
        off += n
    return out


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _scaled(rows: int, cols: int, norm: float, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z * (norm / np.linalg.norm(z, 2))


def column_basis(blocks, p: int, subspaces) -> np.ndarray:
    """Basis of the column module: for each block, each subspace vector, each
    block column (the order of ``fixtures._column_module``)."""
    q = sum(blocks)
    basis = []
    for sl, v in zip(block_slices(blocks), subspaces):
        for k in range(v.shape[1]):
            for c in range(sl.start, sl.stop):
                mat = np.zeros((p, q), dtype=complex)
                mat[:, c] = v[:, k]
                basis.append(mat)
    return np.array(basis).reshape(len(basis), p, q)


def make_problem(
    rng: np.random.Generator,
    blocks: tuple[int, ...],
    e_cols: tuple[int, ...],
    f_cols: tuple[int, ...],
    p: int,
    m: int,
    k: int,
    rank: int,
    exact: bool,
) -> Problem:
    """One extension problem; ``e_cols``/``f_cols`` are the column-subspace
    dimensions per block of E and F (dim = sum cols_i * n_i).

    With ``exact`` the submodule must keep blocks whole or drop them
    (``f_cols[i]`` in ``{0, e_cols[i]}``) and the Kraus operators vanish on
    the dropped blocks.  Otherwise F's subspaces are random subspaces of E's.
    """
    q = sum(blocks)
    u = _unitary(p, rng)
    offset, e_spaces, f_spaces, f_in_e_blocks = 0, [], [], []
    for n, ec, fc in zip(blocks, e_cols, f_cols):
        v = u[:, offset : offset + ec]
        offset += ec
        if exact:
            if fc not in (0, ec):
                raise ValueError("the exact branch keeps or drops whole blocks")
            w = np.eye(ec, dtype=complex)[:, :fc]
        else:
            w = _unitary(ec, rng)[:, :fc] if ec else np.zeros((0, 0), dtype=complex)
        e_spaces.append(v)
        f_spaces.append(v @ w)
        # f element (vector u, column c) = sum_k w[k, u] * e element (k, c).
        f_in_e_blocks.append(np.kron(w.T, np.eye(n)))
    e_basis = column_basis(blocks, p, e_spaces)
    f_basis = column_basis(blocks, p, f_spaces)
    f_in_e = np.zeros((len(f_basis), len(e_basis)), dtype=complex)
    row = col = 0
    for blk in f_in_e_blocks:
        f_in_e[row : row + blk.shape[0], col : col + blk.shape[1]] = blk
        row, col = row + blk.shape[0], col + blk.shape[1]

    kraus = (
        rng.standard_normal((rank, m, q)) + 1j * rng.standard_normal((rank, m, q))
    ) / np.sqrt(2.0 * q * rank)
    if exact:
        for sl, fc in zip(block_slices(blocks), f_cols):
            if fc == 0:
                kraus[:, :, sl] = 0.0
    phi_values = np.array(
        [np.einsum("ta,tb->ab", kraus[:, :, i], kraus[:, :, j].conj()) for i, j in unit_pairs(blocks)]
    )

    algebra = semiphi.BlockAlgebra(blocks)
    f_mod = semiphi.ConcreteModule(algebra, p, tuple(f_basis))
    phi = semiphi.CPMap(algebra, m, tuple(phi_values))
    universal = np.array(semiphi.ksgns(phi, f_mod).map.values)
    d_h = universal.shape[1]
    semi = _scaled(k, d_h, rng.uniform(0.3, 0.9), rng) @ universal
    refuted = _scaled(k, d_h, rng.uniform(1.5, 3.0), rng) @ universal
    return Problem(
        blocks, p, e_basis, f_basis, f_in_e, kraus, phi_values, universal, semi, refuted, exact
    )


# ---------------------------------------------------------------------------
# Library objects, rebuilt per request.


def algebra(pr: Problem):
    return semiphi.BlockAlgebra(pr.blocks)


def cp_map(pr: Problem):
    return semiphi.CPMap(algebra(pr), pr.m, tuple(pr.phi_values))


def module(pr: Problem, basis: np.ndarray):
    return semiphi.ConcreteModule(algebra(pr), pr.p, tuple(basis))


def module_map(pr: Problem, values: np.ndarray, domain=None):
    domain = module(pr, pr.f_basis) if domain is None else domain
    return semiphi.ModuleMap(domain, values.shape[2], values.shape[1], tuple(values))


def codomain_module(k: int, m: int):
    """All ``k x m`` matrices as a module over ``M_m``: the range module of a
    map with ``k x m`` values, for the Paulsen block map."""
    basis = []
    for a in range(k):
        for b in range(m):
            unit = np.zeros((k, m), dtype=complex)
            unit[a, b] = 1.0
            basis.append(unit)
    return semiphi.ConcreteModule(semiphi.BlockAlgebra((m,)), k, tuple(basis))


def problem_json(pr: Problem, values: np.ndarray) -> dict:
    """Schema-v1 document holding every payload key the commands read."""
    f_mod = module(pr, pr.f_basis)
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "kind": "benchmark",
        "payload": {
            "phi": ser.cp_map_to_json(cp_map(pr)),
            "Phi": ser.module_map_to_json(module_map(pr, values, f_mod)),
            "E": ser.module_to_json(module(pr, pr.e_basis)),
            "F": ser.module_to_json(f_mod),
            "codomain_module": ser.module_to_json(codomain_module(values.shape[1], pr.m)),
        },
    }
