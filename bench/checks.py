"""Independent outcome checks.

These re-evaluate results with plain numpy from the generator's own data
(the Kraus operators, the bases and the coefficient map of F in E).  They
never call the library kernels under measurement, so a fast kernel that
returns wrong numbers cannot certify itself.
"""

from __future__ import annotations

import numpy as np

from problems import Problem, block_slices

# Relative slack for re-evaluated identities that hold exactly in exact
# arithmetic; far above double-precision round-off at these sizes.
REL_TOL = 1e-7


class CheckFailed(Exception):
    """A result disagrees with the known answer or its re-evaluation."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def apply_phi(pr: Problem, a: np.ndarray) -> np.ndarray:
    """``phi(a) = sum_t K_t a K_t*`` straight from the Kraus operators."""
    return np.einsum("tmq,qr,tnr->mn", pr.kraus, a, pr.kraus.conj())


def extension(pr: Problem, map_values: np.ndarray, prime_values: np.ndarray) -> None:
    """The output restricts to the input on F and satisfies the semi
    criterion ``[phi(<e_i, e_j>)] - [Phi'(e_i)* Phi'(e_j)] >= 0``."""
    expect(prime_values.shape[0] == pr.e_basis.shape[0], "extension has the wrong length")
    restricted = np.einsum("ji,ikm->jkm", pr.f_in_e, prime_values)
    defect = float(np.max(np.abs(restricted - map_values), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(map_values), initial=0.0)))
    expect(defect <= REL_TOL * scale, f"restriction defect {defect:.3e}")

    # phi(e_i* e_j) = sum_t (e_i K_t*)* (e_j K_t*): stack y_t = [e_i K_t*]_i.
    d, m = pr.e_basis.shape[0], pr.m
    y = np.einsum("ipq,tmq->tpim", pr.e_basis, pr.kraus.conj()).reshape(
        pr.kraus.shape[0], pr.p, d * m
    )
    g_phi = np.einsum("tpa,tpb->ab", y.conj(), y)
    cols = np.concatenate(list(prime_values), axis=1)
    g_map = cols.conj().T @ cols
    gap = g_phi - g_map
    lam = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0])
    scale = max(1.0, float(np.linalg.norm(g_phi, 2)))
    expect(lam >= -REL_TOL * scale, f"extension Gram gap lambda_min {lam:.3e}")


def witness_gap(pr: Problem, map_values: np.ndarray, vectors: np.ndarray) -> float:
    """Re-evaluate ``|sum_i Phi(x_i) v_i|^2 - sum_ij <v_i, phi(<x_i, x_j>) v_j>``.

    The second term equals ``sum_t |sum_i x_i K_t* v_i|^2``.
    """
    lhs = float(np.linalg.norm(np.einsum("ikm,im->k", map_values, vectors)) ** 2)
    z = np.einsum("ipq,tmq,im->tp", pr.f_basis, pr.kraus.conj(), vectors)
    rhs = float(np.linalg.norm(z) ** 2)
    return lhs - rhs


def witness(pr: Problem, map_values: np.ndarray, vectors: np.ndarray, reported_gap: float) -> None:
    gap = witness_gap(pr, map_values, vectors)
    expect(gap > 0.0, f"witness gap {gap:.3e} is not positive on re-evaluation")
    expect(
        abs(gap - reported_gap) <= REL_TOL * max(1.0, abs(gap)),
        f"reported gap {reported_gap:.6e} differs from re-evaluated {gap:.6e}",
    )


def dilation(pr: Problem, v: np.ndarray, rng: np.random.Generator) -> None:
    """``V* (a (x) I_r) V == phi(a)`` on a random element of the algebra."""
    q = pr.q
    expect(v.shape[0] % q == 0 and v.shape[1] == pr.m, f"dilation has shape {v.shape}")
    r = v.shape[0] // q
    a = np.zeros((q, q), dtype=complex)
    for sl in block_slices(pr.blocks):
        n = sl.stop - sl.start
        a[sl, sl] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    recon = v.conj().T @ np.kron(a, np.eye(r)) @ v
    want = apply_phi(pr, a)
    defect = float(np.max(np.abs(recon - want)))
    expect(defect <= REL_TOL * max(1.0, float(np.max(np.abs(want)))), f"dilation defect {defect:.3e}")


def matrix(data) -> np.ndarray:
    """Decode the ``[re, im]`` nested-pair wire format without the library."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        return np.zeros((0, 0), dtype=complex)
    return arr[..., 0] + 1j * arr[..., 1]
