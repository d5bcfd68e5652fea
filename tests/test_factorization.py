"""The one factorization of a module basis: an orthogonal basis projects and
rank-counts from its Gram product, any other basis from one thin SVD.
Membership, projection residuals and ``validate_module`` verdicts are checked
against the same module whose pseudo-inverse and singular values come from
``np.linalg.pinv`` and ``np.linalg.svd``, and the orthogonal bases of the
fixtures are checked to take neither."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiphi.modules as modules
from semiphi import BlockAlgebra, ConcreteModule, block_map, is_cp_system_map, validate_module
from semiphi.fixtures import compacts_fixture, example_2_1
from semiphi.numerics import EPS
from conftest import block_rows, full_dilation, full_rectangular_module
from test_extension import counted


def oracle_of(module: ConcreteModule) -> ConcreteModule:
    """The same basis, with the pseudo-inverse, singular values and unit that
    ``np.linalg.pinv``, ``np.linalg.svd`` and ``np.linalg.norm`` give."""
    oracle = ConcreteModule(module.algebra, module.row_dim, module.basis)
    columns = oracle._basis_columns
    oracle.__dict__["_factorization"] = modules._BasisFactorization(
        np.linalg.pinv(columns), np.linalg.svd(columns, compute_uv=False), 0.0
    )
    oracle.__dict__["_basis_unit"] = float(np.linalg.norm(columns, axis=0).max(initial=0.0))
    return oracle


def module_basis(rng, blocks, p, dims, broken):
    """An orthonormal basis of the module whose block-k columns range over
    the span of ``dims[k]`` columns of one random unitary: the elements
    ``u e_c^T``.  ``broken`` drops the last element of block 0, which leaves
    the span open under the right action of that block (of size >= 2)."""
    q = sum(blocks)
    unitary, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    basis, start, used = [], 0, 0
    for n, dim in zip(blocks, dims):
        for u in unitary[:, used : used + dim].T:
            for c in range(start, start + n):
                x = np.zeros((p, q), dtype=complex)
                x[:, c] = u
                basis.append(x)
        start, used = start + n, used + dim
    if broken:
        del basis[blocks[0] - 1]
    return np.array(basis)


KINDS = ["orthonormal", "scaled", "below cut", "zero column", "at band", "above band", "mixed"]


def reshaped(rng, basis, kind):
    """The basis with its elements rescaled, perturbed or mixed by ``kind``."""
    d, n = len(basis), basis[0].size
    flat = basis.reshape(d, n)
    if kind == "scaled":
        flat = flat * 10.0 ** rng.uniform(-6, 6, size=(d, 1))
    elif kind == "below cut":
        flat = flat.copy()
        flat[rng.integers(d)] *= 1e-17
    elif kind == "zero column":
        flat = flat.copy()
        flat[rng.integers(d)] = 0.0
    elif kind in ("at band", "above band"):
        # (I + tE)* (I + tE) has off-diagonal entries t (E_ij + conj E_ji) to
        # first order: put the largest at the band, or ten times above it.
        mix = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        np.fill_diagonal(mix, 0.0)
        size = np.abs(mix + mix.conj().T).max(initial=0.0)
        factor = 1.0 if kind == "at band" else 10.0
        t = factor * modules._GRAM_BAND * n * EPS / size if size else 0.0
        flat = (np.eye(d) + t * mix).T @ flat
    elif kind == "mixed":
        mix = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1) / np.sqrt(d)
        mix += np.diag(rng.uniform(1.0, 2.0, size=d))
        flat = mix.T @ flat
    return flat.reshape(basis.shape)


@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.sampled_from([(2,), (3,), (2, 1), (2, 2)]),
    extra_rows=st.integers(0, 2),
    kind=st.sampled_from(KINDS),
    broken=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_factorization_matches_pinv_and_svd_oracle(seed, blocks, extra_rows, kind, broken):
    rng = np.random.default_rng(seed)
    p = len(blocks) + extra_rows
    dims = [1] + [int(rng.integers(0, 2)) for _ in blocks[1:]]
    basis = reshaped(rng, module_basis(rng, blocks, p, dims, broken), kind)
    module = ConcreteModule(BlockAlgebra(blocks), p, tuple(basis))
    oracle = oracle_of(module)
    d, q = module.dim, module.algebra.ambient_dim
    # Only the SVD path leaves a zero spread; one element is always orthogonal.
    orthogonal = module._factorization.spread > 0.0
    if kind in ("orthonormal", "scaled", "below cut"):
        assert orthogonal
    elif kind == "zero column" or (kind == "above band" and d > 1):
        assert not orthogonal

    # Members, members plus a part outside the span, and matrices with no
    # part in it.
    coeffs = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
    members = np.tensordot(coeffs, basis, axes=1)
    noise = rng.standard_normal((4, p, q)) + 1j * rng.standard_normal((4, p, q))
    size = np.linalg.norm(members, axis=(-2, -1), keepdims=True) + module._basis_unit
    vecs = np.concatenate([members, members + 1e-3 * size * noise, size * noise]).reshape(12, p * q)
    got, residual = module._project(vecs)
    want, want_residual = oracle._project(vecs)
    scale = np.linalg.norm(vecs, axis=-1) + module._basis_unit
    np.testing.assert_allclose(residual, want_residual, rtol=0, atol=1e-10 * scale.max())
    # Coefficients in units of their basis element, against the vector's size.
    norms = np.linalg.norm(basis.reshape(d, -1), axis=-1)
    assert np.all(np.abs(got - want) * norms <= 1e-9 * scale[:, None])

    assert module.contains_matrix(members)
    for stack in (members, members[0], vecs[4:].reshape(-1, p, q)):
        inside = oracle.contains_matrix(stack)
        assert module.contains_matrix(stack) is inside
        if inside:
            expected = oracle.coefficients(stack)
            assert np.all(np.abs(module.coefficients(stack) - expected) * norms <= 1e-9 * scale.max())
        else:
            with pytest.raises(modules.MembershipError):
                module.coefficients(stack)

    assert validate_module(module) == validate_module(oracle)
    assert modules._full_validation(module, modules.DEFAULT_TOL) == modules._full_validation(
        oracle, modules.DEFAULT_TOL
    )


@pytest.mark.parametrize("make", [example_2_1, compacts_fixture], ids=["example_2_1", "compacts"])
def test_orthogonal_bases_take_no_svd_or_pinv(make, monkeypatch):
    fx = make(2)
    svds, pinvs = counted(monkeypatch, np.linalg, "svd"), counted(monkeypatch, np.linalg, "pinv")
    fx.e.coefficients(fx.phi_map.domain._basis_stack)
    sm = block_map(fx.phi_map, fx.phi, full_rectangular_module(2, 2))
    assert is_cp_system_map(sm).ok
    # The one SVD is the certificate's least squares on F's carrier columns
    # in block row coordinates (sum_k dim W_k rho_k x dim F m, fewer rows
    # than p r), no module basis.
    f, m = fx.phi_map.domain, fx.phi.target_dim
    rows = block_rows(f, fx.phi)
    assert rows < f.row_dim * full_dilation(fx.phi)[1]
    assert [args[0].shape for args in svds] == [(rows, f.dim * m)]
    assert pinvs == []


def test_non_orthogonal_basis_takes_one_svd(monkeypatch):
    module = full_rectangular_module(2, 2)
    mixed = ConcreteModule(module.algebra, 2, tuple(module._basis_stack + module._basis_stack[0]))
    svds, pinvs = counted(monkeypatch, np.linalg, "svd"), counted(monkeypatch, np.linalg, "pinv")
    mixed.coefficients(module._basis_stack)
    assert validate_module(mixed).ok
    # The rank count's per-block SVDs aside, one SVD of the basis columns.
    assert [args[0].shape for args in svds].count(mixed._basis_columns.shape) == 1
    assert pinvs == []
