"""Eigenvalue-only PSD decisions against an ``np.linalg.eigh`` oracle.

``is_psd`` and the semi criterion decide from ``eigvalsh``; the oracle here
symmetrizes the matrix itself and takes the full ``eigh``, so the verdict,
the smallest eigenvalue and the lazily computed witness are each checked
against a solve that builds eigenvectors.  The two solvers round apart, so
the eigenvalue and the verdict are compared outside a band of
``8 * N * EPS * scale``; the witness comes from ``eigh`` of the same
matrix and must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    HermiticityError,
    ModuleMap,
    PreconditionError,
    PsdReport,
    SemiPhiReport,
    is_completely_semi_phi,
    is_psd,
    semiphi_witness,
    trace_cp_map,
    zero_module_map,
)
from semiphi.extension import GramPair, _semi_verdict
from semiphi.fixtures import (
    example_2_1,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
    random_violating_module_map,
)
from semiphi.numerics import DEFAULT_TOL, EPS


def oracle(m, tol=DEFAULT_TOL):
    """The symmetrized matrix, its smallest eigenvalue and unit eigenvector
    from one full ``eigh``, the threshold of the PSD verdict and the
    rounding band ``8 * N * EPS * scale`` around it."""
    herm = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    scale = max(abs(w[0]), abs(w[-1]))
    return herm, float(w[0]), v[:, 0], tol.threshold(scale), 8 * len(w) * EPS * scale


def assert_matches_oracle(ok, lam, witness, m):
    herm, want, vec, threshold, band = oracle(m)
    assert abs(lam - want) <= band
    if abs(want + threshold) > band:
        assert ok == (want >= -threshold)
    assert np.array_equal(witness, vec)


def shifted_hermitian(seed, n, position, skew):
    """A random hermitian matrix shifted so its smallest eigenvalue is about
    ``-position`` thresholds: refuted above 1, within 2x of the threshold
    for ``position`` in [0.5, 2].  ``skew`` adds an anti-hermitian part
    well inside the hermiticity tolerance."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0 * 10.0 ** rng.uniform(-3, 3)
    w = np.linalg.eigvalsh(h)
    threshold = DEFAULT_TOL.threshold(w[-1] - w[0])
    m = h + (-position * threshold - w[0]) * np.eye(n)
    if skew:
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = m + 1e-3 * threshold / np.linalg.norm(b) * (b - b.conj().T)
    return m


class TestIsPsd:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.one_of(st.floats(-3.0, 3.0), st.floats(0.5, 2.0)),
        st.booleans(),
    )
    def test_matches_eigh_oracle(self, seed, n, position, skew):
        m = shifted_hermitian(seed, n, position, skew)
        report = is_psd(m)
        assert_matches_oracle(report.ok, report.lambda_min, report.witness, m)

    def test_both_verdicts_occur_near_the_threshold(self):
        verdicts = {is_psd(shifted_hermitian(seed, 6, position, False)).ok for seed, position in ((1, 0.5), (2, 2.0))}
        assert verdicts == {True, False}

    def test_witness_is_cached(self):
        report = is_psd(shifted_hermitian(3, 5, 2.0, False))
        assert report.witness is report.witness

    def test_matrix_field_is_keyword_only(self):
        # The old positional form PsdReport(ok, lam, witness) fails loudly.
        with pytest.raises(TypeError):
            PsdReport(True, 0.0, np.zeros(0, dtype=complex))

    def test_empty_matrix(self):
        report = is_psd(np.zeros((0, 0)))
        assert (report.ok, report.lambda_min) == (True, 0.0)
        assert report.witness.shape == (0,) and report.witness.dtype == complex

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            is_psd([[1.0, 0.0], [0.0, bad]])

    def test_non_hermitian_input(self):
        with pytest.raises(HermiticityError) as info:
            is_psd([[0.0, 1.0], [0.0, 0.0]])
        assert str(info.value) == "matrix is not hermitian: defect 1.414e+00 exceeds tolerance"


def gram_gap(report):
    return report.gram.g_phi - report.gram.g_map


class TestSemiCriterion:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_gram_gaps_of_random_fixtures(self, seed, violate):
        rng = np.random.default_rng(seed)
        make = random_semi_phi_fixture if seed % 2 else random_vanishing_obstruction_fixture
        fx = make(rng)
        phi_map = random_violating_module_map(fx, rng) if violate else fx.phi_map
        report = is_completely_semi_phi(phi_map, fx.phi)
        if not phi_map.domain.dim:
            assert (report.ok, report.margin, report.witness.shape) == (True, 0.0, (0,))
            return
        assert_matches_oracle(report.ok, report.margin, report.witness, gram_gap(report))
        if not report.ok:
            # The certificate's vectors are the oracle's eigenvector.
            vec = oracle(gram_gap(report))[2]
            witness = semiphi_witness(phi_map, fx.phi)
            assert np.array_equal(np.concatenate(witness.vectors), vec)

    def test_report_field_is_keyword_only(self):
        # The old positional form SemiPhiReport(ok, gram, margin, witness)
        # fails loudly; the witness is read off the report's PSD report.
        report = is_completely_semi_phi(example_2_1(2).phi_map, example_2_1(2).phi)
        with pytest.raises(TypeError):
            SemiPhiReport(report.ok, report.gram, report.margin, report.witness)
        assert report.witness is report._psd.witness

    def test_refuted_fixture_is_refuted(self):
        fx = example_2_1(2)
        bad = ModuleMap(fx.f, 2, 2, tuple(3.0 * v for v in fx.phi_map.values))
        report = is_completely_semi_phi(bad, fx.phi)
        assert not report.ok
        assert_matches_oracle(report.ok, report.margin, report.witness, gram_gap(report))

    def test_zero_map(self):
        fx = example_2_1(2)
        zero_phi = CPMap(fx.phi.domain, fx.phi.target_dim, tuple(0.0 * v for v in fx.phi.values))
        report = is_completely_semi_phi(zero_module_map(fx.f, fx.phi.target_dim, 2), zero_phi)
        n = fx.f.dim * fx.phi.target_dim
        assert (report.ok, report.margin) == (True, 0.0)
        assert np.array_equal(report.witness, np.linalg.eigh(np.zeros((n, n), dtype=complex))[1][:, 0])

    def test_zero_module(self):
        algebra = BlockAlgebra((2,))
        zero = ConcreteModule(algebra, 2, ())
        phi = trace_cp_map(algebra)
        phi_map = zero_module_map(zero, 1, 1)
        report = is_completely_semi_phi(phi_map, phi)
        assert (report.ok, report.margin) == (True, 0.0)
        assert report.witness.shape == (0,) and report.witness.dtype == complex
        with pytest.raises(PreconditionError):
            semiphi_witness(phi_map, phi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gap(self, bad):
        pair = GramPair(np.array([[1.0, 0.0], [0.0, bad]], dtype=complex), np.zeros((2, 2), dtype=complex))
        for vectors in (False, True):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="^matrix entries must be finite$"):
                _semi_verdict(pair, DEFAULT_TOL, vectors=vectors)

    def test_overflowing_map_values(self):
        fx = example_2_1(2)
        huge = ModuleMap(fx.f, 2, 2, tuple(1e200 * v for v in fx.phi_map.values))
        for decide in (is_completely_semi_phi, semiphi_witness):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="^matrix entries must be finite$"):
                decide(huge, fx.phi)
