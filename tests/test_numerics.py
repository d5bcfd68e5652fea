import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiphi.numerics import (
    NEAR_FACTOR,
    HermiticityError,
    ShapeError,
    ToleranceProfile,
    _max_operator_norm,
    _rank_cut,
    column_span_onb,
    is_psd,
    least_squares_operator,
    loewner_leq,
    nullspace_onb,
    operator_norm,
)


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def cholesky_psd_oracle(m, shift=1e-10):
    """Eigenvalue-free PSD test: Cholesky succeeds on M + shift*I."""
    try:
        np.linalg.cholesky(m + shift * np.linalg.norm(m, 2) * np.eye(m.shape[0]) + shift * np.eye(m.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


class TestIsPsd:
    def test_identity(self):
        report = is_psd(np.eye(2))
        assert report.ok
        assert report.lambda_min == pytest.approx(1.0)

    def test_indefinite(self):
        report = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not report.ok
        assert report.lambda_min == pytest.approx(-1.0)

    def test_zero_matrix(self):
        report = is_psd(np.zeros((3, 3)))
        assert report.ok
        assert report.lambda_min == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            is_psd(np.zeros((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_witness_is_minimal_eigenvector(self):
        m = np.diag([3.0, -2.0, 5.0])
        report = is_psd(m)
        assert not report.ok
        v = report.witness
        assert np.vdot(v, m @ v).real == pytest.approx(-2.0)

    def test_agrees_with_cholesky_oracle(self):
        rng = np.random.default_rng(7)
        disagreements = 0
        for _ in range(200):
            m = random_hermitian(6, rng)
            # Shift randomly so both verdicts occur in the population.
            m = m - rng.uniform(-2.0, 2.0) * np.eye(6)
            lam = float(np.linalg.eigvalsh(m)[0])
            if abs(lam) < 1e-6:
                continue  # skip the razor edge where the oracles may differ
            if is_psd(m).ok != cholesky_psd_oracle(m):
                disagreements += 1
        assert disagreements == 0


class TestLoewner:
    def test_scaling(self):
        assert loewner_leq(np.eye(2), 2 * np.eye(2))
        assert not loewner_leq(np.array([[4.0]]), np.array([[1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loewner_leq(np.eye(2), np.eye(3))

    def test_zero_below_random_psd(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            p = a.conj().T @ a
            assert loewner_leq(np.zeros((4, 4)), p)

    def test_reflexive_and_transitive(self, rng):
        for _ in range(20):
            a = random_hermitian(4, rng)
            assert loewner_leq(a, a)
            b = a + rng.standard_normal((4, 1)) @ rng.standard_normal((1, 4))
            b = (b + b.conj().T) / 2.0
            p = rng.standard_normal((4, 4))
            c = b + p @ p.T
            if loewner_leq(a, b) and loewner_leq(b, c):
                assert loewner_leq(a, c, ToleranceProfile(1e-8, 1e-8))


class TestColumnSpanOnb:
    def test_collinear_collapse(self):
        q = column_span_onb([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert q.shape == (2, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_full_rank(self):
        q = column_span_onb([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert q.shape == (2, 2)

    def test_empty_input(self):
        q = column_span_onb([], height=3)
        assert q.shape == (3, 0)

    def test_near_duplicate_below_tolerance(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        tol = ToleranceProfile(1e-6, 1e-6)
        q = column_span_onb([v, v + 1e-9 * w], tol)
        assert q.shape[1] == 1

    def test_orthonormality_and_containment(self, rng):
        for _ in range(20):
            cols = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            q = column_span_onb(cols)
            assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-10
            # Every input column is reproduced by its projection.
            proj = q @ q.conj().T
            assert np.linalg.norm(proj @ cols - cols) < 1e-9


class TestLeastSquaresOperator:
    def test_identity_system(self):
        s0, res = least_squares_operator(np.eye(2), np.eye(2))
        assert np.allclose(s0, np.eye(2))
        assert res < 1e-12

    def test_rectangular(self):
        s0, res = least_squares_operator(np.array([[1.0], [0.0]]), np.array([[1.0]]))
        assert np.allclose(s0, np.array([[1.0, 0.0]]))
        assert res < 1e-12

    def test_inconsistent_reports_residual(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        _, res = least_squares_operator(a, b)
        assert res > 0.1

    def test_zero_residual_implies_exactness(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            s = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            b = s @ a
            s0, res = least_squares_operator(a, b)
            assert res < 1e-8
            assert np.linalg.norm(s0 @ a - b) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 6),
        st.integers(1, 3),
        st.floats(-6.0, 6.0),
    )
    def test_matches_pinv_oracle(self, seed, rows, cols, rank, k, log_scale):
        # Inputs of every rank up to full, the rank-deficient ones exactly
        # so: their dropped singular values are rounding, far below the cut,
        # and their kept ones far above it.
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, cols)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        u = np.linalg.qr(gaussian(rows, rows))[0][:, :rank]
        v = np.linalg.qr(gaussian(cols, cols))[0][:, :rank]
        a = 10.0**log_scale * (u * rng.uniform(0.1, 1.0, rank)) @ v.conj().T
        b = gaussian(k, cols)
        s0, res = least_squares_operator(a, b)
        pinv = np.linalg.pinv(a, rcond=1e-6)
        want = b @ pinv
        assert s0.shape == want.shape == (k, rows)
        assert np.linalg.norm(s0 - want) <= 1e-12 * np.linalg.norm(b) * np.linalg.norm(pinv, 2) * rows * cols
        assert abs(res - np.linalg.norm(want @ a - b)) <= 1e-12 * np.linalg.norm(b) * rows * cols

    def test_supported_on_input_span(self, rng):
        a = np.zeros((3, 1), dtype=complex)
        a[0, 0] = 1.0
        b = rng.standard_normal((2, 1))
        s0, _ = least_squares_operator(a, b)
        # Columns of S0 outside span(a) must vanish.
        assert np.linalg.norm(s0[:, 1:]) < 1e-12


class TestNullspace:
    def test_full_rank_has_trivial_nullspace(self):
        assert nullspace_onb(np.eye(3)).shape == (3, 0)

    def test_rank_deficient(self):
        n = nullspace_onb(np.array([[1.0, 1.0]]))
        assert n.shape == (2, 1)
        assert abs(n[0, 0] + n[1, 0]) < 1e-12


def assert_nullspace_onb(m, rank):
    n = nullspace_onb(m)
    cols = m.shape[1]
    assert n.shape == (cols, cols - rank)
    assert np.linalg.norm(m @ n) <= 1e-9 * max(1.0, np.linalg.norm(m))
    np.testing.assert_allclose(n.conj().T @ n, np.eye(n.shape[1]), atol=1e-12)


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


SHAPES = {
    "tall": lambda small, extra: (small + extra, small),
    "wide": lambda small, extra: (small, small + extra),
    "square": lambda small, extra: (small, small),
}


@pytest.mark.parametrize("kind", sorted(SHAPES))
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_nullspace_of_full_rank_input(kind, small, extra, seed):
    rows, cols = SHAPES[kind](small, extra)
    m = random_complex((rows, cols), np.random.default_rng(seed))
    assert_nullspace_onb(m, min(rows, cols))


@pytest.mark.parametrize("kind", sorted(SHAPES))
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
@settings(max_examples=20, deadline=None)
def test_nullspace_of_rank_deficient_input(kind, small, extra, data):
    rows, cols = SHAPES[kind](small, extra)
    rank = data.draw(st.integers(min_value=1, max_value=min(rows, cols) - 1))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = random_complex((rows, rank), rng) @ random_complex((rank, cols), rng)
    assert_nullspace_onb(m, rank)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_nullspace_of_zero_input(rows, cols):
    assert_nullspace_onb(np.zeros((rows, cols)), 0)


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1e-3),
)
@settings(max_examples=30, deadline=None)
def test_array_threshold_agrees_with_scalar(scales, abs_tol, rel_tol):
    tol = ToleranceProfile(abs_tol, rel_tol)
    batched = tol.threshold(np.array(scales).reshape(len(scales), 1))
    assert batched.shape == (len(scales), 1)
    assert batched.ravel().tolist() == [tol.threshold(s) for s in scales]


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gram_matrices_are_psd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert is_psd(a.conj().T @ a).ok


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_operator_norm_of_scaled_identity(s):
    assert operator_norm(s * np.eye(3)) == pytest.approx(s)


def test_tolerance_profile_rejects_negative():
    with pytest.raises(ValueError):
        ToleranceProfile(abs_tol=-1.0)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_psd_threshold_scale_is_the_spectral_norm(n, seed):
    # is_psd takes its threshold scale from the eigenvalues it computes;
    # a relative tolerance just above or just below |lambda_min| / |M|_2
    # separates the verdicts only if that scale is np.linalg.norm(M, 2).
    herm = random_hermitian(n, np.random.default_rng(seed))
    if np.linalg.eigvalsh(herm)[0] >= 0.0:
        herm = -herm
    ratio = -float(np.linalg.eigvalsh(herm)[0]) / float(np.linalg.norm(herm, 2))
    assert is_psd(herm, ToleranceProfile(0.0, ratio * (1.0 + 1e-9))).ok
    assert not is_psd(herm, ToleranceProfile(0.0, ratio * (1.0 - 1e-9))).ok


@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_max_operator_norm_equals_the_full_batched_norm(floor):
    """The Frobenius early-out returns the float of the full batched spectral
    norm, bit for bit, on random, scaled, tied and zero stacks."""
    rng = np.random.default_rng(int(floor) + 7)
    for trial in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        blocks = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-3, 1)
        if trial % 5 == 0:
            blocks[..., :, :] = blocks[0, 0]  # every block tied
        if trial % 7 == 0:
            blocks *= 0.0
        expected = max(floor, float(np.linalg.norm(blocks, 2, axis=(-2, -1)).max()))
        assert _max_operator_norm(blocks, floor) == expected
    assert _max_operator_norm(np.zeros((0, 3, 4, 4)), floor) == floor


def test_rank_cut_is_clear_only_away_from_its_threshold():
    tol = ToleranceProfile(1e-9, 1e-9)
    cutoff = tol.threshold(1.0)
    assert _rank_cut(np.array([1.0, 0.5, 1e-15]), tol) == (2, True)
    assert _rank_cut(np.array([1.0, 0.5]), tol) == (2, True)
    assert _rank_cut(np.zeros(0), tol) == (0, True)
    assert _rank_cut(np.zeros(3), tol) == (0, True)
    # The first dropped value within the factor below the threshold, and the
    # last kept one within the factor above it: the same rank, but near.
    assert _rank_cut(np.array([1.0, cutoff / NEAR_FACTOR * 2]), tol) == (1, False)
    assert _rank_cut(np.array([1.0, cutoff * NEAR_FACTOR / 2]), tol) == (2, False)
    # The rank is the one column_span_onb keeps.
    s = np.array([1.0, 1e-3, 3e-9, 1e-12])
    assert _rank_cut(s, tol)[0] == np.count_nonzero(s > cutoff)


_CUT = ToleranceProfile(1e-9, 1e-9).threshold(1.0)


@pytest.mark.parametrize(
    "spectrum, rank",
    [
        ([], 0),
        ([0.0, 0.0, 0.0], 0),
        ([1.0, _CUT], 1),  # a value at the threshold is dropped
        ([1.0, float(np.nextafter(_CUT, 1.0))], 2),
    ],
    ids=["empty", "all_zero", "at_threshold", "above_threshold"],
)
def test_span_least_squares_and_nullspace_share_the_rank_cut(spectrum, rank):
    """The three SVD kernels keep the rank of ``_rank_cut``, whose threshold
    at bound 1 is the plain mixed threshold bit for bit."""
    tol = ToleranceProfile(1e-9, 1e-9)
    s = np.array(spectrum)
    n = len(s)
    assert _rank_cut(s, tol)[0] == rank
    if n:
        assert tol.bounded_threshold(s[0], 1.0) == tol.threshold(s[0])
    a = np.diag(s).astype(complex).reshape(n, n)
    assert column_span_onb(a, tol, height=n).shape == (n, rank)
    s0, _ = least_squares_operator(a, a, tol)
    # With targets = inputs, S0 is the projection onto the kept span.
    assert round(float(np.trace(s0).real)) == rank
    assert nullspace_onb(a, tol).shape == (n, n - rank)
