"""The semi criterion decided on the signed Choi carrier, against the Gram
pair it replaces.

``is_completely_semi_phi`` and the witness path decide from the carrier
eigenproblem, of size at most ``p*T + k``, from a gap of
``_CARRIER_MIN_GAP`` on; below it the Gram pair decides.  The problems here
are built so that the carrier is smaller than the gap (``n < N``) but are
kept small, so most classes lower that size cutoff to exercise the carrier;
``TestSizeDispatch`` keeps it.  The tests count the pair kernel and the
eigen-solves to tell which path decided.

The oracle forms the Gram pair with the pair kernel, symmetrizes its gap and
takes the full ``eigh``.  Every verdict must equal the Gram pair's, and the
oracle's outside the band ``8 * N * EPS`` times the gap's own scale around
the threshold.  The carrier forms the gap another way, so its smallest
eigenvalue rounds apart from the oracle's at the scale of the quantities the
gap is formed from: it is compared within ``8 * N * EPS * scale`` with
``scale`` the largest spectral norm of ``g_phi``, ``g_map`` and the gap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiphi.extension as ext
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ModuleMap,
    PreconditionError,
    gram_pair,
    is_completely_semi_phi,
    ksgns,
    semiphi_witness,
    zero_module_map,
)
from semiphi.fixtures import _column_module, _random_unitary, random_contraction, random_cp_map
from semiphi.numerics import DEFAULT_TOL, EPS, ToleranceProfile


@pytest.fixture(scope="class")
def carrier_at_every_size():
    """Let the carrier decide gaps of every size, so small problems run it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ext, "_CARRIER_MIN_GAP", 0)
        yield


def gap_oracle(phi_map, phi, tol=DEFAULT_TOL):
    """The symmetrized gap of the Gram pair from the pair kernel, its full
    eigendecomposition, the threshold of the semi verdict, and the rounding
    bands ``8 * N * EPS`` times the gap's own scale (its largest eigenvalue
    modulus) and times the scale of the pair (the largest spectral norm of
    ``g_phi``, ``g_map`` and the gap)."""
    pair = gram_pair(phi_map, phi)
    diff = pair.g_phi - pair.g_map
    gap = (diff + diff.conj().T) / 2.0
    w, v = np.linalg.eigh(gap)
    top = max(abs(w[0]), abs(w[-1]))
    scale = max(np.linalg.norm(pair.g_phi, 2), np.linalg.norm(pair.g_map, 2), top)
    band = 8 * len(w) * EPS
    return gap, w, v, tol.threshold(top), band * top, band * scale


def assert_gap_witness(witness, gap, w, v, band):
    """A refutation certificate whose vectors form a unit eigenvector of the
    gap for its smallest eigenvalue ``w[0]`` (residual within ``band``),
    equal to the oracle's ``v[:, 0]`` up to one unit phase when ``w[0]`` is
    simple (Davis-Kahan at the eigengap), with a positive re-evaluated gap."""
    vec = np.concatenate(witness.vectors)
    assert abs(np.linalg.norm(vec) - 1.0) <= 8 * len(vec) * EPS
    assert np.linalg.norm(gap @ vec - w[0] * vec) <= band
    eigengap = w[1] - w[0] if len(w) > 1 else np.inf
    if eigengap > 4 * band:
        overlap = np.vdot(v[:, 0], vec)
        assert np.linalg.norm(vec - overlap / abs(overlap) * v[:, 0]) <= 4 * band / eigengap
    assert witness.gap > 0.0


# Block shapes for which p*T + k < N holds by construction at m = 3, k <= 2
# and column subspaces of dimension 2 or 3 per block, with up to two signed
# Choi eigenvalues per block.
BLOCKS = [(2, 2), (3,), (1, 3)]
M = 3
KINDS = ["cp", "indefinite", "skew"]


def carrier_problem(seed, kind="cp", scale=1.0, factor=1.0, mix=False, cols=None, m=M):
    """A module map and a map over a block algebra whose Gram gap is larger
    than its carrier.

    ``kind`` "cp": a rank-one CP map and a contraction of its universal map
    (semi-compatible for ``factor <= 1``); "indefinite": the difference of
    two rank-one CP maps (indefinite Choi matrix) and a random map;
    "skew": the CP map plus an anti-hermitian Choi part, so values on
    ``E_ji`` are not the adjoints of those on ``E_ij`` while the symmetrized
    Choi matrix is the CP one.  The map values are multiplied by
    ``factor * scale`` and the CP values by ``scale**2``.  With ``mix`` the
    basis (and the map with it) is changed by a random unitary, so that no
    basis element has a single nonzero column.  ``cols`` fixes the column
    dimensions per block and ``m`` the target dimension of the map.
    """
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra(BLOCKS[seed % len(BLOCKS)])
    cols = rng.integers(2, 4, size=len(algebra.blocks)) if cols is None else np.array(cols)
    p = int(cols.sum())
    u = _random_unitary(p, rng)
    edges = np.cumsum([0, *cols])
    module = _column_module(algebra, p, [u[:, a:b] for a, b in zip(edges, edges[1:])])
    k = int(rng.integers(1, 3))
    phi = random_cp_map(algebra, m, 1, rng)
    if kind == "cp":
        universal = ksgns(phi, module).map
        c = random_contraction(k, universal.h2_dim, rng)
        values = np.stack([c @ v for v in universal.values])
    else:
        shape = (module.dim, k, m)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(module.dim * m)
        if kind == "indefinite":
            other = random_cp_map(algebra, m, 1, rng)
            phi = CPMap(algebra, m, tuple(phi._value_stack - 2.0 * other._value_stack))
        else:
            q = algebra.ambient_dim
            g = rng.standard_normal((q * m, q * m)) + 1j * rng.standard_normal((q * m, q * m))
            skew = (g - g.conj().T).reshape(q, m, q, m)
            rows, cols_ = np.array(algebra.unit_index_pairs()).T
            phi = CPMap(algebra, m, tuple(phi._value_stack + 0.1 * skew[rows, :, cols_]))
    phi = CPMap(algebra, m, tuple(scale**2 * phi._value_stack))
    if mix:
        change = _random_unitary(module.dim, rng)
        module = ConcreteModule(algebra, p, tuple(np.tensordot(change, module._basis_stack, axes=1)))
        values = np.tensordot(change, values, axes=1)
    return ModuleMap(module, m, k, tuple(factor * scale * values)), phi


def count_paths(monkeypatch):
    """Record the pair kernel and every eigen-solve with its size."""
    calls = {"apply_pairs": [], "eigh": [], "eigvalsh": []}
    for owner, name in ((CPMap, "apply_pairs"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args[-1].shape if _name == "apply_pairs" else args[0].shape[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.usefixtures("carrier_at_every_size")
class TestCarrierParity:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(KINDS),
        st.floats(-6.0, 6.0),
        st.floats(0.25, 4.0),
        st.booleans(),
    )
    def test_verdict_and_margin_match_the_table(self, seed, kind, log_scale, factor, mix):
        phi_map, phi = carrier_problem(seed, kind, 10.0**log_scale, factor, mix)
        gap, w, v, threshold, band, pair_band = gap_oracle(phi_map, phi)
        report = is_completely_semi_phi(phi_map, phi)
        # Every verdict is the Gram pair's, and so the eigh oracle's outside
        # the gap's own rounding band; the margin rounds at the pair's scale.
        assert report.ok == ext._semi_verdict(gram_pair(phi_map, phi), DEFAULT_TOL).ok
        if abs(w[0] + threshold) > band:
            assert report.ok == (w[0] >= -threshold)
        assert abs(report.margin - w[0]) <= pair_band
        if not report.ok:
            assert_gap_witness(semiphi_witness(phi_map, phi), gap, w, v, pair_band)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_carrier_decides_at_unit_scale(self, seed, kind, factor):
        # Far from the threshold the carrier decides alone: no pair kernel,
        # one Choi eigh per block and one solve of the carrier's size.
        phi_map, phi = carrier_problem(seed, kind, 1.0, factor)
        gap, w, v, threshold, _, pair_band = gap_oracle(phi_map, phi)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_paths(mp)
            report = is_completely_semi_phi(phi_map, phi)
        if abs(w[0] + threshold) <= 1e3 * pair_band:
            return  # near the threshold the table may decide
        n_dim = len(w)
        assert calls["apply_pairs"] == []
        assert calls["eigh"] == [size * M for size in phi.domain.blocks]
        assert len(calls["eigvalsh"]) == 1 and calls["eigvalsh"][0] < n_dim
        assert report.ok == (w[0] >= -threshold)

    def test_lazy_fields_equal_the_tables(self):
        for seed, factor in ((0, 0.5), (1, 2.0), (2, 4.0)):
            phi_map, phi = carrier_problem(seed, "cp", 1.0, factor)
            report = is_completely_semi_phi(phi_map, phi)
            table = ext._table_semi(phi_map, phi, DEFAULT_TOL)
            fresh = gram_pair(phi_map, phi)
            assert report.ok == table.ok
            assert np.array_equal(report.gram.g_phi, fresh.g_phi)
            assert np.array_equal(report.gram.g_map, fresh.g_map)
            assert np.array_equal(report.witness, table.witness)

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_is_lifted_from_the_carrier(self, seed, monkeypatch):
        phi_map, phi = carrier_problem(seed, "cp", 1.0, 20.0)
        gap, w, v, threshold, _, pair_band = gap_oracle(phi_map, phi)
        calls = count_paths(monkeypatch)
        witness = semiphi_witness(phi_map, phi)
        assert calls["apply_pairs"] == []
        assert calls["eigvalsh"] == [] and len(calls["eigh"]) == len(phi.domain.blocks) + 1
        assert max(calls["eigh"]) < len(w)
        assert_gap_witness(witness, gap, w, v, pair_band)


@pytest.mark.usefixtures("carrier_at_every_size")
class TestFallback:
    def count_tables(self, monkeypatch):
        """Record each decision taken on the Gram pair."""
        calls = []
        original = ext._table_semi

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ext, "_table_semi", wrapper)
        return calls

    def test_near_threshold_falls_back(self, monkeypatch):
        phi_map, phi = carrier_problem(1, "cp", 1.0, 20.0)
        margin = is_completely_semi_phi(phi_map, phi).margin
        assert margin < -0.1
        tables = self.count_tables(monkeypatch)
        # The threshold sits on the carrier's smallest eigenvalue.
        for tol in (ToleranceProfile(-margin, 0.0), ToleranceProfile(-margin * (1 + 1e-13), 0.0)):
            tables.clear()
            report = is_completely_semi_phi(phi_map, phi, tol)
            assert len(tables) == 1
            want = ext._semi_verdict(gram_pair(phi_map, phi), tol)
            assert (report.ok, report.margin) == (want.ok, want.margin)
        # One decimal order away, the carrier decides.
        tables.clear()
        assert not is_completely_semi_phi(phi_map, phi, ToleranceProfile(-margin / 10, 0.0)).ok
        assert tables == []

    def test_carrier_not_smaller_than_the_gap(self, monkeypatch):
        # The row module M_{1x2} (N = 2 * 3) and a full-rank Choi matrix
        # (T = 6): p*T + k >= N, so the pair decides.
        algebra = BlockAlgebra((2,))
        module = ConcreteModule(algebra, 1, tuple(np.eye(2, dtype=complex)[:, None, :]))
        phi = random_cp_map(algebra, M, 6, np.random.default_rng(0))
        phi_map = ModuleMap(module, M, 2, tuple(np.ones((2, 2, M), dtype=complex)))
        tables = self.count_tables(monkeypatch)
        report = is_completely_semi_phi(phi_map, phi)
        assert len(tables) == 1
        want = ext._semi_verdict(gram_pair(phi_map, phi), DEFAULT_TOL)
        assert (report.ok, report.margin) == (want.ok, want.margin)

    def test_zero_module(self):
        algebra = BlockAlgebra((2, 2))
        zero = ConcreteModule(algebra, 3, ())
        phi = random_cp_map(algebra, M, 1, np.random.default_rng(1))
        report = is_completely_semi_phi(zero_module_map(zero, M, 2), phi)
        assert (report.ok, report.margin, report.witness.shape) == (True, 0.0, (0,))
        with pytest.raises(PreconditionError):
            semiphi_witness(zero_module_map(zero, M, 2), phi)

    def test_zero_map(self, monkeypatch):
        phi_map, phi = carrier_problem(0, "cp", 1.0, 1.0)
        zero_phi = CPMap(phi.domain, M, tuple(0.0 * phi._value_stack))
        tables = self.count_tables(monkeypatch)
        # T = 0: the carrier is B alone, so the gap is -B*B.
        report = is_completely_semi_phi(phi_map, zero_phi)
        assert not report.ok and tables == []
        assert report.margin == pytest.approx(-np.linalg.norm(phi_map.stacked_columns(), 2) ** 2, rel=1e-12)
        zero_map = zero_module_map(phi_map.domain, M, phi_map.h2_dim)
        report = is_completely_semi_phi(zero_map, zero_phi)
        assert (report.ok, report.margin) == (True, 0.0) and tables == []

    @pytest.mark.parametrize("map_scale, phi_scale", [(1e200, 1.0), (1e160, 1.0), (1.0, 1e307), (1e100, 1e100)])
    def test_overflowing_values(self, map_scale, phi_scale):
        # Where the Gram pair overflows, both decisions raise its error;
        # elsewhere they decide as the pair does.
        phi_map, phi = carrier_problem(0, "cp", 1.0, 0.5)
        huge_map = ModuleMap(phi_map.domain, M, phi_map.h2_dim, tuple(map_scale * phi_map._value_stack))
        huge_phi = CPMap(phi.domain, M, tuple(phi_scale * phi._value_stack))
        with np.errstate(all="ignore"):
            try:
                want = ext._table_semi(huge_map, huge_phi, DEFAULT_TOL).ok
            except ValueError as err:
                want = str(err)
        if map_scale >= 1e160:
            assert want == "matrix entries must be finite"
        for decide in (is_completely_semi_phi, ext._refutable_semi):
            with np.errstate(all="ignore"):
                try:
                    got = decide(huge_map, huge_phi, DEFAULT_TOL).ok
                except ValueError as err:
                    got = str(err)
            assert got == want


class TestSizeDispatch:
    """The carrier at its default size cutoff."""

    def test_small_gap_takes_the_table(self, monkeypatch):
        phi_map, phi = carrier_problem(0, "cp", 1.0, 0.5)
        n_dim = phi_map.domain.dim * M
        assert n_dim < ext._CARRIER_MIN_GAP
        calls = count_paths(monkeypatch)
        report = is_completely_semi_phi(phi_map, phi)
        # One Gram pair and one eigenvalue-only solve of the gap; no Choi eigh.
        assert (len(calls["apply_pairs"]), calls["eigh"], calls["eigvalsh"]) == (1, [], [n_dim])
        want = ext._semi_verdict(gram_pair(phi_map, phi), DEFAULT_TOL)
        assert (report.ok, report.margin) == (want.ok, want.margin)

    def test_compressible_input_forms_no_pair_and_no_gap_sized_solve(self, monkeypatch):
        # BlockAlgebra((2, 2)) with four columns per block and m = 4: N = 64.
        phi_map, phi = carrier_problem(0, "cp", 1.0, 0.5, cols=(4, 4), m=4)
        n_dim = phi_map.domain.dim * 4
        assert n_dim == ext._CARRIER_MIN_GAP
        calls = count_paths(monkeypatch)
        report = is_completely_semi_phi(phi_map, phi)
        assert report.ok
        assert calls["apply_pairs"] == []
        assert max(calls["eigh"] + calls["eigvalsh"]) < n_dim
        # One 8x8 Choi eigh per block; the rank-one map keeps one eigenvalue
        # per block, and each block's basis columns span its own rows of
        # C^p, so the carrier has p + k rows (p*T + k = 2p + k uncompressed).
        assert calls["eigh"] == [8, 8]
        assert calls["eigvalsh"] == [phi_map.domain.row_dim + phi_map.h2_dim]
        # The lazy fields build the pair on first access, once.
        calls["apply_pairs"].clear()
        assert report.gram is report.gram
        assert report.witness is report.witness
        assert len(calls["apply_pairs"]) == 1
