"""The semi criterion decided on the signed Choi carrier, against the Gram
pair it replaces.

``is_completely_semi_phi`` and the witness path decide from the carrier
eigenproblem, of size at most ``p*T + k``, from a gap of
``_CARRIER_MIN_GAP`` on, over any number of algebra blocks; below it the
Gram pair decides.  The problems here
are built so that the carrier is smaller than the gap (``n < N``) but are
kept small, so most classes lower that size cutoff to exercise the carrier;
``TestSizeDispatch`` keeps it.  Each report names the path that decided
(``_path``); the tests count the pair kernel and the eigen-solves to pin the
work each path does.

The oracle forms the Gram pair with the pair kernel, symmetrizes its gap and
takes the full ``eigh``.  Every verdict must equal the Gram pair's, and the
oracle's outside the band ``8 * N * EPS`` times the gap's own scale around
the threshold.  The carrier forms the gap another way, so its smallest
eigenvalue rounds apart from the oracle's at the scale of the quantities the
gap is formed from: it is compared within ``8 * N * EPS * scale`` with
``scale`` the largest spectral norm of ``g_phi``, ``g_map`` and the gap.
"""

import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiphi.extension as ext
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ExtensionInputError,
    ModuleMap,
    PreconditionError,
    extend_semi_phi,
    from_kraus,
    gram_pair,
    is_completely_semi_phi,
    ksgns,
    semiphi_witness,
    zero_module_map,
)
from semiphi.fixtures import (
    _column_module,
    _random_unitary,
    compacts_fixture,
    example_2_1,
    random_contraction,
    random_cp_map,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
)
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


def carrier_problem(seed, kind="cp", scale=1.0, factor=1.0, mix=False, cols=None, m=M, blocks=None):
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
    dimensions per block, ``m`` the target dimension of the map and
    ``blocks`` the algebra (by default one of ``BLOCKS``, chosen by seed).
    """
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra(BLOCKS[seed % len(BLOCKS)] if blocks is None else blocks)
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
    """Record the pair kernel and every eigen-solve and SVD with its size."""
    calls = {"apply_pairs": [], "eigh": [], "eigvalsh": [], "svd": []}
    for owner, name in ((CPMap, "apply_pairs"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd")):
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args[-1].shape if _name == "apply_pairs" else args[0].shape[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def carrier_eighs(phi_map, phi, cached=False):
    """The sizes of the carrier's ``eigh`` calls: one Choi block per algebra
    block, then, unless the module's row form is ``cached`` by an earlier
    call, one ``p x p`` row Gram ``y y*`` (``y`` the block columns of the
    basis) per algebra block."""
    choi = [size * phi.target_dim for size in phi.domain.blocks]
    return choi + ([] if cached else [phi_map.domain.row_dim] * len(choi))


def count_tables(monkeypatch):
    """Record each decision taken on the Gram pair."""
    calls = []
    original = ext._semi_verdict

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ext, "_semi_verdict", wrapper)
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
        # no SVD, one Choi eigh and one row-Gram eigh per block and one solve
        # of the carrier's size.
        phi_map, phi = carrier_problem(seed, kind, 1.0, factor)
        gap, w, v, threshold, _, pair_band = gap_oracle(phi_map, phi)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_paths(mp)
            report = is_completely_semi_phi(phi_map, phi)
        if abs(w[0] + threshold) <= 1e3 * pair_band:
            return  # near the threshold the table may decide
        n_dim = len(w)
        assert report._path == "carrier" and calls["svd"] == []
        assert calls["eigh"] == carrier_eighs(phi_map, phi)
        assert max(calls["eigh"]) < n_dim
        assert len(calls["eigvalsh"]) == 1 and calls["eigvalsh"][0] < n_dim
        assert report.ok == (w[0] >= -threshold)

    def test_lazy_fields_equal_the_tables(self):
        for seed, factor in ((0, 0.5), (1, 2.0), (2, 4.0)):
            phi_map, phi = carrier_problem(seed, "cp", 1.0, factor)
            report = is_completely_semi_phi(phi_map, phi)
            table = ext._semi_verdict(gram_pair(phi_map, phi), DEFAULT_TOL)
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
        assert ext._choi_semi(phi_map, phi, DEFAULT_TOL, vectors=True)._path == "carrier"
        for solves in calls.values():
            solves.clear()
        witness = semiphi_witness(phi_map, phi)
        assert calls["apply_pairs"] == [] and calls["svd"] == []
        # The carrier's Choi eighs (the module keeps its row form from the
        # first call), then the eigh of the carrier matrix.
        assert calls["eigvalsh"] == [] and calls["eigh"][:-1] == carrier_eighs(phi_map, phi, cached=True)
        assert max(calls["eigh"]) < len(w)
        assert_gap_witness(witness, gap, w, v, pair_band)


# How the block columns y (p x (dim * width)) of a module basis span C^p:
# "full" rank min(p, dim * width), "deficient" a lower rank, "nearly" full
# rank with singular values spread over 1e-16...1, "zero".  A block with
# p > dim * width is tall: its row Gram y y* is rank-deficient.
SPANS = ["full", "deficient", "nearly", "zero"]


def bound_problem(seed, blocks, spans, p, d, m, k, kind, log_scale, log_factor):
    """A basis of ``d`` elements of ``p x q`` matrices over ``blocks`` whose
    block columns span C^p as ``spans`` says, times ``10**log_scale``, and a
    map to M_{k x m}.  For "cp", a Kraus rank-one CP map and the map with the
    columns ``K g_phi^(1/2)``, ``|K| <= 10**log_factor`` (semi-compatible for
    a factor of at most 1); for "indefinite", the difference of two such CP
    maps and a random map of the basis's scale times that factor.  No module
    axiom is asked of the basis: the carrier and the Gram pair read the basis
    stack alone."""
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra(tuple(blocks))
    basis = np.zeros((d, p, algebra.ambient_dim), dtype=complex)
    for sl, span in zip(algebra.block_slices(), spans):
        cols = d * (sl.stop - sl.start)
        full = min(p, cols)
        u, v = _random_unitary(p, rng)[:, :full], _random_unitary(cols, rng)[:, :full]
        sv = rng.uniform(0.5, 2.0, size=full)
        if span == "deficient":
            sv[int(rng.integers(1, full)) if full > 1 else 0 :] = 0.0
        elif span == "nearly":
            sv = 10.0 ** rng.uniform(-16.0, 0.0, size=full)
            sv[0] = 1.0
        elif span == "zero":
            sv[:] = 0.0
        y = (u * sv) @ v.conj().T
        basis[:, :, sl] = y.reshape(p, d, sl.stop - sl.start).transpose(1, 0, 2)
    module = ConcreteModule(algebra, p, tuple(10.0**log_scale * basis))
    phi, factor = random_cp_map(algebra, m, 1, rng), 10.0**log_factor
    if kind == "cp":
        lam, vecs = np.linalg.eigh(gram_pair(zero_module_map(module, m, 0), phi).g_phi)
        root = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T
        cols = factor * random_contraction(k, d * m, rng) @ root
    else:
        other = random_cp_map(algebra, m, 1, rng)
        phi = CPMap(algebra, m, tuple(phi._value_stack - 2.0 * other._value_stack))
        cols = factor * 10.0**log_scale * (rng.standard_normal((k, d * m)) + 1j * rng.standard_normal((k, d * m)))
    return ModuleMap(module, m, k, tuple(cols.reshape(k, d, m).transpose(1, 0, 2))), phi


@pytest.mark.usefixtures("carrier_at_every_size")
class TestErrorBound:
    """The carrier's ``error`` bounds, eigenvalue by eigenvalue, how far its
    form ``X* J X`` lies from the Gram pair's symmetrized gap (Weyl's
    inequality), and the decider's verdict is the pair's."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(1, 3), st.sampled_from(SPANS)), min_size=1, max_size=4),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(2, 4),
        st.integers(1, 2),
        st.sampled_from(["cp", "indefinite"]),
        st.floats(-6.0, 6.0),
        st.floats(-2.0, 1.0),
    )
    def test_error_bounds_the_spectrum(self, seed, layout, p, d, m, k, kind, log_scale, log_factor):
        blocks, spans = zip(*layout)
        phi_map, phi = bound_problem(seed, blocks, spans, p, d, m, k, kind, log_scale, log_factor)
        pair, built = gram_pair(phi_map, phi), ext._choi_carrier(phi_map, phi)
        report = ext._decide_gap(lambda: built, lambda: pair, DEFAULT_TOL)
        assert report.ok == ext._semi_verdict(pair, DEFAULT_TOL).ok
        if built is None:
            return
        x_adj, signs, error = built
        carried = np.linalg.eigvalsh((x_adj * signs) @ x_adj.conj().T)
        gap = np.linalg.eigvalsh(ext._symmetrized_gap(pair))
        assert np.max(np.abs(carried - gap)) <= error


@pytest.mark.usefixtures("carrier_at_every_size")
class TestFallback:
    def test_near_threshold_falls_back(self, monkeypatch):
        phi_map, phi = carrier_problem(1, "cp", 1.0, 20.0)
        margin = is_completely_semi_phi(phi_map, phi).margin
        assert margin < -0.1
        tables = count_tables(monkeypatch)
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
        tables = count_tables(monkeypatch)
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
        tables = count_tables(monkeypatch)
        # T = 0: the carrier is B alone, so the gap is -B*B.
        report = is_completely_semi_phi(phi_map, zero_phi)
        assert not report.ok and tables == []
        assert report.margin == pytest.approx(-np.linalg.norm(phi_map.stacked_columns(), 2) ** 2, rel=1e-12)
        zero_map = zero_module_map(phi_map.domain, M, phi_map.h2_dim)
        report = is_completely_semi_phi(zero_map, zero_phi)
        assert (report.ok, report.margin) == (True, 0.0) and tables == []
        # No codomain as well: the carrier has no rows, and the gap is 0.
        report = is_completely_semi_phi(zero_module_map(phi_map.domain, M, 0), zero_phi)
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
                want = ext._semi_verdict(gram_pair(huge_map, huge_phi), DEFAULT_TOL).ok
            except ValueError as err:
                want = str(err)
        if map_scale >= 1e160:
            assert want == "matrix entries must be finite"
        for decide in (is_completely_semi_phi, partial(ext._choi_semi, vectors=True)):
            with np.errstate(all="ignore"):
                try:
                    got = decide(huge_map, huge_phi, DEFAULT_TOL).ok
                except ValueError as err:
                    got = str(err)
            assert got == want


class TestDecider:
    """The contract of ``_decide_gap`` on stub carriers of a gap of size
    ``N = 6`` with ``n = 2`` carrier columns."""

    def stub(self, signs, seed=0):
        """A carrier ``X*`` with the signs ``J`` and the Gram pair whose gap
        is ``X* J X``: ``g_phi`` from the positive columns, ``g_map`` from the
        negative ones."""
        rng = np.random.default_rng(seed)
        x_adj = rng.standard_normal((6, len(signs))) + 1j * rng.standard_normal((6, len(signs)))
        signs = np.asarray(signs, dtype=float)
        pos, neg = x_adj[:, signs > 0], x_adj[:, signs < 0]
        return x_adj, signs, ext.GramPair(pos @ pos.conj().T, neg @ neg.conj().T)

    def counted(self, pair):
        """A table callable returning ``pair`` and the list of its calls."""
        calls = []

        def table():
            calls.append(pair)
            return pair

        return table, calls

    def test_no_carrier_takes_the_table(self, monkeypatch):
        _, _, pair = self.stub([1.0, -1.0])
        table, calls = self.counted(pair)
        verdicts = count_tables(monkeypatch)
        report = ext._decide_gap(lambda: None, table, DEFAULT_TOL)
        assert len(verdicts) == 1 and len(calls) == 1
        want = ext._semi_verdict(pair, DEFAULT_TOL)
        assert not report.ok and (report.ok, report.margin) == (want.ok, want.margin)
        assert report.gram is pair

    @pytest.mark.parametrize("signs, ok", [([1.0, 1.0], True), ([1.0, -1.0], False)])
    def test_clear_carrier_leaves_the_table_for_gram(self, signs, ok, monkeypatch):
        x_adj, signs, pair = self.stub(signs)
        table, calls = self.counted(pair)
        verdicts = count_tables(monkeypatch)
        report = ext._decide_gap(lambda: (x_adj, signs, 0.0), table, DEFAULT_TOL)
        gap = pair.g_phi - pair.g_map
        assert report.ok == ok and calls == [] and verdicts == []
        assert report.margin == pytest.approx(min(np.linalg.eigvalsh(gap)[0], 0.0), abs=1e-12 * np.linalg.norm(gap))
        assert report.gram is pair and report.gram is pair and len(calls) == 1

    def test_unclear_verdict_takes_the_table(self, monkeypatch):
        # The carrier refutes by far less than its error; the table, which
        # here satisfies, decides.
        x_adj, signs, _ = self.stub([1.0, -1.0])
        _, _, pair = self.stub([1.0, 1.0], seed=1)
        table, calls = self.counted(pair)
        verdicts = count_tables(monkeypatch)
        report = ext._decide_gap(lambda: (x_adj, signs, 1e6), table, DEFAULT_TOL)
        assert len(verdicts) == 1 and len(calls) == 1
        assert report.ok and report.margin == ext._semi_verdict(pair, DEFAULT_TOL).margin

    def test_vectors_lift_the_small_eigenvector(self):
        x_adj, signs, pair = self.stub([1.0, -1.0])
        table, calls = self.counted(pair)
        report = ext._decide_gap(lambda: (x_adj, signs, 0.0), table, DEFAULT_TOL, vectors=True)
        gap = pair.g_phi - pair.g_map
        band = 8 * len(gap) * EPS * np.linalg.norm(gap)
        vec = report.witness
        assert not report.ok and calls == []
        assert abs(np.linalg.norm(vec) - 1.0) <= 8 * len(vec) * EPS
        assert np.linalg.norm(gap @ vec - report.margin * vec) <= band
        assert abs(report.margin - np.linalg.eigvalsh(gap)[0]) <= band


class TestSizeDispatch:
    """The carrier at its default size cutoff."""

    def test_small_gap_takes_the_table(self, monkeypatch):
        phi_map, phi = carrier_problem(0, "cp", 1.0, 0.5)
        n_dim = phi_map.domain.dim * M
        assert n_dim < ext._CARRIER_MIN_GAP
        calls = count_paths(monkeypatch)
        report = is_completely_semi_phi(phi_map, phi)
        assert report._path == "table"
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
        assert report.ok and report._path == "carrier"
        assert calls["apply_pairs"] == [] and calls["svd"] == []
        assert max(calls["eigh"] + calls["eigvalsh"]) < n_dim
        # One 8x8 Choi eigh per block, then one 8x8 row Gram y y* per block
        # (p = 8 rows against dim * width = 32 columns); the rank-one map
        # keeps one eigenvalue per block, and each block's basis columns span
        # its own rows of C^p, so the carrier has p + k rows (p*T + k = 2p + k
        # uncompressed).
        assert calls["eigh"] == [8, 8, 8, 8]
        assert calls["eigvalsh"] == [phi_map.domain.row_dim + phi_map.h2_dim]
        # The lazy fields build the pair on first access, once.
        calls["apply_pairs"].clear()
        assert report.gram is report.gram
        assert report.witness is report.witness
        assert len(calls["apply_pairs"]) == 1

    @pytest.mark.parametrize("cols", [(4, 4, 4), (6, 6, 6)], ids=["N64", "N96"])
    def test_one_cutoff_over_three_blocks(self, cols, monkeypatch):
        # BlockAlgebra((1, 1, 2)) at m = 4: the basis meets three blocks, and
        # the carrier decides from the same N = 64 on as over two.
        phi_map, phi = carrier_problem(0, "cp", 1.0, 0.5, cols=cols, m=4, blocks=(1, 1, 2))
        n_dim = phi_map.domain.dim * 4
        assert ext._CARRIER_MIN_GAP == 64 and n_dim == 16 * cols[0]
        calls = count_paths(monkeypatch)
        report = is_completely_semi_phi(phi_map, phi)
        assert report._path == "carrier"
        assert calls["apply_pairs"] == [] and calls["svd"] == []
        assert calls["eigh"] == carrier_eighs(phi_map, phi)
        assert max(calls["eigh"] + calls["eigvalsh"]) < n_dim
        assert report.ok == ext._semi_verdict(gram_pair(phi_map, phi), DEFAULT_TOL).ok


# extend_wide's shapes over BlockAlgebra((6, 6)) at m = 4: (E column
# dimensions per block, F column dimensions per block, exact branch).
WIDE_SHAPES = [
    ((1, 1), (1, 0), False),
    ((2, 1), (1, 0), False),
    ((2, 2), (1, 1), False),
    ((1, 1), (1, 0), True),
    ((1, 2), (1, 0), True),
    ((1, 3), (1, 0), True),
]


def wide_problem(seed, e_cols, f_cols, exact, scale=1.0):
    """An extension problem shaped like the benchmark's extend_wide: E a
    column module over BlockAlgebra((6, 6)) with ``e_cols`` column
    dimensions per block in C^p, p = sum + 2, F a submodule (random
    subspaces, or whole blocks kept or dropped when ``exact``), a Kraus-rank
    two CP map to M_4 (vanishing on dropped blocks when ``exact``), and the
    map on F: a contraction of the universal map, or the universal map itself
    when ``exact``.  Both bases and the map are multiplied by ``scale``."""
    rng = np.random.default_rng([seed, 15])
    algebra = BlockAlgebra((6, 6))
    p, m = sum(e_cols) + 2, 4
    u = _random_unitary(p, rng)
    edges = np.cumsum([0, *e_cols])
    e_spaces = [u[:, a:b] for a, b in zip(edges, edges[1:])]
    f_spaces = [
        v[:, :fc] if exact else v @ _random_unitary(v.shape[1], rng)[:, :fc] for v, fc in zip(e_spaces, f_cols)
    ]
    kraus = (rng.standard_normal((2, m, 12)) + 1j * rng.standard_normal((2, m, 12))) / np.sqrt(48.0)
    if exact:
        for sl, fc in zip(algebra.block_slices(), f_cols):
            if fc == 0:
                kraus[:, :, sl] = 0.0
    phi = from_kraus(algebra, list(kraus), target_dim=m)
    e, f = (_column_module(algebra, p, spaces) for spaces in (e_spaces, f_spaces))
    universal = np.array(ksgns(phi, f).map.values)
    values = universal if exact else 0.9 * random_contraction(4, universal.shape[1], rng) @ universal
    e, f = (ConcreteModule(algebra, p, tuple(scale * mod._basis_stack)) for mod in (e, f))
    return ModuleMap(f, m, values.shape[1], tuple(scale * values)), e, phi


def extension_cases():
    """(id, map, e, phi, settles) for the re-certification parity:
    extend_wide's shapes for seeds 0-19 at three scales, both random
    fixtures, example 2.1 at n = 1..3 and the compacts fixture at n = 2.

    ``settles`` marks the cases the carrier must decide alone: every wide
    case but the exact ones at scale 1e3, whose gap is zero up to a rounding
    as large as its threshold, so they are near it."""
    cases = []
    for seed in range(20):
        for s, (e_cols, f_cols, exact) in enumerate(WIDE_SHAPES):
            for scale in (1e-3, 1.0, 1e3):
                problem = wide_problem(seed, e_cols, f_cols, exact, scale)
                cases.append((f"wide-{s}-{seed}-{scale:g}", *problem, not (exact and scale > 1.0)))
    rng = np.random.default_rng(15)
    for i in range(20):
        for make in (random_semi_phi_fixture, random_vanishing_obstruction_fixture):
            fx = make(rng)
            cases.append((f"{make.__name__}-{i}", fx.phi_map, fx.e, fx.phi, False))
    for name, fx in [(f"example_2_1-{n}", example_2_1(n)) for n in (1, 2, 3)] + [("compacts-2", compacts_fixture(2))]:
        cases.append((name, fx.phi_map, fx.e, fx.phi, False))
    return cases


class TestRecertification:
    """The engine re-certifies its extension on the KSGNS carrier under the
    Weyl bound against the obstruction's table, and falls back to the table."""

    def test_verdict_and_margin_match_the_table(self, monkeypatch):
        cases, decided = extension_cases(), 0
        settled, verdict_clear = [], ext._psd_verdict_clear  # the clear flag of each carrier decision

        def recorded(*args, **kwargs):
            out = verdict_clear(*args, **kwargs)
            settled.append(out[2])
            return out

        monkeypatch.setattr(ext, "_psd_verdict_clear", recorded)
        for name, phi_map, e, phi, settles in cases:
            monkeypatch.setattr(ext, "_CARRIER_MIN_GAP", 0)
            settled.clear()
            try:
                result = extend_semi_phi(phi_map, e, phi)
            except ExtensionInputError as err:
                # The stages before the re-certification raise as they do
                # with the table deciding everything.
                monkeypatch.setattr(ext, "_CARRIER_MIN_GAP", 10**9)
                with pytest.raises(ExtensionInputError, match=re.escape(str(err))):
                    extend_semi_phi(phi_map, e, phi)
                continue
            decided += 1
            assert settled == [True] or not settles, name
            report, gram = result.report, result.gram
            fresh = gram_pair(result.phi_prime, phi)
            assert np.array_equal(gram.g_phi, fresh.g_phi) and np.array_equal(gram.g_map, fresh.g_map), name
            _, w, _, _, _, pair_band = gap_oracle(result.phi_prime, phi)
            assert report.extension_semi_ok == ext._semi_verdict(gram, DEFAULT_TOL).ok, name
            assert abs(report.extension_semi_margin - w[0]) <= pair_band, name
        # The cases that raise are exact inputs refused at scale 1e3, the
        # rescaling defect that test_kernels.py's strict xfail tracks.
        assert decided >= 0.9 * len(cases)

    def test_zero_maps_take_no_gap_sized_solve(self, monkeypatch):
        # A zero CP map has a rank-0 dilation, so the KSGNS carrier has no C
        # rows: the extension's gap is decided from its k rows alone.
        phi_map, e, phi = wide_problem(0, (2, 2), (1, 1), False)
        n_dim, k = e.dim * 4, phi_map.h2_dim
        zero_phi = CPMap(phi.domain, 4, tuple(0.0 * phi._value_stack))
        zero_map = zero_module_map(phi_map.domain, 4, k)
        calls = count_paths(monkeypatch)
        result = extend_semi_phi(zero_map, e, zero_phi)
        report = result.report
        assert n_dim == 96 and result.dilation.rank == 0 and report.zero_cp_map
        assert (report.extension_semi_ok, report.extension_semi_margin) == (True, 0.0)
        # The input's own gap on F, then the carrier's k x k solve.
        assert calls["eigvalsh"] == [phi_map.domain.dim * 4, k]
        assert max(calls["eigh"] + calls["eigvalsh"]) < n_dim

    @pytest.mark.parametrize("corrupt", [False, True], ids=["carrier", "corrupted-carrier"])
    def test_wide_call_takes_no_gap_sized_solve(self, corrupt, monkeypatch):
        # extend_wide's largest semi shape: dim E 24, N = 96, at the default
        # cutoff.  The carrier decides with a solve of p r + k rows; a carrier
        # corrupted far from the table hands the decision back to it, which
        # takes the one N x N solve.
        phi_map, e, phi = wide_problem(0, (2, 2), (1, 1), False)
        n_dim = e.dim * 4
        assert n_dim == 96 >= ext._CARRIER_MIN_GAP
        if corrupt:
            build = ext.ksgns

            def corrupted(*args, **kwargs):
                result = build(*args, **kwargs)
                result._carrier = 1.5 * result._carrier
                return result

            monkeypatch.setattr(ext, "ksgns", corrupted)
        calls = count_paths(monkeypatch)
        result = extend_semi_phi(phi_map, e, phi)
        solves = list(calls["eigvalsh"])
        want = ext._semi_verdict(result.gram, DEFAULT_TOL)
        assert result.report.extension_semi_ok and want.ok
        assert solves.count(n_dim) == (1 if corrupt else 0)
        if corrupt:
            assert result.report.extension_semi_margin == want.margin
        else:
            assert max(solves) < n_dim
