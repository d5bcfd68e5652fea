"""The CP-map views (adjoint check, Choi, Kraus, Stinespring, KSGNS) against
per-unit and per-element reference loops, and the number of checks and
eigendecompositions each call makes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiphi.cpmaps as cpmaps
import semiphi.extension as ext
import semiphi.modules as modules
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    ModuleMap,
    NotCompletelyPositiveError,
    block_map,
    canonical_compacts_extension,
    choi,
    extend_semi_phi,
    from_kraus,
    identity_cp_map,
    is_completely_positive,
    is_completely_semi_phi,
    is_cp_system_map,
    kraus,
    ksgns,
    semiphi_witness,
    stinespring,
)
from semiphi.cpmaps import CPMap
from semiphi.fixtures import (
    _column_module,
    _random_unitary,
    compacts_fixture,
    example_2_1,
    random_contraction,
    random_cp_map,
    random_orthogonal_module_pair,
    random_semi_phi_fixture,
)
from semiphi.numerics import DEFAULT_TOL, HermiticityError, _reconstruction_threshold

from conftest import full_rectangular_module


BLOCKS = [(2, 2), (1, 3), (6, 6)]


def reference_first_offender(phi, tol=DEFAULT_TOL):
    """First unit ``(i, j)`` in value order whose value is not the adjoint of
    the value on ``(j, i)``, one unit at a time, at the larger of the two
    norms bounded by the largest value norm; None when all agree."""
    pairs = phi.domain.unit_index_pairs()
    index = {pair: t for t, pair in enumerate(pairs)}
    largest = max(np.linalg.norm(v) for v in phi.values)
    for t, (i, j) in enumerate(pairs):
        a, b = phi.values[t], phi.values[index[(j, i)]].conj().T
        if np.linalg.norm(a - b) > tol.bounded_threshold(max(np.linalg.norm(a), np.linalg.norm(b)), largest):
            return i, j
    return None


def reference_choi(phi):
    q, m = phi.domain.ambient_dim, phi.target_dim
    j = np.zeros((q * m, q * m), dtype=complex)
    for (r, c), value in zip(phi.domain.unit_index_pairs(), phi.values):
        j[r * m : (r + 1) * m, c * m : (c + 1) * m] = value
    return j


def reference_ambient_tensor(phi):
    q, m = phi.domain.ambient_dim, phi.target_dim
    w = np.zeros((m, m, q, q), dtype=complex)
    for (i, j), value in zip(phi.domain.unit_index_pairs(), phi.values):
        w[:, :, i, j] = value
    return w


def reference_kraus(phi, tol=DEFAULT_TOL):
    """Kraus operators one eigenpair at a time from a second ``eigh`` of
    each algebra block of the symmetrized Choi matrix, block after block and
    largest first within a block, cut in units of the largest eigenvalue of
    all blocks."""
    j = reference_choi(phi)
    q, m = phi.domain.ambient_dim, phi.target_dim
    herm = (j + j.conj().T) / 2.0
    spectra = [np.linalg.eigh(herm[sl.start * m : sl.stop * m, sl.start * m : sl.stop * m]) for sl in phi.domain.block_slices()]
    top = max([lam[-1] for lam, _ in spectra if lam.size], default=0.0)
    if top <= 0.0:
        return []
    cutoff = tol.bounded_threshold(top, top)
    ops = []
    for (eigvals, eigvecs), sl in zip(spectra, phi.domain.block_slices()):
        for lam, vec in zip(eigvals[::-1], eigvecs.T[::-1]):
            if lam <= cutoff:
                break
            op = np.zeros((m, q), dtype=complex)
            op[:, sl] = np.sqrt(lam) * vec.reshape(sl.stop - sl.start, m).T
            ops.append(op)
    return ops


def with_values(phi, values):
    return CPMap(phi.domain, phi.target_dim, tuple(values))


def check_message(phi, expected):
    if expected is None:
        phi.check_hermiticity()
        return
    i, j = expected
    with pytest.raises(HermiticityError) as info:
        phi.check_hermiticity()
    assert str(info.value) == (
        f"values on units ({i},{j}) and ({j},{i}) are not adjoint-consistent"
    )


class TestAdjointCheck:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_first_offender_matches_reference(self, blocks):
        rng = np.random.default_rng(sum(blocks))
        phi = random_cp_map(BlockAlgebra(blocks), 3, 2, rng)
        assert reference_first_offender(phi) is None
        check_message(phi, None)
        count = len(phi.values)
        for t in sorted({0, 1, count // 3, count // 2, count - 2, count - 1}):
            values = list(phi.values)
            values[t] = values[t] + 1e-3 * rng.standard_normal((3, 3))
            bad = with_values(phi, values)
            expected = reference_first_offender(bad)
            assert expected is not None
            check_message(bad, expected)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_two_offending_pairs_report_the_earlier(self, blocks):
        rng = np.random.default_rng(7)
        phi = random_cp_map(BlockAlgebra(blocks), 2, 1, rng)
        count = len(phi.values)
        values = list(phi.values)
        for t in (count - 1, count // 2):
            values[t] = values[t] + 1e-2 * (1.0 + 1.0j) * np.eye(2)
        bad = with_values(phi, values)
        check_message(bad, reference_first_offender(bad))

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("factor, raises", [(1.001, True), (0.999, False)])
    def test_defect_at_the_threshold(self, blocks, factor, raises):
        """A defect just above ``tol.bounded_threshold(scale, largest)`` (the
        pair's larger norm, bounded by the largest value norm) is refused
        and one just below accepted, by both the batched check and the
        reference."""
        rng = np.random.default_rng(11)
        algebra = BlockAlgebra(blocks)
        phi = random_cp_map(algebra, 2, 2, rng)
        pairs = algebra.unit_index_pairs()
        index = {pair: t for t, pair in enumerate(pairs)}
        t = next(t for t, (i, j) in enumerate(pairs) if i < j and t > len(pairs) // 3)
        i, j = pairs[t]
        s = index[(j, i)]
        direction = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        direction /= np.linalg.norm(direction)
        base = phi.values[s].conj().T
        scale = max(np.linalg.norm(base), np.linalg.norm(phi.values[s]))
        largest = max(np.linalg.norm(v) for v in phi.values)
        values = list(phi.values)
        values[t] = base + factor * DEFAULT_TOL.bounded_threshold(scale, largest) * direction
        bad = with_values(phi, values)
        expected = (i, j) if raises else None
        assert reference_first_offender(bad) == expected
        check_message(bad, expected)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_zero_map(self, blocks):
        algebra = BlockAlgebra(blocks)
        zero = from_kraus(algebra, [], target_dim=2)
        zero.check_hermiticity()
        assert not choi(zero).any()
        assert kraus(zero) == []
        assert stinespring(zero).rank == 0

    def test_zero_target_dimension(self):
        empty = from_kraus(BlockAlgebra((2, 1)), [], target_dim=0)
        empty.check_hermiticity()
        assert choi(empty).shape == (0, 0)
        assert kraus(empty) == []


def whole_choi_defect(phi):
    """``|J - J*|_F`` and ``|J|_F`` of the whole Choi matrix."""
    j = reference_choi(phi)
    return np.linalg.norm(j - j.conj().T), np.linalg.norm(j)


def pair_only_case(c):
    """A map over BlockAlgebra((4,)) into M_2, times ``c``, whose value on
    E_01 misses the adjoint of the value on E_10 by 1.5 times the pair
    threshold: the pair test fires, the whole test alone would pass."""
    phi = random_cp_map(BlockAlgebra((4,)), 2, 2, np.random.default_rng(4))
    values = c * phi._value_stack
    norms = np.linalg.norm(values, axis=(-2, -1))
    t = phi.domain.unit_index_pairs().index((0, 1))
    values[t] += 1.5 * DEFAULT_TOL.bounded_threshold(norms[t], norms.max()) * np.eye(2) / np.sqrt(2.0)
    return CPMap(phi.domain, 2, tuple(values))


def whole_only_case(c):
    """A map over BlockAlgebra((3,)) into M_2, times ``c``: the identity on
    E_00, values of size 1e-3 elsewhere, and each off-diagonal pair missing
    adjointness by 0.9 of its pair threshold.  Every pair passes; the six
    defects add up past the whole matrix's threshold."""
    algebra = BlockAlgebra((3,))
    rng = np.random.default_rng(5)
    pairs = algebra.unit_index_pairs()
    values = np.zeros((len(pairs), 2, 2), dtype=complex)
    for t, (i, j) in enumerate(pairs):
        if i <= j:
            a = 1e-3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            values[t] = a if i < j else (a + a.conj().T) / 2.0
            values[pairs.index((j, i))] = values[t].conj().T
    values[pairs.index((0, 0))] = np.eye(2)
    largest = np.sqrt(2.0)
    for t, (i, j) in enumerate(pairs):
        if i < j:
            norm = np.linalg.norm(values[t])
            values[t] += 0.9 * DEFAULT_TOL.bounded_threshold(norm, largest) * np.eye(2) / np.sqrt(2.0)
    return CPMap(algebra, 2, tuple(c * values))


VIEWS = {
    "is_completely_positive": is_completely_positive,
    "kraus": kraus,
    "stinespring": stinespring,
}


class TestHermiticityPrecondition:
    """Each of the two hermiticity tests of the CP views fires on its own,
    with its own error text, at every scale: each unit pair at its larger
    norm bounded by the largest value norm, and the whole Choi matrix at
    its Frobenius norm."""

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("c", [1e-12, 1e-4, 1.0, 1e10])
    def test_pair_test_fires(self, view, c):
        phi = pair_only_case(c)
        defect, scale = whole_choi_defect(phi)
        assert defect <= DEFAULT_TOL.bounded_threshold(scale, scale)
        assert reference_first_offender(phi) == (0, 1)
        with pytest.raises(HermiticityError) as info:
            VIEWS[view](phi)
        assert str(info.value) == "values on units (0,1) and (1,0) are not adjoint-consistent"

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("c", [1e-12, 1e-4, 1.0, 1e10])
    def test_whole_test_fires(self, view, c):
        phi = whole_only_case(c)
        defect, scale = whole_choi_defect(phi)
        assert defect > DEFAULT_TOL.bounded_threshold(scale, scale)
        assert reference_first_offender(phi) is None
        with pytest.raises(HermiticityError) as info:
            VIEWS[view](phi)
        assert str(info.value) == f"matrix is not hermitian: defect {defect:.3e} exceeds tolerance"


class TestCpWitness:
    """The witness of :func:`is_completely_positive`: a unit eigenvector of
    the whole symmetrized Choi matrix for ``lambda_min``, lifted from one
    block."""

    @pytest.mark.parametrize("blocks", BLOCKS + [(1,), (3, 1, 2)])
    @pytest.mark.parametrize("kind", ["random", "identity", "indefinite"])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e10])
    def test_lowest_eigenvector_of_the_whole_matrix(self, blocks, kind, scale):
        for seed in range(4):
            phi = dilation_case(seed, blocks, 3, kind, seed == 3, scale)
            report = is_completely_positive(phi)
            j = reference_choi(phi)
            herm = (j + j.conj().T) / 2.0
            v = report.witness
            assert v.shape == (phi.domain.ambient_dim * phi.target_dim,)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            top = np.abs(np.linalg.eigvalsh(herm)).max()
            assert np.vdot(v, herm @ v).real == pytest.approx(report.lambda_min, abs=1e-12 * top)
            assert np.linalg.norm(herm @ v - report.lambda_min * v) <= 1e-12 * top
            assert report.lambda_min == pytest.approx(np.linalg.eigvalsh(herm)[0], abs=1e-12 * top)

    def test_zero_map(self):
        zero = from_kraus(BlockAlgebra((2, 1)), [], target_dim=2)
        report = is_completely_positive(zero)
        assert (report.ok, report.lambda_min) == (True, 0.0)
        assert report.witness.shape == (6,) and np.linalg.norm(report.witness) == pytest.approx(1.0)
        assert np.vdot(report.witness, reference_choi(zero) @ report.witness) == 0.0
        empty = from_kraus(BlockAlgebra((2, 1)), [], target_dim=0)
        report = is_completely_positive(empty)
        assert (report.ok, report.lambda_min, report.witness.shape) == (True, 0.0, (0,))


class TestViewsMatchReference:
    @pytest.mark.parametrize("blocks", BLOCKS + [(1,), (3, 1, 2)])
    def test_choi_tensor_and_kraus(self, blocks):
        rng = np.random.default_rng(len(blocks))
        for m, rank in [(1, 1), (3, 2), (2, 5)]:
            phi = random_cp_map(BlockAlgebra(blocks), m, rank, rng)
            assert np.array_equal(choi(phi), reference_choi(phi))
            assert np.array_equal(phi._ambient_tensor, reference_ambient_tensor(phi))
            ops, ref = kraus(phi), reference_kraus(phi)
            assert len(ops) == len(ref) > 0
            for k, k_ref in zip(ops, ref):
                assert np.array_equal(k, k_ref)

    @pytest.mark.parametrize("blocks", BLOCKS + [(1,), (3, 1, 2)])
    def test_reconstruction_defect(self, blocks):
        algebra = BlockAlgebra(blocks)
        rng = np.random.default_rng(sum(blocks))
        maps = [random_cp_map(algebra, m, rank, rng) for m, rank in [(1, 1), (3, 2), (2, 5)]]
        for phi in maps:
            dil = stinespring(phi)
            assert dil.reconstruction_defect(phi) == pytest.approx(
                reference_reconstruction_defect(dil, phi), rel=0, abs=1e-15
            )
        # A dilation against another map, and against the zero map.
        zero = from_kraus(algebra, [], target_dim=3)
        dil = stinespring(maps[1])
        for other in (random_cp_map(algebra, 3, 1, rng), zero):
            defect = dil.reconstruction_defect(other)
            assert defect > 0.1
            assert defect == pytest.approx(reference_reconstruction_defect(dil, other), rel=1e-14)
        # Rank 0: the zero map and the map into M_0.
        for empty in (zero, from_kraus(algebra, [], target_dim=0)):
            dil = stinespring(empty)
            assert dil.rank == 0
            assert dil.reconstruction_defect(empty) == 0.0 == reference_reconstruction_defect(dil, empty)

    @pytest.mark.parametrize("seed", range(8))
    def test_rescaled_map_keeps_every_kraus_operator(self, seed):
        """The Choi eigenvalues are cut in units of the largest one, so a map
        of Choi rank 6 keeps all six operators at every scale, and its
        dilation reconstructs it at the threshold `semiphi stinespring`
        decides with; at scale 1e-8 a cut with an absolute floor dropped one
        to three of them."""
        phi = random_cp_map(BlockAlgebra((2, 1)), 3, 3, np.random.default_rng(seed))
        for c in (1e-8, 1.0, 1e10, 1e12):
            scaled = CPMap(phi.domain, phi.target_dim, tuple(c * phi._value_stack))
            dil = stinespring(scaled)
            assert dil.rank == 6
            assert dil.reconstruction_defect(scaled) <= _reconstruction_threshold(DEFAULT_TOL, scaled._value_stack)


def dilation_case(seed, blocks, m, kind, zero_block, scale):
    """A map over ``BlockAlgebra(blocks)`` into ``M_m``, times ``scale``:
    "random" is CP of a random Kraus rank (0 to 4), "identity" the
    inclusion (whose blocks share their Choi eigenvalues) and "indefinite"
    the difference of two random CP maps.  With ``zero_block`` the map
    vanishes on the units of the first block."""
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra(blocks)
    if kind == "identity":
        phi = identity_cp_map(algebra)
    else:
        phi = random_cp_map(algebra, m, int(rng.integers(0, 5)), rng)
        if kind == "indefinite":
            other = random_cp_map(algebra, m, 1, rng)
            phi = CPMap(algebra, m, tuple(phi._value_stack - 2.0 * other._value_stack))
    values = scale * phi._value_stack
    if zero_block:
        values[: blocks[0] ** 2] = 0.0
    return CPMap(algebra, phi.target_dim, tuple(values))


def whole_choi_spectrum(phi):
    """Eigenvalues of the whole symmetrized Choi matrix, from one ``eigh``."""
    j = reference_choi(phi)
    return np.linalg.eigh((j + j.conj().T) / 2.0)[0]


class TestBlockLocalDilation:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
        st.integers(1, 3),
        st.sampled_from(["random", "identity", "indefinite"]),
        st.booleans(),
        st.sampled_from([1e-8, 1.0, 1e10]),
    )
    @example(0, (2, 2), 2, "identity", False, 1.0)
    @example(0, (2, 2), 2, "identity", False, 1e-8)
    @example(0, (2, 2), 2, "identity", True, 1e10)
    @example(1, (2, 1, 3), 3, "random", True, 1.0)
    def test_matches_one_eigh_of_the_whole_choi_matrix(self, seed, blocks, m, kind, zero_block, scale):
        phi = dilation_case(seed, blocks, m, kind, zero_block, scale)
        lam = whole_choi_spectrum(phi)
        top = max(abs(lam[0]), abs(lam[-1])) if lam.size else 0.0
        cp = not lam.size or lam[0] >= -DEFAULT_TOL.bounded_threshold(top, top)
        if not cp:
            with pytest.raises(NotCompletelyPositiveError):
                kraus(phi)
            return
        ops = kraus(phi)
        assert len(ops) == np.count_nonzero(lam > DEFAULT_TOL.bounded_threshold(lam.max(initial=0.0), lam.max(initial=0.0)))
        # Each operator is zero off one block, and they come block after block.
        owners = []
        for op in ops:
            live = [k for k, sl in enumerate(phi.domain.block_slices()) if np.any(op[:, sl])]
            assert len(live) == 1
            owners.append(live[0])
        assert owners == sorted(owners)
        if zero_block:
            assert 0 not in owners
        dil = stinespring(phi)
        assert dil.block_ranks == tuple(owners.count(k) for k in range(len(blocks)))
        assert dil.reconstruction_defect(phi) <= _reconstruction_threshold(DEFAULT_TOL, phi._value_stack)


def reference_reconstruction_defect(dil, phi):
    """Max over matrix units of ``|phi(u) - V*(u (x) I_r)V|``, one
    ``np.kron`` per unit."""
    worst = 0.0
    for unit, value in zip(phi.domain.matrix_units(), phi.values):
        recon = dil.V.conj().T @ np.kron(unit, np.eye(dil.rank)) @ dil.V
        worst = max(worst, float(np.linalg.norm(recon - value, 2)))
    return worst


class Counter:
    """Counts hermiticity checks, calls of :func:`~semiphi.cpmaps.choi`,
    whole Choi matrices assembled (``_choi_matrix``, in either module that
    calls it) and ``eigh`` and ``eigvalsh`` calls."""

    def __init__(self, monkeypatch):
        self.checks = self.chois = self.matrices = 0
        self.eigh_shapes, self.eigvalsh_shapes = [], []
        check, make_choi, matrix = CPMap.check_hermiticity, cpmaps.choi, cpmaps._choi_matrix
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def counted_check(*args, **kwargs):
            self.checks += 1
            return check(*args, **kwargs)

        def counted_choi(*args, **kwargs):
            self.chois += 1
            return make_choi(*args, **kwargs)

        def counted_matrix(*args, **kwargs):
            self.matrices += 1
            return matrix(*args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            self.eigh_shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counted_eigvalsh(a, *args, **kwargs):
            self.eigvalsh_shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(CPMap, "check_hermiticity", counted_check)
        monkeypatch.setattr(cpmaps, "choi", counted_choi)
        monkeypatch.setattr(cpmaps, "_choi_matrix", counted_matrix)
        monkeypatch.setattr(ext, "_choi_matrix", counted_matrix)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)


def carrier_system(norm, seed=0):
    """``norm`` times a unit-norm contraction of the universal map over
    BlockAlgebra((2, 2)), with four columns per block in C^10 and m = k =
    4: N = 64, so the semi criterion decides on the signed Choi carrier.
    Semi-compatible at norm 0.5, refuted at norm 2."""
    rng = np.random.default_rng(seed)
    algebra = BlockAlgebra((2, 2))
    u = _random_unitary(10, rng)
    module = _column_module(algebra, 10, [u[:, :4], u[:, 4:8]])
    phi = random_cp_map(algebra, 4, 2, rng)
    universal = ksgns(phi, module).map
    contraction = random_contraction(4, universal.h2_dim, rng)
    contraction *= norm / np.linalg.norm(contraction, 2)
    phi_map = ModuleMap(module, 4, 4, tuple(contraction @ universal._value_stack))
    assert phi_map.domain.dim * phi.target_dim >= ext._CARRIER_MIN_GAP
    return phi_map, phi


class TestOnePassCounts:
    @pytest.mark.parametrize("view", [kraus, stinespring])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_one_check_one_eigh_per_block_and_no_choi_matrix(self, view, blocks, monkeypatch):
        phi = random_cp_map(BlockAlgebra(blocks), 3, 2, np.random.default_rng(3))
        counter = Counter(monkeypatch)
        view(phi)
        sides = [n * phi.target_dim for n in blocks]
        assert (counter.checks, counter.chois, counter.matrices) == (1, 0, 0)
        assert counter.eigh_shapes == [(side, side) for side in sides]
        # The map keeps its spectrum: a second view checks again, solves nothing.
        view(phi)
        assert (counter.checks, counter.chois, counter.matrices) == (2, 0, 0)
        assert len(counter.eigh_shapes) == len(sides)

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("kind", ["cp", "indefinite"])
    def test_cp_verdict_one_eigvalsh_per_block(self, blocks, kind, monkeypatch):
        # The verdict is one eigenvalue-only solve per algebra block, of side
        # n_k m, and forms no whole Choi matrix; the witness is one eigh of
        # the block attaining lambda_min, on first access.
        phi = dilation_case(5, blocks, 3, "random" if kind == "cp" else "indefinite", False, 1.0)
        counter = Counter(monkeypatch)
        report = is_completely_positive(phi)
        sides = [n * phi.target_dim for n in blocks]
        assert (counter.checks, counter.chois, counter.matrices) == (1, 0, 0)
        assert counter.eigvalsh_shapes == [(side, side) for side in sides]
        assert counter.eigh_shapes == []
        low = min(range(len(blocks)), key=lambda k: np.linalg.eigvalsh(phi._choi_blocks()[k])[0])
        counter.eigvalsh_shapes.clear()
        assert report.witness is report.witness
        assert counter.eigh_shapes == [(sides[low], sides[low])]
        assert counter.matrices == 0

    @pytest.mark.parametrize("fixture", [example_2_1, compacts_fixture])
    def test_one_check_and_no_choi_matrix_per_extension(self, fixture, monkeypatch):
        fx = fixture(2)
        counter = Counter(monkeypatch)
        extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert (counter.checks, counter.chois, counter.matrices) == (1, 0, 0)

    def test_carrier_decisions_form_no_choi_matrix(self, monkeypatch):
        # At N >= 64 the semi criterion reads the Choi blocks' spectra and the
        # value stack's norms; only the witness's independent re-evaluation
        # (extension._witness_rhs) assembles the whole Choi matrix.
        semi, phi = carrier_system(0.5)
        refuted, _ = carrier_system(2.0)
        counter = Counter(monkeypatch)
        assert is_completely_semi_phi(semi, phi).ok
        assert not is_completely_semi_phi(refuted, phi).ok
        assert is_cp_system_map(block_map(semi, phi, full_rectangular_module(4, 4))).ok
        assert counter.matrices == 0
        witness = semiphi_witness(refuted, phi)
        assert witness.gap > 0.0
        assert counter.matrices == 1
        assert counter.chois == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_obstruction_and_validation_per_canonical_extension(self, n, monkeypatch):
        fx = compacts_fixture(n)
        f_stack, e_stack = fx.f._basis_stack, fx.e._basis_stack
        calls = {"obstruction": 0, "input_gram": 0, "phi_check": 0, "f_pairs": 0, "e_pairs": 0}
        validated = []
        obstruction, validate = ext.phi_extension_obstruction, modules.validate_module
        gram, phi_check, apply_pairs = ext.gram_pair, ext.is_phi_map, CPMap.apply_pairs

        def counted_obstruction(*args, **kwargs):
            calls["obstruction"] += 1
            return obstruction(*args, **kwargs)

        def counted_validate(module, *args, **kwargs):
            validated.append(module)
            return validate(module, *args, **kwargs)

        def counted_gram(phi_map, *args, **kwargs):
            calls["input_gram"] += phi_map is fx.phi_map
            return gram(phi_map, *args, **kwargs)

        def counted_phi_check(*args, **kwargs):
            calls["phi_check"] += 1
            return phi_check(*args, **kwargs)

        def counted_pairs(phi, xs, ys):
            calls["f_pairs"] += xs is f_stack and ys is f_stack
            calls["e_pairs"] += xs is e_stack and ys is e_stack
            return apply_pairs(phi, xs, ys)

        monkeypatch.setattr(ext, "phi_extension_obstruction", counted_obstruction)
        monkeypatch.setattr(modules, "validate_module", counted_validate)
        monkeypatch.setattr(ext, "gram_pair", counted_gram)
        monkeypatch.setattr(ext, "is_phi_map", counted_phi_check)
        monkeypatch.setattr(CPMap, "apply_pairs", counted_pairs)
        canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)
        # One Gram pair on f serves the exact check and the engine's semi
        # check; the one E x E table is the obstruction's, which the universal
        # map's pair, the engine's re-certification and the certificate of
        # the extension-by-zero read.
        assert calls == {
            "obstruction": 1,
            "input_gram": 1,
            "phi_check": 0,
            "f_pairs": 1,
            "e_pairs": 1,
        }
        # The obstruction validates f (as a submodule of e) and then e, each
        # exactly once.
        assert len(validated) == 2
        assert validated[0] is fx.f and validated[1] is fx.e


def assert_ksgns_matches_kron_loop(phi, e):
    """The values ``Q* C(x_i)`` of :func:`ksgns` against the carrier columns
    ``(x_i (x) I_r) V`` of one ``np.kron`` per basis element: a unitary of
    the range basis apart, so with the same rank and the same Gram matrix,
    and ``Q`` has orthonormal columns."""
    result = ksgns(phi, e)
    dil, q_onb = result.dilation, result.onb
    r, m = dil.rank, phi.target_dim
    assert len(result.map.values) == e.dim
    columns = np.zeros((e.row_dim * r, 0), dtype=complex)
    for b in e.basis:
        columns = np.hstack([columns, np.kron(b, np.eye(r, dtype=complex)) @ dil.V])
    values = result.map.stacked_columns()
    rank = np.linalg.matrix_rank(columns, tol=1e-10) if columns.size else 0
    assert result.map.h2_dim == rank
    assert np.abs(values.conj().T @ values - columns.conj().T @ columns).max(initial=0.0) <= 1e-12
    assert np.abs(q_onb.conj().T @ q_onb - np.eye(q_onb.shape[1])).max(initial=0.0) <= 1e-12
    assert values.shape == (q_onb.shape[1], e.dim * m)
    return result


class TestKsgnsParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_fixtures(self, seed):
        fx = random_semi_phi_fixture(np.random.default_rng(seed))
        assert_ksgns_matches_kron_loop(fx.phi, fx.e)
        assert_ksgns_matches_kron_loop(fx.phi, fx.f)

    def test_wide_algebra(self):
        rng = np.random.default_rng(5)
        algebra = BlockAlgebra((6, 6))
        e, _ = random_orthogonal_module_pair(algebra, rng, p=5, max_dim=24)
        result = assert_ksgns_matches_kron_loop(random_cp_map(algebra, 4, 2, rng), e)
        # The pinch splits each of the 2 Kraus operators into its 2 blocks.
        assert result.dilation.rank == 4

    def test_rank_zero_map(self):
        rng = np.random.default_rng(1)
        algebra = BlockAlgebra((1, 2))
        e, _ = random_orthogonal_module_pair(algebra, rng, max_dim=4)
        result = assert_ksgns_matches_kron_loop(from_kraus(algebra, [], target_dim=2), e)
        assert result.dilation.rank == 0
        assert result.map.h2_dim == 0
        assert all(v.shape == (0, 2) for v in result.map.values)

    def test_zero_dimensional_module(self):
        algebra = BlockAlgebra((1, 2))
        empty = ConcreteModule(algebra, 3, ())
        phi = random_cp_map(algebra, 2, 2, np.random.default_rng(2))
        result = assert_ksgns_matches_kron_loop(phi, empty)
        assert result.map.values == ()
        # No block has a column, so the carrier has no row.
        assert result.onb.shape == (0, 0)
