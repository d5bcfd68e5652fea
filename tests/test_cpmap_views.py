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
    NotCompletelyPositiveError,
    canonical_compacts_extension,
    choi,
    extend_semi_phi,
    from_kraus,
    identity_cp_map,
    kraus,
    ksgns,
    stinespring,
)
from semiphi.cpmaps import CPMap
from semiphi.fixtures import (
    compacts_fixture,
    example_2_1,
    random_cp_map,
    random_orthogonal_module_pair,
    random_semi_phi_fixture,
)
from semiphi.numerics import DEFAULT_TOL, HermiticityError, _reconstruction_threshold


BLOCKS = [(2, 2), (1, 3), (6, 6)]


def reference_first_offender(phi, tol=DEFAULT_TOL):
    """First unit ``(i, j)`` in value order whose value is not the adjoint of
    the value on ``(j, i)``, one unit at a time; None when all agree."""
    pairs = phi.domain.unit_index_pairs()
    index = {pair: t for t, pair in enumerate(pairs)}
    for t, (i, j) in enumerate(pairs):
        a, b = phi.values[t], phi.values[index[(j, i)]].conj().T
        if np.linalg.norm(a - b) > tol.threshold(max(np.linalg.norm(a), np.linalg.norm(b))):
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
        """A defect just above ``tol.threshold(scale)`` is refused and one
        just below accepted, by both the batched check and the reference."""
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
        values = list(phi.values)
        values[t] = base + factor * DEFAULT_TOL.threshold(scale) * direction
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
    """Counts hermiticity checks, Choi matrices and ``eigh`` calls."""

    def __init__(self, monkeypatch):
        self.checks = self.chois = 0
        self.eigh_shapes = []
        check, make_choi, eigh = CPMap.check_hermiticity, cpmaps.choi, np.linalg.eigh

        def counted_check(*args, **kwargs):
            self.checks += 1
            return check(*args, **kwargs)

        def counted_choi(*args, **kwargs):
            self.chois += 1
            return make_choi(*args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            self.eigh_shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(CPMap, "check_hermiticity", counted_check)
        monkeypatch.setattr(cpmaps, "choi", counted_choi)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)


class TestOnePassCounts:
    @pytest.mark.parametrize("view", [kraus, stinespring])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_one_check_one_choi_one_eigh_per_block(self, view, blocks, monkeypatch):
        phi = random_cp_map(BlockAlgebra(blocks), 3, 2, np.random.default_rng(3))
        counter = Counter(monkeypatch)
        view(phi)
        sides = [n * phi.target_dim for n in blocks]
        assert (counter.checks, counter.chois) == (1, 1)
        assert counter.eigh_shapes == [(side, side) for side in sides]
        # The map keeps its spectrum: a second view checks again, solves nothing.
        view(phi)
        assert (counter.checks, counter.chois) == (2, 2)
        assert len(counter.eigh_shapes) == len(sides)

    @pytest.mark.parametrize("fixture", [example_2_1, compacts_fixture])
    def test_one_choi_per_extension(self, fixture, monkeypatch):
        fx = fixture(2)
        counter = Counter(monkeypatch)
        extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert (counter.checks, counter.chois) == (1, 1)

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
