import itertools

import numpy as np
import pytest

import semiphi.extension as ext
import semiphi.numerics as numerics
from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ExtensionInputError,
    ExtensionReport,
    ModuleMap,
    PreconditionError,
    ShapeError,
    canonical_compacts_extension,
    compare_extensions,
    extend_semi_phi,
    from_kraus,
    gram_pair,
    identity_cp_map,
    is_completely_semi_phi,
    is_nondegenerate,
    is_phi_map,
    ksgns,
    phi_extension_obstruction,
    semiphi_witness,
    zero_module_map,
)
from semiphi.fixtures import (
    compacts_fixture,
    example_2_1,
    random_cp_map,
    random_orthogonal_module_pair,
    random_semi_phi_fixture,
    random_vanishing_obstruction_fixture,
    random_violating_module_map,
    scalar_fixture,
)
from semiphi.modules import inner_product_matrix
from semiphi.numerics import DEFAULT_TOL
from conftest import full_rectangular_module


def reference_witness_sides(phi_map, phi, vectors):
    """``|sum_k Phi(x_k) v_k|^2`` and ``sum_kk' <v_k, phi(<x_k, x_k'>) v_k'>``,
    one basis pair at a time."""
    total = sum((val @ vec for val, vec in zip(phi_map.values, vectors)), np.zeros(phi_map.h2_dim))
    basis = phi_map.domain.basis
    rhs = 0.0
    for k, kp in itertools.product(range(len(basis)), repeat=2):
        block = phi.apply_ambient(inner_product_matrix(basis[k], basis[kp]))
        rhs += np.vdot(vectors[k], block @ vectors[kp]).real
    return float(np.vdot(total, total).real), rhs


class TestPhiMapPredicate:
    def test_identity_on_full_module(self):
        e = full_rectangular_module(2, 2)
        phi = identity_cp_map(e.algebra)
        ident = ModuleMap(e, 2, 2, e.basis)
        assert is_phi_map(ident, phi).ok

    def test_top_projection_on_submodule(self):
        for n in (1, 2, 3):
            fx = example_2_1(n)
            assert is_phi_map(fx.phi_map, fx.phi).ok

    def test_zero_padding_fails_on_whole_module(self):
        fx = example_2_1(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        report = is_phi_map(res.phi_prime, fx.phi)
        assert not report.ok
        # The failing pair involves a bottom-half (complement) direction.
        i, j = report.worst_pair
        perp = phi_extension_obstruction(fx.phi, fx.f, fx.e).complement
        assert perp.contains_matrix(fx.e.basis[i]) or perp.contains_matrix(fx.e.basis[j])


class TestNondegeneracy:
    def test_scalar_projection(self):
        fx = example_2_1(1)
        assert is_nondegenerate(fx.phi_map)

    def test_zero_map(self):
        e = full_rectangular_module(2, 2)
        assert not is_nondegenerate(zero_module_map(e, 2, 1))

    def test_zero_padding_keeps_range(self):
        fx = example_2_1(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert is_nondegenerate(res.phi_prime)


class TestKsgns:
    def test_scalar_identity_model(self):
        algebra = BlockAlgebra((1,))
        e = ConcreteModule(
            algebra,
            2,
            (np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)),
        )
        result = ksgns(identity_cp_map(algebra), e)
        assert result.map.h2_dim == 2
        assert is_phi_map(result.map, identity_cp_map(algebra)).ok
        assert is_nondegenerate(result.map)

    def test_universal_map_is_always_compatible(self, rng):
        for _ in range(20):
            fx = random_semi_phi_fixture(rng)
            result = ksgns(fx.phi, fx.e)
            assert is_phi_map(result.map, fx.phi).ok
            assert is_nondegenerate(result.map)

    def test_zero_cp_map_collapses(self):
        algebra = BlockAlgebra((1,))
        e = ConcreteModule(algebra, 1, (np.array([[1.0]], dtype=complex),))
        zero = identity_cp_map(algebra)
        zero = type(zero)(algebra, 1, (np.zeros((1, 1)),))
        result = ksgns(zero, e)
        assert result.map.h2_dim == 0


class TestSemiPredicate:
    def test_scalar_contraction_threshold(self):
        for c, expect in ((0.5, True), (1.0, True), (2.0, False)):
            pm, phi = scalar_fixture(c)
            assert is_completely_semi_phi(pm, phi).ok is expect

    def test_every_phi_map_is_semi(self):
        fx = example_2_1(2)
        report = is_completely_semi_phi(fx.phi_map, fx.phi)
        assert report.ok
        assert abs(report.margin) < 1e-9

    def test_extension_is_semi(self):
        fx = example_2_1(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert is_completely_semi_phi(res.phi_prime, fx.phi).ok


class TestWitness:
    def test_scalar_c2(self):
        pm, phi = scalar_fixture(2.0)
        w = semiphi_witness(pm, phi)
        assert w.lhs == pytest.approx(4.0)
        assert w.rhs == pytest.approx(1.0)

    def test_refuses_satisfying_pair(self):
        pm, phi = scalar_fixture(1.0)
        with pytest.raises(PreconditionError):
            semiphi_witness(pm, phi)

    def test_random_violations_produce_witnesses(self, rng):
        produced = 0
        for _ in range(30):
            fx = random_semi_phi_fixture(rng)
            bad = random_violating_module_map(fx, rng)
            if is_completely_semi_phi(bad, fx.phi).ok:
                continue  # scaling a zero form stays satisfying
            w = semiphi_witness(bad, fx.phi)
            assert w.gap > 0.0
            produced += 1
        assert produced >= 10


def tripled_example_2_1():
    fx = example_2_1(2)
    return ModuleMap(fx.f, 2, 2, tuple(3.0 * v for v in fx.phi_map.values)), fx.phi


class TestWitnessReevaluation:
    """The certificate's independent re-evaluation through the Choi matrix,
    against the per-pair loop it replaced."""

    def assert_rhs_matches(self, phi_map, phi, rng):
        d, m = phi_map.domain.dim, phi.target_dim
        vecs = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        _, want = reference_witness_sides(phi_map, phi, vecs)
        got = ext._witness_rhs(phi, phi_map.domain._basis_stack, vecs)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_random_fixtures(self, rng):
        for _ in range(20):
            fx = random_semi_phi_fixture(rng)
            self.assert_rhs_matches(fx.phi_map, fx.phi, rng)
            # The ambient module too: only the domain basis enters the rhs.
            self.assert_rhs_matches(zero_module_map(fx.e, fx.phi.target_dim, 1), fx.phi, rng)

    def test_zero_submodule_and_zero_cp_map(self, rng):
        algebra = BlockAlgebra((1, 2))
        e, _ = random_orthogonal_module_pair(algebra, rng, max_dim=4)
        empty = ConcreteModule(algebra, e.row_dim, ())
        zero_phi = from_kraus(algebra, [], target_dim=2)
        for module, phi in (
            (empty, random_cp_map(algebra, 2, 2, rng)),
            (empty, zero_phi),
            (e, zero_phi),
        ):
            self.assert_rhs_matches(zero_module_map(module, 2, 3), phi, rng)
        vecs = rng.standard_normal((e.dim, 2)) + 0j
        assert ext._witness_rhs(zero_phi, e._basis_stack, vecs) == 0.0

    def test_witness_sides_match_reference(self, rng):
        checked = 0
        for _ in range(30):
            fx = random_semi_phi_fixture(rng)
            bad = random_violating_module_map(fx, rng)
            if is_completely_semi_phi(bad, fx.phi).ok:
                continue
            w = semiphi_witness(bad, fx.phi)
            lhs, rhs = reference_witness_sides(bad, fx.phi, w.vectors)
            assert w.lhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)
            assert w.rhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "make, sides, path, verdict_solves, witness_solves",
        [
            # N = 1 = k: the carrier is no smaller than the gap, so the Gram
            # pair decides, by eigenvalues alone or by the witness's eigh.
            (lambda: scalar_fixture(2.0), (4.0, 1.0), "table", (1, [], [1]), (1, [1], [])),
            # Example 2.1 at n = 2 with the map tripled and the carrier let
            # decide below its size cutoff: it does (2 rows * T = 1 + k = 2,
            # below N = 8) after one eigh of the 4x4 Choi matrix and one of
            # the 4x4 row Gram y y* of the basis (p = 4, 4 * 2 columns), with
            # no SVD.  The witness reuses the Choi spectrum the map keeps and
            # the row form the module keeps, and its eigh of the 4x4 carrier
            # matrix gives its vector.  The gap is -8 g_phi, so every
            # eigenvector for its smallest eigenvalue -16 has sides 18 and 2.
            (tripled_example_2_1, (18.0, 2.0), "carrier", (0, [4, 4], [4]), (0, [4], [])),
        ],
        ids=["table", "carrier"],
    )
    def test_one_decision_and_no_pair_kernel(self, make, sides, path, verdict_solves, witness_solves, monkeypatch):
        pm, phi = make()
        monkeypatch.setattr(ext, "_CARRIER_MIN_GAP", 0)
        grams = counted(monkeypatch, ext, "gram_pair")
        eigh = counted(monkeypatch, np.linalg, "eigh")
        eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
        svd = counted(monkeypatch, np.linalg, "svd")

        def solves():
            return len(grams), [a[0].shape[0] for a in eigh], [a[0].shape[0] for a in eigvalsh]

        # The verdict alone solves for eigenvalues only, apart from the Choi
        # matrix's eigenvectors on the carrier.
        report = is_completely_semi_phi(pm, phi)
        assert not report.ok and report._path == path
        assert solves() == verdict_solves and svd == []
        # A witness is decided by one eigh, which also gives its vector.
        for calls in (grams, eigh, eigvalsh):
            calls.clear()
        assert semiphi_witness(pm, phi).gap == pytest.approx(sides[0] - sides[1])
        assert solves() == witness_solves and svd == []
        report.witness  # built on first access, from the Gram pair on the carrier

        # Re-evaluation from the report shares no kernel with the Gram matrices.
        def forbidden(*args, **kwargs):
            raise AssertionError("the witness re-evaluation used a pair kernel")

        for module, name in (
            (ext, "adjoint_products"),
            (ext, "gram_pair"),
            (numerics, "adjoint_products"),
            (ext.CPMap, "apply_pairs"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        w = ext._witness_from_report(pm, phi, report)
        assert (w.lhs, w.rhs) == pytest.approx(sides)


class TestObstruction:
    def test_stacked_pair_nonvanishing(self):
        for n in (1, 2, 3):
            fx = example_2_1(n)
            report = phi_extension_obstruction(fx.phi, fx.f, fx.e)
            assert not report.vanishes
            assert report.norm > 0.1

    def test_whole_module_vanishes(self):
        fx = example_2_1(2)
        report = phi_extension_obstruction(fx.phi, fx.e, fx.e)
        assert report.vanishes
        assert report.complement.dim == 0

    def test_killed_block_vanishes(self):
        fx = compacts_fixture(2)
        report = phi_extension_obstruction(fx.phi, fx.f, fx.e)
        assert report.vanishes


class TestExtensionEngine:
    def test_scalar_zero_padding(self):
        fx = example_2_1(1)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        # Values on the two basis directions: identity on top, zero on bottom.
        assert np.allclose(res.phi_prime.values[0], [[1.0]])
        assert np.linalg.norm(res.phi_prime.values[1]) < 1e-10

    def test_total_map_extends_to_itself(self):
        fx = example_2_1(2)
        total = ModuleMap(fx.e, 2, 2, tuple(b[:2, :] for b in fx.e.basis))
        res = extend_semi_phi(total, fx.e, fx.phi)
        for a, b in zip(res.phi_prime.values, total.values):
            assert np.linalg.norm(a - b) < 1e-9

    def test_rejects_non_semi_input(self):
        pm, phi = scalar_fixture(2.0)
        with pytest.raises(ExtensionInputError):
            extend_semi_phi(pm, pm.domain, phi)

    def test_rejects_non_submodule(self):
        fx = example_2_1(1)
        with pytest.raises(ExtensionInputError):
            extend_semi_phi(
                ModuleMap(fx.e, 1, 1, tuple(b[:1, :] for b in fx.e.basis)), fx.f, fx.phi
            )

    def test_empty_submodule_gives_zero_extension(self):
        fx = example_2_1(1)
        empty = ConcreteModule(fx.e.algebra, 2, ())
        res = extend_semi_phi(ModuleMap(empty, 1, 1, ()), fx.e, fx.phi)
        assert res.report["empty_submodule"]
        for v in res.phi_prime.values:
            assert np.linalg.norm(v) < 1e-12

    def test_report_is_typed_and_read_by_key(self):
        fx = example_2_1(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert isinstance(res.report, ExtensionReport)
        assert res.report["obstruction_norm"] == res.report.obstruction_norm == 1.0
        # The obstruction does not vanish, so the exact branch did not run.
        assert res.report.complement_killed_defect is None
        assert res.report["exact_on_complemented_defect"] is None
        with pytest.raises(KeyError):
            res.report["projection"]

    def test_contraction_norm_bounded(self, rng):
        for _ in range(20):
            fx = random_semi_phi_fixture(rng)
            res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
            assert res.report["contraction_norm"] <= 1.0 + 1e-6

    def test_parts_one_and_two(self, rng):
        for _ in range(15):
            fx = random_vanishing_obstruction_fixture(rng)
            res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
            assert res.report["input_is_phi_map"]
            assert res.report["obstruction_vanishes"]
            assert res.report["complement_killed_defect"] < 1e-9
            assert res.report["exact_on_complemented_defect"] < 1e-8


def counted(monkeypatch, owner, name, select=lambda *args: True):
    """Patch ``owner.name`` to record each call whose arguments pass ``select``."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if select(*args):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestStagesRunOnce:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: example_2_1(2),
            lambda rng: compacts_fixture(2),
            random_vanishing_obstruction_fixture,
            random_semi_phi_fixture,
        ],
        ids=["example_2_1", "compacts", "vanishing_obstruction", "semi"],
    )
    def test_engine_checks_its_input_once(self, make, monkeypatch, rng):
        fx = make(rng)
        f_stack, e_stack = fx.phi_map.domain._basis_stack, fx.e._basis_stack
        phi_checks = counted(monkeypatch, ext, "is_phi_map")
        grams = counted(monkeypatch, ext, "gram_pair")
        f_pairs = counted(monkeypatch, CPMap, "apply_pairs", lambda _, xs, ys: xs is f_stack and ys is f_stack)
        e_pairs = counted(monkeypatch, CPMap, "apply_pairs", lambda _, xs, ys: xs is e_stack and ys is e_stack)
        extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        # One Gram pair, for the input semi check on f.
        assert phi_checks == []
        assert [args[0] for args in grams] == [fx.phi_map]
        assert len(f_pairs) == 1
        # One E x E table, formed by the obstruction, which reads its scale
        # and its norm off it; the universal map's self-check, the
        # re-certification and the exact branch read the same table.
        assert len(e_pairs) == 1

    @pytest.mark.parametrize(
        "make",
        [lambda rng: compacts_fixture(2), random_vanishing_obstruction_fixture],
        ids=["compacts", "vanishing_obstruction"],
    )
    def test_exact_branch_forms_two_tables(self, make, monkeypatch, rng):
        fx = make(rng)
        pairs = counted(monkeypatch, CPMap, "apply_pairs")
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert res.report.exact_on_complemented_defect is not None
        # E x E in the obstruction and F x F for the input, nothing else.
        (_, e_xs, e_ys), (_, f_xs, f_ys) = pairs
        assert e_xs is e_ys is fx.e._basis_stack
        assert f_xs is f_ys is fx.phi_map.domain._basis_stack

    @pytest.mark.parametrize(
        "make",
        [lambda rng: example_2_1(2), random_vanishing_obstruction_fixture, random_semi_phi_fixture],
        ids=["example_2_1", "vanishing_obstruction", "semi"],
    )
    def test_one_choi_eigh_per_block_and_two_eigenvalue_only_decisions(self, make, monkeypatch, rng):
        fx = make(rng)
        while not fx.phi_map.domain.dim:  # a 0x0 input gap needs no solve
            fx = make(rng)
        # Fresh objects: building a fixture caches the map's Choi spectrum
        # and its modules' row forms.
        f, e = (ConcreteModule(x.algebra, x.row_dim, x.basis) for x in (fx.phi_map.domain, fx.e))
        phi = CPMap(fx.phi.domain, fx.phi.target_dim, fx.phi.values)
        phi_map = ModuleMap(f, fx.phi_map.h1_dim, fx.phi_map.h2_dim, fx.phi_map.values)
        eigh = counted(monkeypatch, np.linalg, "eigh")
        eigvalsh = counted(monkeypatch, np.linalg, "eigvalsh")
        res = extend_semi_phi(phi_map, e, phi)
        # Validating f and then e reads one p x p row Gram per algebra block
        # of each, which the carrier map reads again; the Kraus operators
        # (one eigh per block of the Choi matrix) are the only other vectors;
        # the input semi check and the re-certification read eigenvalues.
        assert res.report["extension_semi_ok"]
        rows = [e.row_dim] * len(e.algebra.blocks)
        choi = [n * phi.target_dim for n in phi.domain.blocks]
        assert [args[0].shape[0] for args in eigh] == rows + rows + choi
        assert len(eigvalsh) == 2

    @pytest.mark.parametrize(
        "make, svds",
        [
            (lambda rng: example_2_1(2), 2),
            (lambda rng: compacts_fixture(2), 2),
            (random_vanishing_obstruction_fixture, 2),
            # f = 0: the least-squares system is empty and takes no SVD.
            (random_semi_phi_fixture, 0),
        ],
        ids=["example_2_1", "compacts", "vanishing_obstruction", "semi"],
    )
    def test_svd_count(self, make, svds, monkeypatch, rng):
        # The least-squares SVD over the carrier vectors on f and the norm of
        # the contraction it gives; the carrier space takes no orthonormal
        # basis.  Every module basis here is orthogonal, so projection and the
        # rank count read its Gram product and take no SVD or pseudo-inverse;
        # the rank count reads each block off the row Gram's eigh.
        fx = make(rng)
        calls = counted(monkeypatch, np.linalg, "svd")
        pinvs = counted(monkeypatch, np.linalg, "pinv")
        extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert len(calls) == svds
        assert pinvs == []

    def test_compare_forms_no_pair_table(self, monkeypatch):
        fx = compacts_fixture(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        gamma = canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)
        pairs = counted(monkeypatch, CPMap, "apply_pairs")
        assert compare_extensions(gamma, res)
        assert pairs == []


class TestGramPairReuse:
    def test_block_defect_leaves_the_pair_unchanged(self):
        # m = 1: the block transpose of g_phi is already contiguous.
        fx = example_2_1(1)
        pair = is_completely_semi_phi(fx.phi_map, fx.phi).gram
        before = (pair.g_phi.copy(), pair.g_map.copy())
        assert ext._block_defect(fx.phi_map, pair, DEFAULT_TOL).ok
        assert np.array_equal(pair.g_phi, before[0])
        assert np.array_equal(pair.g_map, before[1])

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: example_2_1(1),
            lambda rng: example_2_1(2),
            lambda rng: compacts_fixture(2),
            random_vanishing_obstruction_fixture,
            random_semi_phi_fixture,
        ],
        ids=["example_2_1_n1", "example_2_1_n2", "compacts", "vanishing_obstruction", "semi"],
    )
    def test_handed_pairs_equal_fresh_ones(self, make, rng):
        fx = make(rng)
        kres = ksgns(fx.phi, fx.e)
        fresh = gram_pair(kres.map, fx.phi)
        assert np.array_equal(kres.gram.g_phi, fresh.g_phi)
        assert np.array_equal(kres.gram.g_map, fresh.g_map)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        fresh = gram_pair(res.phi_prime, fx.phi)
        assert np.array_equal(res.gram.g_phi, fresh.g_phi)
        assert np.array_equal(res.gram.g_map, fresh.g_map)
        semi = is_completely_semi_phi(res.phi_prime, fx.phi)
        assert res.report["extension_semi_ok"] == semi.ok
        assert res.report["extension_semi_margin"] == semi.margin
        assert res.report["input_is_phi_map"] == is_phi_map(fx.phi_map, fx.phi).ok


class TestUniqueness:
    def test_engine_output_agrees_with_itself(self):
        fx = compacts_fixture(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        assert compare_extensions(res.phi_prime, res)

    def test_independent_construction_agrees(self):
        fx = compacts_fixture(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        gamma = canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)
        assert compare_extensions(gamma, res)

    def test_non_phi_map_candidate_refused(self):
        fx = compacts_fixture(1)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        bent_values = list(res.phi_prime.values)
        bent_values[-1] = bent_values[-1] + 1e-2
        bent = ModuleMap(fx.e, 1, 1, tuple(bent_values))
        with pytest.raises(PreconditionError):
            compare_extensions(bent, res)

    def test_equal_module_given_as_another_object(self):
        # As when Gamma's domain and E are parsed separately from one file.
        fx = compacts_fixture(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        copy = ConcreteModule(fx.e.algebra, fx.e.row_dim, tuple(b.copy() for b in fx.e.basis))
        gamma = ModuleMap(copy, 2, res.phi_prime.h2_dim, res.phi_prime.values)
        assert compare_extensions(gamma, res)

    def test_different_basis_refused(self):
        fx = compacts_fixture(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        k = res.phi_prime.h2_dim
        # The same span in another basis order, and a basis of another size.
        reordered = ConcreteModule(fx.e.algebra, fx.e.row_dim, fx.e.basis[::-1])
        for gamma in (
            ModuleMap(reordered, 2, k, res.phi_prime.values[::-1]),
            ModuleMap(fx.f, 2, k, tuple(res.phi_prime.apply(fx.f._basis_stack))),
        ):
            with pytest.raises(PreconditionError, match="same ambient module"):
                compare_extensions(gamma, res)

    def test_gamma_of_another_shape_refused(self):
        fx = compacts_fixture(2)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        narrow = ModuleMap(fx.e, 1, res.phi_prime.h2_dim, tuple(v[:, :1] for v in res.phi_prime.values))
        with pytest.raises(ShapeError):
            compare_extensions(narrow, res)

    def test_wrong_restriction_refused(self):
        fx = compacts_fixture(1)
        res = extend_semi_phi(fx.phi_map, fx.e, fx.phi)
        shrunk = ModuleMap(fx.e, 1, 1, tuple(0.5 * v for v in res.phi_prime.values))
        with pytest.raises(PreconditionError):
            compare_extensions(shrunk, res)


class TestCanonicalCompactsExtension:
    def test_two_block_fixture(self):
        fx = compacts_fixture(2)
        gamma = canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)
        assert is_phi_map(gamma, fx.phi).ok
        # The complement directions are annihilated.
        perp = phi_extension_obstruction(fx.phi, fx.f, fx.e).complement
        for z in perp.basis:
            assert np.linalg.norm(gamma.apply(z)) < 1e-10

    def test_refuses_nonvanishing_obstruction(self):
        fx = example_2_1(1)
        with pytest.raises(PreconditionError):
            canonical_compacts_extension(fx.phi_map, fx.e, fx.phi)

    def test_nonvanishing_obstruction_allows_a_degenerate_exact_extension(self):
        # Phi(x) = x into C^4 on the top half of M_{4x2}: exact but degenerate,
        # so the nonzero obstruction does not rule out an exact extension.
        fx = example_2_1(2)
        phi_map = ModuleMap(fx.f, 2, 4, fx.f.basis)
        assert is_phi_map(phi_map, fx.phi).ok
        assert not is_nondegenerate(phi_map)
        obstruction = phi_extension_obstruction(fx.phi, fx.f, fx.e)
        assert obstruction.norm == pytest.approx(1.0)
        extension = ModuleMap(fx.e, 2, 4, fx.e.basis)
        assert is_phi_map(extension, fx.phi).ok
        assert np.allclose(extension.apply(fx.f._basis_stack), phi_map._value_stack, atol=1e-12)
        with pytest.raises(PreconditionError, match="extension by zero"):
            canonical_compacts_extension(phi_map, fx.e, fx.phi)

    def test_total_domain_returns_input(self):
        fx = example_2_1(1)
        total = ModuleMap(fx.e, 1, 2, fx.e.basis)  # identity inclusion
        gamma = canonical_compacts_extension(total, fx.e, fx.phi)
        for a, b in zip(gamma.values, total.values):
            assert np.linalg.norm(a - b) < 1e-10
