import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiphi.cpmaps as cpmaps
import semiphi.extension as extension
import semiphi.modules as modules
import semiphi.paulsen as paulsen

from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ModuleMap,
    NotCompletelyPositiveError,
    PreconditionError,
    SystemDecompositionError,
    block_map,
    build_system,
    contains,
    decompose_system_element,
    example_3_4_map,
    identity_cp_map,
    injectivity_demo,
    is_completely_positive,
    is_completely_semi_phi,
    is_corner_preserving,
    is_cp_system_map,
    ksgns,
    transpose_map,
)
from semiphi.fixtures import (
    compacts_fixture,
    example_2_1,
    random_containment_fixture,
    random_contraction,
    random_semi_phi_fixture,
    random_violating_module_map,
    scalar_fixture,
)
from semiphi.extension import SelfCheckError
from semiphi.modules import BlockEmbedding, MembershipError
from semiphi.numerics import DEFAULT_TOL, ShapeError, ToleranceProfile, as_matrix, dagger
from conftest import full_rectangular_module


def scalar_codomain():
    return ConcreteModule(BlockAlgebra((1,)), 1, (np.array([[1.0]], dtype=complex),))


class TestBuildSystem:
    def test_scalar_module_gives_all_of_m2(self):
        e = scalar_codomain()
        system = build_system(e)
        assert system.ambient_dim == 2
        assert system.dimension == 4
        stacked = np.column_stack([b.reshape(-1) for b in system.basis])
        assert np.linalg.matrix_rank(stacked) == 4

    def test_full_matrix_module_dimension(self):
        system = build_system(full_rectangular_module(2, 2))
        assert system.dimension == 1 + 8 + 4  # scalar + two corners + algebra
        assert system.ambient_dim == 4

    def test_stacked_pair_layout(self):
        fx = example_2_1(2)
        system = build_system(fx.e)
        assert system.corner_layout == (4, 2)

    def test_closed_under_adjoint_and_contains_identity(self):
        system = build_system(full_rectangular_module(2, 2))
        stacked = np.column_stack([b.reshape(-1) for b in system.basis])
        pinv = np.linalg.pinv(stacked)
        for m in list(system.basis) + [system.identity()]:
            for probe in (m.conj().T, m):
                vec = probe.reshape(-1)
                assert np.linalg.norm(stacked @ (pinv @ vec) - vec) < 1e-10


class TestDecomposition:
    def test_roundtrip(self):
        system = build_system(full_rectangular_module(2, 2))
        x = np.zeros((4, 4), dtype=complex)
        x[:2, :2] = 3.0 * np.eye(2)
        x[0, 2] = 1.0
        x[2:, 2:] = np.array([[1.0, 2.0], [0.0, 1.0]])
        lam, corner, adj, diag = decompose_system_element(system, x)
        assert lam == pytest.approx(3.0)
        assert corner[0, 0] == pytest.approx(1.0)
        assert np.linalg.norm(adj) < 1e-12
        assert diag[0, 1] == pytest.approx(2.0)

    def test_rejects_non_scalar_top_left(self):
        system = build_system(full_rectangular_module(2, 2))
        x = np.zeros((4, 4), dtype=complex)
        x[0, 0] = 1.0
        with pytest.raises(SystemDecompositionError):
            decompose_system_element(system, x)

    def test_rejects_escaped_corner(self):
        fx = example_2_1(1)
        system = build_system(fx.f)  # corner is only the top half
        x = np.zeros((3, 3), dtype=complex)
        x[1, 2] = 1.0  # bottom-half corner entry, outside the module span
        with pytest.raises(SystemDecompositionError):
            decompose_system_element(system, x)


class TestBlockMap:
    def test_identity_system_map(self):
        e = full_rectangular_module(2, 2)
        phi = identity_cp_map(e.algebra)
        sm = block_map(ModuleMap(e, 2, 2, e.basis), phi, e)
        assert sm.unital
        x = np.arange(16, dtype=float).reshape(4, 4) * 0  # start from structured input
        x = np.eye(4, dtype=complex)
        assert np.allclose(sm.apply(x), x)

    def test_scalar_schur_action(self):
        pm, phi = scalar_fixture(2.0)
        sm = block_map(pm, phi, scalar_codomain())
        x = np.array([[3.0, 5.0], [7.0, 11.0]], dtype=complex)
        # Top-left must be scalar: use lambda=3 I_1.
        out = sm.apply(x)
        assert out[0, 0] == pytest.approx(3.0)
        assert out[0, 1] == pytest.approx(10.0)
        assert out[1, 0] == pytest.approx(14.0)
        assert out[1, 1] == pytest.approx(11.0)

    def test_range_containment_enforced(self):
        pm, phi = scalar_fixture(2.0)
        small = ConcreteModule(BlockAlgebra((1,)), 1, ())
        with pytest.raises(ValueError):
            block_map(pm, phi, small)

    def test_cp_values_checked_each_at_its_own_scale(self):
        # Over BlockAlgebra((1, 1)) only the last value, the smallest, has
        # off-block mass above the threshold at its own norm; the first has
        # more off-block mass but lies within the threshold at its norm.
        codomain = ConcreteModule(BlockAlgebra((1, 1)), 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        domain = full_rectangular_module(2, 2)
        pm = ModuleMap(domain, 2, 2, tuple(np.zeros((2, 2)) for _ in range(domain.dim)))
        values = [np.diag([1e6, 1e6]).astype(complex) for _ in range(4)]
        values[0][0, 1] = 1e-4
        phi = CPMap(domain.algebra, 2, tuple(values))
        assert block_map(pm, phi, codomain).cp_map is phi
        values[-1] = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        phi = CPMap(domain.algebra, 2, tuple(values))
        assert [contains(codomain.algebra, v) for v in phi.values] == [True, True, True, False]
        with pytest.raises(ValueError, match="^CP-map range escapes the declared codomain algebra$"):
            block_map(pm, phi, codomain)

    def test_functoriality(self, rng):
        e = full_rectangular_module(2, 2)
        phi = identity_cp_map(e.algebra)
        c1 = 0.8 * np.eye(2)
        c2 = 0.5 * np.eye(2)
        m1 = ModuleMap(e, 2, 2, tuple(c1 @ b for b in e.basis))
        m2 = ModuleMap(e, 2, 2, tuple(c2 @ b for b in e.basis))
        sm1 = block_map(m1, phi, e)
        sm2 = block_map(m2, phi, e)
        composed = sm2.compose(sm1)
        direct = block_map(
            ModuleMap(e, 2, 2, tuple(c2 @ c1 @ b for b in e.basis)), phi, e
        )
        for a, b in zip(composed.module_map.values, direct.module_map.values):
            assert np.allclose(a, b)
        for a, b in zip(composed.cp_map.values, direct.cp_map.values):
            assert np.allclose(a, b)


class TestCpSystemMap:
    def test_scalar_threshold(self):
        for c, expect in ((1.0, True), (2.0, False)):
            pm, phi = scalar_fixture(c)
            sm = block_map(pm, phi, scalar_codomain())
            assert is_cp_system_map(sm).ok is expect

    def test_scalar_c2_explicit_image(self):
        pm, phi = scalar_fixture(2.0)
        sm = block_map(pm, phi, scalar_codomain())
        img = sm.apply(np.ones((2, 2), dtype=complex))
        assert np.allclose(img, [[1.0, 2.0], [2.0, 1.0]])
        assert np.linalg.eigvalsh(img.real)[0] == pytest.approx(-1.0)

    def test_phi_map_gives_cp(self):
        fx = example_2_1(2)
        codomain = full_rectangular_module(2, 2)
        sm = block_map(fx.phi_map, fx.phi, codomain)
        report = is_cp_system_map(sm)
        assert report.ok


class TestCornerPreservation:
    def test_block_map_output_is_corner_preserving(self):
        pm, phi = scalar_fixture(0.5)
        sm = block_map(pm, phi, scalar_codomain())
        images = []
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                if i == 0 and j == 0:
                    images.append(sm.apply(unit))  # scalar unit is I_1 here
                else:
                    images.append(sm.apply(unit))
        report = is_corner_preserving(images, (1, 1), (1, 1))
        assert report.ok

    def test_identity_is_corner_preserving(self):
        images = []
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                images.append(unit)
        assert is_corner_preserving(images, (1, 1), (1, 1)).ok


def reference_corner_report(unit_images, layout_in, layout_out, tol=DEFAULT_TOL):
    """:func:`is_corner_preserving` one generator at a time: each generator's
    image summed from the unit images entry by entry, and each part of the
    output a dense mask."""
    p_in, q_in = layout_in
    p_out, q_out = layout_out
    d_in, d_out = p_in + q_in, p_out + q_out
    images = [as_matrix(m) for m in unit_images]
    if len(images) != d_in * d_in:
        raise ShapeError(f"need {d_in * d_in} unit images")
    if any(m.shape != (d_out, d_out) for m in images):
        raise ShapeError(f"unit images must be {d_out}x{d_out}")

    def image_of(mat):
        out = np.zeros((d_out, d_out), dtype=complex)
        for i in range(d_in):
            for j in range(d_in):
                if mat[i, j] != 0:
                    out += mat[i, j] * images[i * d_in + j]
        return out

    def support(m):
        rows, cols = np.nonzero(np.abs(m) > cutoff)
        return list(zip(rows.tolist(), cols.tolist()))

    cutoff = tol.threshold(max([1.0] + [float(np.linalg.norm(m)) for m in images]))
    violations = []

    def record_outside(name, img, mask):
        for r, c in support(np.where(mask, 0.0, img)):
            violations.append((name, (r, c), float(abs(img[r, c]))))

    scalar_in = np.zeros((d_in, d_in), dtype=complex)
    scalar_in[:p_in, :p_in] = np.eye(p_in)
    scalar_img = image_of(scalar_in)
    scalar_mask = np.zeros((d_out, d_out), dtype=bool)
    scalar_mask[:p_out, :p_out] = True
    record_outside("scalar", scalar_img, scalar_mask)
    top = scalar_img[:p_out, :p_out]
    lam = complex(np.trace(top) / p_out) if p_out else 0.0
    pattern_defect = top - lam * np.eye(p_out)
    for r, c in support(pattern_defect):
        violations.append(("scalar", (r, c), float(abs(pattern_defect[r, c]))))
    corner_mask = np.zeros((d_out, d_out), dtype=bool)
    corner_mask[:p_out, p_out:] = True
    diag_mask = np.zeros((d_out, d_out), dtype=bool)
    diag_mask[p_out:, p_out:] = True
    corner_entries = []
    for i in range(p_in):
        for j in range(q_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, p_in + j] = 1.0
            img = image_of(unit)
            corner_entries.extend(support(img))
            record_outside("corner", img, corner_mask)
            record_outside("adjoint_corner", image_of(dagger(unit)), corner_mask.T)
    for i in range(q_in):
        for j in range(q_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[p_in + i, p_in + j] = 1.0
            record_outside("diagonal", image_of(unit), diag_mask)
    return paulsen.CornerReport(not violations, tuple(violations), tuple(dict.fromkeys(corner_entries)))


def outcome(check, *args):
    """The report of ``check(*args)``, or the type and text it raised."""
    try:
        return check(*args)
    except ValueError as err:
        return type(err), str(err)


def test_corner_report_of_example_3_4_matches_reference_loop():
    for h in range(1, 7):
        values = example_3_4_map(h).values
        layouts = (h, h), (2 * h, 2 * h)
        assert is_corner_preserving(values, *layouts) == reference_corner_report(values, *layouts)


@pytest.mark.parametrize("layout_out", [(0, 0), (1, 1), (2, 0)])
def test_empty_domain_is_corner_preserving(layout_out):
    # An empty domain has no unit images and no structural generator to move.
    assert is_corner_preserving([], (0, 0), layout_out) == paulsen.CornerReport(True, (), ())


LAYOUTS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    layout_in=LAYOUTS,
    layout_out=LAYOUTS,
    kind=st.sampled_from(["dense", "sparse", "units", "wrong count", "wrong shape"]),
    scale=st.sampled_from([1e-10, 1e-9, 1.0, 1e3]),
)
@example(seed=0, layout_in=(0, 2), layout_out=(0, 2), kind="units", scale=1.0)
@example(seed=1, layout_in=(2, 0), layout_out=(2, 0), kind="sparse", scale=1.0)
@example(seed=2, layout_in=(0, 0), layout_out=(1, 1), kind="dense", scale=1.0)
@settings(max_examples=200, deadline=None)
def test_corner_report_matches_reference_loop(seed, layout_in, layout_out, kind, scale):
    # Layouts with an empty scalar block or an empty diagonal block, sparse
    # images (one entry in four, some of them near the cutoff), the units
    # themselves (corner-preserving when the layouts agree) and both input
    # errors: the same report, or the same exception type and text.
    rng = np.random.default_rng(seed)
    d_in, d_out = sum(layout_in), sum(layout_out)
    shape = (d_in * d_in, d_out, d_out)
    if kind == "units":
        layout_out, d_out = layout_in, d_in
        images = np.eye(d_in * d_in).reshape(d_in * d_in, d_in, d_in)
    else:
        images = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if kind == "sparse":
            images[rng.random(shape) < 0.75] = 0.0
        elif kind == "wrong count":
            images = images[1:] if len(images) else np.zeros((1, d_out, d_out))
        elif kind == "wrong shape":
            images = np.zeros((d_in * d_in, d_out + 1, d_out))
    args = list(images), layout_in, layout_out
    assert outcome(is_corner_preserving, *args) == outcome(reference_corner_report, *args)


class TestExample34:
    def test_corner_unit_lands_at_outer_corner(self):
        ex = example_3_4_map(1)
        out = ex.apply(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert out[0, 3] == pytest.approx(1.0)
        assert np.count_nonzero(out) == 1

    def test_unital(self):
        for h in (1, 2):
            ex = example_3_4_map(h)
            assert np.linalg.norm(ex.apply(np.eye(2 * h)) - np.eye(4 * h)) < 1e-12

    def test_completely_positive(self):
        for h in (1, 2):
            report = is_completely_positive(example_3_4_map(h))
            assert report.ok
            assert report.lambda_min >= -1e-10

    def test_not_corner_preserving(self):
        for h in (1, 2):
            ex = example_3_4_map(h)
            report = is_corner_preserving(ex.values, (h, h), (2 * h, 2 * h))
            assert not report.ok
            assert report.violations
            # The corner's image support sits in the far (1,4)-block position.
            for r, c in report.corner_image_entries:
                assert r < h and c >= 3 * h


class TestInjectivityDemo:
    def test_identity_containment_extension(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            fx = random_containment_fixture(rng, n)
            psi_map, psi = injectivity_demo(fx.g, fx.f, fx.embedding, fx.phi_map, fx.phi)
            assert psi_map.h2_dim == n
            j = fx.embedding.column_map()
            for b, orig in zip(fx.g.basis, fx.phi_map.values):
                assert np.linalg.norm(psi_map.apply(b @ j.T) - orig) < 1e-8

    def test_cp_part_restricts_to_the_input_map(self, rng):
        for _ in range(10):
            fx = random_containment_fixture(rng, int(rng.integers(1, 4)))
            _, psi = injectivity_demo(fx.g, fx.f, fx.embedding, fx.phi_map, fx.phi)
            assert paulsen._cp_restriction_defect(psi, fx.phi, fx.embedding) == 0.0

    def test_wrong_compression_raises_before_the_engine(self, rng, monkeypatch):
        fx = random_containment_fixture(rng, 2)
        compress = BlockEmbedding.compress
        monkeypatch.setattr(BlockEmbedding, "compress", lambda self, m: 2.0 * compress(self, m))

        def engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(paulsen, "extend_semi_phi", engine)
        with pytest.raises(SelfCheckError, match=r"^extended CP map does not restrict to the input map \(defect "):
            injectivity_demo(fx.g, fx.f, fx.embedding, fx.phi_map, fx.phi)

    def test_rejects_broken_containment(self, rng):
        fx = random_containment_fixture(rng, 2)
        stranger = full_rectangular_module(fx.f.row_dim + 1, fx.f.algebra.ambient_dim)
        with pytest.raises((PreconditionError, Exception)):
            injectivity_demo(fx.g, stranger, fx.embedding, fx.phi_map, fx.phi)

    def test_map_on_an_equal_copy_of_the_module(self, rng):
        fx = random_containment_fixture(rng, 2)
        while fx.g.dim < 2:
            fx = random_containment_fixture(rng, 2)
        g_copy = ConcreteModule(fx.g.algebra, fx.g.row_dim, tuple(b.copy() for b in fx.g.basis))
        h1, h2 = fx.phi_map.h1_dim, fx.phi_map.h2_dim
        on_copy = ModuleMap(g_copy, h1, h2, fx.phi_map.values)
        psi_map, _ = injectivity_demo(fx.g, fx.f, fx.embedding, on_copy, fx.phi)
        reference, _ = injectivity_demo(fx.g, fx.f, fx.embedding, fx.phi_map, fx.phi)
        assert np.array_equal(psi_map._value_stack, reference._value_stack)
        reordered = ConcreteModule(fx.g.algebra, fx.g.row_dim, fx.g.basis[::-1])
        with pytest.raises(PreconditionError, match="contained module"):
            injectivity_demo(
                fx.g, fx.f, fx.embedding, ModuleMap(reordered, h1, h2, fx.phi_map.values[::-1]), fx.phi
            )

    def test_validates_and_semi_checks_once(self, monkeypatch):
        # The engine's own checks of the pair and of the container are the
        # only ones: no pre-check repeats them on the same objects.
        fx = random_containment_fixture(np.random.default_rng(0), 2)
        counts = {"validate_module": 0, "_submodule_coefficients": 0, "gram_pair": 0}
        homes = {"validate_module": modules, "_submodule_coefficients": modules, "gram_pair": extension}
        for name, home in homes.items():
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod in [m for key, m in sys.modules.items() if key.startswith("semiphi")]:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        injectivity_demo(fx.g, fx.f, fx.embedding, fx.phi_map, fx.phi)
        assert counts == {"validate_module": 2, "_submodule_coefficients": 1, "gram_pair": 1}

    def test_rejects_non_morphism(self, rng):
        for _ in range(20):
            fx = random_containment_fixture(rng, 2)
            if fx.g.dim == 0:
                continue
            bad = ModuleMap(
                fx.g, fx.phi_map.h1_dim, fx.phi_map.h2_dim,
                tuple(10.0 * v for v in fx.phi_map.values),
            )
            if is_completely_semi_phi(bad, fx.phi).ok:
                continue  # scaled map of a zero form stays satisfying
            with pytest.raises(PreconditionError):
                injectivity_demo(fx.g, fx.f, fx.embedding, bad, fx.phi)
            return
        pytest.fail("no usable violating draw in 20 attempts")


# Reference loop for the batched apply_n: one decomposition and one
# module-map / CP-map call per block.


def reference_apply_n(sm, n, x):
    p, q = sm.domain.corner_layout
    din, dout = p + q, sm.codomain.ambient_dim
    p_out = sm.codomain.corner_layout[0]
    mask = sm.domain.algebra._mask
    out = np.zeros((n * dout, n * dout), dtype=complex)
    for u, v in itertools.product(range(n), repeat=2):
        blk = x[u * din : (u + 1) * din, v * din : (v + 1) * din]
        img = np.zeros((dout, dout), dtype=complex)
        img[:p_out, :p_out] = np.trace(blk[:p, :p]) / p * np.eye(p_out)
        img[:p_out, p_out:] = sm.module_map.apply(blk[:p, p:])
        img[p_out:, :p_out] = sm.module_map.apply(blk[p:, :p].conj().T).conj().T
        img[p_out:, p_out:] = sm.cp_map.apply_ambient(np.where(mask, blk[p:, p:], 0.0))
        out[u * dout : (u + 1) * dout, v * dout : (v + 1) * dout] = img
    return out


def random_system_element(system, n, rng):
    """A general (not hermitian) element of the n-th level of the system."""
    x = 0.0
    for b in system.basis:
        x = x + np.kron(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), b)
    return x


def random_system_maps(rng, count):
    """Block maps of random semi fixtures into the full k x m module."""
    for _ in range(count):
        fx = random_semi_phi_fixture(rng)
        codomain = full_rectangular_module(fx.phi_map.h2_dim, fx.phi.target_dim)
        yield block_map(fx.phi_map, fx.phi, codomain)


def two_block_system_map():
    """Identity block map on the module span{E_00, E_11} of 2 x 2 matrices
    over BlockAlgebra((1, 1)); its system blocks are 4 x 4 with layout (2, 2)."""
    algebra = BlockAlgebra((1, 1))
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    module = ConcreteModule(algebra, 2, basis)
    return block_map(ModuleMap(module, 2, 2, basis), identity_cp_map(algebra), module)


def system_block(*entries):
    blk = np.zeros((4, 4), dtype=complex)
    for (r, c), value in entries:
        blk[r, c] = value
    return blk


# One offending block per failure of the decomposition, plus a corner whose
# escape (1e-7) passes the decomposition's span test, loosened by the block's
# scale (about 1.4e3), but not the module map's own test at the default
# tolerance.
FAILING_BLOCKS = {
    "top_left": (
        system_block(((0, 0), 1.0)),
        SystemDecompositionError,
        "top-left block is not a scalar multiple of I",
    ),
    "corner": (
        system_block(((1, 2), 1.0)),
        SystemDecompositionError,
        "corner escapes the module span",
    ),
    "adjoint_corner": (
        system_block(((2, 1), 1.0)),
        SystemDecompositionError,
        "adjoint corner escapes the module span",
    ),
    "diagonal": (
        system_block(((2, 3), 1.0)),
        SystemDecompositionError,
        "diagonal block escapes the algebra",
    ),
    "module_map": (
        system_block(((0, 0), 1e3), ((1, 1), 1e3), ((1, 2), 1e-7)),
        MembershipError,
        "matrix outside the module span (residual 1.000e-07)",
    ),
}


def assemble(blocks):
    return np.block([list(row) for row in blocks])


class TestBatchedApply:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_n_matches_per_block_loop(self, n):
        rng = np.random.default_rng(99)
        maps = [two_block_system_map()] + list(random_system_maps(rng, 6))
        for sm in maps:
            x = random_system_element(sm.domain, n, rng)
            want = reference_apply_n(sm, n, x)
            got = sm.apply_n(n, x)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            if n == 1:
                assert np.abs(sm.apply(x) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("kind", sorted(FAILING_BLOCKS))
    def test_single_block_failure(self, kind):
        sm = two_block_system_map()
        blk, exc, message = FAILING_BLOCKS[kind]
        for run in (sm.apply, lambda x: sm.apply_n(1, x)):
            with pytest.raises(exc) as info:
                run(blk)
            assert str(info.value) == message
        if exc is SystemDecompositionError:
            with pytest.raises(exc, match=f"^{message}$"):
                decompose_system_element(sm.domain, blk)
        else:
            decompose_system_element(sm.domain, blk)  # only the module map refuses it

    @pytest.mark.parametrize("kind", sorted(FAILING_BLOCKS))
    def test_first_failing_block_in_row_major_order_raises(self, kind):
        # Every other kind of failure sits in a later block; the first block
        # is valid.
        sm = two_block_system_map()
        blk, exc, message = FAILING_BLOCKS[kind]
        later = [FAILING_BLOCKS[other][0] for other in sorted(FAILING_BLOCKS) if other != kind]
        x = assemble([[np.zeros((4, 4)), blk, later[0]], later[1:4], [np.zeros((4, 4))] * 3])
        with pytest.raises(exc) as info:
            sm.apply_n(3, x)
        assert str(info.value) == message

    def test_first_failing_check_within_a_block(self):
        sm = two_block_system_map()
        # Escaping corner, adjoint corner and diagonal with a non-scalar
        # top-left: the top-left test comes first.
        blk = system_block(((0, 0), 1.0), ((1, 2), 1.0), ((2, 1), 1.0), ((2, 3), 1.0))
        with pytest.raises(SystemDecompositionError, match="^top-left block"):
            sm.apply_n(2, assemble([[np.eye(4), blk], [blk, blk]]))
        # The decomposition's diagonal test precedes the module map's test.
        blk = FAILING_BLOCKS["module_map"][0] + system_block(((2, 3), 1.0))
        with pytest.raises(SystemDecompositionError, match="^diagonal block"):
            sm.apply_n(1, blk)


def scaled_two_block_system_map(c):
    """The two-block map with its first corner value scaled by ``c``: not
    CP for ``|c| > 1``."""
    sm = two_block_system_map()
    module = sm.module_map.domain
    values = (c * module.basis[0], module.basis[1])
    return block_map(ModuleMap(module, 2, 2, values), sm.cp_map, module)


def force_positive_gram_verdict(monkeypatch):
    """Let a map that is not CP reach the certificate."""
    original = paulsen.is_completely_semi_phi

    def positive(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), ok=True)

    monkeypatch.setattr(paulsen, "is_completely_semi_phi", positive)




# The explicit CP extension behind a positive verdict, rebuilt by an oracle
# that shares no code with the certificate: Kraus vectors from eigh of the
# Choi matrix assembled here, S0 from a pseudo-inverse, rho from np.kron.


def extension_oracle(sm):
    """``rho(Y) = W* (Y (x) I_r) W + (tr Y_11 / p) D`` of
    ``paulsen._certify_cp_extension`` with ``W = S0* (+) V`` and ``D = (I_k
    - S0 S0*) (+) 0_m``, and ``|S0|``, built with plain numpy."""
    phi, pm = sm.cp_map, sm.module_map
    q, m = phi.domain.ambient_dim, phi.target_dim
    p, k = pm.domain.row_dim, pm.h2_dim
    choi = np.zeros((q * m, q * m), dtype=complex)
    for (i, j), value in zip(phi.domain.unit_index_pairs(), phi.values):
        choi[i * m : (i + 1) * m, j * m : (j + 1) * m] = value
    lam, vecs = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    keep = lam > 1e-12 * np.abs(lam).max(initial=0.0)
    kraus_vectors = vecs[:, keep] * np.sqrt(lam[keep])  # choi = sum_t w_t w_t*
    r = kraus_vectors.shape[1]
    # V[(i, t), :] = conj(w_t[(i, :)]), so V* (E_ij (x) I_r) V = phi(E_ij).
    v = np.conj(kraus_vectors.reshape(q, m, r).transpose(0, 2, 1)).reshape(q * r, m)
    columns = np.zeros((p * r, 0), dtype=complex)
    targets = np.zeros((k, 0), dtype=complex)
    for x, value in zip(pm.domain.basis, pm.values):
        columns = np.hstack([columns, np.kron(x, np.eye(r)) @ v])
        targets = np.hstack([targets, value])
    s0 = np.zeros((k, p * r), dtype=complex)
    if columns.size:
        s0 = targets @ np.linalg.pinv(columns, rcond=1e-10)
    w = np.zeros(((p + q) * r, k + m), dtype=complex)
    w[: p * r, :k] = s0.conj().T
    w[p * r :, k:] = v
    d = np.zeros((k + m, k + m), dtype=complex)
    d[:k, :k] = np.eye(k) - s0 @ s0.conj().T

    def rho(y):
        image = w.conj().T @ np.kron(y, np.eye(r)) @ w
        return image + np.trace(y[:p, :p]) / p * d if p else image

    return rho, (np.linalg.norm(s0, 2) if s0.size else 0.0)


def check_extension(sm):
    """rho is CP on all of M_(p+q) (its Choi matrix PSD up to rounding) and
    equals the system map on every system basis element, within 1e-12 of
    the largest image."""
    rho, _ = extension_oracle(sm)
    images = [sm.apply(b) for b in sm.domain.basis]
    scale = max(np.abs(image).max(initial=0.0) for image in images)
    for b, image in zip(sm.domain.basis, images):
        assert np.abs(rho(b) - image).max(initial=0.0) <= 1e-12 * scale
    d = sm.domain.ambient_dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    choi = sum(np.kron(u, rho(u)) for u in units)
    lam = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    assert lam[0] >= -len(choi) * np.finfo(float).eps * max(1.0, lam[-1])


def mixed(stack):
    """Element j becomes element j plus half of each element before it."""
    upper = np.eye(len(stack)) + 0.5 * np.triu(np.ones((len(stack), len(stack))), 1)
    return tuple(np.tensordot(upper.T, stack, axes=1)) if len(stack) else ()


def mixed_map(pm):
    """``pm`` on a non-orthogonal basis of the same module: the basis and
    the values mixed alike, so the map is the same."""
    domain = ConcreteModule(pm.domain.algebra, pm.domain.row_dim, mixed(pm.domain._basis_stack))
    return ModuleMap(domain, pm.h1_dim, pm.h2_dim, mixed(pm._value_stack))


def full_codomain(pm, phi):
    return full_rectangular_module(pm.h2_dim, phi.target_dim)


def random_fixture_cases(mix):
    """Random semi fixtures over one to five algebra blocks and their
    violating maps; with ``mix``, every fifth one on a mixed basis."""
    for seed in range(150):
        rng = np.random.default_rng([31, seed])
        fx = random_semi_phi_fixture(rng, max_q=6)
        label = f"fixture {seed} over {len(fx.phi.domain.blocks)} blocks"
        for pm in (fx.phi_map, random_violating_module_map(fx, rng)):
            if not mix:
                yield label, pm, fx.phi
            elif seed % 5 == 0:
                yield f"{label}, mixed", mixed_map(pm), fx.phi


def example_cases():
    """The paper's examples at n = 1-3, on their own and on mixed bases, and
    the scalar map at the boundary of the contractions."""
    for make in (example_2_1, compacts_fixture):
        for n in (1, 2, 3):
            fx = make(n)
            yield f"{make.__name__}({n})", fx.phi_map, fx.phi
            yield f"{make.__name__}({n}), mixed", mixed_map(fx.phi_map), fx.phi
    yield "scalar_fixture(1.0)", *scalar_fixture(1.0)


def edge_cases():
    """A zero CP map, a zero module and a module of 0 x q matrices."""
    algebra = BlockAlgebra((2, 1))
    module = ConcreteModule(algebra, 2, tuple(full_rectangular_module(2, 3)._basis_stack))
    zero_phi = CPMap(algebra, 2, tuple(np.zeros((algebra.dimension, 2, 2))))
    yield "zero phi", ModuleMap(module, 2, 3, tuple(np.zeros((module.dim, 3, 2)))), zero_phi
    phi = identity_cp_map(algebra)
    yield "zero module", ModuleMap(ConcreteModule(algebra, 3, ()), 3, 2, ()), phi
    yield "0 x q module", ModuleMap(ConcreteModule(algebra, 0, ()), 3, 1, ()), phi


def non_module_cases():
    """A span over BlockAlgebra((1, 1)) whose block column spaces, span(e_0)
    and span(e_0 + e_1), are not orthogonal: no module, but a system."""
    first, second = np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)
    first[0, 0] = 1.0
    second[:, 1] = np.array([1.0, 1.0]) / np.sqrt(2.0)
    span = ConcreteModule(BlockAlgebra((1, 1)), 2, (first, second))
    phi = identity_cp_map(span.algebra)
    universal = ksgns(phi, span).map
    contraction = random_contraction(2, universal.h2_dim, np.random.default_rng(3))
    yield "non-module span", ModuleMap(span, 2, 2, tuple(contraction @ universal._value_stack)), phi


# (label, module map, CP map) of each family the certificate is checked on.
CERTIFICATE_FAMILIES = {
    "random fixtures": lambda: random_fixture_cases(mix=False),
    "random fixtures, mixed bases": lambda: random_fixture_cases(mix=True),
    "examples": example_cases,
    "edge inputs": edge_cases,
    "non-module span": non_module_cases,
}


class TestCpExtensionCertificate:
    @pytest.mark.parametrize("family", sorted(CERTIFICATE_FAMILIES))
    def test_certificate_backs_every_positive_verdict(self, family):
        # The oracle's rho is CP and is the map on the system for every
        # positive verdict, and its S0 is no contraction for every negative
        # one: no case disagrees with the Gram verdict.
        for label, pm, phi in CERTIFICATE_FAMILIES[family]():
            sm = block_map(pm, phi, full_codomain(pm, phi))
            report = is_cp_system_map(sm)
            assert report.ok is is_completely_semi_phi(pm, phi).ok, label
            if report.ok:
                check_extension(sm)
            else:
                assert extension_oracle(sm)[1] > 1.0 + 1e-9, label

    def test_families_hold_200_positive_verdicts_over_one_to_four_blocks(self):
        verdicts = [
            (is_completely_semi_phi(pm, phi).ok, len(phi.domain.blocks))
            for family in CERTIFICATE_FAMILIES.values()
            for _, pm, phi in family()
        ]
        assert sum(ok for ok, _ in verdicts) >= 200 and sum(not ok for ok, _ in verdicts) >= 100
        assert {1, 2, 3, 4} <= {blocks for ok, blocks in verdicts if ok}

    @pytest.mark.parametrize("make", [example_2_1, compacts_fixture])
    def test_examples_certify_at_a_unit_contraction(self, make):
        fx = make(2)
        carrier, _ = extension._carrier_map(fx.phi, fx.phi_map.domain, DEFAULT_TOL)
        _, residual, norm = extension._contraction(
            carrier.stacked_columns(), fx.phi_map.stacked_columns(), DEFAULT_TOL, SelfCheckError
        )
        assert norm == pytest.approx(1.0, abs=1e-15) and residual <= 1e-15

    @pytest.mark.parametrize("sm", [scaled_two_block_system_map(1.5), block_map(*scalar_fixture(2.0), scalar_codomain())])
    def test_forced_positive_verdict_on_a_refuted_map_raises(self, sm, monkeypatch):
        force_positive_gram_verdict(monkeypatch)
        with pytest.raises(SelfCheckError, match=r"^factoring operator has norm \d\.\d{6} > 1"):
            is_cp_system_map(sm)

    def test_inconsistent_corners_raise(self, monkeypatch):
        # A nonzero module map over a zero CP map: no carrier reaches it.
        pm, _ = scalar_fixture(0.5)
        zero_phi = CPMap(pm.domain.algebra, 1, (np.zeros((1, 1)),))
        force_positive_gram_verdict(monkeypatch)
        with pytest.raises(SelfCheckError, match=r"^least-squares system for the contraction is inconsistent"):
            is_cp_system_map(block_map(pm, zero_phi, scalar_codomain()))

    def test_dilation_that_does_not_reconstruct_raises(self, monkeypatch):
        sm = block_map(*scalar_fixture(1.0), scalar_codomain())
        monkeypatch.setattr(cpmaps.StinespringDilation, "reconstruction_defect", lambda self, phi: 1e-3)
        with pytest.raises(SelfCheckError, match=r"^Stinespring dilation does not reconstruct the CP map \(defect 1\.000e-03\)$"):
            is_cp_system_map(sm)

    def test_cp_part_that_is_not_cp_is_an_input_error(self):
        # The transpose on M_2 against the module spanned by the row (1, 0):
        # its Gram pair is (E_00, 0), so the verdict is positive, and only
        # the certificate's dilation sees that the CP part is not CP.
        algebra = BlockAlgebra((2,))
        module = ConcreteModule(algebra, 1, (np.array([[1.0, 0.0]], dtype=complex),))
        pm = ModuleMap(module, 2, 1, (np.zeros((1, 2)),))
        sm = block_map(pm, transpose_map(algebra), full_rectangular_module(1, 2))
        assert is_completely_semi_phi(pm, sm.cp_map).ok
        with pytest.raises(NotCompletelyPositiveError):
            is_cp_system_map(sm)

    def test_no_draw_and_one_eigen_solve_each(self, monkeypatch):
        # The Gram verdict is one eigenvalue-only solve (N = 8: the table
        # path) and the certificate one eigh, of the Choi matrix in kraus;
        # the generator and the sample arguments are not read.
        fx = example_2_1(2)
        sm = block_map(fx.phi_map, fx.phi, full_rectangular_module(2, 2))
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert is_cp_system_map(sm, rng=rng, samples=20, max_level=3).ok
        assert calls == {"eigh": 1, "eigvalsh": 1}
        assert rng.bit_generator.state == state
        assert is_cp_system_map(sm, rng=rng, samples=-1, max_level=-1).ok

    @pytest.mark.parametrize("make", [example_2_1, compacts_fixture])
    def test_zero_tolerance(self, make):
        # At n = 3 the Choi matrix is singular up to rounding (lambda_min
        # about -3e-16), which kraus refuses at a zero threshold, as the
        # engine does; at n = 2 the corners' least-squares residual (about
        # 6e-16) fails its zero threshold, which the engine refuses too: no
        # threshold admits rounding at a zero tolerance.
        zero = ToleranceProfile(0.0, 0.0)
        for n, error in ((2, SelfCheckError), (3, NotCompletelyPositiveError)):
            fx = make(n)
            sm = block_map(fx.phi_map, fx.phi, full_rectangular_module(fx.phi_map.h2_dim, fx.phi_map.h1_dim), zero)
            assert is_completely_semi_phi(fx.phi_map, fx.phi, zero).ok
            with pytest.raises(error):
                is_cp_system_map(sm, zero)
