import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiphi.extension as extension
import semiphi.modules as modules
import semiphi.paulsen as paulsen

from semiphi import (
    BlockAlgebra,
    ConcreteModule,
    CPMap,
    ModuleMap,
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
)
from semiphi.fixtures import (
    example_2_1,
    random_containment_fixture,
    random_semi_phi_fixture,
    scalar_fixture,
)
from semiphi.extension import SelfCheckError
from semiphi.modules import BlockEmbedding, MembershipError
from semiphi.numerics import DEFAULT_TOL, HermiticityError, ShapeError, ToleranceProfile, as_matrix, dagger
from semiphi.paulsen import _block_matrices, _psd_sample_stack, random_psd_system_element
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
    def test_scalar_threshold(self, rng):
        for c, expect in ((1.0, True), (2.0, False)):
            pm, phi = scalar_fixture(c)
            sm = block_map(pm, phi, scalar_codomain())
            assert is_cp_system_map(sm, rng=rng).ok is expect

    def test_scalar_c2_explicit_image(self):
        pm, phi = scalar_fixture(2.0)
        sm = block_map(pm, phi, scalar_codomain())
        img = sm.apply(np.ones((2, 2), dtype=complex))
        assert np.allclose(img, [[1.0, 2.0], [2.0, 1.0]])
        assert np.linalg.eigvalsh(img.real)[0] == pytest.approx(-1.0)

    def test_phi_map_gives_cp(self, rng):
        fx = example_2_1(2)
        codomain = full_rectangular_module(2, 2)
        sm = block_map(fx.phi_map, fx.phi, codomain)
        report = is_cp_system_map(sm, rng=rng, samples=10)
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


# Reference loops for the batched sampling layer: one np.kron per system basis
# element, and one decomposition and one module-map / CP-map call per block.


def reference_psd_sample(system, n, rng):
    d = system.ambient_dim
    x = np.zeros((n * d, n * d), dtype=complex)
    for b in system.basis:
        coeff = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x += np.kron(coeff, b)
    herm = (x + x.conj().T) / 2.0
    return herm - np.linalg.eigvalsh(herm)[0] * np.eye(n * d)


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


class TestBatchedSampling:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_psd_sample_matches_kron_loop(self, level):
        rng = np.random.default_rng(2024)
        systems = [two_block_system_map().domain] + [sm.domain for sm in random_system_maps(rng, 4)]
        for k, system in enumerate(systems):
            fast, slow = np.random.default_rng([level, k]), np.random.default_rng([level, k])
            got = random_psd_system_element(system, level, fast)
            want = reference_psd_sample(system, level, slow)
            assert np.abs(got - want).max() <= 1e-12
            assert fast.bit_generator.state == slow.bit_generator.state

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
    CP for ``|c| > 1``, and (unlike the scalar map) some PSD samples still
    map to PSD images."""
    sm = two_block_system_map()
    module = sm.module_map.domain
    values = (c * module.basis[0], module.basis[1])
    return block_map(ModuleMap(module, 2, 2, values), sm.cp_map, module)


def force_positive_gram_verdict(monkeypatch):
    """Let a map that is not CP reach the sampling layer."""
    original = paulsen.is_completely_semi_phi

    def positive(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), ok=True)

    monkeypatch.setattr(paulsen, "is_completely_semi_phi", positive)


SAMPLING_TOL = ToleranceProfile(1e-8, 1e-8)  # what is_cp_system_map uses at the default


def first_refuted_sample(sm, seed, samples, max_level, planted=None):
    """(level, sample, lambda_min) of the first sample whose image is not
    PSD, from the kron and per-block reference loops, and the generator
    state after that level's draw.  A sample ``planted = (level, sample)``
    holds a block that the map rejects, so it fails before its PSD test:
    its lambda_min reads None."""
    rng = np.random.default_rng(seed)
    for level in range(1, max_level + 1):
        found = None
        for s in range(samples):
            x = reference_psd_sample(sm.domain, level, rng)
            if found is None and planted == (level, s):
                found = (level, s, None)
                continue
            image = reference_apply_n(sm, level, x)
            eigvals = np.linalg.eigvalsh((image + image.conj().T) / 2.0)
            scale = max(abs(eigvals[0]), abs(eigvals[-1]))
            if found is None and eigvals[0] < -SAMPLING_TOL.threshold(scale):
                found = (level, s, eigvals[0])
        if found:
            return found, rng.bit_generator.state
    return None, rng.bit_generator.state


class TestLevelBatches:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_batch_matches_per_sample_loops(self, level, samples):
        rng = np.random.default_rng(31)
        maps = [two_block_system_map()] + list(random_system_maps(rng, 4))
        for k, sm in enumerate(maps):
            batch_rng = np.random.default_rng([level, samples, k])
            loop_rng = np.random.default_rng([level, samples, k])
            kron_rng = np.random.default_rng([level, samples, k])
            d = sm.domain.ambient_dim
            stack, _ = _psd_sample_stack(sm.domain, samples, (level,), batch_rng)
            blocks = stack.reshape(samples, level, level, d, d)
            images, failures = sm._apply_stack(blocks, ToleranceProfile())
            assert not any(flags.any() for flags, _ in failures)
            for x, image in zip(_block_matrices(blocks), images):
                assert np.abs(x - random_psd_system_element(sm.domain, level, loop_rng)).max() <= 1e-12
                assert np.abs(x - reference_psd_sample(sm.domain, level, kron_rng)).max() <= 1e-12
                want = reference_apply_n(sm, level, x)
                assert np.abs(image - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
            assert batch_rng.bit_generator.state == kron_rng.bit_generator.state

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_levels_match_single_level_calls(self, samples):
        # One call over levels 1-3 holds the samples of three one-level calls
        # drawn in turn, up to the rounding of its one (taller) basis matmul.
        maps = [two_block_system_map()] + list(random_system_maps(np.random.default_rng(32), 4))
        for k, sm in enumerate(maps):
            joint_rng, single_rng = np.random.default_rng([samples, k]), np.random.default_rng([samples, k])
            stack, states = _psd_sample_stack(sm.domain, samples, (1, 2, 3), joint_rng)
            start = 0
            for n, state in zip((1, 2, 3), states):
                single, (single_state,) = _psd_sample_stack(sm.domain, samples, (n,), single_rng)
                joint = stack[start : start + len(single)]
                assert np.abs(joint - single).max() <= 1e-12 * np.abs(single).max()
                assert state == single_state
                start += len(single)
            assert start == len(stack)
            assert joint_rng.bit_generator.state == single_rng.bit_generator.state

    @pytest.mark.parametrize("samples, max_level", [(0, 3), (5, 0)])
    def test_no_samples_draw_nothing(self, samples, max_level, monkeypatch):
        sm = scaled_two_block_system_map(1.5)
        assert first_refuted_sample(sm, 4, 5, 3)[0] is not None  # sampling would refute it
        force_positive_gram_verdict(monkeypatch)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        report = is_cp_system_map(sm, rng=rng, samples=samples, max_level=max_level)
        assert rng.bit_generator.state == state
        gram = is_completely_semi_phi(sm.module_map, sm.cp_map)
        assert report.ok and report.margin == gram.margin < 0.0

    @pytest.mark.parametrize("samples", [1, 4, 20])
    def test_one_sample_solve_and_one_image_solve_per_level(self, samples, monkeypatch):
        fx = example_2_1(2)
        sm = block_map(fx.phi_map, fx.phi, full_rectangular_module(2, 2))
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        # The Gram verdict is one eigenvalue-only solve, and each level adds
        # the sample shift and the image decision; no call builds vectors.
        is_cp_system_map(sm)
        assert calls == {"eigh": 0, "eigvalsh": 1}
        calls.update(eigh=0, eigvalsh=0)
        is_cp_system_map(sm, rng=np.random.default_rng(0), samples=samples, max_level=3)
        assert calls == {"eigh": 0, "eigvalsh": 1 + 2 * 3}


def level_start(count, level):
    """The first block of ``level`` in a sample stack of ``count`` samples at
    each of the levels 1, 2, ... in turn."""
    return count * sum(n * n for n in range(1, level))


def plant_blocks(monkeypatch, where, blocks):
    """Make the sampler put ``blocks`` in its block stack from the block
    ``where(count)`` on, in place of the drawn ones; ``count`` is the
    number of samples per level."""
    draw = paulsen._psd_sample_stack

    def planted(system, count, levels, rng):
        stack, states = draw(system, count, levels, rng)
        start = where(count)
        stack[start : start + len(blocks)] = blocks
        return stack, states

    monkeypatch.setattr(paulsen, "_psd_sample_stack", planted)


def plant_level_one(monkeypatch, samples):
    """Make the sampler's level-1 samples the matrices ``samples``."""
    plant_blocks(monkeypatch, lambda count: 0, np.stack(samples))


class TestSamplingFailures:
    @pytest.mark.parametrize("seed, expect", [(5, (1, 2)), (29, (2, 0))])
    def test_first_refuted_sample_raises(self, seed, expect, monkeypatch):
        sm = scaled_two_block_system_map(1.5)
        (level, sample, lam), state = first_refuted_sample(sm, seed, 3, 3)
        assert (level, sample) == expect  # a later sample, or a later level
        force_positive_gram_verdict(monkeypatch)
        rng = np.random.default_rng(seed)
        with pytest.raises(SelfCheckError) as info:
            is_cp_system_map(sm, rng=rng, samples=3, max_level=3)
        assert str(info.value) == (
            f"positive verdict refuted by PSD sampling (level {level}, lambda_min {lam:.3e})"
        )
        # The generator has moved to the end of the failing level's draw.
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", sorted(FAILING_BLOCKS))
    def test_earlier_refuted_sample_beats_later_rejected_sample(self, kind, monkeypatch):
        sm = scaled_two_block_system_map(1.5)
        # [[I, E_00], [E_00, I]] is PSD; its image [[I, 1.5 E_00], [1.5 E_00, I]]
        # has lambda_min -0.5.
        refuted = assemble([[np.eye(2), np.diag([1.0, 0.0])], [np.diag([1.0, 0.0]), np.eye(2)]])
        blk, exc, message = FAILING_BLOCKS[kind]
        force_positive_gram_verdict(monkeypatch)
        for batch, error, text in (
            ((refuted, blk), SelfCheckError, "positive verdict refuted by PSD sampling (level 1, lambda_min -5.000e-01)"),
            ((blk, refuted), exc, message),
        ):
            plant_level_one(monkeypatch, batch)
            with pytest.raises(error) as info:
                is_cp_system_map(sm, rng=np.random.default_rng(0), samples=2, max_level=3)
            assert str(info.value) == text

    def test_image_checks_follow_is_psd_order(self, monkeypatch):
        sm = two_block_system_map()
        force_positive_gram_verdict(monkeypatch)
        bad = np.eye(4, dtype=complex)
        bad[0, 2] = 1.0  # a corner without its adjoint corner
        for batch, error, text in (
            ((np.eye(4), bad), HermiticityError, "matrix is not hermitian: defect 1.414e+00 exceeds tolerance"),
            ((np.eye(4), np.full((4, 4), np.nan), bad), ValueError, "matrix entries must be finite"),
        ):
            plant_level_one(monkeypatch, batch)
            with pytest.raises(error) as info:
                is_cp_system_map(sm, rng=np.random.default_rng(0), samples=len(batch), max_level=1)
            assert str(info.value) == text


def scaled_system_map(sm, c):
    """``sm`` with its module-map values scaled by ``c``."""
    mm = sm.module_map
    scaled = ModuleMap(mm.domain, mm.h1_dim, mm.h2_dim, tuple(c * v for v in mm.values))
    return block_map(scaled, sm.cp_map, sm.codomain.module)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    random_map=st.booleans(),
    c=st.sampled_from([1.0, 1.2, 1.5, 3.0]),
    samples=st.sampled_from([1, 2, 5]),
    max_level=st.sampled_from([1, 2, 3]),
    plant=st.none() | st.tuples(
        st.sampled_from(sorted(FAILING_BLOCKS)),
        st.integers(1, 3),  # level
        st.integers(0, 4),  # sample, modulo the sample count
        st.integers(0, 2),  # block row and column, modulo the level
        st.integers(0, 2),
    ),
)
@settings(max_examples=100, deadline=None)
def test_sampling_layer_matches_reference_loops(seed, random_map, c, samples, max_level, plant):
    # A (possibly scaled, so not CP) map with a forced positive Gram verdict,
    # and on the two-block map possibly one rejected block planted in one
    # sample: the layer raises what the kron and per-block loops find first,
    # and leaves the generator where they leave it.
    base = next(random_system_maps(np.random.default_rng(seed), 1)) if random_map else two_block_system_map()
    sm = scaled_system_map(base, c)
    if random_map or plant is None or plant[1] > max_level:
        plant = None
    else:
        kind, level, sample, row, col = plant
        plant = (kind, level, sample % samples, row % level, col % level)
    found, state = first_refuted_sample(sm, seed, samples, max_level, plant and plant[1:3])
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        force_positive_gram_verdict(mp)
        if plant is not None:
            kind, level, sample, row, col = plant
            block = sample * level * level + row * level + col  # within the planted level
            plant_blocks(mp, lambda count: level_start(count, level) + block, FAILING_BLOCKS[kind][0][None])
        if found is None:
            assert is_cp_system_map(sm, rng=rng, samples=samples, max_level=max_level).ok
        else:
            found_level, _, lam = found
            if lam is None:
                _, exc, message = FAILING_BLOCKS[plant[0]]
            else:
                exc = SelfCheckError
                message = f"positive verdict refuted by PSD sampling (level {found_level}, lambda_min {lam:.3e})"
            with pytest.raises(exc) as info:
                is_cp_system_map(sm, rng=rng, samples=samples, max_level=max_level)
            assert str(info.value) == message
    assert rng.bit_generator.state == state


class TestSamplingArguments:
    @pytest.mark.parametrize("name, value", [("samples", -3), ("max_level", -1)])
    def test_negative_count_raises(self, name, value):
        sm = two_block_system_map()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for generator in (rng, None):
            with pytest.raises(ValueError, match=f"^{name} must be non-negative, got {value}$"):
                is_cp_system_map(sm, rng=generator, **{name: value})
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [0, -1])
    def test_level_below_one_raises(self, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^level n must be at least 1, got {n}$"):
            random_psd_system_element(two_block_system_map().domain, n, rng)
        assert rng.bit_generator.state == state


def tall_row_system_map(rows):
    """Identity block map on a module of ``rows x 2`` matrices spanned by the
    units of its first row: a system of size ``rows + 2`` whose semi check
    is a 4 x 4 Gram pair."""
    row = full_rectangular_module(1, 2)
    padded = tuple(np.vstack([b, np.zeros((rows - 1, 2))]) for b in row.basis)
    module = ConcreteModule(BlockAlgebra((2,)), rows, padded)
    return block_map(ModuleMap(module, 2, 1, row.basis), identity_cp_map(module.algebra), row)


class TestOneDecompositionPass:
    @pytest.mark.parametrize("samples, max_level, calls", [(0, 3, 0), (5, 0, 0), (1, 3, 1), (20, 3, 1)])
    def test_one_split_per_call(self, samples, max_level, calls, monkeypatch):
        fx = example_2_1(2)
        sm = block_map(fx.phi_map, fx.phi, full_rectangular_module(2, 2))
        count = [0]
        original = paulsen._split_blocks

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(paulsen, "_split_blocks", counted)
        assert is_cp_system_map(sm, rng=np.random.default_rng(0), samples=samples, max_level=max_level).ok
        assert count[0] == calls

    @pytest.mark.parametrize("max_level", [3, 4])
    def test_planted_failure_at_level_three(self, max_level, monkeypatch):
        # Levels 1 and 2 are clean random samples; the last block of the last
        # level-3 sample is the module-map failure, whose residual (1e-7)
        # stands apart from every other block's.
        sm = two_block_system_map()
        blk, exc, message = FAILING_BLOCKS["module_map"]
        draw = paulsen._psd_sample_stack
        plant_blocks(monkeypatch, lambda count: level_start(count, 4) - 1, blk[None])
        rng = np.random.default_rng(8)
        with pytest.raises(exc) as info:
            is_cp_system_map(sm, rng=rng, samples=4, max_level=max_level)
        assert str(info.value) == message
        # The generator sits at the end of level 3, whether or not a later
        # level was drawn.
        end_of_level_3 = np.random.default_rng(8)
        draw(sm.domain, 4, (1, 2, 3), end_of_level_3)
        assert rng.bit_generator.state == end_of_level_3.bit_generator.state

    def test_peak_memory_within_two_and_a_half_block_arrays(self):
        sm = tall_row_system_map(16)
        is_cp_system_map(sm, rng=np.random.default_rng(0), samples=1)  # warm the cached views
        block_bytes = 20 * (1 + 4 + 9) * sm.domain.ambient_dim**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            assert is_cp_system_map(sm, rng=np.random.default_rng(1), samples=20, max_level=3).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * block_bytes
