"""Module maps, the Gram criterion for completely semi-compatible maps, the
KSGNS-style universal map, and the extension engine with its corollaries.

The target Hilbert space of the universal map is realized concretely as a
subspace of ``C^p (x) C^r`` (columns of an orthonormal basis ``Q``) instead
of an abstract GNS quotient, so every intermediate operator is an explicit
matrix.  The engine's output is certified from scratch: restriction,
contraction bound, and the semi-compatibility of the extension are all
re-verified on the result rather than inherited from the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmaps import CPMap, StinespringDilation, _choi_matrix, stinespring
from .modules import ConcreteModule, _complement, is_submodule
from .numerics import (
    DEFAULT_TOL,
    ShapeError,
    ToleranceProfile,
    _matrix_stack,
    adjoint_products,
    column_span_onb,
    dagger,
    is_psd,
    least_squares_operator,
    operator_norm,
)

__all__ = [
    "PreconditionError",
    "ExtensionInputError",
    "SelfCheckError",
    "ModuleMap",
    "GramPair",
    "PhiMapReport",
    "SemiPhiReport",
    "SemiPhiWitness",
    "ObstructionReport",
    "KsgnsResult",
    "ExtensionResult",
    "zero_module_map",
    "is_phi_map",
    "is_nondegenerate",
    "ksgns",
    "gram_pair",
    "is_completely_semi_phi",
    "semiphi_witness",
    "phi_extension_obstruction",
    "extend_semi_phi",
    "compare_extensions",
    "canonical_compacts_extension",
]


class PreconditionError(ValueError):
    """A stated precondition could not be verified; the verdict is an error,
    not False."""


class ExtensionInputError(ValueError):
    """The extension engine received inputs violating its hypotheses."""


class SelfCheckError(RuntimeError):
    """A construction failed the re-check of its own certificate.

    This signals a defect in the toolkit or a numerically hopeless input,
    never a refutation of the property being decided.
    """


@dataclass(eq=False)
class ModuleMap:
    """Linear map from a module into ``B(C^m, C^k)``, given on the basis."""

    domain: ConcreteModule
    h1_dim: int
    h2_dim: int
    values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.domain.dim:
            raise ShapeError(
                f"need {self.domain.dim} values (one per basis element), got {len(self.values)}"
            )
        # The values as one ``(dim, k, m)`` array, in basis order.
        self._value_stack = _matrix_stack(self.values, (self.h2_dim, self.h1_dim), "values")
        self.values = tuple(self._value_stack)

    def apply(self, x, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """Image of one ``p x q`` domain element (a ``k x m`` matrix) or of
        each element of an ``(n, p, q)`` stack (an ``(n, k, m)`` stack)."""
        coeffs = self.domain.coefficients(x, tol)
        return np.tensordot(coeffs, self._value_stack, axes=1)

    def stacked_columns(self) -> np.ndarray:
        """The ``k x (dim * m)`` matrix of columns ``Phi(x_i) e_l`` (l fast)."""
        d, k, m = self._value_stack.shape
        return self._value_stack.transpose(1, 0, 2).reshape(k, d * m)


def zero_module_map(domain: ConcreteModule, h1_dim: int, h2_dim: int) -> ModuleMap:
    values = tuple(np.zeros((h2_dim, h1_dim), dtype=complex) for _ in range(domain.dim))
    return ModuleMap(domain, h1_dim, h2_dim, values)


@dataclass(frozen=True)
class PhiMapReport:
    ok: bool
    worst_defect: float
    worst_pair: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def _check_compatible(phi_map: ModuleMap, phi: CPMap) -> None:
    if phi_map.domain.algebra.blocks != phi.domain.blocks:
        raise ShapeError("module map and CP map live over different algebras")
    if phi_map.h1_dim != phi.target_dim:
        raise ShapeError(
            f"module map h1_dim {phi_map.h1_dim} does not match CP target {phi.target_dim}"
        )


def is_phi_map(phi_map: ModuleMap, phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL) -> PhiMapReport:
    """Check ``Phi(x)* Phi(y) = phi(<x, y>)`` on all basis pairs.

    Sesquilinearity extends the basis check to arbitrary elements.  Both
    sides are the ``m x m`` blocks of the :func:`gram_pair` that the semi
    criterion compares.
    """
    return _block_defect(phi_map, gram_pair(phi_map, phi), tol)


def _block_defect(phi_map: ModuleMap, pair: GramPair, tol: ToleranceProfile) -> PhiMapReport:
    """The exact check read off the Gram pair of ``phi_map``: block ``(i, j)``
    of ``g_map`` is ``Phi(x_i)* Phi(x_j)`` and of ``g_phi`` is
    ``phi(<x_i, x_j>)``, each pair compared at the scale of the larger."""
    d, m = phi_map.domain.dim, phi_map.h1_dim
    lhs = pair.g_map.reshape(d, m, d, m).transpose(0, 2, 1, 3)
    # A C-ordered (d, d, m, m) copy, even of a contiguous transpose: the
    # in-place subtraction stays off the shared pair, and each block norm sums
    # its m*m entries as one run, whose fixed order decides by rounding which
    # of the (i, j) and (j, i) blocks, equal in exact arithmetic, is worst_pair.
    rhs = pair.g_phi.reshape(d, m, d, m).transpose(0, 2, 1, 3).copy()
    scale = np.maximum(np.linalg.norm(lhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1)))
    rhs -= lhs
    defect = np.linalg.norm(rhs, axis=(-2, -1))
    ok = not np.any(defect > tol.threshold(scale))
    worst = float(defect.max(initial=0.0))
    # argmax is the first maximum in row-major order; no pair when all vanish.
    worst_pair = divmod(int(defect.argmax()), len(defect)) if worst > 0.0 else None
    return PhiMapReport(ok, worst, worst_pair)


def is_nondegenerate(phi_map: ModuleMap, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff the vectors ``Phi(x_i) h`` span the whole codomain."""
    onb = column_span_onb(phi_map.stacked_columns(), tol)
    return onb.shape[1] == phi_map.h2_dim


@dataclass(eq=False)
class KsgnsResult:
    """Universal map through which semi-compatible maps factor by contraction.
    Its self-check reads ``gram``, the Gram pair of the map on ``e``."""

    map: ModuleMap
    onb: np.ndarray
    dilation: StinespringDilation
    gram: GramPair


def ksgns(phi: CPMap, e: ConcreteModule, tol: ToleranceProfile = DEFAULT_TOL) -> KsgnsResult:
    """Kolmogorov-style factorization: the universal non-degenerate map.

    With ``V`` from the Stinespring dilation and ``r`` its rank, the carrier
    space is ``span{(x (x) I_r) V h}`` inside ``C^p (x) C^r``; ``Q`` is an
    orthonormal basis of it and the map sends ``x -> Q* (x (x) I_r) V``.

    One call makes one Stinespring dilation (so one Choi check and one
    eigendecomposition).  Since ``(x (x) I_r) V`` is ``x @ V`` with ``V``
    read as a ``q x (r m)`` matrix, the carrier columns of every basis
    element come from one matmul against the basis stack, and the values
    from one batched product with ``Q*``.
    """
    if e.algebra.blocks != phi.domain.blocks:
        raise ShapeError("module and CP map live over different algebras")
    dil = stinespring(phi, tol)
    r, m, p, q = dil.rank, phi.target_dim, e.row_dim, phi.domain.ambient_dim
    # cols[i] = (x_i (x) I_r) V, a (p r) x m matrix.
    cols = (e._basis_stack @ dil.V.reshape(q, r * m)).reshape(e.dim, p * r, m)
    stacked = cols.transpose(1, 0, 2).reshape(p * r, e.dim * m)
    q_onb = column_span_onb(stacked, tol, height=p * r)
    values = tuple(dagger(q_onb) @ cols)
    result = ModuleMap(e, m, q_onb.shape[1], values)
    pair = gram_pair(result, phi)
    report = _block_defect(result, pair, ToleranceProfile(tol.abs_tol * 1e3 + 1e-8, tol.rel_tol * 1e3 + 1e-8))
    if not report.ok:
        raise SelfCheckError(
            f"universal map failed its compatibility self-check (defect {report.worst_defect:.3e})"
        )
    return KsgnsResult(result, q_onb, dil, pair)


@dataclass(frozen=True)
class GramPair:
    """The two ``N x N`` quadratic forms compared by the semi criterion,
    ``N = dim(domain) * m``: blocks ``phi(<x_i, x_j>)`` against the Gram
    matrix of the columns ``Phi(x_i) e_l``."""

    g_phi: np.ndarray
    g_map: np.ndarray


def gram_pair(phi_map: ModuleMap, phi: CPMap) -> GramPair:
    _check_compatible(phi_map, phi)
    stack = phi_map.domain._basis_stack
    d, m = len(stack), phi.target_dim
    g_phi = phi.apply_pairs(stack, stack).transpose(0, 2, 1, 3).reshape(d * m, d * m)
    return _paired(g_phi, phi_map)


def _paired(g_phi: np.ndarray, phi_map: ModuleMap) -> GramPair:
    """A table ``phi~(<x_i, x_j>)`` over the domain of ``phi_map`` and the
    Gram matrix of the map's columns."""
    cols = phi_map.stacked_columns()
    return GramPair(g_phi, dagger(cols) @ cols)


@dataclass(frozen=True)
class SemiPhiReport:
    """Verdict of the semi criterion.

    ``margin`` is the smallest eigenvalue of the Gram gap and ``witness`` a
    unit eigenvector for it (empty when the gap is 0x0), from which a
    refutation certificate is built.
    """

    ok: bool
    gram: GramPair
    margin: float
    witness: np.ndarray

    def __bool__(self) -> bool:
        return self.ok


def is_completely_semi_phi(
    phi_map: ModuleMap, phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL
) -> SemiPhiReport:
    """Decide the operator inequality at every matrix level at once.

    The single ``N x N`` Loewner comparison of the Gram pair is equivalent to
    the level-n condition for all n: both sides are the same quadratic form
    on the algebraic tensor of the module with ``C^m``, and each level-n
    instance decomposes into row families of that form.
    """
    return _semi_verdict(gram_pair(phi_map, phi), tol)


def _semi_verdict(pair: GramPair, tol: ToleranceProfile) -> SemiPhiReport:
    """The semi criterion read off a Gram pair."""
    n = pair.g_phi.shape[0]
    if n == 0:
        return SemiPhiReport(True, pair, 0.0, np.zeros(0, dtype=complex))
    diff = pair.g_phi - pair.g_map
    diff = (diff + dagger(diff)) / 2.0
    report = is_psd(diff, tol)
    return SemiPhiReport(report.ok, pair, report.lambda_min, report.witness)


@dataclass(frozen=True)
class SemiPhiWitness:
    """Concrete family refuting the semi criterion.

    ``vectors[i]`` pairs with the i-th basis element; the re-evaluated gap
    ``lhs - rhs`` is strictly positive.
    """

    vectors: tuple[np.ndarray, ...]
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


def semiphi_witness(
    phi_map: ModuleMap, phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL
) -> SemiPhiWitness:
    """Build a refutation certificate from a negative eigenvector of the Gram
    gap; raises if the pair actually satisfies the criterion."""
    report = is_completely_semi_phi(phi_map, phi, tol)
    if report.ok:
        raise PreconditionError("witness requested for a satisfying pair")
    return _witness_from_report(phi_map, phi, report)


def _witness_from_report(
    phi_map: ModuleMap, phi: CPMap, report: SemiPhiReport
) -> SemiPhiWitness:
    """The certificate for a refuted criterion, from the eigenvector the
    decision already computed, with both sides re-evaluated independently of
    the Gram matrices."""
    d, m = phi_map.domain.dim, phi_map.h1_dim
    vecs = report.witness.reshape(d, m)
    vectors = tuple(vecs)
    total = np.einsum("kam,km->a", phi_map._value_stack, vecs)
    lhs = float(np.vdot(total, total).real)
    rhs = _witness_rhs(phi, phi_map.domain._basis_stack, vecs)
    witness = SemiPhiWitness(vectors, lhs, rhs)
    if witness.gap <= 0.0:
        raise SelfCheckError("witness failed independent re-evaluation")
    return witness


def _witness_rhs(phi: CPMap, basis: np.ndarray, vecs: np.ndarray) -> float:
    """``sum_kk' <v_k, phi~(x_k* x_k') v_k'>`` for a ``(d, p, q)`` basis stack
    and ``(d, m)`` vectors, straight from the Choi matrix ``C``.

    With ``y[r, i, a] = sum_k x_k[r, i] v_k[a]`` the sum is
    ``sum_r y_r* C y_r``: O(d) work on the stored values, sharing nothing
    with the pair kernels that build the Gram matrices.
    """
    p, q = basis.shape[1:]
    y = np.einsum("kri,ka->ria", basis, vecs).reshape(p, q * phi.target_dim)
    return float(np.vdot(y, y @ _choi_matrix(phi).T).real)


@dataclass(frozen=True)
class ObstructionReport:
    """Non-extendability obstruction: the largest ``|phi(<f_perp, e>)|``."""

    vanishes: bool
    norm: float
    complement: ConcreteModule

    def __bool__(self) -> bool:
        return self.vanishes


def _largest_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm in a stack of matrices, 0 for an empty stack."""
    return float(np.linalg.norm(stack, axis=(-2, -1)).max(initial=0.0))


def _max_operator_norm(blocks: np.ndarray, floor: float) -> float:
    """Largest spectral norm in a stack of matrices, and at least ``floor``."""
    if blocks.size == 0:
        return floor
    return max(floor, float(np.linalg.norm(blocks, 2, axis=(-2, -1)).max()))


def phi_extension_obstruction(
    phi: CPMap,
    f: ConcreteModule,
    e: ConcreteModule,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ObstructionReport:
    """Evaluate the necessary condition for compatible-map extendability:
    the CP map must annihilate all inner products of the orthogonal
    complement against the ambient module."""
    if not is_submodule(f, e, tol):
        raise PreconditionError("obstruction requires f to be a submodule of e")
    f_perp = _complement(f, e, tol)
    e_stack = e._basis_stack
    scale = _max_operator_norm(phi.apply_pairs(e_stack, e_stack), 1.0)
    worst = _max_operator_norm(phi.apply_pairs(f_perp._basis_stack, e_stack), 0.0)
    return ObstructionReport(worst <= tol.threshold(scale), worst, f_perp)


@dataclass(eq=False)
class ExtensionResult:
    """Full certificate of the extension construction.

    Carries the extension itself plus every intermediate operator (universal
    map, subspace basis ``Q``, projection ``P``, contraction ``S0``, composite
    ``S``, dilation) and a verification report re-computed from scratch.
    Stages: obstruction (own tables), input semi check and
    ``input_is_phi_map`` (the input's pair on ``f``), :func:`ksgns` (its
    ``gram`` on ``e``), least squares (no pair), and the re-certification of
    ``phi_prime``, which reads ``gram``: ksgns's ``g_phi`` against the Gram
    matrix of the columns of ``phi_prime``.
    """

    phi_prime: ModuleMap
    original: ModuleMap
    ksgns_map: ModuleMap
    subspace_onb: np.ndarray
    projection: np.ndarray
    contraction: np.ndarray
    composite: np.ndarray
    dilation: StinespringDilation
    gram: GramPair
    report: dict


def extend_semi_phi(
    phi_map: ModuleMap,
    e: ConcreteModule,
    phi: CPMap,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ExtensionResult:
    """Extend a completely semi-compatible map from a submodule to the whole
    module, with the extension again completely semi-compatible.

    The contraction ``S0`` is produced by least squares over the spanning set
    of universal-map vectors; well-definedness is certified by the residual.
    When the input is an exactly compatible map and the obstruction vanishes,
    the extension kills the orthogonal complement and is exactly compatible
    against the complemented submodule (the report records both checks).
    """
    _check_compatible(phi_map, phi)
    # The obstruction runs first: its submodule check is the engine's only one.
    try:
        obstruction = phi_extension_obstruction(phi, phi_map.domain, e, tol)
    except PreconditionError:
        raise ExtensionInputError("the map's domain must be a submodule of e") from None
    return _extend(phi_map, e, phi, obstruction, is_completely_semi_phi(phi_map, phi, tol), tol)


def _extend(
    phi_map: ModuleMap,
    e: ConcreteModule,
    phi: CPMap,
    obstruction: ObstructionReport,
    semi: SemiPhiReport,
    tol: ToleranceProfile,
) -> ExtensionResult:
    """The body of :func:`extend_semi_phi` for a compatible pair whose
    obstruction (and with it the check that the domain is a submodule of
    ``e``) and semi check have already been computed."""
    f = phi_map.domain
    if not semi.ok:
        raise ExtensionInputError(
            f"input map is not completely semi-compatible (margin {semi.margin:.3e})"
        )
    k, m = phi_map.h2_dim, phi_map.h1_dim
    kres = ksgns(phi, e, tol)
    universal = kres.map
    d_h = universal.h2_dim

    # Values of the universal map on the submodule basis, via coefficients,
    # as the columns U(f_i) e_l (l fast) next to the columns Phi(f_i) e_l.
    univ_on_f = universal.apply(f._basis_stack, tol)
    a_cols = univ_on_f.transpose(1, 0, 2).reshape(d_h, f.dim * m)
    b_cols = phi_map.stacked_columns()
    s0, residual = least_squares_operator(a_cols, b_cols, tol)
    b_scale = float(np.linalg.norm(b_cols)) if b_cols.size else 0.0
    # Loosened bound: the exact-arithmetic residual is 0 under the semi
    # hypothesis; numerical rank cuts in the ONB can leave small remnants.
    if residual > 1e3 * tol.threshold(max(b_scale, 1.0)):
        raise ExtensionInputError(
            f"least-squares system for the contraction is inconsistent (residual {residual:.3e})"
        )
    u = column_span_onb(a_cols, tol, height=d_h)
    projection = u @ dagger(u)
    norm_bound = 1.0 + 10.0 * (tol.abs_tol + tol.rel_tol)
    s0_norm = operator_norm(s0)
    if s0_norm > norm_bound:
        raise ExtensionInputError(
            f"factoring operator has norm {s0_norm:.6f} > 1; semi hypothesis violated"
        )
    composite = s0 @ projection
    prime_values = tuple(composite @ v for v in universal.values)
    phi_prime = ModuleMap(e, m, k, prime_values)

    report: dict = {
        "empty_submodule": f.dim == 0,
        "zero_cp_map": kres.dilation.rank == 0,
        "contraction_norm": s0_norm,
        "least_squares_residual": residual,
    }
    # Restriction certificate, re-derived through coefficients on e.
    prime_on_f = phi_prime.apply(f._basis_stack, tol)
    report["restriction_defect"] = _largest_norm(prime_on_f - phi_map._value_stack)
    gram = _paired(kres.gram.g_phi, phi_prime)  # the universal map is on e too
    semi_prime = _semi_verdict(gram, tol)
    report["extension_semi_ok"] = semi_prime.ok
    report["extension_semi_margin"] = semi_prime.margin

    # The exact check on the input reads the Gram pair of the semi check.
    input_is_phi_map = _block_defect(phi_map, semi.gram, tol).ok
    report["input_is_phi_map"] = input_is_phi_map
    report["obstruction_vanishes"] = obstruction.vanishes
    report["obstruction_norm"] = obstruction.norm
    if input_is_phi_map and obstruction.vanishes:
        f_perp = obstruction.complement
        prime_on_perp = phi_prime.apply(f_perp._basis_stack, tol)
        report["complement_killed_defect"] = _largest_norm(prime_on_perp)
        y_stack = np.concatenate([f._basis_stack, f_perp._basis_stack])
        y_values = np.concatenate([prime_on_f, prime_on_perp])
        x_stack, x_values = e._basis_stack, phi_prime._value_stack
        defects = [
            adjoint_products(x_values, y_values) - phi.apply_pairs(x_stack, y_stack),
            adjoint_products(y_values, x_values) - phi.apply_pairs(y_stack, x_stack),
        ]
        report["exact_on_complemented_defect"] = max(_largest_norm(dd) for dd in defects)

    return ExtensionResult(
        phi_prime=phi_prime,
        original=phi_map,
        ksgns_map=universal,
        subspace_onb=kres.onb,
        projection=projection,
        contraction=s0,
        composite=composite,
        dilation=kres.dilation,
        gram=gram,
        report=report,
    )


def compare_extensions(
    gamma: ModuleMap,
    result: ExtensionResult,
    phi: CPMap,
    f: ConcreteModule,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Uniqueness check: a compatible extension of a non-degenerate compatible
    map must coincide with the engine's output.

    Unverified preconditions raise :class:`PreconditionError` rather than
    returning False.
    """
    if not np.array_equal(gamma.domain._basis_stack, result.phi_prime.domain._basis_stack):
        raise PreconditionError("gamma must be defined on the same ambient module")
    if _any_apart(gamma.apply(f._basis_stack, tol), result.original._value_stack, tol):
        raise PreconditionError("gamma does not restrict to the original map")
    if not is_nondegenerate(result.original, tol):
        raise PreconditionError("original map is not non-degenerate")
    if not is_phi_map(gamma, phi, tol).ok:
        raise PreconditionError("gamma is not an exactly compatible map")
    return not _any_apart(gamma._value_stack, result.phi_prime._value_stack, tol)


def _any_apart(values: np.ndarray, reference: np.ndarray, tol: ToleranceProfile) -> bool:
    """True iff some matrix of the stack ``values`` is farther from its
    counterpart in ``reference`` than the threshold at ``max(|ref|, 1)``."""
    defect = np.linalg.norm(values - reference, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(reference, axis=(-2, -1)), 1.0)
    return bool(np.any(defect > tol.threshold(scale)))


def canonical_compacts_extension(
    phi_map: ModuleMap,
    e: ConcreteModule,
    phi: CPMap,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ModuleMap:
    """The extension-by-zero along the complemented decomposition.

    Valid only when the obstruction vanishes; otherwise no exactly compatible
    extension exists at all and this refuses.  The output is certified to be
    exactly compatible on the whole module and to coincide with the engine's
    extension.
    """
    return _canonical_compacts(phi_map, e, phi, tol)[0]


def _canonical_compacts(
    phi_map: ModuleMap,
    e: ConcreteModule,
    phi: CPMap,
    tol: ToleranceProfile,
) -> tuple[ModuleMap, ExtensionResult]:
    """The body of :func:`canonical_compacts_extension`, which also returns
    the engine result the extension was certified against."""
    f = phi_map.domain
    obstruction = phi_extension_obstruction(phi, f, e, tol)
    if not obstruction.vanishes:
        raise PreconditionError(
            f"obstruction norm {obstruction.norm:.3e} is nonzero: "
            "no exactly compatible extension exists on the whole module"
        )
    semi = is_completely_semi_phi(phi_map, phi, tol)
    if not _block_defect(phi_map, semi.gram, tol).ok:
        raise PreconditionError("input is not an exactly compatible map on its domain")
    f_perp = obstruction.complement
    combined = np.concatenate([f._basis_stack, f_perp._basis_stack])
    stacked = combined.reshape(len(combined), e.row_dim * e.algebra.ambient_dim).T
    # Solve x = sum_j c_j (f-basis, f_perp-basis)_j for every basis element x
    # of e at once (one lstsq, independent of the span projection), keep the
    # f part.
    targets = e._basis_columns
    sol = np.linalg.lstsq(stacked, targets, rcond=None)[0]
    defect = np.linalg.norm(stacked @ sol - targets, axis=0)
    if np.any(defect > tol.threshold(np.maximum(np.linalg.norm(targets, axis=0), 1.0))):
        raise PreconditionError("module does not decompose as f + f_perp")
    values = np.tensordot(sol[: f.dim].T, phi_map._value_stack, axes=1)
    extension = ModuleMap(e, phi_map.h1_dim, phi_map.h2_dim, tuple(values))
    engine = _extend(phi_map, e, phi, obstruction, semi, tol)
    certify = _block_defect(extension, _paired(engine.gram.g_phi, extension), tol)
    if not certify.ok:
        raise SelfCheckError(
            f"extension-by-zero failed its compatibility certificate (defect {certify.worst_defect:.3e})"
        )
    for ve, vp in zip(extension.values, engine.phi_prime.values):
        if np.linalg.norm(ve - vp) > 1e3 * tol.threshold(max(np.linalg.norm(ve), 1.0)):
            raise SelfCheckError("extension-by-zero disagrees with the engine output")
    return extension, engine
