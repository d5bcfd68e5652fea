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

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cpmaps import CPMap, StinespringDilation, _choi_matrix, stinespring
from .modules import ConcreteModule, _complement, _invalid_module_message, _submodule_coefficients
from .numerics import (
    DEFAULT_TOL,
    ShapeError,
    ToleranceProfile,
    _construction_threshold,
    _construction_tol,
    _contraction_bound,
    _far_from_overflow,
    _lowest_eigenvector,
    _matrix_stack,
    _max_operator_norm,
    _psd_eigh,
    _psd_report,
    _psd_verdict_clear,
    _rounding_band,
    adjoint_products,
    as_matrix,
    column_span_onb,
    dagger,
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
    "ExtensionReport",
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


class _InvalidModuleError(PreconditionError):
    """The ambient module fails the module axioms; the message names the
    first violation."""


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
    Its self-check reads ``gram``, the Gram pair of the map on ``e``, equal to
    a fresh :func:`gram_pair` of ``map``.

    The result also holds the ``(p r) x (dim e * m)`` matrix ``C`` of carrier
    columns ``(e_i (x) I_r) V e_l`` (l fast) that ``map`` was built from (the
    keyword-only ``_carrier``): ``C* C`` is ``phi~(<e_i, e_j>)`` up to the
    dilation's rank cut and rounding, and the engine re-certifies its
    extension on it (see :func:`_ksgns_carrier`).
    """

    map: ModuleMap
    onb: np.ndarray
    dilation: StinespringDilation
    gram: GramPair
    _carrier: np.ndarray = field(repr=False, kw_only=True)


def ksgns(
    phi: CPMap, e: ConcreteModule, tol: ToleranceProfile = DEFAULT_TOL, *, _table: np.ndarray | None = None
) -> KsgnsResult:
    """Kolmogorov-style factorization: the universal non-degenerate map.

    With ``V`` from the Stinespring dilation and ``r`` its rank, the carrier
    space is ``span{(x (x) I_r) V h}`` inside ``C^p (x) C^r``; ``Q`` is an
    orthonormal basis of it and the map sends ``x -> Q* (x (x) I_r) V``.

    One call makes one Stinespring dilation (so one Choi check and one
    eigendecomposition).  Since ``(x (x) I_r) V`` is ``x @ V`` with ``V``
    read as a ``q x (r m)`` matrix, the carrier columns of every basis
    element come from one matmul against the basis stack, and the values
    from one batched product with ``Q*``.

    The self-check compares the map's Gram matrix with the table
    ``phi~(<e_i, e_j>)``.  The engine passes the table its obstruction has
    already formed (the keyword-only ``_table``, a ``(dim e, dim e, m, m)``
    array from ``phi.apply_pairs`` on e's basis); without it the table comes
    from :func:`gram_pair`.  Either way ``gram`` is bit-equal to a fresh
    :func:`gram_pair` of the map.
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
    pair = gram_pair(result, phi) if _table is None else _paired(_table_matrix(_table), result)
    report = _block_defect(result, pair, _construction_tol(tol))
    if not report.ok:
        raise SelfCheckError(
            f"universal map failed its compatibility self-check (defect {report.worst_defect:.3e})"
        )
    return KsgnsResult(result, q_onb, dil, pair, _carrier=stacked)


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
    return _paired(_table_matrix(phi.apply_pairs(stack, stack)), phi_map)


def _table_matrix(table: np.ndarray) -> np.ndarray:
    """The ``(d m) x (d m)`` matrix whose block ``(i, j)`` is ``table[i, j]``
    of a ``(d, d, m, m)`` table such as ``phi.apply_pairs`` returns."""
    d, m = len(table), table.shape[-1]
    return table.transpose(0, 2, 1, 3).reshape(d * m, d * m)


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

    :func:`_decide_gap` makes every report, on a signed carrier or on the
    Gram pair.  ``gram`` (a :class:`GramPair`, from the keyword-only callable
    ``_table``) is formed on first access, and so is ``witness``, by ``eigh``
    of the symmetrized gap of that pair; both are bit-equal to a
    table-decided report's.  A report made to build a certificate
    (:func:`semiphi_witness`, the CLI ``witness`` command) that refutes
    carries its witness from the decision (the keyword-only ``_vector``): on
    a carrier, the lift of the small eigenvector, a unit eigenvector of the
    gap for ``margin`` defined up to a unit phase.  The keyword-only
    ``_path`` names the path that decided: ``"carrier"`` or ``"table"``.

    A carrier and the table round apart, so a carrier's ``margin`` differs
    from the table's smallest eigenvalue in the rounding digits.  For a gap
    whose smallest eigenvalue lies within about ``8 * N * EPS * scale`` of
    the threshold, a refuting :func:`is_completely_semi_phi` can still meet
    a :func:`semiphi_witness` that raises "witness requested for a
    satisfying pair", and the reverse.
    """

    ok: bool
    margin: float
    _table: Callable[[], GramPair] = field(repr=False, compare=False, kw_only=True)
    _vector: np.ndarray | None = field(default=None, repr=False, compare=False, kw_only=True)
    _path: str = field(default="table", repr=False, compare=False, kw_only=True)

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def gram(self) -> GramPair:
        return self._table()

    @cached_property
    def witness(self) -> np.ndarray:
        if self._vector is not None:
            return self._vector
        return _lowest_eigenvector(_symmetrized_gap(self.gram))


def is_completely_semi_phi(
    phi_map: ModuleMap, phi: CPMap, tol: ToleranceProfile = DEFAULT_TOL
) -> SemiPhiReport:
    """Decide the operator inequality at every matrix level at once.

    The single ``N x N`` Loewner comparison of the Gram pair is equivalent to
    the level-n condition for all n: both sides are the same quadratic form
    on the algebraic tensor of the module with ``C^m``, and each level-n
    instance decomposes into row families of that form.

    :func:`_decide_gap` decides it on the signed Choi carrier
    (:func:`_choi_carrier`, from ``N = 64`` on) or on the Gram pair, so the
    verdict is the pair's, as in :func:`extend_semi_phi`.
    """
    return _choi_semi(phi_map, phi, tol)


def _choi_semi(phi_map: ModuleMap, phi: CPMap, tol: ToleranceProfile, vectors: bool = False) -> SemiPhiReport:
    """:func:`_decide_gap` of the Gram gap of ``phi_map`` on its signed
    Choi carrier; the witness path passes ``vectors``."""
    return _decide_gap(partial(_choi_carrier, phi_map, phi), partial(gram_pair, phi_map, phi), tol, vectors)


# The gap size N from which both carriers decide.  Below it the Gram pair's
# one N x N solve costs less than the carrier's fixed work (per algebra block
# two small eighs, of the Choi block and of the row Gram, then a QR and the
# small solve).  On bench/problems.py problems at m = 4 over blocks of size 2
# (2-vCPU x86-64 host, OpenBLAS at one thread, calls of both paths
# interleaved) the two paths break even near N = 45-55 over one block, 60-65
# over two, 70 over three and 80-85 over four; no workload has more than two.
_CARRIER_MIN_GAP = 64


# A signed carrier of a Gram gap: ``X*`` (``N x n``, ``n < N``), the diagonal
# ``J`` of the form ``X* J X`` and the most an eigenvalue of that form can lie
# from the Gram pair's gap.
_Carrier = tuple[np.ndarray, np.ndarray, float]


def _decide_gap(
    carrier: Callable[[], _Carrier | None],
    table: Callable[[], GramPair],
    tol: ToleranceProfile,
    vectors: bool = False,
) -> SemiPhiReport:
    """The semi criterion of a Gram gap: on its signed carrier where that
    settles the Gram pair's verdict, with no ``N x N`` solve, and on the pair
    (:func:`_semi_verdict` of ``table()``) otherwise.

    ``carrier()`` returns ``(X*, J, error)``, or None where it cannot decide.
    With ``X* = Q R`` (one QR) the spectrum of ``X* J X`` is that of the
    ``n x n`` matrix ``R J R*`` (one ``eigvalsh``) and ``N - n`` zeros; the
    verdict and ``margin`` are read off ``min(0, mu_min)`` and
    ``max(0, mu_max)``.  A verdict that is not clear of its threshold for
    every matrix whose eigenvalues lie within ``error`` of these
    (:func:`numerics._psd_verdict_clear`) is taken from the pair, so a
    carrier that disagrees with it can only hand the decision back.  With
    ``vectors`` (one ``eigh`` in place of the ``eigvalsh``) a refuting
    carrier report's witness is the lift ``Q w`` of the small unit
    eigenvector ``w``.  The report's ``gram`` is ``table()``, called on
    first access when the carrier decides.
    """
    built = carrier()
    if built is not None:
        x_adj, signs, error = built
        if vectors:
            q_onb, r = np.linalg.qr(x_adj)
        else:
            r = np.linalg.qr(x_adj, mode="r")
        small = (r * signs) @ dagger(r)
        if vectors:
            mu, small_vecs = np.linalg.eigh(small)
        else:
            mu = np.linalg.eigvalsh(small)
        extremes = np.array([mu.min(initial=0.0), mu.max(initial=0.0)])
        ok, lam_min, clear = _psd_verdict_clear(extremes, error, tol)
        if clear:
            lifted = q_onb @ small_vecs[:, 0] if vectors and not ok else None
            return SemiPhiReport(ok, lam_min, _table=table, _vector=lifted, _path="carrier")
    return _semi_verdict(table(), tol, vectors)


def _choi_carrier(phi_map: ModuleMap, phi: CPMap) -> _Carrier | None:
    """The signed Choi carrier of the Gram gap of ``phi_map`` (``N = dim *
    m``) for :func:`_decide_gap`, with no Gram pair.

    With ``H = sum_t lambda_t w_t w_t*`` the symmetrized Choi matrix, the
    pinch-extended ``phi~(<x_i, x_j>)`` is ``C_i* J C_j`` on the rows
    ``c[(s, t), (i, l)] = sqrt|lambda_t| sum_b x_i[s, b] conj(w_t[(b, l)])``
    with the signs ``J`` of the ``T`` kept eigenvalues.  The symmetrized Gram
    gap is then ``X* J' X`` with ``X = [C; B]``, ``B`` the map's
    :meth:`~ModuleMap.stacked_columns` and ``J' = diag(J, -I_k)``.

    ``H`` is block diagonal, one block per algebra block, so each block has
    its own ``eigh`` and its eigenvectors meet only that block's columns of
    the basis.  Those columns, stacked as the ``p x (d * width)`` matrix
    ``y``, span few rows: the rows ``s`` of a block are taken in an
    orthonormal basis ``U`` of that span, which leaves the form unchanged, so
    ``n`` is the sum over blocks of (rank of the block's columns) * (kept
    eigenvalues) plus ``k``, at most ``p * T + k``.  ``U`` and ``U* y`` are
    the module's row form (``ConcreteModule._block_rows``, one ``eigh`` of
    the row Gram ``y y*`` per block, shared with validation), with no SVD.

    Eigenvalues of ``H`` and of the row Gram below their rounding bands
    (``numerics._rounding_band``) are dropped.  With ``S = sum_i |x_i|_F^2``
    and ``e^2`` the dropped row mass, the sum over blocks of the squared
    residuals ``|y - U U* y|_F^2`` formed explicitly (it takes in the rows
    whose singular values, up to about ``sqrt((p + d * width) * EPS)`` of the
    largest, the Gram cannot resolve, and any error of ``U``), that moves the
    gap by at most ``|lambda|_drop * S`` and ``|H| * e^2`` (Weyl; ``H`` acts
    on the columns of ``y`` alone, so with ``P = U U*`` the form of ``y`` is
    that of ``P y`` plus that of ``(I - P) y``, up to ``U``'s departure from
    orthonormality, which the rounding term covers); with the rounding of
    every solve of both paths this is the carrier's error.  None (the pair
    decides) for a gap below ``_CARRIER_MIN_GAP``, a carrier no smaller than
    ``N`` and values whose products come near overflow.
    """
    _check_compatible(phi_map, phi)
    basis, values = phi_map.domain._basis_stack, phi_map._value_stack
    d, p, q = basis.shape
    k, m = phi_map.h2_dim, phi_map.h1_dim
    dim = d * m
    slices = phi.domain.block_slices()
    if dim < _CARRIER_MIN_GAP or k >= dim:
        return None
    choi = _choi_matrix(phi)
    module_mass = float(np.vdot(basis, basis).real)  # sum_i |x_i|_F^2
    map_mass = float(np.vdot(values, values).real)  # |B|_F^2
    choi_l1 = float(np.abs(choi).sum())
    # Every product either path forms is bounded by this (the table's
    # phi~(x_i* x_j) by module_mass * choi_l1, the carrier's rows by its
    # eigenvalues, each at most choi_l1).
    product_bound = (module_mass + 1.0) * choi_l1 * q * m + map_mass
    if not _far_from_overflow(product_bound):
        return None
    herm = (choi + dagger(choi)) / 2.0
    spectra = [np.linalg.eigh(herm[sl.start * m : sl.stop * m, sl.start * m : sl.stop * m]) for sl in slices]
    top = max(float(np.abs(lam).max()) for lam, _ in spectra)
    cut = _rounding_band(q * m, top)
    dropped = row_mass = 0.0
    n, blocks = k, []
    for (lam, w), rows in zip(spectra, phi_map.domain._block_rows):
        keep = np.abs(lam) > cut
        dropped = max(dropped, float(np.abs(lam[~keep]).max(initial=0.0)))
        if not keep.any():
            continue
        row_mass += rows.residual_mass
        n += len(rows.coords) * int(np.count_nonzero(keep))
        blocks.append((rows.coords, lam[keep], w[:, keep]))
    if n >= dim:
        return None
    columns, signs = [], []
    for coords, lam, w in blocks:
        rank, width, t = len(coords), w.shape[0] // m, len(lam)
        # conj(x_i[s, b]) with the rows s in that basis, as (d, rank, width).
        conj_rows = np.conj(coords).reshape(rank, d, width).transpose(1, 0, 2)
        # C*[(i, l), (s, t)] = sqrt|lambda_t| sum_b conj(x_i[s, b]) w_t[(b, l)].
        w_kept = (w * np.sqrt(np.abs(lam))).reshape(width, m * t)
        c_adj = (conj_rows @ w_kept).reshape(d, rank, m, t)
        columns.append(c_adj.transpose(0, 2, 1, 3).reshape(dim, rank * t))
        signs.append(np.tile(np.sign(lam), rank))
    columns.append(np.conj(values).transpose(0, 2, 1).reshape(dim, k))
    signs.append(-np.ones(k))
    scale = float(np.linalg.norm(choi)) * module_mass + map_mass
    error = (
        dropped * module_mass
        + top * row_mass
        + _rounding_band(dim + n + (m + d + p) * q, scale)
    )
    return np.concatenate(columns, axis=1), np.concatenate(signs), error


def _symmetrized_gap(pair: GramPair) -> np.ndarray:
    """``(G + G*) / 2`` for the gap ``G = g_phi - g_map`` of a Gram pair;
    rejects non-finite entries."""
    diff = pair.g_phi - pair.g_map
    return as_matrix((diff + dagger(diff)) / 2.0)


def _semi_verdict(pair: GramPair, tol: ToleranceProfile, vectors: bool = False) -> SemiPhiReport:
    """The semi criterion read off a Gram pair: the PSD decision of its
    symmetrized gap, from eigenvalues alone, or with ``vectors`` from one
    ``eigh`` that also gives the report's witness."""
    gap = _symmetrized_gap(pair)
    if vectors:
        psd = _psd_eigh(gap, tol)[0]
        vector = psd.witness
    else:
        psd, vector = _psd_report(gap, tol), None
    return SemiPhiReport(psd.ok, psd.lambda_min, _table=lambda: pair, _vector=vector)


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
    gap; raises if the pair actually satisfies the criterion.  One ``eigh``
    decides and gives the eigenvector: of the carrier matrix, lifted to the
    gap, or of the gap itself where the Gram pair decides
    (:func:`_decide_gap`).  The vector is a unit eigenvector defined up to a
    unit phase."""
    report = _choi_semi(phi_map, phi, tol, vectors=True)
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
    """Non-extendability obstruction: the largest ``|phi(<f_perp, e>)|``.

    The report also holds what the extension engine reads after it: the
    ``(dim e, dim e, m, m)`` table ``phi~(<e_i, e_j>)`` (the keyword-only
    ``_table``), the ``dim e x dim f_perp`` coefficients ``C`` of the
    complement's basis over e's (``_coefficients``), with
    ``f_perp_a = sum_i C[i, a] e_i`` exactly, and the ``dim f x dim e``
    coefficients of f's basis over e's (``_f_coefficients``), the one
    projection of f onto e that the submodule check formed.
    """

    vanishes: bool
    norm: float
    complement: ConcreteModule
    _table: np.ndarray = field(repr=False, compare=False, kw_only=True)
    _coefficients: np.ndarray = field(repr=False, compare=False, kw_only=True)
    _f_coefficients: np.ndarray = field(repr=False, compare=False, kw_only=True)

    def __bool__(self) -> bool:
        return self.vanishes


def _largest_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm in a stack of matrices, 0 for an empty stack."""
    return float(np.linalg.norm(stack, axis=(-2, -1)).max(initial=0.0))


def phi_extension_obstruction(
    phi: CPMap,
    f: ConcreteModule,
    e: ConcreteModule,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ObstructionReport:
    """Evaluate the obstruction ``max |phi(<f_perp, e>)|`` to exactly
    compatible extensions: when it vanishes every exactly compatible map on f
    extends, otherwise no non-degenerate one does (a degenerate one may).

    Validates both modules once: f must be a submodule of e, and e a valid
    module (the :class:`PreconditionError` names its first violation), which
    the Frobenius Gram complement needs.  One table ``phi~(<e_i, e_j>)``
    (one ``apply_pairs`` on e's basis) sets the threshold scale and gives the
    norm: the ``f_perp x e`` block is its contraction with the complement's
    coefficients over e's basis, and when f = 0 the complement is e itself
    and the table is that block.  The report keeps the table, and the
    submodule check's one projection of f's basis onto e's, for the engine.
    """
    f_coeffs = _submodule_coefficients(f, e, tol)
    if f_coeffs is None:
        raise PreconditionError("obstruction requires f to be a submodule of e")
    message = _invalid_module_message(e, tol)
    if message:
        raise _InvalidModuleError(message)
    f_perp, coeffs = _complement(f, e, tol)
    e_stack = e._basis_stack
    table = phi.apply_pairs(e_stack, e_stack)
    if f_perp is e:
        worst = _max_operator_norm(table, 0.0)
        scale = max(worst, 1.0)
    else:
        scale = _max_operator_norm(table, 1.0)
        # phi~(<f_perp_a, e_j>) = sum_i conj(C[i, a]) phi~(<e_i, e_j>).
        worst = _max_operator_norm(np.tensordot(np.conj(coeffs).T, table, axes=1), 0.0)
    return ObstructionReport(
        worst <= tol.threshold(scale), worst, f_perp, _table=table, _coefficients=coeffs, _f_coefficients=f_coeffs
    )


@dataclass(frozen=True)
class ExtensionReport:
    """The engine's certificate, re-computed on its output, with the
    ``extend --json`` keys as field names; ``report["name"]`` reads one.  The
    two defects of the exact branch are ``None`` unless the input is exactly
    compatible and the obstruction vanishes."""

    empty_submodule: bool
    zero_cp_map: bool
    contraction_norm: float
    least_squares_residual: float
    restriction_defect: float
    extension_semi_ok: bool
    extension_semi_margin: float
    input_is_phi_map: bool
    obstruction_vanishes: bool
    obstruction_norm: float
    complement_killed_defect: float | None = None
    exact_on_complemented_defect: float | None = None

    def __getitem__(self, name: str):
        if name not in self.__dataclass_fields__:
            raise KeyError(name)
        return getattr(self, name)


@dataclass(eq=False)
class ExtensionResult:
    """The extension ``phi_prime = S0 o universal`` with the input map, the
    universal map, the contraction ``S0``, the dilation and its certificate.
    Stages: obstruction (forms the one table ``phi~(<e_i, e_j>)`` and the
    coefficients of f's basis over e's), input semi check and
    ``input_is_phi_map`` (the input's own pair on ``f``), :func:`ksgns` (its
    ``gram`` on ``e`` reads the obstruction's table), least squares (no
    pair), the re-certification of ``phi_prime``, which reads ``gram``:
    ksgns's ``g_phi`` against the Gram matrix of the columns of
    ``phi_prime``, decided by :func:`_decide_gap` on ksgns's carrier
    (:func:`_ksgns_carrier`) or on that pair, and on the exact branch the two
    ``e x (f + f_perp)`` tables, contractions of the same table.  ``gram``
    is bit-equal to a fresh :func:`gram_pair` of ``phi_prime``; the report's
    ``extension_semi_margin`` is its gap's smallest eigenvalue up to the
    rounding of the path that decided.
    """

    phi_prime: ModuleMap
    original: ModuleMap
    ksgns_map: ModuleMap
    contraction: np.ndarray
    dilation: StinespringDilation
    gram: GramPair
    report: ExtensionReport


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
    # The obstruction runs first: its checks of both modules are the engine's
    # only ones.
    try:
        obstruction = phi_extension_obstruction(phi, phi_map.domain, e, tol)
    except _InvalidModuleError as err:
        raise ExtensionInputError(str(err)) from None
    except PreconditionError:
        raise ExtensionInputError("the map's domain must be a submodule of e") from None
    return _extend(phi_map, e, phi, obstruction, _semi_verdict(gram_pair(phi_map, phi), tol), tol)


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
    kres = ksgns(phi, e, tol, _table=obstruction._table)
    universal = kres.map

    # Values of the universal map on the submodule basis, through the
    # coefficients of f's basis over e's that the submodule check formed, as
    # the columns U(f_i) e_l (l fast) next to the columns Phi(f_i) e_l.
    f_coeffs = obstruction._f_coefficients
    univ_on_f = np.tensordot(f_coeffs, universal._value_stack, axes=1)
    a_cols = univ_on_f.transpose(1, 0, 2).reshape(universal.h2_dim, f.dim * m)
    b_cols = phi_map.stacked_columns()
    # S0 vanishes off the column span of a_cols: it needs no projection onto it.
    s0, residual = least_squares_operator(a_cols, b_cols, tol)
    b_scale = float(np.linalg.norm(b_cols)) if b_cols.size else 0.0
    # Loosened bound: the exact-arithmetic residual is 0 under the semi
    # hypothesis; numerical rank cuts in the ONB can leave small remnants.
    if residual > _construction_threshold(tol, max(b_scale, 1.0)):
        raise ExtensionInputError(
            f"least-squares system for the contraction is inconsistent (residual {residual:.3e})"
        )
    norm_bound = _contraction_bound(tol)
    s0_norm = operator_norm(s0)
    if s0_norm > norm_bound:
        raise ExtensionInputError(
            f"factoring operator has norm {s0_norm:.6f} > 1; semi hypothesis violated"
        )
    phi_prime = ModuleMap(e, m, k, tuple(s0 @ universal._value_stack))

    # Restriction certificate, re-derived through the same coefficients.
    prime_on_f = np.tensordot(f_coeffs, phi_prime._value_stack, axes=1)
    gram = _paired(kres.gram.g_phi, phi_prime)  # the universal map is on e too
    semi_prime = _decide_gap(partial(_ksgns_carrier, phi_prime, kres, gram), lambda: gram, tol)
    # The exact check on the input reads the Gram pair of the semi check.
    input_is_phi_map = _block_defect(phi_map, semi.gram, tol).ok
    killed = exact_defect = None
    if input_is_phi_map and obstruction.vanishes:
        table, perp_coeffs = obstruction._table, obstruction._coefficients
        prime_on_perp = np.tensordot(perp_coeffs.T, phi_prime._value_stack, axes=1)
        killed = _largest_norm(prime_on_perp)
        # The basis y of f + f_perp is mix @ e over e's basis, so the tables
        # phi~(<y_a, e_i>) and phi~(<e_i, y_a>) (here indexed (a, i)) are
        # contractions of the obstruction's phi~(<e_i, e_j>).
        mix = np.concatenate([f_coeffs, perp_coeffs.T])
        y_values = np.concatenate([prime_on_f, prime_on_perp])
        x_values = phi_prime._value_stack
        defects = [
            adjoint_products(x_values, y_values).transpose(1, 0, 2, 3) - np.tensordot(mix, table, axes=([1], [1])),
            adjoint_products(y_values, x_values) - np.tensordot(np.conj(mix), table, axes=1),
        ]
        exact_defect = max(_largest_norm(dd) for dd in defects)

    report = ExtensionReport(
        empty_submodule=f.dim == 0,
        zero_cp_map=kres.dilation.rank == 0,
        contraction_norm=s0_norm,
        least_squares_residual=residual,
        restriction_defect=_largest_norm(prime_on_f - phi_map._value_stack),
        extension_semi_ok=semi_prime.ok,
        extension_semi_margin=semi_prime.margin,
        input_is_phi_map=input_is_phi_map,
        obstruction_vanishes=obstruction.vanishes,
        obstruction_norm=obstruction.norm,
        complement_killed_defect=killed,
        exact_on_complemented_defect=exact_defect,
    )
    return ExtensionResult(phi_prime, phi_map, universal, s0, kres.dilation, gram, report)


def _ksgns_carrier(phi_prime: ModuleMap, kres: KsgnsResult, gram: GramPair) -> _Carrier | None:
    """The KSGNS carrier ``C`` (``kres._carrier``) of the extension
    ``phi_prime = S0 o universal``'s gap against the independent table
    ``T = gram.g_phi``, for :func:`_decide_gap`.

    With ``B`` the extension's :meth:`~ModuleMap.stacked_columns`,
    ``X = [C; B]`` and ``J = diag(I, -I_k)``, the gap is
    ``T - B* B = X* J X + (T - C* C)`` on ``n = p r + k`` rows.  By Weyl no
    eigenvalue of the gap is farther from those of ``X* J X`` than
    ``delta = |T - C* C|_F``; with the rounding of both paths added, that is
    the carrier's error.  None (the pair decides) for a gap below
    ``_CARRIER_MIN_GAP``, a carrier no smaller than ``N`` and values near
    overflow.
    """
    carrier, cols = kres._carrier, phi_prime.stacked_columns()
    dim, rows = gram.g_phi.shape[0], len(carrier) + len(cols)
    if dim < _CARRIER_MIN_GAP or rows >= dim:
        return None
    carrier_mass = float(np.vdot(carrier, carrier).real)  # |C|_F^2
    map_mass = float(np.vdot(cols, cols).real)  # |B|_F^2
    # Every product either path forms is bounded by this.
    scale = float(np.linalg.norm(gram.g_phi)) + carrier_mass + map_mass
    if not _far_from_overflow(scale):
        return None
    delta = float(np.linalg.norm(gram.g_phi - dagger(carrier) @ carrier))
    # The rounding of the table path (B* B, the difference, the N x N solve),
    # of the carrier path (the QR and the small solve) and of delta (C* C).
    error = (
        delta
        + _rounding_band(dim + len(cols) + 1, scale)
        + _rounding_band(dim + rows, scale)
        + _rounding_band(len(carrier) + 1, scale)
    )
    signs = np.concatenate([np.ones(len(carrier)), -np.ones(len(cols))])
    return dagger(np.concatenate([carrier, cols])), signs, error


def compare_extensions(
    gamma: ModuleMap,
    result: ExtensionResult,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Uniqueness check: a compatible extension of a non-degenerate compatible
    map must coincide with the engine's output.

    gamma must restrict to ``result.original`` and is certified exactly
    compatible against the engine's table ``phi(<e_i, e_j>)`` in
    ``result.gram``.  Unverified preconditions raise
    :class:`PreconditionError` rather than returning False.
    """
    prime, original = result.phi_prime, result.original
    if not np.array_equal(gamma.domain._basis_stack, prime.domain._basis_stack):
        raise PreconditionError("gamma must be defined on the same ambient module")
    if (gamma.h1_dim, gamma.h2_dim) != (prime.h1_dim, prime.h2_dim):
        raise ShapeError("gamma and the engine's extension map between spaces of different dimensions")
    if _any_apart(gamma.apply(original.domain._basis_stack, tol), original._value_stack, tol):
        raise PreconditionError("gamma does not restrict to the original map")
    if not is_nondegenerate(original, tol):
        raise PreconditionError("original map is not non-degenerate")
    if not _block_defect(gamma, _paired(result.gram.g_phi, gamma), tol).ok:
        raise PreconditionError("gamma is not an exactly compatible map")
    return not _any_apart(gamma._value_stack, prime._value_stack, tol)


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

    Valid only when the obstruction vanishes; otherwise the extension by zero
    is not exactly compatible and this refuses (see
    :func:`phi_extension_obstruction` for when another one exists).  The
    output is certified to be exactly compatible on the whole module and to
    coincide with the engine's extension.
    """
    return _canonical_compacts(phi_map, e, phi, tol)[0]


def _canonical_compacts(
    phi_map: ModuleMap,
    e: ConcreteModule,
    phi: CPMap,
    tol: ToleranceProfile,
) -> tuple[ModuleMap, ExtensionResult, PhiMapReport]:
    """The body of :func:`canonical_compacts_extension`, which also returns
    the engine result the extension was certified against and that
    certificate (which is ``ok``: a failing one raises)."""
    f = phi_map.domain
    obstruction = phi_extension_obstruction(phi, f, e, tol)
    if not obstruction.vanishes:
        raise PreconditionError(
            f"obstruction norm {obstruction.norm:.3e} is nonzero: "
            "the extension by zero is not exactly compatible on the whole module"
        )
    semi = _semi_verdict(gram_pair(phi_map, phi), tol)
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
        if np.linalg.norm(ve - vp) > _construction_threshold(tol, max(np.linalg.norm(ve), 1.0)):
            raise SelfCheckError("extension-by-zero disagrees with the engine output")
    return extension, engine, certify
