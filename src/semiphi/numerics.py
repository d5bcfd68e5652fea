"""Tolerance-aware kernels for dense complex linear algebra.

Every positivity, ordering, span, and least-squares decision in the toolkit
funnels through the operations here, so the whole package shares one
tolerance convention: a comparison at scale ``s`` uses the mixed threshold
``abs_tol + rel_tol * s``.

Positivity is decided by the smallest eigenvalue of the symmetrized matrix
(not a Cholesky test) so the margin is reportable.  Verdicts come from an
eigenvalue-only solve (``eigvalsh``, batched over stacks); eigenvectors are
computed only where one is consumed: the Kraus operators of a Choi matrix
(:func:`_psd_eigh`, one ``eigh`` for verdict and spectrum), and a refutation
witness, which :class:`PsdReport` computes by ``eigh`` on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ShapeError",
    "HermiticityError",
    "SelfCheckError",
    "ToleranceProfile",
    "DEFAULT_TOL",
    "PsdReport",
    "as_matrix",
    "dagger",
    "operator_norm",
    "adjoint_products",
    "is_psd",
    "column_span_onb",
    "least_squares_operator",
    "nullspace_onb",
]

MatrixLike = Union[np.ndarray, Sequence[Sequence[complex]]]

_NOT_FINITE = "matrix entries must be finite"


class ShapeError(ValueError):
    """Input matrices have incompatible or invalid shapes."""


class HermiticityError(ValueError):
    """A matrix required to be hermitian deviates beyond tolerance."""


class SelfCheckError(RuntimeError):
    """A construction failed the re-check of its own certificate.

    This signals a defect in the toolkit or a numerically hopeless input,
    never a refutation of the property being decided.
    """


@dataclass(frozen=True)
class ToleranceProfile:
    """Mixed absolute/relative tolerance threaded through every comparison."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        # NaN fails both comparisons; an infinite tolerance passes every test.
        if not (0.0 <= self.abs_tol < np.inf and 0.0 <= self.rel_tol < np.inf):
            raise ValueError("tolerances must be finite and nonnegative")

    def threshold(self, scale: float | np.ndarray) -> float | np.ndarray:
        """``abs_tol + rel_tol * |scale|``; elementwise for an array of scales,
        so batched decisions use the same policy as scalar ones."""
        if np.ndim(scale):
            return self.abs_tol + self.rel_tol * np.abs(scale)
        return self.abs_tol + self.rel_tol * float(abs(scale))

    def bounded_threshold(self, scale: float | np.ndarray, bound: float | np.ndarray) -> float | np.ndarray:
        """``abs_tol * bound + rel_tol * |scale|``: the mixed threshold at
        ``scale`` taken in units of ``bound``, an a-priori bound on the
        quantities compared (for an inner product ``x* y`` its Cauchy-Schwarz
        bound ``|x| |y|``), and scaled back.  Elementwise on arrays.

        A common rescaling of the inputs moves the quantity, ``scale`` and
        ``bound`` alike, and the rounding of a quantity that is zero in exact
        arithmetic is a few ``EPS * bound`` at every scale, so no rescaling
        moves the decision; :meth:`threshold` passes every such quantity of
        small inputs (below ``abs_tol``) and can fail the rounding of large
        ones.
        """
        return self.abs_tol * bound + self.rel_tol * np.abs(scale)


DEFAULT_TOL = ToleranceProfile()

#: Float64 machine epsilon, the unit of every rounding allowance below.
EPS = float(np.finfo(float).eps)

#: How far a fast test's deciding quantity must clear its threshold for the
#: fast verdict to stand.  Nearer than this factor the decision is *near* its
#: threshold, and the caller's exact pass decides instead.  The fast tests
#: compare rigorous bounds on the exact pass's quantities, with their own
#: rounding allowances, so the factor only has to absorb the rounding of the
#: threshold comparisons themselves, which is a few ``n * EPS`` against
#: thresholds no smaller than ``rel_tol``; one decimal order leaves room for
#: both and is the band in which a decision counts as fragile.
NEAR_FACTOR = 10.0


#: How much looser than a decision threshold a construction's check of its
#: own output is held.  The quantities such a check reads (a universal map's
#: compatibility defect, a least-squares residual, the distance between two
#: constructions of one map) vanish in exact arithmetic but pass through a
#: chain of rank cuts and solves, each of which may leave a remnant up to the
#: threshold itself.
_CONSTRUCTION_SLACK = 1e3


def _construction_tol(tol: ToleranceProfile) -> ToleranceProfile:
    """The profile a construction's compatibility self-check decides with:
    both parts of ``tol`` loosened by :data:`_CONSTRUCTION_SLACK`, with a
    floor of ``1e-8`` each so a zero tolerance still admits rounding."""
    return ToleranceProfile(tol.abs_tol * _CONSTRUCTION_SLACK + 1e-8, tol.rel_tol * _CONSTRUCTION_SLACK + 1e-8)


def _construction_threshold(tol: ToleranceProfile, scale: float) -> float:
    """The threshold at ``scale`` for a construction's residual or for the
    distance between two constructions: :meth:`ToleranceProfile.threshold`
    loosened by :data:`_CONSTRUCTION_SLACK`."""
    return _CONSTRUCTION_SLACK * tol.threshold(scale)


def _reconstruction_threshold(tol: ToleranceProfile, values: np.ndarray) -> float:
    """The threshold for the defect of a construction that reproduces the
    stack ``values``: :func:`_construction_threshold` in units of its largest
    spectral norm (:meth:`ToleranceProfile.bounded_threshold`), which a
    rescaling moves alike with the defect."""
    scale = _max_operator_norm(values, 0.0)
    return _CONSTRUCTION_SLACK * tol.bounded_threshold(scale, scale)


def _contraction_bound(tol: ToleranceProfile) -> float:
    """The largest operator norm accepted for a computed contraction: 1 plus
    ten times both parts of ``tol``, room for the rounding of the solve that
    produced it."""
    return 1.0 + 10.0 * (tol.abs_tol + tol.rel_tol)


#: The floor under each part of the profile that the Paulsen falsification
#: layer decides its sampled images with (see :func:`_sampling_tol`).
_SAMPLING_FLOOR = 1e-8


def _sampling_tol(tol: ToleranceProfile) -> ToleranceProfile:
    """The profile a sampled image's PSD test decides with: each part of
    ``tol`` with a floor of :data:`_SAMPLING_FLOOR`, so a zero tolerance
    still admits the rounding of the random draw and the amplified apply."""
    return ToleranceProfile(max(tol.abs_tol, _SAMPLING_FLOOR), max(tol.rel_tol, _SAMPLING_FLOOR))


#: The absolute bounds of the CLI demos' own checks on their fixtures, whose
#: entries are of order one at every size the demos admit: two constructions
#: of one map (a chain of solves and rank cuts each) agree within
#: ``_FIXTURE_AGREEMENT``, and an identity a map satisfies by construction
#: (a few roundings of unit entries) holds within ``_FIXTURE_IDENTITY``.
_FIXTURE_AGREEMENT = 1e-8
_FIXTURE_IDENTITY = 1e-12


def _fixture_agrees(defect: float) -> bool:
    """Whether two constructions on a demo fixture agree: ``defect`` at most
    :data:`_FIXTURE_AGREEMENT`."""
    return defect <= _FIXTURE_AGREEMENT


def _fixture_identity_holds(defect: float) -> bool:
    """Whether a demo fixture satisfies an identity of its construction:
    ``defect`` at most :data:`_FIXTURE_IDENTITY`."""
    return defect <= _FIXTURE_IDENTITY


def _rounding_band(dim: int, scale: float) -> float:
    """``dim * EPS * scale``: the rounding allowance of a backward-stable
    solve of dimension ``dim`` (an eigendecomposition, a QR) or of sums of
    ``dim`` terms whose absolute values are bounded by ``scale``.  Below it a
    computed quantity that is zero in exact arithmetic cannot be told from
    zero."""
    return dim * EPS * scale


def _far_from_overflow(bound: float) -> bool:
    """Whether sums of products whose absolute sum is at most ``bound`` stay
    finite with a headroom of ``1 / EPS``: far more than the factor by which
    rounding (below 2 while ``dim * EPS < 1``) and a symmetrizing sum can
    grow them.  False for an infinite or NaN ``bound``."""
    return bool(bound < np.finfo(float).max * EPS)


def _rank_cut(s: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, bound: float = 1.0) -> tuple[int, bool]:
    """The rank of descending singular values ``s``, cut at the one rank
    threshold of this package taken in units of ``bound``
    (``abs * bound + rel * s_max``, see
    :meth:`ToleranceProfile.bounded_threshold`), and whether the cut is
    clear of it: the last kept value at least :data:`NEAR_FACTOR` times the
    threshold and the first dropped one at most the threshold over it."""
    if s.size == 0:
        return 0, True
    cutoff = tol.bounded_threshold(s[0], bound)
    rank = int(np.count_nonzero(s > cutoff))
    kept_clear = rank == 0 or s[rank - 1] >= NEAR_FACTOR * cutoff
    dropped_clear = rank == s.size or s[rank] * NEAR_FACTOR <= cutoff
    return rank, bool(kept_clear and dropped_clear)


def as_matrix(m: MatrixLike) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(_NOT_FINITE)
    return arr


def _matrix_stack(values, shape: tuple[int, int], what: str) -> np.ndarray:
    """The ``(n, a, b)`` complex stack of a sequence of ``n`` matrices of
    ``shape`` ``(a, b)``, from one conversion, one shape check and one
    finiteness check.

    Only input that fails takes the per-matrix :func:`as_matrix` loop, so the
    error is raised for the first bad matrix in order, with the text a
    one-at-a-time check gives (``"<what> must be axb, got <shape>"`` for a
    2-d matrix of the wrong shape).
    """
    n = len(values)
    if n == 0:
        return np.zeros((0, *shape), dtype=complex)
    try:
        stack = np.asarray(values, dtype=complex)
    except (TypeError, ValueError):  # ragged or not numeric
        stack = None
    if stack is not None and stack.shape == (n, *shape) and np.isfinite(stack).all():
        return stack
    mats = []
    for v in values:
        mat = as_matrix(v)
        if mat.shape != shape:
            raise ShapeError(f"{what} must be {shape[0]}x{shape[1]}, got {mat.shape}")
        mats.append(mat)
    return np.stack(mats)


def dagger(m: MatrixLike) -> np.ndarray:
    return np.asarray(m, dtype=complex).conj().T


def operator_norm(m: MatrixLike) -> float:
    arr = np.asarray(m, dtype=complex)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def _max_operator_norm(blocks: np.ndarray, floor: float) -> float:
    """``max(floor, largest spectral norm in the (..., a, b) stack blocks)``,
    bit for bit, with the spectral norm taken only where it can decide.

    ``|B|_2 <= |B|_F``, so a block can beat a value ``v`` only if its
    Frobenius norm is at least ``v``; each cut below is lowered by a relative
    margin covering the rounding of both norms (each within a small multiple
    of ``a * b * EPS``).  Two cuts, from the Frobenius norms alone:

    * a stack that is zero, or whose largest Frobenius norm is below the
      floor, returns ``floor`` with no SVD (tested before the second cut,
      which a zero stack at a zero floor would pass whole);
    * otherwise the block of largest Frobenius norm gets its spectral norm
      first, and only the blocks whose Frobenius norm reaches
      ``max(floor, that norm)`` get theirs, in one batched call.

    Every spectral norm is the one LAPACK call the full batched norm makes
    for that block, so the result is its maximum.
    """
    if blocks.size == 0:
        return floor
    a, b = blocks.shape[-2:]
    flat = blocks.reshape(-1, a, b)
    fro = np.linalg.norm(flat, axis=(-2, -1))
    lead = int(fro.argmax())
    keep = 1.0 - 32.0 * a * b * EPS
    if fro[lead] == 0.0 or fro[lead] < floor * keep:
        return floor
    best = float(np.linalg.norm(flat[lead], 2))
    rivals = fro >= max(floor, best) * keep
    rivals[lead] = False
    if rivals.any():
        best = max(best, float(np.linalg.norm(flat[rivals], 2, axis=(-2, -1)).max()))
    return max(floor, best)


def adjoint_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All products ``xs[i]* @ ys[j]`` of two stacks of equally shaped
    matrices, ``(..., d_x, r, c_x)`` and ``(..., d_y, r, c_y)``, as one
    ``(..., d_x, d_y, c_x, c_y)`` array; leading axes are a batch.

    With module basis stacks this is every module inner product ``<x_i, y_j>``
    at once; with stacks of map values it is every ``Phi(x_i)* Phi(y_j)``.
    All products come from one ``(d_x c_x, r) @ (r, d_y c_y)`` matmul (BLAS)
    per batch entry, which is several times faster than the equivalent
    ``einsum`` here; the result is a transposed view of it.
    """
    *batch, dx, r, cx = xs.shape
    dy, cy = ys.shape[-3], ys.shape[-1]
    left = np.conj(xs).swapaxes(-1, -2).reshape(*batch, dx * cx, r)
    right = ys.swapaxes(-2, -3).reshape(*batch, r, dy * cy)
    return (left @ right).reshape(*batch, dx, cx, dy, cy).swapaxes(-2, -3)


@dataclass(frozen=True)
class PsdReport:
    """Verdict of a PSD test, with the attained minimum eigenvalue.

    The verdict and ``lambda_min`` come from the eigenvalues alone.
    ``witness`` is a unit eigenvector for ``lambda_min`` (empty for 0x0
    input), from which downstream refutation certificates are built; it is
    computed on first access by ``eigh`` of the symmetrized matrix the
    verdict was read from, and then cached.  The report holds that matrix
    (the keyword-only ``_herm``) for as long as it lives.
    """

    ok: bool
    lambda_min: float
    _herm: np.ndarray = field(repr=False, compare=False, kw_only=True)

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def witness(self) -> np.ndarray:
        return _lowest_eigenvector(self._herm)


def _lowest_eigenvector(herm: np.ndarray) -> np.ndarray:
    """A unit eigenvector for the smallest eigenvalue of a hermitian matrix,
    from ``eigh`` (empty for 0x0 input)."""
    if not herm.size:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigh(herm)[1][:, 0]


def _not_hermitian(defect: float) -> HermiticityError:
    return HermiticityError(f"matrix is not hermitian: defect {defect:.3e} exceeds tolerance")


def _check_hermitian(m: np.ndarray, tol: ToleranceProfile) -> None:
    scale = float(np.linalg.norm(m)) if m.size else 0.0
    defect = float(np.linalg.norm(m - dagger(m))) if m.size else 0.0
    if defect > tol.threshold(scale):
        raise _not_hermitian(defect)


def _hermitian_part(arr: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """``(M + M*) / 2`` of a square complex array, which must be hermitian
    within tolerance (:class:`HermiticityError` otherwise)."""
    _check_hermitian(arr, tol)
    return (arr + dagger(arr)) / 2.0


def is_psd(m: MatrixLike, tol: ToleranceProfile = DEFAULT_TOL) -> PsdReport:
    """Decide positive semidefiniteness of a (nearly) hermitian matrix.

    The input must be hermitian within tolerance; it is symmetrized before
    the eigenvalue test.  True iff ``lambda_min >= -(abs_tol + rel_tol*|M|)``.
    The decision solves for eigenvalues only (one ``eigvalsh``); the
    report's ``witness`` eigenvector is computed only if it is read.

    ``|M|`` is the spectral norm of the symmetrized matrix, read off the
    eigenvalues already computed as ``max(|lambda_min|, |lambda_max|)``
    rather than from a separate SVD.  For hermitian input it is the spectral
    norm of the input up to rounding; otherwise the two differ by at most
    half the spectral norm of the hermitian defect ``M - M*``, which the
    hermiticity check has already bounded by the tolerance.
    """
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"is_psd needs a square matrix, got {arr.shape}")
    return _psd_report(_hermitian_part(arr, tol), tol)


def _psd_verdict(eigvals: np.ndarray, tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """The verdict of :func:`is_psd` and ``lambda_min`` read off ascending
    eigenvalues along the last axis: ``lambda_min >= -threshold(scale)`` at
    the scale ``max(|lambda_min|, |lambda_max|)``."""
    lam = eigvals[..., 0]
    return lam >= -tol.threshold(np.maximum(np.abs(lam), np.abs(eigvals[..., -1]))), lam


def _psd_verdict_clear(extremes: np.ndarray, error: float, tol: ToleranceProfile) -> tuple[bool, float, bool]:
    """The verdict of :func:`_psd_verdict` and ``lambda_min`` from the
    smallest and largest eigenvalues ``extremes`` of a matrix known to
    within ``error`` per eigenvalue, and whether the verdict is clear.

    The deciding quantity ``lambda_min + threshold(scale)`` moves by at most
    ``(1 + rel_tol) * error`` when both eigenvalues move by ``error``; the
    verdict is clear when it lies more than :data:`NEAR_FACTOR` times that
    from zero, and is then the verdict of every matrix within ``error``.
    """
    ok, lam = _psd_verdict(extremes, tol)
    deciding = lam + tol.threshold(np.abs(extremes).max())
    clear = abs(deciding) > NEAR_FACTOR * (1.0 + tol.rel_tol) * error
    return bool(ok), float(lam), bool(clear)


def _psd_eigvalsh(herm: np.ndarray, tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue-only PSD decision: verdicts and smallest eigenvalues of
    a nonempty hermitian matrix, or of each matrix of an ``(N, k, k)`` stack
    of them, from one (batched) ``eigvalsh`` and no eigenvectors."""
    return _psd_verdict(np.linalg.eigvalsh(herm), tol)


def _psd_report(herm: np.ndarray, tol: ToleranceProfile) -> PsdReport:
    """The report of :func:`is_psd` on a symmetrized matrix (see
    :func:`_hermitian_part`), from :func:`_psd_eigvalsh`; its ``witness``
    is computed only if it is read."""
    if herm.shape[0] == 0:
        return PsdReport(True, 0.0, _herm=herm)
    ok, lam = _psd_eigvalsh(herm, tol)
    return PsdReport(bool(ok), float(lam), _herm=herm)


def _psd_eigh(herm: np.ndarray, tol: ToleranceProfile) -> tuple[PsdReport, np.ndarray, np.ndarray]:
    """The decision of :func:`is_psd` on a symmetrized matrix (see
    :func:`_hermitian_part`), with the eigendecomposition it is read from:
    ascending eigenvalues and the matching unit eigenvectors (columns).

    For callers that consume eigenvectors (Kraus operators from a Choi
    matrix, a refutation witness): verdict, spectrum and the report's
    ``witness`` all come from this one ``eigh``.
    """
    if herm.shape[0] == 0:
        return PsdReport(True, 0.0, _herm=herm), np.zeros(0), np.zeros((0, 0), dtype=complex)
    eigvals, eigvecs = np.linalg.eigh(herm)
    ok, lam = _psd_verdict(eigvals, tol)
    report = PsdReport(bool(ok), float(lam), _herm=herm)
    # Seed the lazy witness from this solve: a cached property reads the
    # instance dict first, and writing the dict bypasses the frozen setattr.
    report.__dict__["witness"] = eigvecs[:, 0]
    return report, eigvals, eigvecs


def _stack_columns(vectors, height: int | None) -> np.ndarray:
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return vectors.astype(complex)
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        if height is None:
            return np.zeros((0, 0), dtype=complex)
        return np.zeros((height, 0), dtype=complex)
    h = cols[0].shape[0]
    if any(c.shape[0] != h for c in cols):
        raise ShapeError("all columns must have the same height")
    return np.column_stack(cols)


def column_span_onb(
    vectors, tol: ToleranceProfile = DEFAULT_TOL, height: int | None = None
) -> np.ndarray:
    """Orthonormal basis for the span of the given columns.

    Accepts a 2-d array (columns are the vectors) or a sequence of 1-d
    vectors.  Rank is cut at singular values above ``abs + rel*sigma_max``.
    Empty input yields the 0-column basis.
    """
    mat = _stack_columns(vectors, height)
    if mat.shape[1] == 0 or mat.shape[0] == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, : _rank_cut(s, tol)[0]]


def least_squares_operator(
    inputs: MatrixLike, targets: MatrixLike, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Least-squares operator ``S0`` with ``S0 @ inputs ~= targets``.

    Minimizes the Frobenius residual and is supported on the column span of
    ``inputs`` (zero on its orthocomplement).  A nonzero residual signals an
    inconsistent system; it is reported, never raised.
    """
    a = as_matrix(inputs)
    b = as_matrix(targets)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"column counts must match, got {a.shape[1]} inputs and {b.shape[1]} targets"
        )
    if a.shape[1] == 0 or a.shape[0] == 0:
        s0 = np.zeros((b.shape[0], a.shape[0]), dtype=complex)
        return s0, float(np.linalg.norm(b))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = _rank_cut(s, tol)[0]
    # The pseudo-inverse V_r diag(1/s_r) U_r* from the kept triplets alone.
    s0 = (b @ dagger(vh[:rank])) @ dagger(u[:, :rank] / s[:rank])
    residual = float(np.linalg.norm(s0 @ a - b))
    return s0, residual


def nullspace_onb(m: MatrixLike, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of ``m``.

    Only ``V*`` of the SVD is used, and it is square whenever ``m`` has at
    least as many rows as columns, so the full SVD is taken only for a wide
    ``m`` (where the nullspace lies in the rows of ``V*`` beyond the
    singular values).  A tall ``m`` gets the thin SVD and never builds its
    rows-by-rows ``U``.
    """
    arr = as_matrix(m)
    if arr.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if arr.shape[0] == 0 or not arr.any():
        return np.eye(arr.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(arr, full_matrices=arr.shape[0] < arr.shape[1])
    return dagger(vh)[:, _rank_cut(s, tol)[0] :]
