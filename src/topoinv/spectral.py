"""Eigendecomposition, Fermi projections, gap detection, switch functions.

The switch functions are polynomial smoothsteps across a gap interval,
realized through the regularized incomplete beta function so that all
derivatives are available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg, sparse, special
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import ConvergenceFailureError, NoGapError
from .models import HamiltonianSample, apply_fiber, chiral_sectors

_MIN_GAP = 1e-8  # detect_gap: narrowest gap, and closest level to mu, it accepts
_C_NORM_ORDER = 6  # SwitchFunction.c_norm: highest derivative order in the norm
_SWITCH_ORDER = 3  # SwitchFunction: integral of u^3 (1 - u)^3, a smoothstep of degree 7
_ORTHO_TOL = 1e-10  # largest max|V^H V - I| accepted from a partial solve
_RESIDUAL_TOL = 1e-10  # largest ||Hv - Ev|| / max(1, max|H|) accepted from a shift-invert solve
_TIE_TOL = 1e-10  # relative spacing below which two levels count as one degenerate level
# SuperLU settings for H - sigma in `_shift_invert`: a symmetric fill-reducing ordering
# of H + H^T, kept by preferring diagonal pivots, fills a Hermitian H less than the
# default column ordering; a pivot threshold of 0 loses accuracy
_LU_ORDERING = "MMD_AT_PLUS_A"
_LU_DIAG_PIVOT = 0.1
_PIVOT_IMAG_TOL = 1e-6  # _ldl: largest |Im d| / max(1, |d|) of a pivot read as real
_COUNT_MARGIN = 1e2  # _inertia: the shift delta as a multiple of the factor's backward error
_ARPACK_MAXITER = 300  # _arpack: restarts before a solve is given up (converging ones take <= 46)


@dataclass(frozen=True)
class EigenData:
    """Spectral decomposition of one sample, eigenvalues ascending.

    Besides the full decomposition there are two partial forms: with
    `window = (lo, hi)` it holds only the eigenpairs with lo < E <= hi, and
    with `eigenvectors = None` every eigenvalue but no eigenvector.  An
    occupied solve (`diagonalize(..., mu=)` or `states=`) is a window
    (-inf, hi] that holds the first level above the Fermi level.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    sample: HamiltonianSample
    window: tuple[float, float] | None = None

    def require_full(self, use: str, vectors: bool = True, mu: float | None = None):
        """Raise ValueError unless this holds every eigenvalue (and, with vectors,
        every eigenvector); with `mu`, a window (-inf, hi] with hi > mu suffices."""
        if self.window is not None and not (mu is not None and self.window[0] == -np.inf
                                            and self.window[1] > mu):
            raise ValueError(f"{use} needs the whole spectrum, not the window {self.window}")
        if vectors and self.eigenvectors is None:
            raise ValueError(f"{use} needs eigenvectors, not eigenvalues only")

    def function_of(self, values: np.ndarray) -> np.ndarray:
        """Matrix of f(H) given f evaluated on the eigenvalues."""
        self.require_full("function_of")
        return (self.eigenvectors * values) @ self.eigenvectors.conj().T


def orthogonality_residual(V: np.ndarray) -> float:
    """max|V^H V - I| over the columns of V."""
    return float(np.abs(V.conj().T @ V - np.eye(V.shape[1])).max(initial=0.0))


def _occupied_edge(w: np.ndarray, mu: float | None, states: int | None) -> float:
    """Edge hi of the occupied window (-inf, hi] over the ascending levels w.

    The first level above the Fermi level is w[states], or the first level
    more than the tie tolerance above mu.  The edge splits the first gap at or
    above it that is wider than the tie tolerance, so a degenerate level is
    kept whole; with no such gap every level is kept and the edge is +inf.
    """
    tie = _TIE_TOL * max(1.0, np.abs(w).max(initial=0.0))
    k = states if states is not None else int(np.searchsorted(w, mu + tie, side="right"))
    wide = np.flatnonzero(np.diff(w[k:]) > tie)
    if not len(wide):
        return np.inf
    j = k + int(wide[0])
    return float(0.5 * (w[j] + w[j + 1]))


def _partial_eigh(H: np.ndarray, window: tuple[float, float] | None, mu: float | None,
                  states: int | None) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Eigenpairs with lo < E <= hi, and the cut (lo, hi): the given window, or
    the occupied window (-inf, hi] whose edge `_occupied_edge` places.

    One Householder reduction to a real tridiagonal T (LAPACK hetrd) serves
    all of it.  An occupied request places its edge from every eigenvalue of T
    (sterf, O(dim^2)).  Only the kept eigenpairs are formed, by bisection on
    (lo, hi] and inverse iteration (stebz, stein), then carried back by the
    unitary reflectors (unmqr): LAPACK's own route for a subset by value,
    with the same eigenvalues.  A failed run, or one whose eigenvectors of T
    have max|Z^T Z - I| > 1e-10, is replaced by the same cut of the full solve.
    The eigenvectors own their memory on either route.
    """
    n = H.shape[0]
    try:
        lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
        T, d, e, tau, info = lapack.zhetrd(H, lower=1, lwork=lwork)
        if info:
            raise np.linalg.LinAlgError(f"hetrd info {info}")
        cut = window or (-np.inf, _occupied_edge(
            linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf"), mu, states))
        w, z = linalg.eigh_tridiagonal(d, e, select="v", select_range=cut, lapack_driver="stebz")
        if orthogonality_residual(z) <= _ORTHO_TOL:
            v = z.astype(complex)
            if n > 1:
                # Q z for Q = H(1) ... H(n-1), whose reflectors sit below the subdiagonal
                # of T; the workspace query and the apply share one Fortran-ordered copy
                # of each block, applied in place
                a, c = np.asfortranarray(T[1:, :-1]), np.asfortranarray(v[1:])
                lwork = int(lapack.zunmqr("L", "N", a, tau, c, -1, overwrite_c=1)[1][0].real)
                v[1:], _, info = lapack.zunmqr("L", "N", a, tau, c, lwork, overwrite_c=1)
            if not info:
                return w, v, cut
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(H)
    cut = window or (-np.inf, _occupied_edge(w, mu, states))
    keep = (w > cut[0]) & (w <= cut[1])
    return w[keep], v[:, keep].copy(), cut


def _chiral_block(sample: HamiltonianSample):
    """(B, plus, minus) for an exactly chiral sample, else None.

    The sample's model must declare s_ch with +1 and -1 sectors of equal
    dimension (`chiral_sectors`: plus, minus), and the sample must anticommute
    with S = 1_N (x) s_ch to rounding, max|S* H S + H| <= dim eps max(1, max|H|),
    checked fiber block by fiber block on the BSR view of the CSR form, at
    O(nnz).  Then H in the sector basis is [[0, B], [B*, 0]], and
    B = (1_N (x) plus)* H (1_N (x) minus) is formed dense from the same blocks.
    """
    s_ch = sample.model.symmetry.s_ch
    if s_ch is None:
        return None
    plus, minus = chiral_sectors(s_ch)
    if plus.shape[1] != minus.shape[1]:
        return None
    blocks = sample.csr.tobsr(blocksize=s_ch.shape)  # the fiber blocks between two sites
    X = blocks.data
    if (np.abs(_sandwich(s_ch, X, s_ch) + X).max(initial=0.0)
            > sample.dim * np.finfo(float).eps * _scale(sample.csr)):
        return None
    half = sample.dim // 2
    B = sparse.bsr_array((_sandwich(plus, X, minus), blocks.indices, blocks.indptr),
                         shape=(half, half))
    return B.toarray(), plus, minus


def _sandwich(a: np.ndarray, X: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a* X_k b for each block of the stack X (k, L, L), as two matrix products:
    numpy's stacked products of small blocks cost far more."""
    (k, L, _), p, q = X.shape, a.shape[1], b.shape[1]
    Y = (X.reshape(k * L, L) @ b).reshape(k, L, q).transpose(1, 0, 2).reshape(L, k * q)
    return (a.conj().T @ Y).reshape(p, k, q).transpose(1, 0, 2)


def _chiral_eigh(B: np.ndarray, plus: np.ndarray, minus: np.ndarray,
                 window: tuple[float, float] | None, mu: float | None, states: int | None,
                 vectors: bool) -> tuple[np.ndarray, np.ndarray | None, tuple[float, float] | None]:
    """`diagonalize`'s request on H = [[0, B], [B*, 0]] (sector basis of `_chiral_block`)
    from one SVD B = U diag(s) W*, s descending: the ascending levels are -s, then
    s reversed, with eigenvectors ((1_N (x) plus) u -+ (1_N (x) minus) w) / sqrt 2.

    Returns (levels, eigenvectors, cut) as `_partial_eigh` does: every level
    (svdvals) with no eigenvector for `vectors=False`; otherwise the levels in
    the window, or in the occupied window whose edge `_occupied_edge` places,
    or all of them, and only those eigenvectors are formed.
    """
    if not vectors:
        s = linalg.svdvals(B)
        return np.concatenate([-s, s[::-1]]), None, None
    u, s, wh = linalg.svd(B)
    w = np.concatenate([-s, s[::-1]])
    if window is None and (mu is not None or states is not None):
        window = (-np.inf, _occupied_edge(w, mu, states))
    lo, hi = window or (-np.inf, np.inf)
    keep = np.flatnonzero((w > lo) & (w <= hi))
    m = len(s)
    j = np.where(keep < m, keep, 2 * m - 1 - keep)  # the singular triple of each level
    sign = np.where(keep < m, -1.0, 1.0)
    v = (apply_fiber(plus, u[:, j]) + apply_fiber(minus, wh[j].conj().T * sign)) / np.sqrt(2)
    return w[keep], v, window


def _shift_invert(A: sparse.csr_array, window: tuple[float, float],
                  count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The `count` eigenpairs of the Hermitian CSR matrix A nearest the window's
    midpoint (`_arpack` on a sparse LU of A - sigma), or None unless exactly
    `count` come back, all in lo < E <= hi."""
    lo, hi = window
    n = A.shape[0]
    if count == 0:
        return np.zeros(0), np.zeros((n, 0), dtype=complex)
    sigma = 0.5 * (lo + hi)
    try:
        lu = splu(sparse.csc_array(A - sigma * sparse.eye_array(n)), permc_spec=_LU_ORDERING,
                  diag_pivot_thresh=_LU_DIAG_PIVOT, options={"SymmetricMode": True})
    except (RuntimeError, ValueError):  # a singular shift
        return None
    solved = _arpack(A, lu, sigma, count)  # exactly `count` pairs, or None
    if solved is None or not np.all((solved[0] > lo) & (solved[0] <= hi)):
        return None
    return solved


def _arpack(A: sparse.csr_array, lu, shift: float, k: int,
            which: str = "LM") -> tuple[np.ndarray, np.ndarray] | None:
    """k eigenpairs of the Hermitian CSR matrix A by ARPACK shift-invert on the
    factor `lu` of A - shift, then a Rayleigh-Ritz step on their span; None on an
    ARPACK failure, for k >= n - 1 (beyond ARPACK), or unless k pairs come back,
    each with residual within tolerance.  ARPACK's default tolerance is machine
    precision, which a degenerate level may never meet: a solve not converged
    within `_ARPACK_MAXITER` restarts is such a failure.  The start vector is
    fixed, so equal matrices give equal bytes; without one ARPACK's start depends
    on the calls made before it."""
    n = A.shape[0]
    if k >= n - 1:
        return None
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        _, v = eigsh(A, k=k, sigma=shift, which=which, v0=v0, maxiter=_ARPACK_MAXITER,
                     OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=A.dtype))
    except (RuntimeError, ValueError):  # ARPACK failures
        return None
    # Rayleigh-Ritz on the solved span: ARPACK's vectors of close levels are
    # orthogonal only to about eps max|A| / spacing, the Ritz vectors to rounding
    q = np.linalg.qr(v)[0]
    w, z = np.linalg.eigh(q.conj().T @ (A @ q))
    v = q @ z
    if len(w) != k or np.linalg.norm(A @ v - v * w, axis=0).max() > _RESIDUAL_TOL * _scale(A):
        return None
    return w, v


def _scale(A: sparse.csr_array) -> float:
    return max(1.0, np.abs(A.data).max(initial=0.0))


def _ldl(A: sparse.csr_array, x: float):
    """(negative pivots, factor, backward error) of SuperLU's factor of A - x with
    diagonal pivots, read as P (A - x) P^T = L D L^H with D = Re diag(U); the error
    sqrt(||R||_1 ||R||_inf) bounds ||R||_2 for R their difference.  None when the
    row and column permutations differ or a pivot is complex or zero."""
    M = sparse.csc_array(A - x * sparse.eye_array(A.shape[0]))
    try:
        lu = splu(M, permc_spec=_LU_ORDERING, diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly singular factor
        return None
    d, L, p = lu.U.diagonal(), lu.L, np.argsort(lu.perm_c)
    if (not np.array_equal(lu.perm_r, lu.perm_c)
            or np.any(np.abs(d.imag) > _PIVOT_IMAG_TOL * np.maximum(1.0, np.abs(d)))):
        return None
    R = abs(M[p][:, p] - (L * d.real) @ L.conj().T)
    return int((d.real < 0).sum()), lu, float(np.sqrt(R.sum(axis=0).max() * R.sum(axis=1).max()))


def _inertia(A: sparse.csr_array, E: float, mid=None):
    """(levels below E, factor of A - E) by Sylvester's law of inertia, or None;
    `mid` is `_ldl(A, E)` if the caller has it.  `_ldl`'s count is exact for a
    Hermitian matrix within its backward error of A; it is kept only if the
    counts at E -+ delta equal it, delta `_COUNT_MARGIN` times the error at E
    (at least n eps max(1, max|A|)) and above the errors of those two factors.
    By Weyl's inequality no level of A then lies at E: the count is A's own."""
    mid = mid or (_ldl(A, E) if np.isfinite(E) else None)
    if mid is None:
        return None
    delta = _COUNT_MARGIN * max(mid[2], A.shape[0] * np.finfo(float).eps * _scale(A))
    sides = [_ldl(A, x) for x in (E - delta, E + delta)]
    if any(side is None or side[2] >= delta or side[0] != mid[0] for side in sides):
        return None
    return mid[:2]


def count_below(A: sparse.csr_array, E: float) -> int | None:
    """Number of levels of the Hermitian CSR matrix A below E from sparse LDL^H
    factors (`_inertia`), or None; the caller then takes a dense route."""
    found = _inertia(A, E)
    return None if found is None else found[0]


def _nearest_level(A: sparse.csr_array, lu, shift: float, which: str) -> float | None:
    """The level nearest below (which="SA") or above ("LA") the shift, by
    `_arpack` on the factor `lu` of A - shift, or None unless it lies on that side."""
    solved = _arpack(A, lu, shift, 1, which)
    if solved is None or (solved[0][0] - shift) * (1 if which == "LA" else -1) <= 0:
        return None
    return float(solved[0][0])


def _sparse_gap(A: sparse.csr_array, mu: float | None, states: int | None):
    """`certified_gap` by inertia, or None.  For `states=k` a shift with exactly k
    levels below is bisected from the Gershgorin interval, every other step
    interpolated in the count.  The certified count at the shift (or at mu) says
    which levels lie on each side; the nearest one on each side, solved on the
    same factor, are the gap edges."""
    shift, factor, n = mu, None, A.shape[0]
    if states is not None:
        radius = float(abs(A).sum(axis=1).max()) + 1.0  # beyond every level
        (lo, c_lo), (hi, c_hi), shift, even = (-radius, 0), (radius, n), None, True
        # a gap narrower than _MIN_GAP is the dense route's NoGapError
        while shift is None and hi - lo > _MIN_GAP:
            t = (states + 0.5 - c_lo) / (c_hi - c_lo) if even else 0.5
            x, even = lo + t * (hi - lo), not even
            factor = _ldl(A, x)
            if factor is None:
                break
            if factor[0] == states:
                shift = x
            elif factor[0] < states:
                lo, c_lo = x, factor[0]
            else:
                hi, c_hi = x, factor[0]
    found = None if shift is None else _inertia(A, shift, factor)
    if found is None or states not in (None, found[0]):
        return None
    k, lu = found
    lo = -np.inf if k == 0 else _nearest_level(A, lu, shift, "SA")
    hi = np.inf if k == n else _nearest_level(A, lu, shift, "LA")
    if lo is None or hi is None:
        return None
    mu = 0.5 * (lo + hi) if states is not None else mu
    return (float(mu), (lo, hi)) if min(mu - lo, hi - mu) >= _MIN_GAP else None


def _check_level(dim: int, mu: float | None, states: int | None) -> None:
    """Raise ValueError unless a Fermi-level request names exactly one of mu and
    states, with states in [1, dim - 1]: a level on each side of the Fermi level."""
    if (mu is None) == (states is None) or (states is not None and not 1 <= states < dim):
        raise ValueError(f"give mu or states in [1, {dim - 1}], not both; got {mu}, {states}")


def fermi_level(w: np.ndarray, mu: float | None = None, states: int | None = None) -> float:
    """The Fermi level of a request over the ascending levels w: mu unchanged, or
    halfway between the k-th and (k+1)-th level for `states=k`."""
    _check_level(len(w), mu, states)
    return mu if states is None else float(0.5 * (w[states - 1] + w[states]))


def certified_gap(sample: HamiltonianSample, mu: float | None = None,
                  states: int | None = None) -> tuple[float, tuple[float, float]]:
    """The Fermi level (`fermi_level`) and `detect_gap`'s gap around it from levels
    alone; ValueError unless exactly one of mu and states is given, with
    1 <= states < dim.  Where the sparse route (`_sparse_gap`) returns None, every
    eigenvalue is solved."""
    _check_level(sample.dim, mu, states)
    found = _sparse_gap(_hermitian(sample.csr), mu, states)
    if found is not None:
        return found
    eig = diagonalize(sample, vectors=False)
    mu = fermi_level(eig.eigenvalues, mu, states)
    return mu, detect_gap(eig, mu)


def _hermitian(A: sparse.csr_array) -> sparse.csr_array:
    """The CSR matrix A after checking max|A - A*| <= 1e-10 max(1, max|A|), at O(nnz)."""
    herm_dev = abs(A - A.conj().T).max()
    if herm_dev > 1e-10 * max(1.0, abs(A).max()):
        raise ConvergenceFailureError(f"matrix is not Hermitian (deviation {herm_dev:.2e})")
    return A


def diagonalize(sample: HamiltonianSample, window: tuple[float, float] | None = None,
                vectors: bool = True, *, mu: float | None = None,
                states: int | None = None, count: int | None = None) -> EigenData:
    """The one entry point for eigensolves of sample matrices; checks Hermiticity.

    The default is the full decomposition (LAPACK evd).  `window=(lo, hi)`
    solves only the eigenpairs with lo < E <= hi; `vectors=False` returns
    every eigenvalue and no eigenvector.  `mu=` solves only the occupied
    eigenpairs E <= mu and the first level above mu (whole, if degenerate),
    `states=k` the lowest k levels and the level at index k.  Either gives a
    window (-inf, hi] that certifies the gap at the Fermi level by itself,
    with hi = +inf when nothing lies above: all a Fermi projection needs.
    Every partial solve takes the one route of `_partial_eigh`, but one: a
    window with `count=k`, a certified number of levels inside it, is first
    solved for k eigenpairs by sparse shift-invert (`_shift_invert`); a
    solve that fails its checks falls back to `_partial_eigh` on the window.
    An exactly chiral sample (`_chiral_block`) takes neither dense route: every
    request it reaches is cut from one SVD of its off-diagonal block
    (`_chiral_eigh`), an (n/2)-square matrix.
    """
    partial = (window is not None) + (mu is not None) + (states is not None)
    if partial > 1:
        raise ValueError("give at most one of window, mu and states")
    if count is not None and window is None:
        raise ValueError("count certifies the levels of a window; give the window")
    if partial and not vectors:
        raise ValueError("a partial solve returns eigenvectors")
    if states is not None and not 0 <= states < sample.dim:
        raise ValueError(f"states must lie in [0, {sample.dim - 1}], got {states}")
    # every route checks the CSR form; only the dense routes form the dense matrix
    A = _hermitian(sample.csr)
    try:
        solved = _shift_invert(A, window, count) if count is not None else None
        chiral = _chiral_block(sample) if solved is None else None
        if solved is not None:
            w, v = solved
        elif chiral is not None:
            w, v, window = _chiral_eigh(*chiral, window, mu, states, vectors)
        elif not vectors:
            w, v = np.linalg.eigvalsh(sample.matrix), None
        elif partial:
            w, v, window = _partial_eigh(sample.matrix, window, mu, states)
        else:
            w, v = np.linalg.eigh(sample.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return EigenData(eigenvalues=w, eigenvectors=v, sample=sample, window=window)


@dataclass(frozen=True)
class FermiProjection:
    """Spectral projection onto energies <= mu, with its certified gap.

    `eigen` is the decomposition it was built from: the full one, or an
    occupied solve holding only the eigenpairs up to the first level above mu.
    """

    mu: float
    gap: tuple[float, float]
    rank: int
    eigen: EigenData

    @property
    def sample(self) -> HamiltonianSample:
        return self.eigen.sample

    @property
    def occupied(self) -> np.ndarray:
        """The occupied eigenvectors V (dim x rank), so that P = V V*; a view of
        `eigen`, whose eigenvalues ascend."""
        return self.eigen.eigenvectors[:, :self.rank]

    @cached_property
    def projector(self) -> np.ndarray:
        """P = V V* as a dense dim x dim matrix, formed on first read."""
        V = self.occupied
        return V @ V.conj().T


def detect_gap(eigen: EigenData, mu: float) -> tuple[float, float]:
    """Maximal open interval around mu free of eigenvalues.

    Eigenvalues alone suffice, from the whole spectrum or from an occupied
    solve: a window (-inf, hi] holding a level above mu, or with hi = +inf.
    """
    eigen.require_full("detect_gap", vectors=False, mu=mu)
    w = eigen.eigenvalues
    if np.any(np.abs(w - mu) < _MIN_GAP):
        raise NoGapError(f"an eigenvalue lies within {_MIN_GAP:.0e} of mu={mu}")
    below = w[w <= mu]
    above = w[w > mu]
    if not len(above) and eigen.window is not None and eigen.window[1] < np.inf:
        raise ValueError(f"detect_gap needs a level above mu={mu}; the window {eigen.window} "
                         "holds none")
    # an empty side extends the gap to the spectral edge
    lo = float(below[-1]) if len(below) else -np.inf
    hi = float(above[0]) if len(above) else np.inf
    if hi - lo < _MIN_GAP:
        raise NoGapError(f"gap around mu={mu} has width {hi - lo:.3e} < {_MIN_GAP:.0e}")
    return (lo, hi)


def fermi_projection(eigen: EigenData, mu: float) -> FermiProjection:
    """P = chi(H <= mu) from the occupied eigenvectors, with the gap `detect_gap`
    certifies; takes the full decomposition or an occupied solve.  P itself is
    formed only when `projector` is read."""
    eigen.require_full("fermi_projection", mu=mu)
    gap = detect_gap(eigen, mu)
    return FermiProjection(mu=mu, gap=gap, rank=int((eigen.eigenvalues <= mu).sum()),
                           eigen=eigen)


def occupied_projection(sample: HamiltonianSample, mu: float | None = None,
                        states: int | None = None) -> FermiProjection:
    """Fermi projection from the occupied eigenpairs only: one occupied solve
    (`diagonalize(sample, mu=mu)` or `states=k`), whose window certifies the gap at
    the Fermi level (`fermi_level`); ValueError unless exactly one of mu and states
    is given, with 1 <= states < dim."""
    _check_level(sample.dim, mu, states)
    eig = diagonalize(sample, mu=mu, states=states)
    return fermi_projection(eig, fermi_level(eig.eigenvalues, mu, states))


@dataclass(frozen=True)
class SwitchFunction:
    """Monotone polynomial switch across the gap interval (a, b).

    kind="exp": 0 below the gap, 1 above, polynomial smoothstep of degree
    2 * _SWITCH_ORDER + 1 inside.  kind="ind": the odd rescaling 2 f_exp - 1,
    running from -1 to +1.
    """

    kind: str
    gap: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("exp", "ind"):
            raise ValueError("kind must be 'exp' or 'ind'")
        a, b = self.gap
        if not b > a:
            raise NoGapError("switch gap must be a nonempty interval")

    def __call__(self, x) -> np.ndarray:
        a, b = self.gap
        u = np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)
        s = special.betainc(_SWITCH_ORDER + 1, _SWITCH_ORDER + 1, u)
        return 2.0 * s - 1.0 if self.kind == "ind" else s

    def derivative(self, x) -> np.ndarray:
        a, b = self.gap
        x = np.asarray(x, dtype=float)
        u = (x - a) / (b - a)
        out = np.zeros_like(u)
        inside = (u > 0.0) & (u < 1.0)
        norm = 1.0 / special.beta(_SWITCH_ORDER + 1, _SWITCH_ORDER + 1) / (b - a)
        out[inside] = (u[inside] ** _SWITCH_ORDER) * ((1 - u[inside]) ** _SWITCH_ORDER) * norm
        return 2.0 * out if self.kind == "ind" else out

    @cached_property
    def _poly(self) -> np.polynomial.Polynomial:
        # smoothstep restricted to [0, 1]; exact since it is polynomial there
        s = _SWITCH_ORDER
        norm = 1.0 / special.beta(s + 1, s + 1)
        p = np.polynomial.Polynomial([0.0, 1.0])
        integrand = norm * (p ** s) * ((1 - p) ** s)
        return integrand.integ()

    def c_norm(self) -> float:
        """max over k <= _C_NORM_ORDER of sup |f^(k)|, from the closed-form polynomial."""
        a, b = self.gap
        scale = 1.0 / (b - a)
        grid = np.linspace(0.0, 1.0, 2001)
        factor = 2.0 if self.kind == "ind" else 1.0
        best = 1.0
        poly = self._poly
        for k in range(1, _C_NORM_ORDER + 1):
            poly = poly.deriv()
            best = max(best, factor * float(np.abs(poly(grid)).max()) * scale ** k)
        return best
