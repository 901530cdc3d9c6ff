"""Real-space invariants: trace per volume, cocycles, index pairings.

Index sets I are strictly increasing tuples of 1-based axes.  Even |I| pairs
with projections, odd |I| with invertibles; the normalizations follow the
antisymmetrized-cocycle convention

    Ch_I(P) = (2 i pi)^{|I|/2} / (|I|/2)! * sum_rho sgn(rho) T(P prod_j D_{rho_j} P)
    Ch_I(A) = i (i pi)^{(|I|-1)/2} / |I|!! * sum_rho sgn(rho) T(prod_j A^-1 D_{rho_j} A)

with D_j A = i [X_j, A] and T the trace per unit volume (minimal-image
displacements on periodic axes).  Each pairing reads its trace window, Dirac
phase and symmetry operators from the sample it is handed; the finite-volume
regularizations that the infinite-volume theory does not need (core windows
for open samples, localization filters for kernel counting) are constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadDimensionError,
    BlockSingularError,
    ContourHitsSpectrumError,
    EvenIndexSetError,
    MarginTooSmallError,
    NotAntisymmetricError,
    NotChiralError,
    NotConvergedError,
    OddDimensionError,
    OddIndexSetError,
    ParamOutOfRangeError,
    SpinSpectrumGaplessError,
    ThresholdAmbiguityError,
    UnsupportedGeneratorError,
)
from .models import (
    OPEN,
    PERIODIC,
    HamiltonianSample,
    MagneticFieldSpec,
    ModelDefinition,
    SymmetrySpec,
    apply_fiber,
    build_hamiltonian,
    chiral_sectors,
    make_named_model,
)
from .spectral import FermiProjection, occupied_projection

_CORE_RHO = 0.5  # core window of an open sample: width as a fraction of each open axis
_HARDY_CUT = 1e-6  # hardy_index: singular values below this count as kernel
_DEFECT_RADIUS_FRAC = 0.25  # window about a Dirac origin or flux plaquette: radius / sample size
_SINGULAR_FLOOR = 1e-3  # fermi_unitary: smallest singular value of the off-diagonal block
_SPIN_GAP_FLOOR = 1e-3  # spin_chern: smallest gap of the compressed spin operator P s_z P
_VEG_MARGIN = 0.5  # veg_invariant: clearance of the contour below the lowest level
_Z2_CUT = 1e-4  # z2_kernel_parity: kernel cut, as a fraction of the largest singular value
_Z2_MARGIN = 1e2  # z2_kernel_parity: least ratio across the cut

# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def displacement_matrix(sample: HamiltonianSample, axis: int,
                        per_site: int | None = None) -> np.ndarray:
    """Signed coordinate differences x_m - x_n, minimal image on periodic axes."""
    x = sample.lattice.positions(per_site)[:, axis]
    return sample.lattice.minimal_image(x[:, None] - x[None, :], axis)


def nc_derivative(A: np.ndarray, sample: HamiltonianSample, axis: int) -> np.ndarray:
    """Position-commutator derivative i [X_axis, A], entrywise."""
    return 1j * displacement_matrix(sample, axis) * A


def core_mask(sample: HamiltonianSample, center: np.ndarray | None = None,
              per_site: int | None = None) -> np.ndarray:
    """Central-window mask per global index: |x - c| <= _CORE_RHO * N / 2 on open
    axes, everything on periodic ones.  The default center, the geometric
    middle, always keeps a site: the half width N / 4 is at least 1 / 2."""
    lat = sample.lattice
    if center is None:
        center = [(n - 1) / 2 for n in lat.linear_sizes]
    half = [_CORE_RHO / 2 if b == OPEN else np.inf for b in lat.boundary]
    return lat.window(center, half, per_site)


def _site_window(sample: HamiltonianSample, per_site: int | None = None):
    """(rows summed, number of sites they cover): all rows on a torus, else the core window."""
    if all(b == PERIODIC for b in sample.lattice.boundary):
        return slice(None), sample.lattice.num_sites
    keep = core_mask(sample, per_site=per_site)
    return keep, int(keep.sum()) // (per_site or sample.lattice.fiber)


def _window_trace(factors, keep=slice(None)) -> complex:
    """sum_{n in keep} (F_1 ... F_k)_nn.

    Forms only the kept rows of F_1 ... F_{k-1} and closes with the last
    factor entrywise, rowsum(rows * F_k^T[keep]).
    """
    *head, last = factors
    if not head:
        return complex(np.diagonal(last)[keep].sum())
    rows = head[0][keep]
    for F in head[1:]:
        rows = rows @ F
    return complex(np.sum(rows * last[:, keep].T))


def trace_per_volume(A: np.ndarray, sample: HamiltonianSample) -> complex:
    """Normalized lattice trace (1/#sites) sum_n tr_L <n|A|n>."""
    return _window_trace([A]) / sample.lattice.num_sites


def _validate_index_set(I, d: int) -> tuple[int, ...]:
    I = tuple(int(i) for i in I)
    if any(not 1 <= i <= d for i in I) or list(I) != sorted(set(I)):
        raise BadDimensionError(f"index set {I} must be strictly increasing within 1..{d}")
    return I


def _signed_permutations(I: tuple[int, ...]):
    base = list(I)
    for perm in itertools.permutations(base):
        inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                  if perm[i] > perm[j])
        yield perm, -1 if inv % 2 else +1


# ---------------------------------------------------------------------------
# result record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantResult:
    """One computed pairing: its real value, the raw complex trace, the distance
    to the nearest integer (nan where no integer is expected) and the kernel's
    certificates in `extra`."""

    value: float
    raw: complex
    error_proxy: float
    extra: dict = field(default_factory=dict)

    @property
    def rounded(self) -> int:
        return int(round(self.value))


def _make_result(raw: complex, integer: bool = True, **extra) -> InvariantResult:
    value = float(np.real(raw))
    proxy = abs(value - round(value)) if integer else float("nan")
    return InvariantResult(value=value, raw=complex(raw), error_proxy=proxy, extra=extra)


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

def _chern_even(P: np.ndarray, sample: HamiltonianSample, I: tuple[int, ...]) -> complex:
    half = len(I) // 2
    coeff = (2j * np.pi) ** half / math.factorial(half)
    dP = {i: nc_derivative(P, sample, i - 1) for i in I}
    keep, n_sites = _site_window(sample)
    total = sum(sgn * _window_trace([P] + [dP[i] for i in perm], keep)
                for perm, sgn in _signed_permutations(I))
    return coeff * total / n_sites


def chern_projection(P: FermiProjection, I) -> InvariantResult:
    """Even-cocycle pairing of a Fermi projection in `_site_window`; |I| = 0: state density."""
    sample = P.sample
    I = _validate_index_set(I, sample.lattice.dimension)
    if len(I) % 2:
        raise OddIndexSetError("projection pairing needs an even index set")
    return _make_result(_chern_even(P.projector, sample, I), integer=bool(I))


@dataclass(frozen=True)
class FermiUnitary:
    """Off-diagonal phase of a chiral Fermi projection, on the half fiber."""

    matrix: np.ndarray
    sample: HamiltonianSample
    fiber: int           # orbitals per site in the reduced space
    min_singular: float
    inverse: np.ndarray | None = None  # matrix^-1 when known exactly; else inverted


def fermi_unitary(P: FermiProjection) -> FermiUnitary:
    """Polar phase U of the off-diagonal block of 2P in the eigenbasis of the model's s_ch.

    Accepts approximately chiral samples as long as the block stays
    invertible; the smallest singular value is reported on the result.  When
    `diagonalize` took the chiral route and P holds exactly the levels -s of
    B = U_B diag(s) W* (rank dim/2), the block is the unitary -W U_B*: it is
    read from that solve's factors, with smallest singular value 1 and its
    inverse -U_B W*.
    """
    sample, s_ch = P.sample, P.sample.model.symmetry.s_ch
    if s_ch is None:
        raise NotChiralError("no chiral operator declared")
    plus, minus = chiral_sectors(s_ch)
    if plus.shape[1] != minus.shape[1]:
        raise NotChiralError("chiral operator sectors have unequal dimension")
    svd = P.eigen.svd
    if svd is not None and P.rank == len(svd[1]):
        u, _, wh = svd
        inverse = -(u @ wh)
        return FermiUnitary(matrix=inverse.conj().T, sample=sample, fiber=plus.shape[1],
                            min_singular=1.0, inverse=inverse)
    # 2 P_{-+} = 2 V_- V_+* from the sector components of the occupied vectors V
    V = P.occupied
    block = 2.0 * apply_fiber(minus.conj().T, V) @ apply_fiber(plus.conj().T, V).conj().T
    uu, sv, vv = np.linalg.svd(block)
    if sv.min() < _SINGULAR_FLOOR:
        raise BlockSingularError(
            f"off-diagonal block singular value {sv.min():.2e} below {_SINGULAR_FLOOR:.0e}")
    return FermiUnitary(matrix=uu @ vv, sample=sample, fiber=plus.shape[1],
                        min_singular=float(sv.min()))


def _odd_coeff(card: int) -> complex:
    double_fact = 1
    for k in range(1, (card - 1) // 2 + 1):
        double_fact *= 2 * k + 1
    return 1j * (1j * np.pi) ** ((card - 1) // 2) / double_fact


def chern_unitary(U: FermiUnitary, I) -> InvariantResult:
    """Odd-cocycle pairing (winding) of the Fermi unitary, reduced fiber, in `_site_window`."""
    sample, per_site, mat = U.sample, U.fiber, U.matrix
    I = _validate_index_set(I, sample.lattice.dimension)
    if len(I) % 2 == 0:
        raise EvenIndexSetError("invertible pairing needs an odd index set")
    inv = np.linalg.inv(mat) if U.inverse is None else U.inverse
    dmat = {i: 1j * displacement_matrix(sample, i - 1, per_site) * mat for i in I}
    keep, n_sites = _site_window(sample, per_site)
    if len(I) == 1:  # T(U^-1 D U) from the kept rows of U^-1 alone
        total = _window_trace([inv, dmat[I[0]]], keep)
    else:
        dU = {i: inv @ dmat[i] for i in I}
        total = sum(sgn * _window_trace([dU[i] for i in perm], keep)
                    for perm, sgn in _signed_permutations(I))
    return _make_result(_odd_coeff(len(I)) * (total / n_sites), min_singular=U.min_singular)


# ---------------------------------------------------------------------------
# Dirac phase and index pairings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracPhase:
    """Phase of the position Dirac operator about the middle of the central cell.

    d = 2 stores the diagonal unitary G; d = 1 stores the Hardy projection
    E = (1 + sign(X - origin)) / 2 by its diagonal, a 0/1 vector per index.
    """

    dimension: int
    origin: np.ndarray
    G: np.ndarray | None = None
    E: np.ndarray | None = None


def _dirac_origin(sample: HamiltonianSample) -> np.ndarray:
    """Middle of the central cell, n // 2 + 0.5 on every axis: no site sits there."""
    return np.array([n // 2 + 0.5 for n in sample.lattice.linear_sizes])


def dirac_phase(sample: HamiltonianSample) -> DiracPhase:
    lat = sample.lattice
    d = lat.dimension
    if d == 3:
        # the Hardy projection of n_hat . sigma has the spinor blocks (n_x -+ i n_y) / 2
        raise BadDimensionError("d = 3 Dirac phase has non-diagonal spinor blocks; not implemented")
    origin = _dirac_origin(sample)
    rel = lat.positions() - origin[None, :]
    if d == 2:
        z = rel[:, 0] + 1j * rel[:, 1]
        return DiracPhase(dimension=2, origin=origin, G=z / np.abs(z))
    return DiracPhase(dimension=1, origin=origin, E=(np.sign(rel[:, 0]) + 1) / 2)


def localized_mode_count(vectors: np.ndarray, mask: np.ndarray) -> int:
    """Number of states in the spanned subspace living inside the mask.

    Diagonalizes the window-weight form on the subspace, so arbitrary
    rotations among degenerate vectors cannot split a localized state
    across the window boundary.
    """
    if vectors.shape[1] == 0:
        return 0
    W = vectors.conj().T @ (mask[:, None] * vectors)
    return int((np.linalg.eigvalsh(W) > 0.5).sum())


def _near_zero_cluster(abs_vals: np.ndarray, margin: float, scale_cap: float) -> int:
    """Size of the near-zero cluster: the deepest margin-separated leading block."""
    count = 0
    for k in range(len(abs_vals) - 1):
        if abs_vals[k] > scale_cap:
            break
        if abs_vals[k + 1] / max(abs_vals[k], 1e-300) >= margin:
            count = k + 1
    return count


def pair_index(P: FermiProjection, power: int = 3) -> InvariantResult:
    """Relative index of (P, G P G*), G the Dirac phase of P's sample, from the
    windowed trace of an odd power.

    The full lattice trace of (G P G* - P)^power vanishes identically at
    finite volume (the compensating spectral weight sits on the outer
    boundary), so the trace is restricted to the core window around the
    Dirac origin, where it converges exponentially to the index of the
    compression of G by P.
    """
    d = P.sample.lattice.dimension
    if d % 2:
        raise BadDimensionError("pair index needs even dimension")
    if power % 2 == 0 or power <= d:
        raise BadDimensionError("power must be odd and exceed the dimension")
    dirac = dirac_phase(P.sample)
    g = dirac.G
    D = (g[:, None] * P.projector) * g.conj()[None, :] - P.projector
    keep = core_mask(P.sample, center=dirac.origin)
    out = _make_result(_window_trace([D] * power, keep))
    if out.error_proxy > 0.1:
        raise NotConvergedError(f"pair index raw value {out.value:.3f} too far from an integer")
    return out


def hardy_index(U: FermiUnitary) -> InvariantResult:
    """Index of the Hardy compression E U E, E the Hardy projection of U's sample.

    Small singular values of E U E + (1 - E) are classified by which side of
    the pairing they belong to (right-singular vectors span the kernel, left
    ones the cokernel) and counted only when localized at the Hardy origin;
    the partner modes produced by the finite geometry sit at the sample
    boundary and are excluded.  E is diagonal and constant on each site, so
    it is read at the reduced fiber of U, the chiral half.  As E is 0/1,
    E U E + (1 - E) is the block U[e][:, e] plus an identity on the rest:
    only the block is decomposed, and its singular vectors, padded with
    zeros, are those of the whole.
    """
    sample, mat, per_site = U.sample, U.matrix, U.fiber
    if sample.lattice.dimension != 1:
        raise BadDimensionError("Hardy index implemented for d = 1")
    dirac = dirac_phase(sample)
    e = np.repeat(dirac.E[::sample.lattice.fiber], per_site) > 0.5
    uu, sv, vv = np.linalg.svd(mat[np.ix_(e, e)])
    small = sv < _HARDY_CUT
    if np.any((~small) & (sv < 10 * _HARDY_CUT)) or np.any(small & (sv > _HARDY_CUT / 10)):
        raise ThresholdAmbiguityError("singular values within a factor 10 of the threshold")
    # the zero padding off the block contributes nothing to the window weight
    keep = sample.lattice.window(dirac.origin, _DEFECT_RADIUS_FRAC, per_site)[e]
    ker = localized_mode_count(vv.conj().T[:, small], keep)
    cok = localized_mode_count(uu[:, small], keep)
    return _make_result(float(ker - cok), total_small=int(small.sum()))


@dataclass(frozen=True)
class FredholmCompression:
    """T = V M V* + (1 - V V*) on a sample, held as the compression M (k x k) to
    the range of the orthonormal columns of V (dim x k); T itself is never formed."""

    basis: np.ndarray
    matrix: np.ndarray
    sample: HamiltonianSample


def trs_fredholm(P: FermiProjection) -> FredholmCompression:
    """The compression P G P + (1 - P) of the parity index, G the d = 2 Dirac phase
    of P's sample, as M = V* G V over the occupied eigenvectors V of P."""
    if P.sample.lattice.dimension != 2:
        raise BadDimensionError("the parity index needs the d = 2 Dirac phase")
    V = P.occupied
    g = dirac_phase(P.sample).G
    return FredholmCompression(basis=V, matrix=V.conj().T @ (g[:, None] * V), sample=P.sample)


def _antisymmetry_bound(V: np.ndarray, M: np.ndarray, sym: SymmetrySpec,
                        m_norm: float) -> float:
    """Upper bound on ||T S + (T S)^T||_F without forming T, given ||M||_2.

    With S = 1 (x) s_tr, real orthogonal with S^2 = eta_tr, and A = M - 1,
    Y = S conj(V), C = V* Y, Y' = Y - V C (the part of Y off Ran V):

        (T S + (T S)^T) S^T = (1 + eta)(1 - V V*) + V B V*
                              + eta (V C A^T Y'* + Y' A^T C* V* + Y' A^T Y'*),
        B = (1 + eta) 1_k + A + eta C A^T C*.

    The first two terms act on orthogonal blocks, right multiplication by S^T
    keeps the Frobenius norm, ||C||_2 <= 1 and ||A||_2 <= 1 + ||M||_2, so

        ||T S + (T S)^T||_F <= sqrt((1 + eta)^2 (dim - k) + ||B||_F^2)
                               + ||A||_2 (2 ||Y'||_F + ||Y'||_F^2).

    For eta = -1 and a time-reversal invariant Ran V, Y' and the first term
    vanish.
    """
    dim, k = V.shape
    eta = sym.eta_tr
    A = M - np.eye(k)
    Y = apply_fiber(sym.s_tr, V.conj(), "left")
    C = V.conj().T @ Y
    y = float(np.linalg.norm(Y - V @ C))
    B = (1 + eta) * np.eye(k) + A + eta * (C @ A.T @ C.conj().T)
    return (math.hypot((1 + eta) * math.sqrt(dim - k), np.linalg.norm(B))
            + (1 + m_norm) * (2 * y + y * y))


def z2_kernel_parity(T: FredholmCompression) -> InvariantResult:
    """Parity of the near-kernel dimension of an antisymmetric compression.

    Requires T s_tr antisymmetric, s_tr of the sample's model; counts small
    singular values whose right singular vectors localize at the Dirac origin
    (the symmetry partner of each localized kernel mode lives on the sample
    boundary at finite volume).

    T = V M V* + (1 - V V*) is block diagonal over Ran V and its complement,
    where it is the identity: its singular values are the k of M and dim - k
    ones, and its right singular vectors for small singular values are V times
    those of M.

    The antisymmetry check does not form T either: `_antisymmetry_bound`
    bounds ||T S + (T S)^T||_F, hence its largest entry.  Since
    ||T S||_F = ||T||_F = sqrt(||M||_F^2 + dim - k) <= dim max|T S|, raising
    when the bound exceeds 1e-8 ||T||_F / dim raises whenever the entrywise
    check max|T S + (T S)^T| > 1e-8 max|T S| would.
    """
    sample, sym = T.sample, T.sample.model.symmetry
    if sym.s_tr is None:
        raise NotAntisymmetricError("no time-reversal operator declared; T s_tr is undefined")
    V, M = T.basis, T.matrix
    dim, k = V.shape
    _, sv, vv = np.linalg.svd(M)
    top = float(sv.max(initial=0.0))
    if _antisymmetry_bound(V, M, sym, top) > (
            1e-8 * math.sqrt(np.linalg.norm(M) ** 2 + dim - k) / dim):
        raise NotAntisymmetricError("T s_tr is not antisymmetric")
    tol = _Z2_CUT * (max(1.0, top) if k < dim else top)
    sorted_sv = np.sort(np.concatenate([sv, np.ones(dim - k)]))
    count = int((sorted_sv < tol).sum())
    if count > 0:
        ratio = sorted_sv[count] / max(sorted_sv[count - 1], 1e-300)
    else:
        ratio = sorted_sv[0] / tol
    if ratio < _Z2_MARGIN:
        # the fixed cut landed inside the near-kernel cluster (its values
        # drift with disorder); move the cut to a margin-separated gap within
        # two decades of the nominal threshold if one exists
        count = _near_zero_cluster(sorted_sv, _Z2_MARGIN, 1e2 * tol)
        if not count:
            raise MarginTooSmallError(
                f"singular-value margin below {_Z2_MARGIN:.0f}; use the spin route")
        ratio = sorted_sv[count] / max(sorted_sv[count - 1], 1e-300)
    small = sv < sorted_sv[count - 1] * (1 + 1e-12) if count else sv < tol
    keep = sample.lattice.window(_dirac_origin(sample), _DEFECT_RADIUS_FRAC)
    loc = localized_mode_count(V @ vv[small].conj().T, keep)
    return _make_result(float(loc % 2), margin=float(ratio), total_small=count, localized=loc)


def spin_chern(P: FermiProjection, s_z: np.ndarray) -> InvariantResult:
    """Pairing of the positive spectral half of P s^z P, in `_site_window`.

    `extra` holds the gap of the compressed spin operator (`spin_gap`) and
    the sum-rule residue Ch(P+) + Ch(P-) - Ch(P) (`sum_rule_residue`).
    """
    sample = P.sample
    occ = P.occupied
    M = occ.conj().T @ apply_fiber(s_z, occ, "left")
    mw, mv = np.linalg.eigh(M)
    pos = mw > 0
    neg = mw < 0
    if not pos.any() or not neg.any():
        raise SpinSpectrumGaplessError("compressed spin operator has one-sided spectrum")
    gap = float(mw[pos].min() - mw[neg].max())
    if gap < _SPIN_GAP_FLOOR:
        raise SpinSpectrumGaplessError(f"spin gap {gap:.2e} below {_SPIN_GAP_FLOOR:.0e}")
    ch_p, ch_m = (_chern_even(V @ V.conj().T, sample, (1, 2))
                  for V in (occ @ mv[:, pos], occ @ mv[:, neg]))
    ch = _chern_even(P.projector, sample, (1, 2))
    return _make_result(ch_p, spin_gap=gap, sum_rule_residue=float(np.real(ch_p + ch_m - ch)))


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def _pfaffian_sign_logabs(A: np.ndarray) -> tuple[float, float]:
    """Parlett-Reid elimination with partial pivoting, n even; returns (sign, log|Pf|)."""
    n = A.shape[0]
    A = np.array(A, dtype=float, copy=True)
    sign = 1.0
    logabs = 0.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp], :] = A[[kp, k + 1], :]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            sign = -sign
        pivot = A[k + 1, k]
        if pivot == 0.0:
            return 0.0, -np.inf
        sign *= np.sign(A[k, k + 1])
        logabs += np.log(abs(A[k, k + 1]))
        if k + 2 < n:
            tau = A[k + 2:, k] / pivot
            A[k + 2:, :] -= np.outer(tau, A[k + 1, :])
            A[:, k + 2:] -= np.outer(A[:, k + 1], tau)
    return sign, logabs


def pfaffian(A: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix, sign included."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise OddDimensionError("need a square matrix")
    if A.shape[0] % 2:
        raise OddDimensionError("Pfaffian of odd dimension is zero by convention; refuse")
    scale = max(np.abs(A).max(), 1.0)
    if np.abs(A + A.T).max() > 1e-10 * scale:
        raise NotAntisymmetricError("matrix is not antisymmetric")
    if np.iscomplexobj(A) and np.abs(A.imag).max() > 1e-12 * scale:
        raise NotAntisymmetricError("only real antisymmetric matrices are supported")
    sign, logabs = _pfaffian_sign_logabs(np.real(A))
    if logabs == -np.inf:
        return 0.0
    return float(sign * np.exp(logabs))


# ---------------------------------------------------------------------------
# field derivatives and resolvent route
# ---------------------------------------------------------------------------

def _field_gap_projection(model: ModelDefinition, count: int | None = None) -> FermiProjection:
    """Fermi projection of the clean sample onto its `count` lowest states.

    The default count is round(B_12 N_1 N_2 / 2 pi) states per orbital: one
    flux quantum's worth, the lowest gap of the scalar hopping model.
    """
    sample = build_hamiltonian(model, 0)
    b = model.field.B[0, 1]
    if count is None:
        n = model.lattice.linear_sizes
        count = int(round(b * (n[0] * n[1]) / (2 * np.pi))) * model.lattice.fiber
    if not 1 <= count < sample.dim:
        raise ParamOutOfRangeError(f"field {b:.6g} puts {count} of {sample.dim} states "
                                   "below the tracked gap")
    return occupied_projection(sample, states=count)


def streda_derivative(model: ModelDefinition, I, k_step: int = 1,
                      state_count_fn=None) -> tuple[float, float]:
    """Finite-difference magnetic derivative of Ch_I in B_12 against Ch_{I + (1, 2)} / 2 pi.

    The Fermi level tracks a fixed gap across the field values; by default
    the gap above one flux quantum worth of states per step, which is the
    lowest gap of the scalar hopping model.  Returns (lhs, rhs).
    """
    lat = model.lattice
    if lat.dimension < 2:
        raise BadDimensionError("the field derivative needs the axes 1 and 2")
    I = _validate_index_set(I, lat.dimension)
    if 1 in I or 2 in I:
        raise BadDimensionError("I must not contain the field axes 1 and 2")
    n_12 = lat.linear_sizes[0] * lat.linear_sizes[1]
    delta = 2 * np.pi * k_step / n_12

    def with_field(b):
        B = model.field.B.copy()
        B[0, 1], B[1, 0] = b, -b
        return replace(model, field=MagneticFieldSpec(B))

    b0 = model.field.B[0, 1]
    values = {}
    for b in (b0 - delta, b0, b0 + delta):
        m = with_field(b)
        P = _field_gap_projection(m, None if state_count_fn is None else state_count_fn(m, b))
        values[b] = (P, chern_projection(P, I).raw.real)
    lhs = (values[b0 + delta][1] - values[b0 - delta][1]) / (2 * delta)
    bigI = tuple(sorted(set(I) | {1, 2}))
    rhs = chern_projection(values[b0][0], bigI).raw.real / (2 * np.pi)
    return float(lhs), float(rhs)


def veg_invariant(P: FermiProjection, n_t: int = 64) -> InvariantResult:
    """Resolvent-loop evaluation of the even pairing Ch_{(1, 2)}.

    Discretizes the contour integral over a circle enclosing the occupied
    spectrum with n_t nodes and a forward difference for the loop
    derivative; first-order accurate in 1/n_t.  Works in the eigenbasis of
    P.eigen, where the resolvents G and G^-1 d_t G are diagonal, so P must
    come from the full decomposition, not from an occupied solve.
    """
    P.eigen.require_full("veg_invariant")
    sample, mu = P.sample, P.mu
    _validate_index_set((1, 2), sample.lattice.dimension)
    w, V = P.eigen.eigenvalues, P.eigen.eigenvectors
    if not (w < mu).any() or not (w > mu).any():
        raise ContourHitsSpectrumError("mu outside the spectrum")
    lo = w.min()
    center = 0.5 * (lo - _VEG_MARGIN + mu)
    radius = 0.5 * (mu - lo + _VEG_MARGIN)
    zs = center + radius * np.exp(2j * np.pi * np.arange(n_t) / n_t)
    dist = np.abs(w[None, :] - zs[:, None]).min()
    if dist < 1e-6:
        raise ContourHitsSpectrumError(f"contour approaches spectrum to {dist:.1e}")
    g = 1.0 / (w[None, :] - zs[:, None])  # eigenvalues of G, one row per node
    d = [displacement_matrix(sample, axis) for axis in (0, 1)]
    total = 0.0
    for k in range(n_t):
        ginv = w - zs[k]
        G = (V * g[k]) @ V.conj().T
        # G^-1 d_t G (forward difference) and G^-1 i[X_j, G], in the eigenbasis
        K = ginv * (g[(k + 1) % n_t] - g[k]) * n_t
        A, B = (ginv[:, None] * (V.conj().T @ (1j * dj * G) @ V) for dj in d)
        # the six signed slot orders of the full trace are three cyclic copies of two
        total += _window_trace([K[:, None] * A, B]) - _window_trace([K[:, None] * B, A])
    raw = total / (2.0 * sample.lattice.num_sites * n_t)
    return _make_result(raw, n_t=n_t)


# ---------------------------------------------------------------------------
# pairing-range audit
# ---------------------------------------------------------------------------

def pairing_range_check(model: ModelDefinition, I, J) -> tuple[float, float]:
    """Measured pairing of a realized generator against its predicted value.

    Realizable generators at desk scale: J = () is the identity projection,
    J = (1, 2) is the lowest-gap projection of the clean scalar hopping model
    at the field and sizes of the d = 2 `model`.  Returns (measured, predicted).
    """
    if model.lattice.dimension != 2:
        raise UnsupportedGeneratorError("generator audit implemented in d = 2")
    I = tuple(int(x) for x in I)
    J = tuple(int(x) for x in J)
    if len(I) % 2 or J not in ((), (1, 2)):
        raise UnsupportedGeneratorError(f"unsupported generator pair I={I}, J={J}")
    if J == ():
        # identity projection: every derivative vanishes
        measured = 1.0 if I == () else 0.0
        predicted = 1.0 if I == () else 0.0
        return measured, predicted
    b12 = model.field.B[0, 1]
    P = _field_gap_projection(make_named_model("harper", sizes=model.lattice.linear_sizes, b12=b12))
    measured = float(chern_projection(P, I).raw.real)
    # chern_projection has refused any I but (1, 2), where the pairing is Ch_J = 1,
    # and (), the state density Pf(B) / 2 pi
    predicted = 1.0 if I else float(pfaffian(np.array([[0.0, b12], [-b12, 0.0]])) / (2 * np.pi))
    return measured, predicted
