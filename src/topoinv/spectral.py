"""Eigendecomposition, Fermi projections, gap detection, switch functions.

The switch functions are polynomial smoothsteps across a gap interval,
realized through the regularized incomplete beta function so that all
derivatives are available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg, special

from .errors import ConvergenceFailureError, GapMismatchError, NoGapError
from .models import HamiltonianSample

_MIN_GAP = 1e-8
_ORTHO_TOL = 1e-10  # largest max|V^H V - I| accepted from a windowed solve


@dataclass(frozen=True)
class EigenData:
    """Spectral decomposition of one sample, eigenvalues ascending.

    Besides the full decomposition there are two partial forms: with
    `window = (lo, hi)` it holds only the eigenpairs with lo < E <= hi, and
    with `eigenvectors = None` every eigenvalue but no eigenvector.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    sample: HamiltonianSample
    window: tuple[float, float] | None = None

    def require_full(self, use: str, vectors: bool = True):
        """Raise ValueError unless this holds every eigenvalue (and, with vectors, every eigenvector)."""
        if self.window is not None:
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


def _window_eigh(H: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs with lo < E <= hi by MRRR (LAPACK evr), certified orthonormal;
    a failed or uncertified run is replaced by the window of the full solve."""
    try:
        w, v = linalg.eigh(H, subset_by_value=(lo, hi), driver="evr")
        if orthogonality_residual(v) <= _ORTHO_TOL:
            return w, v
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(H)
    keep = (w > lo) & (w <= hi)
    return w[keep], v[:, keep]


def diagonalize(sample: HamiltonianSample, window: tuple[float, float] | None = None,
                vectors: bool = True) -> EigenData:
    """The one entry point for eigensolves of sample matrices; checks Hermiticity.

    The default is the full decomposition (LAPACK evd).  `window=(lo, hi)`
    solves only the eigenpairs with lo < E <= hi; `vectors=False` returns
    every eigenvalue and no eigenvector.
    """
    if window is not None and not vectors:
        raise ValueError("a windowed solve returns eigenvectors")
    H = sample.matrix
    herm_dev = np.abs(H - H.conj().T).max()
    if herm_dev > 1e-10 * max(1.0, np.abs(H).max()):
        raise ConvergenceFailureError(f"matrix is not Hermitian (deviation {herm_dev:.2e})")
    try:
        if not vectors:
            return EigenData(eigenvalues=np.linalg.eigvalsh(H), eigenvectors=None, sample=sample)
        w, v = np.linalg.eigh(H) if window is None else _window_eigh(H, *window)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return EigenData(eigenvalues=w, eigenvectors=v, sample=sample, window=window)


@dataclass(frozen=True)
class FermiProjection:
    """Spectral projection onto energies <= mu, with its certified gap."""

    mu: float
    projector: np.ndarray
    gap: tuple[float, float]
    rank: int
    eigen: EigenData

    @property
    def sample(self) -> HamiltonianSample:
        return self.eigen.sample


def detect_gap(eigen: EigenData, mu: float, min_width: float = _MIN_GAP) -> tuple[float, float]:
    """Maximal open interval around mu free of eigenvalues; eigenvalues only suffice."""
    eigen.require_full("detect_gap", vectors=False)
    w = eigen.eigenvalues
    if np.any(np.abs(w - mu) < min_width):
        raise NoGapError(f"an eigenvalue lies within {min_width:.0e} of mu={mu}")
    below = w[w <= mu]
    above = w[w > mu]
    # an empty side extends the gap to the spectral edge
    lo = float(below[-1]) if len(below) else -np.inf
    hi = float(above[0]) if len(above) else np.inf
    if hi - lo < min_width:
        raise NoGapError(f"gap around mu={mu} has width {hi - lo:.3e} < {min_width:.0e}")
    return (lo, hi)


def fermi_projection(eigen: EigenData, mu: float) -> FermiProjection:
    eigen.require_full("fermi_projection")
    gap = detect_gap(eigen, mu)
    occ = eigen.eigenvalues <= mu
    V = eigen.eigenvectors[:, occ]
    return FermiProjection(mu=mu, projector=V @ V.conj().T, gap=gap, rank=int(occ.sum()),
                           eigen=eigen)


@dataclass(frozen=True)
class SwitchFunction:
    """Monotone polynomial switch across the gap interval (a, b).

    kind="exp": 0 below the gap, 1 above, polynomial smoothstep of degree
    2*order+1 inside.  kind="ind": the odd rescaling 2 f_exp - 1, running
    from -1 to +1.
    """

    kind: str
    gap: tuple[float, float]
    order: int = 3

    def __post_init__(self):
        if self.kind not in ("exp", "ind"):
            raise ValueError("kind must be 'exp' or 'ind'")
        a, b = self.gap
        if not b > a:
            raise NoGapError("switch gap must be a nonempty interval")
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def __call__(self, x) -> np.ndarray:
        a, b = self.gap
        u = np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)
        s = special.betainc(self.order + 1, self.order + 1, u)
        return 2.0 * s - 1.0 if self.kind == "ind" else s

    def derivative(self, x) -> np.ndarray:
        a, b = self.gap
        x = np.asarray(x, dtype=float)
        u = (x - a) / (b - a)
        out = np.zeros_like(u)
        inside = (u > 0.0) & (u < 1.0)
        norm = 1.0 / special.beta(self.order + 1, self.order + 1) / (b - a)
        out[inside] = (u[inside] ** self.order) * ((1 - u[inside]) ** self.order) * norm
        return 2.0 * out if self.kind == "ind" else out

    @cached_property
    def _poly(self) -> np.polynomial.Polynomial:
        # smoothstep restricted to [0, 1]; exact since it is polynomial there
        s = self.order
        norm = 1.0 / special.beta(s + 1, s + 1)
        p = np.polynomial.Polynomial([0.0, 1.0])
        integrand = norm * (p ** s) * ((1 - p) ** s)
        return integrand.integ()

    def c_norm(self, k_max: int = 6) -> float:
        """max over k <= k_max of sup |f^(k)|, from the closed-form polynomial."""
        a, b = self.gap
        scale = 1.0 / (b - a)
        grid = np.linspace(0.0, 1.0, 2001)
        factor = 2.0 if self.kind == "ind" else 1.0
        best = 1.0
        poly = self._poly
        for k in range(1, k_max + 1):
            poly = poly.deriv()
            best = max(best, factor * float(np.abs(poly(grid)).max()) * scale ** k)
        return best


def eval_switch(f: SwitchFunction, eigen: EigenData, allow_inside: bool = False) -> np.ndarray:
    """f(H) by spectral calculus.

    With allow_inside=False the sample must have no eigenvalue inside the
    switch gap (bulk usage); half-space callers pass allow_inside=True since
    edge spectrum inside the bulk gap is the point.
    """
    eigen.require_full("eval_switch")
    a, b = f.gap
    w = eigen.eigenvalues
    if not allow_inside and np.any((w > a + 1e-12) & (w < b - 1e-12)):
        raise GapMismatchError("sample has spectrum inside the switch gap")
    return eigen.function_of(f(w))
