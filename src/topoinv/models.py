"""Finite-volume tight-binding models.

Builds sparse Hermitian samples of hopping Hamiltonians on d-dimensional
lattices (d = 1, 2, 3) with L orbitals per site, uniform magnetic field in
a fixed axial gauge, i.i.d. on-site disorder, open or periodic boundaries,
and local flux insertion.  Ships a small zoo of named models and a
symmetry-class detector.

Conventions fixed here and relied on everywhere else:

* site order is row-major over coordinates, fiber index fastest:
  global index = site * L + orbital;
* a hopping (a, t_a) contributes t_a to the block <n+a| H |n>, so the
  Bloch symbol of a clean model is  h(k) = sum_a exp(-i k.a) t_a;
* the magnetic phase on a unit step +e_k from site m is
  sum_{j>k} B[k, j] * m_j, with a seam correction -B[i, j] * N_j * m_i on
  wrapping j-steps so every plaquette in axes (i, j) carries flux -B[i, j];
  on a torus this requires B[i, j] * N_i * N_j in 2 pi Z;
* one bond table (`_bonds`) places every bond for assembly, magnetic
  translations and flux insertion; there a bond is the segment from its
  source to source + a, and the string cell p has 0 <= p_k <= N_k - 2;
* a sample is assembled once, in CSR form (`_assemble`); its dense matrix
  is formed only when a caller reads it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import (
    BadDimensionError,
    FluxQuantizationError,
    InconsistentSymmetriesError,
    NonHermitianHoppingsError,
    ParamOutOfRangeError,
    UnknownModelError,
)

PERIODIC = "periodic"
OPEN = "open"

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

_HERMITICITY_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
# largest |value| of a zoo parameter or disorder strength: the square of a matrix
# entry, summed over any sample, stays finite in the eigensolvers
_PARAM_LIMIT = 1e100


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the finite lattice: sizes, boundaries, orbitals per site."""

    dimension: int
    linear_sizes: tuple[int, ...]
    boundary: tuple[str, ...]
    fiber: int

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise BadDimensionError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if len(self.linear_sizes) != self.dimension or len(self.boundary) != self.dimension:
            raise ParamOutOfRangeError("linear_sizes and boundary must have one entry per axis")
        if any(n < 2 for n in self.linear_sizes):
            raise ParamOutOfRangeError("need at least two sites per axis")
        if any(b not in (PERIODIC, OPEN) for b in self.boundary):
            raise ParamOutOfRangeError(f"boundary flags must be '{PERIODIC}' or '{OPEN}'")
        if self.fiber < 1:
            raise ParamOutOfRangeError("fiber dimension must be positive")

    @property
    def num_sites(self) -> int:
        return int(np.prod(self.linear_sizes))

    @property
    def hilbert_dim(self) -> int:
        return self.num_sites * self.fiber

    def site_coords(self) -> np.ndarray:
        """Integer coordinates of every site, shape (num_sites, d), row-major."""
        grids = np.meshgrid(*[np.arange(n) for n in self.linear_sizes], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def positions(self, per_site: int | None = None) -> np.ndarray:
        """Site coordinates per index, shape (num_sites * per_site, d).

        per_site defaults to the fiber; the reduced fiber of a chiral half
        and spinor-extended spaces pass their own number of entries per site.
        """
        return np.repeat(self.site_coords(), per_site or self.fiber, axis=0).astype(float)

    def minimal_image(self, dx: np.ndarray, axis: int) -> np.ndarray:
        """Coordinate differences along one axis, wrapped into [-N/2, N/2) on a periodic axis."""
        if self.boundary[axis] != PERIODIC:
            return dx
        n = self.linear_sizes[axis]
        return (dx + n / 2) % n - n / 2

    def window(self, center, radius_frac, per_site: int | None = None) -> np.ndarray:
        """Mask per index of the box |x - center| <= radius_frac * N on every axis.

        radius_frac is one number or one per axis (inf leaves an axis
        unrestricted); displacements are minimal images on periodic axes.
        """
        pos = self.positions(per_site)
        frac = np.broadcast_to(radius_frac, (self.dimension,))
        keep = np.ones(len(pos), dtype=bool)
        for axis, n in enumerate(self.linear_sizes):
            keep &= np.abs(self.minimal_image(pos[:, axis] - center[axis], axis)) <= frac[axis] * n
        return keep


def apply_fiber(op: np.ndarray, M: np.ndarray, side: str = "left") -> np.ndarray:
    """(1_N (x) op) M for side="left", M (1_N (x) op) for side="right".

    op (p x q) acts on the fiber of every site; with the fiber index fastest
    the product is a reshape and N small products, O(dim^2 L), and the
    dim x dim lift is never formed.  op may be rectangular (a fiber
    compression): M then has N*q rows (left) or N*p columns (right).
    """
    p, q = op.shape
    rows, cols = M.shape  # either may be 0: an empty occupied space
    if side == "left":
        return (op @ M.reshape(rows // q, q, cols)).reshape(rows // q * p, cols)
    if side == "right":
        return (M.reshape(rows, cols // p, p) @ op).reshape(rows, cols // p * q)
    raise ValueError("side must be 'left' or 'right'")


_SYMMETRY_SIGN = {"tr": -1.0, "ph": 1.0, "ch": 1.0}


def symmetry_deviation(H: np.ndarray, op: np.ndarray, kind: str) -> float:
    """max |S* conj(H) S - H| (kind "tr"), max |S* conj(H) S + H| ("ph") or
    max |S* H S + H| ("ch"), where S = 1_N (x) op acts fiber by fiber."""
    sign = _SYMMETRY_SIGN[kind]
    X = H if kind == "ch" else H.conj()
    X = apply_fiber(op.conj().T, apply_fiber(op, X, "right"), "left")
    return float(np.abs(X + sign * H).max())


def chiral_sectors(s_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning the +1 and the -1 eigenspaces of a chiral fiber operator."""
    w, v = np.linalg.eigh(s_ch)
    return v[:, w > 0.5], v[:, w < -0.5]


@dataclass(frozen=True)
class MagneticFieldSpec:
    """Uniform magnetic field, one antisymmetric flux matrix in radians per plaquette."""

    B: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ParamOutOfRangeError("B must be a square matrix")
        if np.abs(B + B.T).max() > 1e-14:
            raise ParamOutOfRangeError("B must be exactly antisymmetric")

    @staticmethod
    def zero(dimension: int) -> "MagneticFieldSpec":
        return MagneticFieldSpec(np.zeros((dimension, dimension)))

    @staticmethod
    def two_dimensional(b12: float) -> "MagneticFieldSpec":
        return MagneticFieldSpec(np.array([[0.0, b12], [-b12, 0.0]]))

    def validate_quantization(self, lattice: LatticeSpec) -> None:
        """Both-periodic axis pairs must carry an integer number of flux quanta."""
        d = lattice.dimension
        if self.B.shape[0] != d:
            raise ParamOutOfRangeError("B dimension does not match the lattice")
        for i in range(d):
            for j in range(i + 1, d):
                if lattice.boundary[i] == PERIODIC and lattice.boundary[j] == PERIODIC:
                    phi = self.B[i, j] * lattice.linear_sizes[i] * lattice.linear_sizes[j]
                    if abs(phi / (2 * np.pi) - round(phi / (2 * np.pi))) > 1e-9:
                        raise FluxQuantizationError(
                            f"B[{i},{j}]*N_{i}*N_{j} = {phi:.6f} is not a multiple of 2*pi"
                        )


@dataclass(frozen=True)
class SymmetrySpec:
    """Fiber-local symmetry operators with declared parities.

    s_tr and s_ph implement antiunitary symmetries (combined with complex
    conjugation in the position basis) and must be real; s_ch is unitary.
    """

    s_tr: np.ndarray | None = None
    eta_tr: int = +1
    s_ph: np.ndarray | None = None
    eta_ph: int = +1
    s_ch: np.ndarray | None = None

    def __post_init__(self):
        for name, op, eta, need_real in (
            ("s_tr", self.s_tr, self.eta_tr, True),
            ("s_ph", self.s_ph, self.eta_ph, True),
            ("s_ch", self.s_ch, +1, False),
        ):
            if op is None:
                continue
            op = np.asarray(op, dtype=complex)
            object.__setattr__(self, name, op)
            if need_real and np.abs(op.imag).max() > _SYMMETRY_TOL:
                raise InconsistentSymmetriesError(f"{name} must have real entries")
            if np.abs(op.conj().T @ op - np.eye(len(op))).max() > _SYMMETRY_TOL:
                raise InconsistentSymmetriesError(f"{name} is not unitary")
            if np.abs(op @ op - eta * np.eye(len(op))).max() > _SYMMETRY_TOL:
                raise InconsistentSymmetriesError(f"{name}^2 differs from declared parity {eta}")
        if self.s_tr is not None and self.s_ph is not None and self.s_ch is not None:
            prod = self.s_ph @ self.s_tr
            # s_ch must agree with s_ph s_tr up to a scalar phase
            tr = np.trace(self.s_ch.conj().T @ prod)
            if abs(abs(tr) - len(prod)) > 1e-9:
                raise InconsistentSymmetriesError("s_ch is not proportional to s_ph @ s_tr")


@dataclass(frozen=True)
class DisorderSpec:
    """I.i.d. self-adjoint on-site matrices, bounded in norm by the strength."""

    family: str = "diagonal-scalar"
    strength: float = 0.0
    seed: int = 0

    _FAMILIES = ("diagonal-scalar", "diagonal-matrix", "symmetry-constrained-matrix")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ParamOutOfRangeError(f"unknown disorder family {self.family!r}")
        if not 0 <= self.strength <= _PARAM_LIMIT:
            raise ParamOutOfRangeError(f"disorder strength must lie in [0, {_PARAM_LIMIT:.0e}]")

    def sample_site_matrices(self, num_sites: int, fiber: int, realization_seed: int,
                             symmetry: SymmetrySpec) -> np.ndarray:
        """Deterministic on-site matrices, shape (num_sites, L, L); the
        symmetry-constrained family keeps the model's `symmetry`."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, realization_seed)))
        lam = self.strength
        out = np.zeros((num_sites, fiber, fiber), dtype=complex)
        if lam == 0.0:
            return out
        if self.family == "diagonal-scalar":
            u = rng.uniform(-1.0, 1.0, size=num_sites)
            out = lam * u[:, None, None] * np.eye(fiber)[None]
        elif self.family == "diagonal-matrix":
            u = rng.uniform(-1.0, 1.0, size=(num_sites, fiber))
            diag = np.arange(fiber)
            out[:, diag, diag] = lam * u
        else:
            # per site: a and b (L x L each), then v; one draw keeps that stream order
            x = rng.uniform(-1.0, 1.0, size=(num_sites, 2 * fiber * fiber + 1))
            a, b = x[:, :-1].reshape(num_sites, 2, fiber, fiber).transpose(1, 0, 2, 3)
            h = (a + a.swapaxes(1, 2)) / 2 + 1j * (b - b.swapaxes(1, 2)) / 2
            h = _symmetric_part(h, symmetry)
            norm = np.linalg.norm(h, 2, axis=(1, 2))
            keep = norm > 1e-14
            out[keep] = (lam * x[keep, -1])[:, None, None] * h[keep] / norm[keep, None, None]
        return out


def _symmetric_part(h: np.ndarray, sym: SymmetrySpec) -> np.ndarray:
    """Orthogonal projection of on-site matrices, a stack (..., L, L), onto the
    symmetry-allowed subspace."""
    if sym.s_tr is not None:
        h = (h + sym.s_tr.conj().T @ h.conj() @ sym.s_tr) / 2
    if sym.s_ph is not None:
        h = (h - sym.s_ph.conj().T @ h.conj() @ sym.s_ph) / 2
    if sym.s_ch is not None:
        h = (h - sym.s_ch.conj().T @ h @ sym.s_ch) / 2
    return (h + h.swapaxes(-1, -2).conj()) / 2


def _canonical_positive(a: tuple[int, ...]) -> bool:
    for c in a:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


@dataclass(frozen=True)
class ModelDefinition:
    """Declarative model: lattice + field + hoppings + on-site + disorder + symmetry."""

    lattice: LatticeSpec
    field: MagneticFieldSpec
    hoppings: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    onsite: np.ndarray
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    symmetry: SymmetrySpec = field(default_factory=SymmetrySpec)
    name: str = "custom"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        L = self.lattice.fiber
        onsite = np.asarray(self.onsite, dtype=complex)
        object.__setattr__(self, "onsite", onsite)
        if onsite.shape != (L, L):
            raise ParamOutOfRangeError("onsite matrix must be L x L")
        if np.abs(onsite - onsite.conj().T).max() > _HERMITICITY_TOL:
            raise NonHermitianHoppingsError("onsite matrix must be self-adjoint")
        if any(op is not None and op.shape != (L, L)
               for op in (self.symmetry.s_tr, self.symmetry.s_ph, self.symmetry.s_ch)):
            raise ParamOutOfRangeError("symmetry operators must be L x L")
        hop = []
        for a, t in self.hoppings:
            a = tuple(int(c) for c in a)
            t = np.asarray(t, dtype=complex)
            if len(a) != self.lattice.dimension:
                raise ParamOutOfRangeError(f"displacement {a} has wrong dimension")
            if all(c == 0 for c in a):
                raise ParamOutOfRangeError("zero displacement belongs in the onsite matrix")
            if t.shape != (L, L):
                raise ParamOutOfRangeError("hopping matrices must be L x L")
            hop.append((a, t))
        object.__setattr__(self, "hoppings", tuple(hop))
        self._check_closure()
        self.field.validate_quantization(self.lattice)

    def _check_closure(self):
        table = {a: t for a, t in self.hoppings}
        if len(table) != len(self.hoppings):
            raise NonHermitianHoppingsError("duplicate displacement in hopping list")
        for a, t in self.hoppings:
            rev = tuple(-c for c in a)
            if rev not in table:
                raise NonHermitianHoppingsError(f"missing reverse hopping for {a}")
            if np.abs(table[rev] - t.conj().T).max() > _HERMITICITY_TOL:
                raise NonHermitianHoppingsError(f"reverse hopping of {a} is not the adjoint")

    def positive_hoppings(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        return [(a, t) for a, t in self.hoppings if _canonical_positive(a)]

    @property
    def max_hop_range(self) -> int:
        if not self.hoppings:
            return 0
        return max(max(abs(c) for c in a) for a, _ in self.hoppings)

    def fingerprint(self) -> str:
        """Stable hash of the model content, for result provenance."""
        h = hashlib.sha256()
        h.update(repr((self.name, self.lattice.dimension, self.lattice.linear_sizes,
                       self.lattice.boundary, self.lattice.fiber)).encode())
        h.update(np.ascontiguousarray(self.field.B).tobytes())
        for a, t in sorted(self.hoppings, key=lambda p: p[0]):
            h.update(repr(a).encode())
            h.update(np.ascontiguousarray(np.round(t, 14)).tobytes())
        h.update(np.ascontiguousarray(np.round(self.onsite, 14)).tobytes())
        h.update(repr((self.disorder.family, self.disorder.strength, self.disorder.seed)).encode())
        # twice: the disorder once held its own copy; recorded fingerprints stay valid
        for sym in (self.symmetry, self.symmetry):
            h.update(repr((sym.eta_tr, sym.eta_ph)).encode())
            for op in (sym.s_tr, sym.s_ph, sym.s_ch):
                h.update(b"none" if op is None else np.ascontiguousarray(np.round(op, 14)).tobytes())
        return h.hexdigest()[:16]

    def with_boundary(self, axis: int, flag: str) -> "ModelDefinition":
        boundary = list(self.lattice.boundary)
        boundary[axis] = flag
        lat = replace(self.lattice, boundary=tuple(boundary))
        return replace(self, lattice=lat)

    def with_boundaries(self, flag: str) -> "ModelDefinition":
        """The same model with every axis open, or every axis periodic."""
        lat = replace(self.lattice, boundary=(flag,) * self.lattice.dimension)
        return replace(self, lattice=lat)


@dataclass(frozen=True)
class HamiltonianSample:
    """One disorder realization: its Hermitian matrix in CSR form plus site metadata."""

    csr: sparse.csr_array
    model: ModelDefinition
    realization_seed: int

    @property
    def lattice(self) -> LatticeSpec:
        return self.model.lattice

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, formed on first read; the sparse solves never read it."""
        return self.csr.toarray()


def _bonds(lattice: LatticeSpec, B: np.ndarray,
           a: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source sites, target sites, gauge phases) of the hopping a, one entry per bond.

    Closed form of stepping axis by axis in the axial gauge: a_k steps along
    axis k carry a_k * sum_{j>k} B[k, j] * m_j on the not yet moved
    coordinates; each wrap adds the seam term -B[i, k] * N_k * m'_i (i < k)
    on the already moved ones, with sign +1 forward and -1 backward.  A wrap
    on an open axis drops the bond.
    """
    sizes = lattice.linear_sizes
    m = lattice.site_coords()
    moved = m.copy()
    keep = np.ones(len(m), dtype=bool)
    phase = np.zeros(len(m))
    for k, step in enumerate(a):
        if step == 0:
            continue
        wraps, moved[:, k] = np.divmod(m[:, k] + step, sizes[k])
        if lattice.boundary[k] == OPEN:
            keep &= wraps == 0
        field_sum = 0.0
        for j in range(k + 1, lattice.dimension):
            field_sum = field_sum + B[k, j] * m[:, j]
        axis_phase = step * field_sum
        for i in range(k):
            axis_phase = axis_phase + wraps * (-B[i, k] * sizes[k] * moved[:, i])
        phase += axis_phase
    return (np.flatnonzero(keep), np.ravel_multi_index(moved[keep].T, sizes), phase[keep])


def _assemble(dim: int, terms) -> sparse.csr_array:
    """The dim x dim CSR sum over the (bonds, t) of `terms`, one term after the
    other, of the block exp(i phase) t at (target, source) for every bond; t is
    one L x L block or one per bond.  Entries that sum to zero are not stored."""
    out = sparse.csr_array((dim, dim), dtype=complex)
    for (src, tgt, phase), t in terms:
        blocks = np.exp(1j * phase)[:, None, None] * t
        orb = np.arange(blocks.shape[-1])
        rows, cols = np.broadcast_arrays((tgt[:, None] * len(orb) + orb)[:, :, None],
                                         (src[:, None] * len(orb) + orb)[:, None, :], blocks)[:2]
        out = out + sparse.coo_array((blocks.ravel(), (rows.ravel(), cols.ravel())),
                                     shape=(dim, dim))
    return out


def build_hamiltonian(model: ModelDefinition, realization_seed: int = 0) -> HamiltonianSample:
    """Assemble the finite-volume matrix of the model, in CSR form.

    The hoppings are summed in their order, then the adjoint and the on-site
    blocks, so each entry rounds as a dense scatter of the same terms does.
    Deterministic in (model, realization_seed); raises FluxQuantizationError
    via the model validation if the field is incompatible with the torus.
    """
    lat = model.lattice
    N, L = lat.num_sites, lat.fiber
    H = _assemble(lat.hilbert_dim, [(_bonds(lat, model.field.B, a), t)
                                    for a, t in model.positive_hoppings()])
    omega = model.disorder.sample_site_matrices(N, L, realization_seed, model.symmetry)
    sites = np.arange(N)
    onsite = _assemble(lat.hilbert_dim, [((sites, sites, np.zeros(N)), model.onsite + omega)])
    return HamiltonianSample(csr=H + H.conj().T + onsite, model=model,
                             realization_seed=realization_seed)


def _translation(lattice: LatticeSpec, bonds) -> np.ndarray:
    return _assemble(lattice.hilbert_dim, [(bonds, np.eye(lattice.fiber))]).toarray()


def magnetic_translations(lattice: LatticeSpec, B: np.ndarray) -> list[np.ndarray]:
    """Matrices of the gauge translations on the torus, one per axis."""
    if any(b != PERIODIC for b in lattice.boundary):
        raise ParamOutOfRangeError("magnetic translations need a full torus")
    steps = np.eye(lattice.dimension, dtype=int)
    return [_translation(lattice, _bonds(lattice, B, a)) for a in steps]


def dual_translations(lattice: LatticeSpec, B: np.ndarray) -> list[np.ndarray]:
    """Translations commuting with the gauge translations (mirrored phase convention)."""
    if any(b != PERIODIC for b in lattice.boundary):
        raise ParamOutOfRangeError("dual translations need a full torus")
    # mirror the gauge: the same bonds on the axis-reversed lattice with the
    # sign-flipped reversed field, site indices mapped back to native order
    mirrored = LatticeSpec(lattice.dimension, lattice.linear_sizes[::-1], lattice.boundary[::-1], 1)
    native = np.ravel_multi_index(mirrored.site_coords()[:, ::-1].T, lattice.linear_sizes)
    out = []
    for a in np.eye(lattice.dimension, dtype=int)[::-1]:
        src, tgt, phase = _bonds(mirrored, -B[::-1, ::-1], a)
        out.append(_translation(lattice, (native[src], native[tgt], phase)))
    return out


def _string_bonds(sample: HamiltonianSample, plaquette: Sequence[int]):
    """(bonds, centered): the (source sites, target sites, string angle) of each
    hopping's bonds crossing the string, and whether one of them passes through
    the plaquette center.

    The bond (target, source) block takes the phase exp(i t angle) at flux t;
    the angle broadcasts over (bond, target orbital, source orbital).  Validates
    the plaquette as `insert_flux` documents.
    """
    lat, model = sample.lattice, sample.model
    strip = lat.dimension == 1 and lat.fiber == 2
    if lat.dimension != 2 and not strip:
        raise BadDimensionError("flux insertion is defined for d = 2 or the d = 1 two-leg strip")
    if lat.dimension == 2 and lat.boundary[1] != OPEN:
        raise BadDimensionError("flux insertion needs an open second axis for the string to leave")
    if strip and model.max_hop_range > 1:
        raise BadDimensionError("two-leg flux insertion supports nearest-neighbor hopping only")
    last = tuple(n - 1 if flag == PERIODIC else n - 2
                 for n, flag in zip(lat.linear_sizes, lat.boundary))
    if len(plaquette) != lat.dimension or not all(0 <= p <= m for p, m in zip(plaquette, last)):
        raise ParamOutOfRangeError(f"plaquette {tuple(plaquette)} is not a cell of the sample: "
                                   f"axis k takes 0..m_k with m = {last}")
    if lat.boundary[0] == PERIODIC and lat.linear_sizes[0] <= 2 * model.max_hop_range:
        raise ParamOutOfRangeError("flux insertion on a periodic axis 0 needs N_0 > 2 * hop range")
    coords = lat.site_coords()
    px, py = (plaquette[0] + 0.4, 0.5) if strip else (plaquette[0] + 0.5, plaquette[1] + 0.5)
    out = []
    centered = False
    for a, _ in model.positive_hoppings():
        if a[0] == 0:
            continue  # parallel to the string
        src, tgt, _ = _bonds(lat, model.field.B, a)
        # where the segment meets the string line or its next image: a crossing below 1
        s = (px - coords[src, 0]) % lat.linear_sizes[0] / a[0]
        crossing = s < 1.0
        if strip:  # x = p + 0.4 keeps the crossings off the midline; (bond, target, source leg)
            legs = np.arange(2.0)
            above = legs + s[crossing, None, None] * (legs[:, None] - legs) > py
            angle = np.pi * np.where(above, 1.0, -1.0)
        else:
            y_cross = coords[src, 1] + s * a[1]
            centered |= bool(np.any(crossing & (np.abs(y_cross - py) < 1e-9)))
            crossing &= y_cross > py
            angle = np.full((1, 1, 1), 2 * np.pi)
        out.append((src[crossing], tgt[crossing], angle))
    return out, centered


@dataclass(frozen=True)
class FluxString:
    """What a flux insertion into one sample at one plaquette does not owe to t:
    the rows of the string sites, ascending, and the string entries stored in the
    sample's CSR form, with their angles.  `flux_string` builds it.

    H(t) differs from the sample only on `rows`, where each string entry takes the
    phase exp(i t angle): a string bond's (target, source) entries its angle, the
    transposed entries minus it, so H(t) stays Hermitian.  `sample_at(t)` is the
    whole flux-t sample; `block_at(t)`, H(t) on the rows, is all a flux step changes.
    """

    sample: HamiltonianSample
    rows: np.ndarray
    entries: np.ndarray  # positions in `sample.csr.data`
    angle: np.ndarray  # one per entry
    centered: bool  # a bond passes through the plaquette center: refused at t != 0

    def _rephase(self, values: np.ndarray, at, t: float) -> np.ndarray:
        """A copy of `values` with the string entries `at` multiplied by exp(i t angle):
        the one place that applies string phases.  t != 0 is refused on a centered string."""
        values = values.copy()
        if t != 0.0:
            if self.centered:
                raise BadDimensionError(
                    "a bond passes through the flux plaquette center; shift the plaquette")
            # only the string entries: any other entry keeps its bytes
            values[at] *= np.exp(1j * t * self.angle)
        return values

    def sample_at(self, t: float) -> HamiltonianSample:
        A = self.sample.csr
        data = self._rephase(A.data, self.entries, t)
        return replace(self.sample, csr=sparse.csr_array((data, A.indices, A.indptr), A.shape))

    @cached_property
    def _block(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """H(0) on `rows`, dense, and the (row, column) of each string entry in it:
        `block_at(t)` applies `sample_at`'s products to a copy."""
        A = self.sample.csr
        row = np.searchsorted(A.indptr, self.entries, side="right") - 1
        where = np.searchsorted(self.rows, row), np.searchsorted(self.rows, A.indices[self.entries])
        return A[self.rows][:, self.rows].toarray(), where

    def block_at(self, t: float) -> np.ndarray:
        """H(t) on `rows`, dense: `self.sample_at(t).matrix[np.ix_(rows, rows)]`."""
        return self._rephase(*self._block, t)


def flux_string(sample: HamiltonianSample, plaquette: Sequence[int]) -> FluxString:
    """The string of a flux insertion into `sample` at `plaquette`, walked once;
    validates the plaquette as `insert_flux` documents.  A string entry that is
    exactly zero is not stored, and no phase changes it."""
    bonds, centered = _string_bonds(sample, plaquette)
    A, L = sample.csr, sample.lattice.fiber
    n = A.shape[0]
    # entry (i, j) as the key i n + j: ascending in the canonical CSR order, then n^2
    stored = np.append(np.repeat(np.arange(n), np.diff(A.indptr)) * n + A.indices, n * n)
    keys, angles = [np.zeros(0, int)], [np.zeros(0)]
    for src, tgt, a in bonds:
        rows, cols, a = np.broadcast_arrays((tgt[:, None] * L + np.arange(L))[:, :, None],
                                            (src[:, None] * L + np.arange(L))[:, None, :], a)
        keys += [(rows * n + cols).ravel(), (cols * n + rows).ravel()]
        angles += [a.ravel(), -a.ravel()]
    keys, angles = np.concatenate(keys), np.concatenate(angles)
    entries = np.searchsorted(stored, keys)
    found = stored[entries] == keys
    sites = np.unique(np.concatenate([np.zeros(0, int)] + [np.r_[s, g] for s, g, _ in bonds]))
    rows = (sites[:, None] * L + np.arange(L)).ravel()
    return FluxString(sample, rows, entries[found], angles[found], centered)


def insert_flux(sample: HamiltonianSample, t: float, plaquette: Sequence[int]) -> HamiltonianSample:
    """Thread flux 2*pi*t through one lattice cell.

    Each bond of a hopping a with a_0 > 0 is the segment from its source to
    source + a, wrap bonds included.  A bond crossing the string (or its image
    one period on) has block (target, source) multiplied by the string phase
    and block (source, target) by its conjugate.  d = 2, second axis open:
    exp(2 pi i t) on the bonds crossing the half-line up from the plaquette
    center, so t = 1 returns the input exactly.  d = 1, two-component fiber,
    nearest-neighbor hopping: the legs of a strip in a mirror-split gauge,
    exp(+-i pi t) above the midline between the legs and its conjugate below,
    which keeps a particle-hole symmetry exchanging the legs along the path.

    The plaquette has one entry per axis with 0 <= p_k <= N_k - 2 (N_0 - 1 on
    a periodic axis 0), and a periodic axis 0 exceeds twice the hop range so
    that no two bonds share a block; else ParamOutOfRangeError.  At t != 0 a
    bond through the plaquette center is refused (BadDimensionError).
    """
    return flux_string(sample, plaquette).sample_at(t)


# ---------------------------------------------------------------------------
# symmetry classification
# ---------------------------------------------------------------------------

_CAZ_TOL = 1e-10  # classify_caz: largest symmetry deviation, relative to max(|H|, 1)
_CAZ_COMPLEX = {(False, False, False): ("A", 0), (False, False, True): ("AIII", 1)}
_CAZ_REAL = {
    (+1, 0): ("AI", 0),
    (+1, +1): ("BDI", 1),
    (0, +1): ("D", 2),
    (-1, +1): ("DIII", 3),
    (-1, 0): ("AII", 4),
    (-1, -1): ("CII", 5),
    (0, -1): ("C", 6),
    (+1, -1): ("CI", 7),
}


def classify_caz(sample: HamiltonianSample) -> tuple[str, int]:
    """Detect the symmetry class of a sample from the fiber operators its model declares.

    Tests s_tr* conj(H) s_tr = H, s_ph* conj(H) s_ph = -H and
    s_ch* H s_ch = -H, reads the declared parities, and returns the class
    label together with its row index in the tenfold classification.
    """
    H, sym = sample.matrix, sample.model.symmetry
    scale = max(np.abs(H).max(), 1.0)

    def holds(op, kind):
        return op is not None and symmetry_deviation(H, op, kind) <= _CAZ_TOL * scale

    has_tr, has_ph, has_ch = holds(sym.s_tr, "tr"), holds(sym.s_ph, "ph"), holds(sym.s_ch, "ch")

    if has_tr and has_ph and not has_ch and sym.s_ch is not None:
        raise InconsistentSymmetriesError(
            "TRS and PHS hold but the declared chiral operator does not anticommute with H")
    if not has_tr and not has_ph:
        return _CAZ_COMPLEX[(False, False, has_ch)]
    key = (sym.eta_tr if has_tr else 0, sym.eta_ph if has_ph else 0)
    if key not in _CAZ_REAL:
        raise InconsistentSymmetriesError(f"unclassifiable symmetry data {key}")
    return _CAZ_REAL[key]


# ---------------------------------------------------------------------------
# model zoo
# ---------------------------------------------------------------------------

def _default_lattice(d: int, sizes, boundary, fiber) -> LatticeSpec:
    if isinstance(sizes, int):
        sizes = (sizes,) * d
    if boundary is None:
        boundary = (PERIODIC,) * d
    elif isinstance(boundary, str):
        boundary = (boundary,) * d
    return LatticeSpec(d, tuple(sizes), tuple(boundary), fiber)


def _ssh(m: float, sizes, boundary, disorder: DisorderSpec) -> ModelDefinition:
    lat = _default_lattice(1, sizes, boundary, 2)
    t_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    hops = (((1,), t_plus), ((-1,), t_plus.conj().T))
    sym = SymmetrySpec(s_ch=SIGMA_3)
    return ModelDefinition(lat, MagneticFieldSpec.zero(1), hops, m * SIGMA_2,
                           disorder, sym, name="ssh", metadata={"m": m})


def _harper(b12: float, sizes, boundary, disorder: DisorderSpec) -> ModelDefinition:
    lat = _default_lattice(2, sizes, boundary, 1)
    one = np.array([[1.0]], dtype=complex)
    hops = (((1, 0), one), ((-1, 0), one), ((0, 1), one), ((0, -1), one))
    return ModelDefinition(lat, MagneticFieldSpec.two_dimensional(b12), hops,
                           np.zeros((1, 1)), disorder, SymmetrySpec(),
                           name="harper", metadata={"b12": b12})


_QWZ_T10 = 0.5j * SIGMA_1 - 0.5 * SIGMA_3
_QWZ_T01 = -0.5j * SIGMA_2 - 0.5 * SIGMA_3


def _qwz(mass: float, sizes, boundary, disorder: DisorderSpec) -> ModelDefinition:
    if mass in (0.0, 2.0, -2.0):
        raise ParamOutOfRangeError("qwz gap closes at mass in {0, +-2}")
    lat = _default_lattice(2, sizes, boundary, 2)
    hops = (((1, 0), _QWZ_T10), ((-1, 0), _QWZ_T10.conj().T),
            ((0, 1), _QWZ_T01), ((0, -1), _QWZ_T01.conj().T))
    return ModelDefinition(lat, MagneticFieldSpec.zero(2), hops, mass * SIGMA_3,
                           disorder, SymmetrySpec(), name="qwz", metadata={"mass": mass})


def _kane_mele_qsh(mass: float, rashba: float, zeeman: float, sizes, boundary,
                   disorder: DisorderSpec) -> ModelDefinition:
    """Spin-doubled Chern model: up block and conjugated down block, optional
    spin-mixing (time-reversal preserving) and Zeeman (time-reversal breaking) terms."""
    if mass in (0.0, 2.0, -2.0):
        raise ParamOutOfRangeError("gap closes at mass in {0, +-2}")
    lat = _default_lattice(2, sizes, boundary, 4)
    z = np.zeros((2, 2), dtype=complex)
    t10 = np.block([[_QWZ_T10, rashba * SIGMA_0], [-rashba * SIGMA_0, _QWZ_T10.conj()]])
    t01 = np.block([[_QWZ_T01, z], [z, _QWZ_T01.conj()]])
    ons = np.block([[mass * SIGMA_3 + zeeman * SIGMA_0, z],
                    [z, (mass * SIGMA_3).conj() - zeeman * SIGMA_0]])
    hops = (((1, 0), t10), ((-1, 0), t10.conj().T),
            ((0, 1), t01), ((0, -1), t01.conj().T))
    s_tr = np.kron(np.array([[0., -1.], [1., 0.]]), np.eye(2))
    sym = SymmetrySpec(s_tr=s_tr, eta_tr=-1)
    sz = np.kron(0.5 * SIGMA_3, SIGMA_0)
    return ModelDefinition(lat, MagneticFieldSpec.zero(2), hops, ons, disorder, sym,
                           name="kane_mele_qsh",
                           metadata={"mass": mass, "rashba": rashba, "zeeman": zeeman, "s_z": sz})


def _kitaev_chain(mu: float, w_strength: float, sizes, boundary,
                  disorder: DisorderSpec | None) -> ModelDefinition:
    """One-dimensional pairing chain in the two-component form.

    Bloch symbol (cos k + mu) sigma_3 + sin k sigma_1; disorder is a random
    chemical potential respecting the even particle-hole and even
    time-reversal operators.
    """
    lat = _default_lattice(1, sizes, boundary, 2)
    t_plus = np.array([[0.5, 0.5j], [0.5j, -0.5]], dtype=complex)
    hops = (((1,), t_plus), ((-1,), t_plus.conj().T))
    sym = SymmetrySpec(s_tr=SIGMA_3.real, eta_tr=+1, s_ph=SIGMA_1.real, eta_ph=+1,
                       s_ch=SIGMA_2)
    if disorder is None:
        disorder = DisorderSpec(family="symmetry-constrained-matrix", strength=w_strength)
    return ModelDefinition(lat, MagneticFieldSpec.zero(1), hops, mu * SIGMA_3,
                           disorder, sym, name="kitaev_chain",
                           metadata={"mu": mu, "w_strength": w_strength})


def _chiral_3d(mass: float, sizes, boundary, disorder: DisorderSpec) -> ModelDefinition:
    """Three-dimensional chiral model with off-diagonal block
    sum_j sin k_j sigma_j + i (mass + sum_j cos k_j)."""
    lat = _default_lattice(3, sizes, boundary, 4)
    z = np.zeros((2, 2), dtype=complex)
    sig = (SIGMA_1, SIGMA_2, SIGMA_3)
    hops = []
    for j in range(3):
        ur = 0.5j * (sig[j] + SIGMA_0)
        ll = 0.5j * (sig[j] - SIGMA_0)
        t = np.block([[z, ur], [ll, z]])
        a = tuple(1 if k == j else 0 for k in range(3))
        hops.append((a, t))
        hops.append((tuple(-c for c in a), t.conj().T))
    ons = np.block([[z, 1j * mass * SIGMA_0], [-1j * mass * SIGMA_0, z]])
    sym = SymmetrySpec(s_ch=np.kron(SIGMA_3, SIGMA_0))
    return ModelDefinition(lat, MagneticFieldSpec.zero(3), hops, ons, disorder, sym,
                           name="chiral_3d", metadata={"mass": mass})


# name -> (builder, default parameters, default linear size)
_ZOO = {
    "ssh": (_ssh, {"m": 0.0}, 64),
    "harper": (_harper, {"b12": 2 * np.pi / 3}, 12),
    "qwz": (_qwz, {"mass": 1.0}, 12),
    "kane_mele_qsh": (_kane_mele_qsh, {"mass": 1.0, "rashba": 0.0, "zeeman": 0.0}, 12),
    "kitaev_chain": (_kitaev_chain, {"mu": 0.0, "w_strength": 0.0}, 64),
    "chiral_3d": (_chiral_3d, {"mass": 2.0}, 6),
}
MODEL_NAMES = tuple(_ZOO)


def make_named_model(name: str, sizes=None, boundary=None,
                     disorder: DisorderSpec | None = None, **params) -> ModelDefinition:
    """Construct one of the shipped models by name.

    Size defaults are desk scale; every parameter the model knows is a
    keyword.  Raises UnknownModelError, and ParamOutOfRangeError for an
    unknown parameter, a value beyond +-_PARAM_LIMIT or one the model rejects.
    """
    if name not in _ZOO:
        raise UnknownModelError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")
    build, defaults, default_size = _ZOO[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParamOutOfRangeError(f"unknown parameter(s) {', '.join(unknown)} for {name}; "
                                   f"known: {', '.join(defaults)}")
    values = {key: float(params.get(key, value)) for key, value in defaults.items()}
    large = [key for key, value in values.items() if not abs(value) <= _PARAM_LIMIT]
    if large:
        raise ParamOutOfRangeError(f"{name} parameter(s) {', '.join(large)} must lie within "
                                   f"+-{_PARAM_LIMIT:.0e}")
    if disorder is None and name != "kitaev_chain":  # the chain's default disorder is w_strength
        disorder = DisorderSpec()
    return build(**values, sizes=sizes or default_size, boundary=boundary, disorder=disorder)
