"""Half-space samples, boundary unitaries, edge pairings and edge currents.

A half-space sample couples an open-axis restriction with the certified gap
of its periodic companion.  Boundary invariants are traced per unit boundary
volume with the depth sum windowed to the near half of the open axis, which
recovers the one-sided geometry from a finite slab with two faces.

The winding of the boundary unitary exp(2 pi i f(H_half)) is evaluated
through its switch-derivative representation

    T_edge(U* D_1 U) = 2 pi i T_edge(f'(H_half) D_1 H_half),

an exact trace identity whose right-hand side is smooth across the Brillouin
zone of the finite circumference; the literal left-hand side undersamples
the rapid winding of the edge branch at desk-scale circumferences.

f'(H_half) and exp(2 pi i f(H_half)) - 1 vanish outside the switch gap, so
these functionals read only the eigenpairs of H_half inside the certified
bulk gap (the edge states); ind_map, whose exponential is not constant
outside the gap, solves in full.  The bulk gap and the number of in-gap
levels are counted by inertia on sparse factors (`spectral.certified_gap`,
`spectral.count_below`), with a dense solve wherever a count is not certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GapMismatchError,
    ProfileNotDecayedError,
    SurfaceBandAmbiguousError,
)
from .invariants import InvariantResult, _make_result, _window_trace, displacement_matrix
from .models import (
    OPEN,
    PERIODIC,
    HamiltonianSample,
    LatticeSpec,
    ModelDefinition,
    _assemble,
    _bonds,
    apply_fiber,
    build_hamiltonian,
    chiral_sectors,
)
from .spectral import (
    EigenData,
    FermiProjection,
    SwitchFunction,
    certified_gap,
    count_below,
    diagonalize,
)

_SECTOR_GAP = 1e-3  # ind_map: smallest |chirality| a surface-band state may have
_DECAY_FLOOR = 5e-2  # boundary_winding: largest depth-profile deviation at mid depth


@dataclass(frozen=True)
class HalfSpaceSample:
    """Open-axis restriction with the bulk gap certified on its torus companion,
    and the open sample's in-gap eigenpairs."""

    hamiltonian: HamiltonianSample
    bulk_gap: tuple[float, float]
    mu: float

    @property
    def companion(self) -> HamiltonianSample:
        """The torus companion, built anew on each read."""
        sample = self.hamiltonian
        return build_hamiltonian(sample.model.with_boundaries(PERIODIC), sample.realization_seed)

    @property
    def lattice(self):
        return self.hamiltonian.lattice

    @cached_property
    def eigen(self) -> EigenData:
        """Eigenpairs of the open sample inside the certified bulk gap, the only
        ones a switch-gap functional reads (ind_map solves in full).  The number
        of them, from the level counts below the two gap edges, lets `diagonalize`
        solve them by sparse shift-invert; without both counts the window is dense."""
        below = [count_below(self.hamiltonian.csr, edge) for edge in self.bulk_gap]
        count = None if None in below else below[1] - below[0]
        return diagonalize(self.hamiltonian, window=self.bulk_gap, count=count)


def companion_gap(model: ModelDefinition, realization_seed: int = 0, mu: float | None = None,
                  states: int | None = None) -> tuple[float, tuple[float, float]]:
    """The Fermi level and certified gap of the periodic companion of the model
    (`spectral.certified_gap`): the torus whose gap certifies the bulk gap of every
    open or half-open sample of the model."""
    torus = build_hamiltonian(model.with_boundaries(PERIODIC), realization_seed)
    return certified_gap(torus, mu, states)


def make_half_space(model: ModelDefinition, mu: float | None = None, realization_seed: int = 0,
                    bulk: FermiProjection | None = None, *,
                    states: int | None = None) -> HalfSpaceSample:
    """Certify the gap at the Fermi level (mu or `states=k`, `spectral.fermi_level`)
    on the torus companion from level counts alone (`companion_gap`), then open the
    last axis.  A caller that needs the companion's projection hands it in as `bulk`
    in place of mu and states, and its mu and gap are taken as they are."""
    if bulk is None:
        mu, gap = companion_gap(model, realization_seed, mu, states)
    elif mu is not None or states is not None:
        raise ValueError("give mu or states, or the bulk projection, not both")
    else:
        mu, gap = bulk.mu, bulk.gap
    half_model = model.with_boundary(model.lattice.dimension - 1, OPEN)
    return HalfSpaceSample(hamiltonian=build_hamiltonian(half_model, realization_seed),
                           bulk_gap=gap, mu=mu)


def _layer_indices(sample: HamiltonianSample, layer: int) -> np.ndarray:
    axis = sample.lattice.dimension - 1
    return np.where(sample.lattice.positions()[:, axis] == layer)[0]


def _near_window(sample: HamiltonianSample) -> np.ndarray:
    """Mask selecting the near half of the open axis (depth < N_d / 2)."""
    axis = sample.lattice.dimension - 1
    return sample.lattice.positions()[:, axis] < sample.lattice.linear_sizes[axis] / 2


def _require_switch_in_bulk_gap(half: HalfSpaceSample, f: SwitchFunction) -> None:
    """The switch must be constant outside the bulk gap, where `half.eigen` holds nothing."""
    (a, b), (ga, gb) = f.gap, half.bulk_gap
    if a < ga - 1e-9 or b > gb + 1e-9:
        raise GapMismatchError("switch gap extends beyond the certified bulk gap")


def _exp_shift(half: HalfSpaceSample, f: SwitchFunction) -> np.ndarray:
    """c = exp(2 pi i f(w)) - 1 on the in-gap eigenvalues: U - 1 = V diag(c) V^H."""
    return np.exp(2j * np.pi * f(half.eigen.eigenvalues)) - 1.0


@dataclass(frozen=True)
class BoundaryUnitary:
    """exp(2 pi i f(H_half)) together with its depth profile."""

    switch: SwitchFunction
    half: HalfSpaceSample
    depth_profile: np.ndarray
    decay_length: float

    @property
    def matrix(self) -> np.ndarray:
        """The dense unitary 1 + V diag(c) V^H, built on each read."""
        V = self.half.eigen.eigenvectors
        U = (V * _exp_shift(self.half, self.switch)) @ V.conj().T
        U[np.diag_indices_from(U)] += 1.0
        return U


def exp_map(half: HalfSpaceSample, f: SwitchFunction) -> BoundaryUnitary:
    """Boundary unitary of the half-space sample for the given switch.

    U - 1 = V diag(c) V^H over the in-gap eigenpairs, so the norm of each
    depth layer's columns of U - 1 is that of C = diag(c) V^H (V has
    orthonormal columns).  The decay fit reads three layers, so the open axis
    must have at least 3.
    """
    n_d = half.lattice.linear_sizes[-1]
    if n_d < 3:
        raise ProfileNotDecayedError(
            f"exp_map needs at least 3 layers along the open axis, got {n_d}")
    _require_switch_in_bulk_gap(half, f)
    C = _exp_shift(half, f)[:, None] * half.eigen.eigenvectors.conj().T
    profile = np.array([np.linalg.norm(C[:, _layer_indices(half.hamiltonian, l)], 2)
                        for l in range(n_d)])
    # fit the decay of the envelope over the near-face half; the raw profile
    # can oscillate with the magnetic period (gauge-induced near-nodes)
    upper = max(3, n_d // 2)
    env = np.array([profile[l:min(l + 3, n_d)].max() for l in range(upper)])
    xs = np.arange(upper)
    good = env > 1e-14
    if good.sum() >= 2:
        slope = np.polyfit(xs[good], np.log(env[good]), 1)[0]
        xi = -1.0 / slope if slope < 0 else np.inf
    else:
        xi = 0.0
    return BoundaryUnitary(switch=f, half=half, depth_profile=profile, decay_length=float(xi))


def _edge_pairing(half: HalfSpaceSample, f: SwitchFunction, window: np.ndarray,
                  observable: np.ndarray | None = None) -> float:
    """2 pi T_w(f'(H) . i[X_1, H]) per unit boundary volume; optional extra fiber factor.

    f'(H) = V diag(f'(w)) V^H over the in-gap eigenpairs, so the trace costs
    O(dim . k . |window|) for k of them.
    """
    _require_switch_in_bulk_gap(half, f)
    eigen, sample = half.eigen, half.hamiltonian
    V = eigen.eigenvectors
    current = 1j * displacement_matrix(sample, 0) * sample.matrix
    if observable is not None:
        current = 0.5 * (apply_fiber(observable, current, "right")
                         + apply_fiber(observable, current, "left"))
    transverse = np.prod(sample.lattice.linear_sizes[:-1])
    pairing = _window_trace([V * f.derivative(eigen.eigenvalues), V.conj().T, current], window)
    return float(2 * np.pi * pairing.real / transverse)


def boundary_winding(bu: BoundaryUnitary) -> InvariantResult:
    """Edge pairing of the boundary unitary, traced over the near face.

    Demands the depth profile to have decayed below the floor at the deepest
    retained layer, so the two faces of the finite slab do not mix.  The
    profile floor at mid depth is set by the analyticity scale of the gap
    edges (about exp(-depth/xi) with xi a few layers), so the floor
    matches desk-scale slabs; thin cylinders still trip it.
    """
    sample = bu.half.hamiltonian
    n_d = sample.lattice.linear_sizes[-1]
    mid = n_d // 2
    if bu.depth_profile[mid] > _DECAY_FLOOR:
        raise ProfileNotDecayedError(
            f"deviation {bu.depth_profile[mid]:.2e} at depth {mid} exceeds {_DECAY_FLOOR:.0e}")
    window = _near_window(sample)
    val = _edge_pairing(bu.half, bu.switch, window)
    return _make_result(val, decay_length=bu.decay_length)


def boundary_current(half: HalfSpaceSample, f: SwitchFunction,
                     orientation: str = "near") -> float:
    """Edge-current expectation in pairing normalization (integer at quantization).

    orientation="far" windows the opposite face, which carries the opposite
    chirality and flips the sign.
    """
    window = _near_window(half.hamiltonian)
    if orientation == "far":
        window = ~window
    return _edge_pairing(half, f, window)


def spin_edge_current(half: HalfSpaceSample, f: SwitchFunction,
                      s_z: np.ndarray) -> tuple[float, float]:
    """Spin-weighted edge current plus its correction budget.

    The budget is ||[H, s_z]|| * ||f||_{C^6}; the returned value approaches
    the spin pairing of the bulk when the commutator is small.  For
    Hermitian s_z, i[H, s_z] is Hermitian, so its spectral norm is its
    largest |eigenvalue|.
    """
    val = _edge_pairing(half, f, _near_window(half.hamiltonian), observable=s_z)
    H = half.hamiltonian.matrix
    comm = 1j * (apply_fiber(s_z, H, "right") - apply_fiber(s_z, H, "left"))
    budget = np.abs(np.linalg.eigvalsh(comm)).max() * f.c_norm()
    return val, float(budget)


def edge_dispersion_rows(model: ModelDefinition, nk: int = 64) -> list[tuple]:
    """(k, energy, near-face weight) rows for a cylinder model, clean.

    Diagonalizes the transverse Bloch strips of the open-last-axis model on
    an nk grid: the bonds leaving column x = 0 of the cylinder, periodic along
    x, folded onto the strip with exp(-i k a_0).  The weight column integrates
    |psi|^2 over the near quarter of the open axis so the edge branches stand out.
    """
    if model.disorder.strength != 0.0:
        raise GapMismatchError("edge dispersion is a clean-model diagnostic")
    d = model.lattice.dimension
    if d != 2:
        raise GapMismatchError("edge dispersion implemented for d = 2 cylinders")
    L = model.lattice.fiber
    n2 = model.lattice.linear_sizes[1]
    lat = LatticeSpec(2, model.lattice.linear_sizes, (PERIODIC, OPEN), L)
    # column x = 0 holds the first n2 sites; a target's strip site is its y
    leaving = []
    for a, t in model.hoppings:
        src, tgt, phase = _bonds(lat, model.field.B, a)
        first = src < n2
        leaving.append(((src[first], tgt[first] % n2, phase[first]), a[0], t))
    strip = np.arange(n2)
    rows = []
    for k in np.linspace(0, 2 * np.pi, nk, endpoint=False):
        terms = [((strip, strip, np.zeros(n2)), model.onsite)]
        terms += [(bonds, np.exp(-1j * k * a0) * t) for bonds, a0, t in leaving]
        w, v = np.linalg.eigh(_assemble(n2 * L, terms).toarray())
        near = np.repeat(np.arange(n2) < n2 / 4, L)
        for j in range(len(w)):
            weight = float((np.abs(v[:, j]) ** 2)[near].sum())
            rows.append((float(k), float(w[j]), weight))
    return rows


@dataclass(frozen=True)
class IndMapResult:
    """Near-face trace of the conjugated fiber projection against its reference,
    plus the windowed traces of the surface chirality sectors."""

    trace_difference: float
    sector_traces: tuple[float, float] | None


def ind_map(half: HalfSpaceSample, f: SwitchFunction, s_ch: np.ndarray,
            surface_split: bool = False) -> IndMapResult:
    """Boundary image of a chiral bulk class.

    Conjugates the positive-chirality fiber projector Pi by
    A = exp(-i pi/2 f(H_half)) and reports the near-face trace of
    A (1 (x) Pi) A* - 1 (x) Pi, read from the window's rows of A alone.
    With surface_split, also decomposes the projection onto the in-gap
    surface band into chirality sectors and reports their windowed traces.

    Solves H_half in full, not on the bulk gap as `half.eigen` does:
    exp(-i pi/2 f) is +i below the gap and -i above it, so it is not
    constant outside the gap.
    """
    if f.kind != "ind":
        raise GapMismatchError("ind map needs an odd switch")
    eig = diagonalize(half.hamiltonian)
    sample = half.hamiltonian
    plus, _ = chiral_sectors(s_ch)
    window = _near_window(sample)
    # window rows of A; with Pi = plus plus*, diag A (1 (x) Pi) A* holds the squared
    # row norms of A (1 (x) plus), and each windowed site adds rank Pi to the reference
    X = eig.eigenvectors
    rows = (X[window] * np.exp(-0.5j * np.pi * f(eig.eigenvalues))) @ X.conj().T
    conjugated = np.sum(np.abs(apply_fiber(plus, rows, "right")) ** 2)
    reference = window.sum() // sample.lattice.fiber * plus.shape[1]
    trace_diff = float(conjugated - reference)
    sectors = None
    if surface_split:
        a, b = half.bulk_gap
        inside = (eig.eigenvalues > a + 1e-12) & (eig.eigenvalues < b - 1e-12)
        if not inside.any():
            raise SurfaceBandAmbiguousError("no surface band inside the bulk gap")
        if np.any(np.abs(eig.eigenvalues[inside] - half.mu) < 1e-9):
            raise SurfaceBandAmbiguousError("surface spectrum touches the Fermi level")
        V = eig.eigenvectors[:, inside]
        M = V.conj().T @ apply_fiber(s_ch, V, "left")
        mw, mv = np.linalg.eigh(M)
        if np.abs(mw).min() < _SECTOR_GAP:
            raise SurfaceBandAmbiguousError(
                f"chirality spectrum of the surface band not split (min {np.abs(mw).min():.2e})")
        sectors = tuple(float(np.real(_window_trace([Vs, Vs.conj().T], window)))
                        for Vs in (V @ mv[:, mw > 0], V @ mv[:, mw < 0]))
    return IndMapResult(trace_difference=trace_diff, sector_traces=sectors)
