"""Spectral flow along flux paths: tracking, parity counts, Pfaffian signs.

Finite volume forces one refinement of the textbook definitions: over a full
flux cycle the net signed crossing count through mu is zero because the
outer boundary returns what the defect pumps.  The flow therefore counts
crossings whose eigenvector localizes at the flux plaquette; the raw count
is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    BadDimensionError,
    BranchAmbiguityError,
    KernelAtEndpointError,
    MarginTooSmallError,
    PfaffianUnderflowError,
    SymmetryBrokenAtHalfFluxError,
)
from .boundary import companion_gap
from .invariants import (
    _DEFECT_RADIUS_FRAC,
    _near_zero_cluster,
    _pfaffian_sign_logabs,
    chern_projection,
    localized_mode_count,
)
from .models import (
    OPEN,
    PERIODIC,
    FluxString,
    HamiltonianSample,
    ModelDefinition,
    _scale,
    apply_fiber,
    build_hamiltonian,
    flux_string,
    insert_flux,
    symmetry_deviation,
)
from .spectral import EigenData, detect_gap, diagonalize, occupied_projection

_CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0)
_COUNT_TOL = 1e-10  # level_count: relative distance to a pole or a singular S left undecided


@dataclass
class FluxPath:
    """Samples along one flux insertion; the base sample's full decomposition is kept.

    H(t) differs from the base only on the rows of the string bonds, so the
    base decomposition and that small block bound each step and count the
    levels of any H(t) in an interval.  The string (`models.FluxString`) does
    not depend on t and is walked once per path.
    """

    base: HamiltonianSample
    plaquette: tuple[int, ...]
    ts: list[float] = field(default_factory=lambda: list(np.linspace(0.0, 1.0, 21)))

    def __post_init__(self):
        ts = sorted(set(float(t) for t in self.ts))
        if not ts or ts[0] < 0.0 or ts[-1] > 1.0:
            raise ValueError("flux values must lie in [0, 1]")
        self.ts = ts

    @cached_property
    def string(self) -> FluxString:
        return flux_string(self.base, self.plaquette)

    def sample_at(self, t: float) -> HamiltonianSample:
        return self.string.sample_at(t)

    @cached_property
    def base_eigen(self) -> EigenData:
        """Full decomposition of the base sample, which is the sample at t = 0."""
        return diagonalize(self.base)

    def step_norm(self, t0: float, t1: float) -> float:
        """||H(t1) - H(t0)||_2, exact from the string block: by Weyl no level
        moves farther than this between t0 and t1."""
        step = self.string.block_at(t1) - self.string.block_at(t0)
        return float(np.abs(np.linalg.eigvalsh(step)).max(initial=0.0))

    def level_count(self, t: float, lo: float, hi: float) -> int | None:
        """Number of levels of H(t) in (lo, hi), from the base decomposition
        (lam, V) without a solve of H(t); None when rounding could change it.

        With the string-row change H(t) - H(0) = Q Theta Q* on the rows R
        (nonzero Theta only) and W = Q* V[R], Haynsworth's inertia additivity
        counts #{E(t) < E} = #{lam < E} + pos(S) - pos(Theta^-1) with
        S = Theta^-1 + W diag(1 / (lam - E)) W*.  The count is undecided when
        E lies within rounding of a pole lam, or S of a singular matrix.
        """
        theta, Q = np.linalg.eigh(self.string.block_at(t) - self.string.block_at(0.0))
        lam, V = self.base_eigen.eigenvalues, self.base_eigen.eigenvectors
        scale = max(1.0, np.abs(lam).max(initial=0.0))
        keep = np.abs(theta) > len(theta) * np.finfo(float).eps * scale  # rounding of the block
        theta, W = theta[keep], Q[:, keep].conj().T @ V[self.string.rows]
        below = []
        for E in (lo, hi):
            gap = lam - E
            if np.abs(gap).min(initial=np.inf) <= _COUNT_TOL * scale:
                return None
            S = np.diag(1.0 / theta) + (W / gap) @ W.conj().T
            s = np.linalg.eigvalsh(S)
            size = np.abs(1.0 / theta).max(initial=0.0) + (np.abs(W) ** 2 / np.abs(gap)).sum()
            if np.abs(s).min(initial=np.inf) <= _COUNT_TOL * size:
                return None
            below.append(int((lam < E).sum() + (s > 0).sum() - (theta > 0).sum()))
        return below[1] - below[0]


def _require_symmetry(sample: HamiltonianSample, op: np.ndarray, kind: str, rel_tol: float,
                      where: str):
    """Raise unless the sample keeps the symmetry to rel_tol max(1, max|H|), on its CSR form."""
    dev = symmetry_deviation(sample.csr, op, kind)
    if dev > rel_tol * _scale(sample.csr):
        name = "time reversal" if kind == "tr" else "particle-hole"
        raise SymmetryBrokenAtHalfFluxError(f"{name} broken {where} (dev {dev:.2e})")


@dataclass(frozen=True)
class SpectralFlowResult:
    """Signed defect-localized crossing count, with raw count and diagnostics.

    `branches` holds, at every flux value the tracking accepted (refined
    points included), the in-band eigenvalues and their branch ids; each
    crossing names the branch that made it.
    """

    net: int
    raw_net: int
    crossings: tuple[dict, ...]
    min_overlap: float
    branches: tuple[tuple[float, np.ndarray, np.ndarray], ...]


_OVERLAP_FLOOR = 0.7  # smallest overlap |<v0, v1>|^2 of a matched pair
_MAX_REFINE = 6  # bisection rounds of one step: steps no shorter than 2^-6
_WEIGHT_FLOOR = 0.5  # plaquette weight above which a crossing counts toward the net flow
_KRAMERS_OVERLAP = 1e-6  # largest |<v, S conj(v)>| of a Kramers-degenerate level
_PFAFFIAN_KERNEL_TOL = 1e-8  # smallest |E| / max(|T|, 1) of a flux sample the Pfaffian sign reads
_ZERO_MODE_MARGIN = 1e2  # half-flux kernels: ratio that separates the near-zero cluster
_HALFFLUX_SCALE_CAP = 1e-2  # halfflux_kernel_parity: cluster ceiling, a fraction of the largest |E|
_MAJORANA_SCALE_CAP = 5e-2  # majorana_zero_mode_parity: cluster ceiling in energy units


def spectral_flow(path: FluxPath, mu: float) -> SpectralFlowResult:
    """Net number of tracked eigenvalue branches moving through mu.

    Only levels that can cross mu are tracked.  By Weyl no level moves
    farther than the step norm d = ||H(t1) - H(t0)||_2 within a step, so a
    crossing starts and ends within d of mu.  The flow solves each flux value
    on the band |E - mu| < b, b twice the smallest step norm of the initial
    grid (the default, evenly spaced grid has equal step norms); a one-point
    grid tracks nothing.  NoGapError unless the base sample has a gap at mu.
    t = 0 reads the base's full decomposition; every other flux value is
    solved with the band's level count certified by `FluxPath.level_count`,
    which lets `diagonalize` take its sparse shift-invert route.

    Levels at consecutive flux values are matched when their eigenvector
    overlap is at least the floor; as the floor exceeds 1/2, such a pair is
    the unique best of its row and column.  A step is accepted when every
    level within d of mu, at either end, is matched; else it is bisected, up
    to the refinement limit, after which a degenerate sample point is
    skipped.  A branch keeps its id across each accepted step, and a level
    left unmatched starts a fresh one.  A crossing counts toward the net flow
    when its branch localizes at the flux plaquette; the unfiltered count is
    reported too.  `min_overlap` is the worst matched overlap of a level
    within d of mu over the accepted steps.
    """
    detect_gap(path.base_eigen, mu)
    ts = list(path.ts)
    step_norm = cache(path.step_norm)
    width = min((2.0 * step_norm(t0, t1) for t0, t1 in zip(ts, ts[1:])), default=0.0)
    band = (mu - width, mu + width)
    window = path.base.lattice.window(np.add(path.plaquette, 0.5), _DEFECT_RADIUS_FRAC)
    dt_floor = 2.0 ** (-_MAX_REFINE)

    solved = {}

    def levels(t):
        """In-band eigenvalues and eigenvectors at t; each t is solved once."""
        if t not in solved:
            eig = path.base_eigen if t == 0.0 else diagonalize(
                path.sample_at(t), window=band, count=path.level_count(t, *band))
            inside = np.abs(eig.eigenvalues - mu) < width
            solved[t] = eig.eigenvalues[inside], eig.eigenvectors[:, inside]
        return solved[t]

    def matched(t0, t1):
        """Pairs of levels at t0 and t1 with overlap at or above the floor, and
        the worst best overlap of a level within the step norm of mu."""
        (E0, V0), (E1, V1) = levels(t0), levels(t1)
        O = np.abs(V0.conj().T @ V1) ** 2
        rows, cols = np.nonzero(O >= _OVERLAP_FLOOR)
        reach = step_norm(t0, t1)
        worst = min(O[np.abs(E0 - mu) < reach].max(axis=1, initial=0.0).min(initial=1.0),
                    O[:, np.abs(E1 - mu) < reach].max(axis=0, initial=0.0).min(initial=1.0))
        return rows, cols, float(worst)

    energies0 = levels(ts[0])[0]
    ids = np.arange(len(energies0))
    next_id = len(ids)
    branches = [(ts[0], energies0, ids)]
    crossings = []
    min_overlap = 1.0
    k = 0
    while k < len(ts) - 1:
        t0, t1 = ts[k], ts[k + 1]
        rows, cols, worst = matched(t0, t1)
        if worst < _OVERLAP_FLOOR:
            if t1 - t0 > dt_floor:
                ts.insert(k + 1, 0.5 * (t0 + t1))
                continue
            # refinement floor: the sample at an endpoint sits inside an
            # avoided-crossing window; skip over it and match across
            if k + 2 < len(ts) and matched(t0, ts[k + 2])[2] >= _OVERLAP_FLOOR:
                del ts[k + 1]
                continue
            raise BranchAmbiguityError(
                f"overlap {worst:.2f} below {_OVERLAP_FLOOR} at dt {t1 - t0:.3g}")
        min_overlap = min(min_overlap, worst)
        (E0, V0), (E1, V1) = levels(t0), levels(t1)
        next_ids = np.full(len(E1), -1)
        next_ids[cols] = ids[rows]
        fresh = next_ids < 0
        next_ids[fresh] = next_id + np.arange(fresh.sum())
        next_id += int(fresh.sum())
        for r, c in zip(rows, cols):
            if (E0[r] - mu) * (E1[c] - mu) < 0:
                # measure localization away from the degeneracy point
                vec = V0[:, r] if abs(E0[r] - mu) > abs(E1[c] - mu) else V1[:, c]
                crossings.append({"t": 0.5 * (t0 + t1), "direction": int(np.sign(E1[c] - E0[r])),
                                  "weight": float((np.abs(vec) ** 2 * window).sum()),
                                  "branch": int(next_ids[c])})
        branches.append((t1, E1, next_ids))
        ids = next_ids
        k += 1

    net = sum(c["direction"] for c in crossings if c["weight"] > _WEIGHT_FLOOR)
    raw = sum(c["direction"] for c in crossings)
    return SpectralFlowResult(net=int(net), raw_net=int(raw), crossings=tuple(crossings),
                              min_overlap=min_overlap, branches=tuple(branches))


def flow_trace(result: SpectralFlowResult) -> list[tuple[float, float, int]]:
    """(t, eigenvalue, branch id) rows for spaghetti plots: the branches
    `spectral_flow` tracked and counted, at every flux value it accepted."""
    return [(float(t), float(e), int(b)) for t, E, ids in result.branches
            for e, b in zip(E, ids)]


# ---------------------------------------------------------------------------
# time-reversal: degenerate midgap pairs at half flux
# ---------------------------------------------------------------------------

def kramers_halfflux_probe(model: ModelDefinition, plaquette,
                           realization_seed: int = 0) -> list[dict]:
    """Midgap eigenvalues of the half-flux sample with degeneracy verification.

    Requires the declared odd time-reversal to hold exactly at t = 0 and
    t = 1/2 (the string phases are real there).  Each midgap level is paired
    with its antiunitary partner; the overlap |<v, S conj(v)>| must vanish
    for an odd symmetry.  The half-flux sample is solved only on the gap of
    the periodic companion, certified from its level counts alone; the open
    sample's edge levels lie inside that gap.
    """
    sym = model.symmetry
    if sym.s_tr is None or sym.eta_tr != -1:
        raise SymmetryBrokenAtHalfFluxError("model does not declare an odd time reversal")
    sample0 = build_hamiltonian(model, realization_seed)
    _, gap = companion_gap(model, realization_seed, 0.0)
    half = insert_flux(sample0, 0.5, plaquette)
    for tag, sample in (("t=0", sample0), ("t=1/2", half)):
        _require_symmetry(sample, sym.s_tr, "tr", 1e-9, f"at {tag}")
    eig = diagonalize(half, window=gap)
    w, v = eig.eigenvalues, eig.eigenvectors
    inside = np.where((w > gap[0] + 1e-12) & (w < gap[1] - 1e-12))[0]
    out = []
    used = set()
    for i in inside:
        if i in used:
            continue
        cluster = [j for j in inside if abs(w[j] - w[i]) < 1e-8]
        used.update(cluster)
        vecs = v[:, cluster]
        partners = apply_fiber(sym.s_tr, vecs.conj(), "left")
        partner_overlaps = [abs(np.vdot(vecs[:, c], partners[:, c])) for c in range(len(cluster))]
        out.append({
            "energy": float(w[i]),
            "multiplicity": len(cluster),
            "kramers_partner_overlap": float(max(partner_overlaps)),
            "degenerate": len(cluster) % 2 == 0 and max(partner_overlaps) < _KRAMERS_OVERLAP,
        })
    return out


# ---------------------------------------------------------------------------
# particle-hole: Majorana form, parity flows, half-flux kernels
# ---------------------------------------------------------------------------

def majorana_form(H: np.ndarray, num_sites: int) -> np.ndarray:
    """Real skew-symmetric T with C* H C = i T, per-site Cayley rotation."""
    if H.shape[0] != 2 * num_sites:
        raise BadDimensionError("the Majorana form needs a two-component fiber")
    M = apply_fiber(_CAYLEY.conj().T, apply_fiber(_CAYLEY, H, "right"), "left")
    if np.abs(M.real).max() > 1e-9 * max(1.0, np.abs(M).max()):
        raise SymmetryBrokenAtHalfFluxError("Majorana form is not purely imaginary")
    T = M.imag
    return 0.5 * (T - T.T)


def z2_spectral_flow(path: FluxPath) -> dict:
    """Parity of the Pfaffian sign change along a particle-hole symmetric path.

    Every sample is rotated to its real skew form; the path is cut at kernel
    touchings and the Pfaffian sign tracked on the gapped stretches.  The
    result compares the first and last gapped segments; endpoints touching
    zero are an error.  The particle-hole operator is the base model's.
    """
    num_sites = path.base.lattice.num_sites
    sym = path.base.model.symmetry
    if sym.s_ph is None:
        raise SymmetryBrokenAtHalfFluxError("path samples must declare a particle-hole operator")
    if path.ts[0] != 0.0 or path.ts[-1] != 1.0:
        raise KernelAtEndpointError("parity flow needs the full cycle t in [0, 1]")
    signs = []
    touches = []
    logabs_floor = np.log(1e-300)
    for t in path.ts:
        sample = path.sample_at(t)
        _require_symmetry(sample, sym.s_ph, "ph", 1e-9, f"at t={t}")
        T = majorana_form(sample.matrix, num_sites)
        scale = np.abs(T).max()
        smin = np.abs(np.linalg.eigvalsh(1j * T)).min()
        if smin < _PFAFFIAN_KERNEL_TOL * max(scale, 1.0):
            touches.append(t)
            signs.append((t, 0.0))
            continue
        sign, logabs = _pfaffian_sign_logabs(T / scale)
        if logabs < logabs_floor:
            raise PfaffianUnderflowError("Pfaffian underflow after rescaling")
        signs.append((t, sign))
    gapped = [(t, s) for t, s in signs if s != 0.0]
    if not gapped or gapped[0][0] != path.ts[0] or gapped[-1][0] != path.ts[-1]:
        raise KernelAtEndpointError("flux-path endpoint touches zero")
    flow = 1 if gapped[0][1] != gapped[-1][1] else 0
    changes = [0.5 * (gapped[i][0] + gapped[i + 1][0]) for i in range(len(gapped) - 1)
               if gapped[i][1] != gapped[i + 1][1]]
    return {"sf2": flow, "signs": signs, "kernel_touches": touches,
            "sign_changes": changes}


def _halfflux_modes(open_model: ModelDefinition, realization_seed: int, plaquette):
    """Half-flux sample of the open model, particle-hole checked: (|E| ascending,
    eigenvectors in that order, window about the plaquette)."""
    half = insert_flux(build_hamiltonian(open_model, realization_seed), 0.5, plaquette)
    if open_model.symmetry.s_ph is None:
        raise SymmetryBrokenAtHalfFluxError("model must declare a particle-hole operator")
    _require_symmetry(half, open_model.symmetry.s_ph, "ph", 1e-10, "at half flux")
    eig = diagonalize(half)
    order = np.argsort(np.abs(eig.eigenvalues))
    window = half.lattice.window(np.add(plaquette, 0.5), _DEFECT_RADIUS_FRAC)
    return np.abs(eig.eigenvalues)[order], eig.eigenvectors[:, order], window


def halfflux_kernel_parity(model: ModelDefinition, realization_seed: int = 0) -> dict:
    """Half the near-kernel dimension mod 2 at half flux, defect-localized.

    Open-chain realization: the model is restricted to open boundaries, flux
    pi is threaded through the central strip cell, and near-zero modes are
    counted only when localized at the cell; a topological open chain also
    carries end modes, which the window excludes.
    """
    plaquette = (model.lattice.linear_sizes[0] // 2,)
    aw, vecs, window = _halfflux_modes(model.with_boundary(0, OPEN), realization_seed, plaquette)
    count = _near_zero_cluster(aw, _ZERO_MODE_MARGIN, _HALFFLUX_SCALE_CAP * aw[-1])
    loc = localized_mode_count(vecs[:, :count], window)
    if loc % 2:
        raise MarginTooSmallError("odd defect-localized zero count; window unreliable")
    parity = (loc // 2) % 2
    return {"parity": int(parity), "near_zero_total": int(count),
            "near_zero_localized": int(loc),
            "smallest": aw[:max(count + 2, 4)].tolist()}


def majorana_zero_mode_parity(model: ModelDefinition, realization_seed: int = 0) -> dict:
    """Kernel parity at half flux against the bulk pairing parity, d = 2.

    The sample is opened on both axes with the flux at the center; the
    defect binds one zero mode per unit of the bulk pairing, its partner
    hybridizing into the boundary modes, so counting is windowed at the
    defect.  Returns the parity together with Ch mod 2 of the periodic
    companion for comparison.
    """
    if model.lattice.dimension != 2:
        raise SymmetryBrokenAtHalfFluxError("needs a two-dimensional sample")
    n1, n2 = model.lattice.linear_sizes
    plaquette = (n1 // 2, n2 // 2)
    aw, vecs, window = _halfflux_modes(model.with_boundaries(OPEN), realization_seed, plaquette)
    count = _near_zero_cluster(aw, _ZERO_MODE_MARGIN, _MAJORANA_SCALE_CAP)
    loc = localized_mode_count(vecs[:, :count], window)
    parity = loc % 2
    bulk = build_hamiltonian(model.with_boundaries(PERIODIC), realization_seed)
    ch = chern_projection(occupied_projection(bulk, 0.0), (1, 2))
    return {"parity": int(parity), "chern_mod2": int(ch.rounded % 2),
            "chern": ch.value, "near_zero_total": int(count),
            "near_zero_localized": int(loc), "smallest": aw[:max(count + 2, 4)].tolist()}
