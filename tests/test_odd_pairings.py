"""Odd index pairings against the dense formulas they replace.

The references below are the Hardy index and the chiral boundary map as the
package had them while the d = 1 Hardy projection was a dense diagonal
matrix and ind_map formed the 1_N (x) Pi lift and the full conjugated
projection A (1 (x) Pi) A*: hardy_index read np.diag(E) and compressed it
to the reduced fiber of a chiral half, and ind_map summed the near-face
diagonal of the difference.  The package reads E as a per-index vector and
forms only the window's rows of A; both must reproduce the references.
"""

import dataclasses

import numpy as np
import pytest

from topoinv import (
    DisorderSpec,
    SwitchFunction,
    build_hamiltonian,
    diagonalize,
    fermi_projection,
    fermi_unitary,
    hardy_index,
    ind_map,
    make_half_space,
    make_named_model,
)
from topoinv.boundary import _near_window
from topoinv.errors import SurfaceBandAmbiguousError, ThresholdAmbiguityError
from topoinv.invariants import FermiUnitary, _window_trace, localized_mode_count
from topoinv.models import MagneticFieldSpec, apply_fiber

TOL = 1e-12


# --- references --------------------------------------------------------------

def ref_hardy_projection(sample):
    # invariants.dirac_phase, d = 1: the dense diagonal E = (1 + F) / 2
    origin = np.array([n // 2 + 0.5 for n in sample.lattice.linear_sizes])
    F = np.sign(sample.lattice.positions()[:, 0] - origin[0])
    return origin, np.diag((F + 1) / 2)


def ref_hardy_index(mat, sample, per_site, threshold=1e-6, radius_frac=0.25):
    # invariants.hardy_index: np.diag(E), compressed to the reduced fiber, and
    # E mat E + diag(1 - e) as a dense sum
    origin, E = ref_hardy_projection(sample)
    num_sites = sample.lattice.num_sites
    if E.shape[0] != mat.shape[0]:
        full_per_site = E.shape[0] // num_sites
        e_diag = np.diag(E).reshape(num_sites, full_per_site)
        E = np.diag(e_diag[:, :per_site].ravel())
    e = np.real(np.diag(E))
    A = (e[:, None] * mat) * e[None, :] + np.diag(1 - e)
    uu, sv, vv = np.linalg.svd(A)
    small = sv < threshold
    if np.any((~small) & (sv < 10 * threshold)) or np.any(small & (sv > threshold / 10)):
        raise ThresholdAmbiguityError("singular values within a factor 10 of the threshold")
    keep = sample.lattice.window(origin, radius_frac, per_site)
    ker = localized_mode_count(vv.conj().T[:, small], keep)
    cok = localized_mode_count(uu[:, small], keep)
    return float(ker - cok), int(small.sum())


def ref_ind_map(half, f, s_ch, surface_split=False, sector_gap=1e-3):
    # boundary.ind_map: Pi = 1_N (x) Pi_+ and Q = A (1 (x) Pi_+) A* in full
    eig = diagonalize(half.hamiltonian)
    sample = half.hamiltonian
    w, v = np.linalg.eigh(s_ch)
    plus_fiber = v[:, w > 0.5] @ v[:, w > 0.5].conj().T
    Pi = np.kron(np.eye(sample.lattice.num_sites), plus_fiber)
    A = eig.function_of(np.exp(-0.5j * np.pi * f(eig.eigenvalues)))
    Q = apply_fiber(plus_fiber, A, "right") @ A.conj().T
    window = _near_window(sample)
    trace_diff = float(np.real(np.diag(Q - Pi)[window].sum()))
    if not surface_split:
        return trace_diff, None
    a, b = half.bulk_gap
    inside = (eig.eigenvalues > a + 1e-12) & (eig.eigenvalues < b - 1e-12)
    if not inside.any():
        raise SurfaceBandAmbiguousError("no surface band inside the bulk gap")
    if np.any(np.abs(eig.eigenvalues[inside] - half.mu) < 1e-9):
        raise SurfaceBandAmbiguousError("surface spectrum touches the Fermi level")
    V = eig.eigenvectors[:, inside]
    mw, mv = np.linalg.eigh(V.conj().T @ apply_fiber(s_ch, V, "left"))
    if np.abs(mw).min() < sector_gap:
        raise SurfaceBandAmbiguousError("chirality spectrum of the surface band not split")
    sectors = tuple(float(np.real(_window_trace([Vs, Vs.conj().T], window)))
                    for Vs in (V @ mv[:, mw > 0], V @ mv[:, mw < 0]))
    return trace_diff, sectors


def outcome(fn, *args, **kwargs):
    """The value of fn, or the error type it raises."""
    try:
        return fn(*args, **kwargs)
    except (ThresholdAmbiguityError, SurfaceBandAmbiguousError) as exc:
        return type(exc)


# --- Hardy index -------------------------------------------------------------

@pytest.mark.parametrize("m", [-2.0, -0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("strength, seed", [(0.0, 0), (0.3, 0), (0.3, 1), (0.6, 2)])
def test_hardy_index_matches_reference(m, strength, seed):
    model = make_named_model("ssh", sizes=48, m=m, disorder=DisorderSpec(strength=strength, seed=5))
    sample = build_hamiltonian(model, seed)
    P = fermi_projection(diagonalize(sample), 0.0)
    U = fermi_unitary(P)
    # the chiral half; on the full fiber the flat band operator 1 - 2P and
    # the identity, both unitary
    def full_fiber(mat):
        return FermiUnitary(matrix=mat, sample=sample, fiber=sample.lattice.fiber, min_singular=1.0)

    flat = np.eye(sample.dim) - 2 * P.projector
    for arg in (U, full_fiber(flat), full_fiber(np.eye(sample.dim))):
        want = outcome(ref_hardy_index, arg.matrix, sample, arg.fiber)
        got = outcome(hardy_index, arg)
        if isinstance(want, type):
            assert got is want
            continue
        assert (got.value, got.extra["total_small"]) == want


# --- chiral boundary map -----------------------------------------------------

def chiral_3d_surface(sizes=(4, 4, 6), flux=16):
    # surface-gap opener: weak field perpendicular to the surface normal
    model = make_named_model("chiral_3d", sizes=sizes, mass=2.0)
    B = np.zeros((3, 3))
    B[0, 1], B[1, 0] = 2 * np.pi / flux, -2 * np.pi / flux
    return dataclasses.replace(model, field=MagneticFieldSpec(B))


@pytest.mark.parametrize("name, build, split", [
    ("ssh m=0", lambda: make_named_model("ssh", sizes=40, m=0.0), False),
    ("ssh m=2", lambda: make_named_model("ssh", sizes=40, m=2.0), False),
    ("ssh disordered", lambda: make_named_model(
        "ssh", sizes=40, m=0.4, disorder=DisorderSpec(strength=0.3, seed=3)), False),
    ("chiral_3d", chiral_3d_surface, True),
    ("chiral_3d clean surface", lambda: make_named_model("chiral_3d", sizes=(4, 4, 6), mass=2.0),
     True),
])
def test_ind_map_matches_reference(name, build, split):
    model = build()
    half = make_half_space(model, 0.0)
    f = SwitchFunction("ind", half.bulk_gap)
    s_ch = model.symmetry.s_ch
    want = outcome(ref_ind_map, half, f, s_ch, surface_split=split)
    got = outcome(ind_map, half, f, s_ch, surface_split=split)
    if isinstance(want, type):
        # the clean surface band touches mu; the trace still matches
        assert got is want
        got = ind_map(half, f, s_ch)
        want = ref_ind_map(half, f, s_ch)
    assert abs(got.trace_difference - want[0]) < TOL
    if want[1] is None:
        assert got.sector_traces is None
    else:
        assert np.abs(np.subtract(got.sector_traces, want[1])).max() < TOL
