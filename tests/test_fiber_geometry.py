"""Fiber-local operators and lattice geometry against the dense formulas they replace.

The reference functions below are the Kronecker-lift products and the
window / minimal-image loops that the package used before these helpers
existed; every helper must reproduce them on random inputs.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from topoinv import build_hamiltonian, make_named_model
from topoinv.invariants import core_mask, displacement_matrix
from topoinv.models import OPEN, PERIODIC, LatticeSpec, apply_fiber, symmetry_deviation

TOL = 1e-12


# --- references --------------------------------------------------------------

def lift(op, num_sites):
    return np.kron(np.eye(num_sites), op)


def ref_symmetry_deviation(H, op, kind):
    S = lift(op, H.shape[0] // op.shape[0])
    if kind == "tr":
        return np.abs(S.conj().T @ H.conj() @ S - H).max()
    if kind == "ph":
        return np.abs(S.conj().T @ H.conj() @ S + H).max()
    return np.abs(S.conj().T @ H @ S + H).max()


def ref_positions(lat, per_site):
    return np.repeat(lat.site_coords(), per_site, axis=0).astype(float)


def ref_core_mask(lat, rho, center, per_site):
    # invariants.core_mask: LatticeSpec.window on the open axes
    pos = ref_positions(lat, per_site)
    keep = np.ones(pos.shape[0], dtype=bool)
    for axis in range(lat.dimension):
        if lat.boundary[axis] == PERIODIC:
            continue
        n = lat.linear_sizes[axis]
        c = (n - 1) / 2 if center is None else center[axis]
        keep &= np.abs(pos[:, axis] - c) <= rho * n / 2
    return keep


def ref_defect_mask(lat, center, radius_frac, per_site, spinor=1):
    # LatticeSpec.window about a Dirac origin or flux plaquette, as hardy_index,
    # z2_kernel_parity and the flow windows call it
    pos = ref_positions(lat, per_site)
    keep = np.ones(pos.shape[0], dtype=bool)
    for axis in range(lat.dimension):
        n = lat.linear_sizes[axis]
        dx = pos[:, axis] - center[axis]
        if lat.boundary[axis] == PERIODIC:
            dx = (dx + n / 2) % n - n / 2
        keep &= np.abs(dx) <= radius_frac * n
    return np.repeat(keep, spinor) if spinor > 1 else keep


def ref_displacement(lat, axis, per_site):
    # invariants.displacement_matrix
    x = ref_positions(lat, per_site)[:, axis]
    d = x[:, None] - x[None, :]
    if lat.boundary[axis] == PERIODIC:
        n = lat.linear_sizes[axis]
        d = (d + n / 2) % n - n / 2
    return d


# --- strategies --------------------------------------------------------------

def complex_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@st.composite
def lattices(draw):
    d = draw(st.integers(1, 3))
    sizes = tuple(draw(st.integers(2, 8)) for _ in range(d))
    boundary = tuple(draw(st.sampled_from((OPEN, PERIODIC))) for _ in range(d))
    return LatticeSpec(d, sizes, boundary, draw(st.integers(1, 4)))


def centers(lat, rng):
    # half-integer centers (plaquette middles) put sites exactly on the window edge
    if rng.integers(2):
        return np.array([rng.integers(-1, n) + 0.5 for n in lat.linear_sizes])
    return np.array([rng.uniform(-1.0, n) for n in lat.linear_sizes])


def fractions(low, high, grid):
    return st.one_of(st.sampled_from(grid), st.floats(low, high))


# --- fiber-local products ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 6))
def test_apply_fiber_matches_kron_lift(seed, num_sites, p, q, cols):
    rng = np.random.default_rng(seed)
    op = complex_matrix(rng, p, q)
    left = complex_matrix(rng, num_sites * q, cols)
    right = complex_matrix(rng, cols, num_sites * p)
    S = lift(op, num_sites)
    assert np.abs(apply_fiber(op, left, "left") - S @ left).max() < TOL
    assert np.abs(apply_fiber(op, right, "right") - right @ S).max() < TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(1, 4),
       st.sampled_from(("tr", "ph", "ch")))
def test_symmetry_deviation_matches_kron_lift(seed, num_sites, fiber, kind):
    rng = np.random.default_rng(seed)
    op = complex_matrix(rng, fiber, fiber)
    H = complex_matrix(rng, num_sites * fiber, num_sites * fiber)
    assert abs(symmetry_deviation(H, op, kind) - ref_symmetry_deviation(H, op, kind)) < TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(1, 4),
       st.sampled_from(("tr", "ph", "ch")), st.floats(0.0, 1.0))
def test_symmetry_deviation_on_sparse_input(seed, num_sites, fiber, kind, density):
    # the CSR form of a matrix with zero entries and zero blocks: the dense value
    rng = np.random.default_rng(seed)
    op = complex_matrix(rng, fiber, fiber)
    H = complex_matrix(rng, num_sites * fiber, num_sites * fiber)
    H[rng.uniform(size=H.shape) > density] = 0.0
    got = symmetry_deviation(sparse.csr_array(H), op, kind)
    assert abs(got - ref_symmetry_deviation(H, op, kind)) < TOL
    assert got == symmetry_deviation(H, op, kind)


def test_symmetry_deviation_vanishes_on_symmetric_samples():
    model = make_named_model("kitaev_chain", sizes=12, mu=0.3, w_strength=0.5)
    H = build_hamiltonian(model, 4).matrix
    sym = model.symmetry
    for op, kind in ((sym.s_tr, "tr"), (sym.s_ph, "ph"), (sym.s_ch, "ch")):
        assert symmetry_deviation(H, op, kind) < TOL
    assert symmetry_deviation(H, sym.s_tr, "ph") > 0.1


# --- windows and minimal images ----------------------------------------------

@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.booleans())
def test_core_window_matches_reference(lat, seed, per_site, default_center):
    center = None if default_center else centers(lat, np.random.default_rng(seed))
    sample = SimpleNamespace(lattice=lat)
    for reduced in (None, per_site):
        got = core_mask(sample, center, per_site=reduced)
        want = ref_core_mask(lat, 0.5, center, reduced or lat.fiber)
        assert np.array_equal(got, want)
        # about the geometric middle the window always holds a site
        assert center is not None or got.any()


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1), fractions(0.05, 0.6, (0.25, 0.5)),
       st.integers(1, 2))
def test_defect_window_matches_reference(lat, seed, radius_frac, spinor):
    center = centers(lat, np.random.default_rng(seed))
    # full fiber, spinor-extended fiber and the reduced (chiral half) fiber
    assert np.array_equal(lat.window(center, radius_frac),
                          ref_defect_mask(lat, center, radius_frac, lat.fiber))
    assert np.array_equal(lat.window(center, radius_frac, lat.fiber * spinor),
                          ref_defect_mask(lat, center, radius_frac, lat.fiber, spinor))
    per_site = max(lat.fiber // 2, 1)
    assert np.array_equal(lat.window(center, radius_frac, per_site * spinor),
                          ref_defect_mask(lat, center, radius_frac, per_site * spinor))


@settings(max_examples=80, deadline=None)
@given(lattices(), st.integers(1, 4))
def test_minimal_image_displacements_match_reference(lat, per_site):
    sample = SimpleNamespace(lattice=lat)
    for axis in range(lat.dimension):
        for reduced in (None, per_site):
            got = displacement_matrix(sample, axis, reduced)
            want = ref_displacement(lat, axis, reduced or lat.fiber)
            assert np.abs(got - want).max() < TOL
    assert np.array_equal(lat.positions(per_site), ref_positions(lat, per_site))
