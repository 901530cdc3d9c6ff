"""Windowed-trace kernels against the full-product formulas they replace.

The reference functions below are the invariant kernels as the package had
them before every trace went through one windowed-trace helper: each formed
the full dim x dim product (or its powers, or 64 linear solves) and kept
only the diagonal entries it summed.  The boundary references also solve
the open sample in full, where the package reads only the eigenpairs in the
certified bulk gap.  Every kernel must reproduce them on random small
samples, periodic and open, in d = 1, 2 and 3.

The Fermi projections the tasks use come from occupied solves, which hold
only the eigenpairs up to the first level above mu; the last section holds
them, and every invariant read from them, to the full decomposition.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse

from topoinv import (
    DisorderSpec,
    HalfSpaceSample,
    HamiltonianSample,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    SwitchFunction,
    boundary_current,
    build_hamiltonian,
    chern_projection,
    chern_unitary,
    diagonalize,
    dirac_phase,
    exp_map,
    fermi_projection,
    fermi_unitary,
    make_named_model,
    occupied_projection,
    pair_index,
    spin_chern,
    spin_edge_current,
    veg_invariant,
    z2_kernel_parity,
)
from topoinv.boundary import _layer_indices, _near_window
from topoinv.errors import NoGapError, NotConvergedError
from topoinv.invariants import (
    FermiUnitary,
    _odd_coeff,
    core_mask,
    displacement_matrix,
    nc_derivative,
    trs_fredholm,
)
from topoinv.models import OPEN, PERIODIC, apply_fiber

TOL = 1e-12


# --- references --------------------------------------------------------------

def ref_signed_permutations(I):
    for perm in itertools.permutations(I):
        inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                  if perm[i] > perm[j])
        yield perm, -1 if inv % 2 else +1


def ref_region(sample):
    # harness._region: every site on a full torus, else the core window
    return "all" if all(b == PERIODIC for b in sample.lattice.boundary) else "core"


def ref_trace_per_volume(A, sample, region):
    diag = np.diag(A)
    if region == "all":
        return complex(diag.sum() / sample.lattice.num_sites)
    keep = core_mask(sample)
    return complex(diag[keep].sum() / (int(keep.sum()) // sample.lattice.fiber))


def ref_chern_even(P, sample, I, region):
    # invariants._chern_even: np.diag of the full products
    half = len(I) // 2
    coeff = (2j * np.pi) ** half / math.factorial(half)
    dP = {i: nc_derivative(P, sample, i - 1) for i in I}
    total = 0.0
    for perm, sgn in ref_signed_permutations(I):
        M = P.copy()
        for i in perm:
            M = M @ dP[i]
        total += sgn * ref_trace_per_volume(M, sample, region)
    return coeff * total


def ref_chern_unitary(mat, I, sample, per_site, region):
    # invariants.chern_unitary: eye @ products and np.diag(M)[keep]
    lat = sample.lattice
    inv = np.linalg.inv(mat)
    dU = {i: inv @ (1j * displacement_matrix(sample, i - 1, per_site) * mat) for i in I}
    if region == "core":
        keep = core_mask(sample, per_site=per_site)
        norm = keep.sum() / (mat.shape[0] / lat.num_sites)
    else:
        keep = np.ones(mat.shape[0], dtype=bool)
        norm = lat.num_sites
    total = 0.0
    for perm, sgn in ref_signed_permutations(I):
        M = np.eye(mat.shape[0], dtype=complex)
        for i in perm:
            M = M @ dU[i]
        total += sgn * np.diag(M)[keep].sum() / norm
    return _odd_coeff(len(I)) * total


def ref_pair_index(P, power):
    # invariants.pair_index: np.linalg.matrix_power
    dirac = dirac_phase(P.sample)
    g = dirac.G
    D = (g[:, None] * P.projector) * g.conj()[None, :] - P.projector
    M = np.linalg.matrix_power(D, power)
    keep = core_mask(P.sample, center=dirac.origin)
    return np.diag(M)[keep].sum()


def ref_veg(sample, mu, n_t, margin=0.5):
    # invariants.veg_invariant: n_t linear solves and six traced 6-factor products
    w = diagonalize(sample).eigenvalues
    lo = w.min()
    center = 0.5 * (lo - margin + mu)
    radius = 0.5 * (mu - lo + margin)
    zs = center + radius * np.exp(2j * np.pi * np.arange(n_t) / n_t)
    H = sample.matrix
    Iden = np.eye(H.shape[0])
    Gs = [np.linalg.solve(H - z * Iden, Iden) for z in zs]
    d1 = displacement_matrix(sample, 0)
    d2 = displacement_matrix(sample, 1)
    total = 0.0
    for k in range(n_t):
        G = Gs[k]
        dtG = (Gs[(k + 1) % n_t] - G) * n_t
        slots = {0: dtG, 1: 1j * d1 * G, 2: 1j * d2 * G}
        Ginv = H - zs[k] * Iden
        for perm, sgn in ref_signed_permutations((0, 1, 2)):
            M = Ginv @ slots[perm[0]] @ Ginv @ slots[perm[1]] @ Ginv @ slots[perm[2]]
            total += sgn * np.trace(M) / (sample.lattice.num_sites * n_t)
    return total / 6.0


def ref_edge_pairing(half, f, window, observable=None):
    # boundary._edge_pairing: full decomposition, einsum over all rows, then the window
    eigen, sample = diagonalize(half.hamiltonian), half.hamiltonian
    fp = eigen.function_of(f.derivative(eigen.eigenvalues))
    current = 1j * displacement_matrix(sample, 0) * sample.matrix
    if observable is not None:
        current = 0.5 * (apply_fiber(observable, current, "right")
                         + apply_fiber(observable, current, "left"))
    dens = np.einsum("ij,ji->i", fp, current)
    transverse = np.prod(sample.lattice.linear_sizes[:-1])
    return float(2 * np.pi * dens[window].sum().real / transverse)


def ref_exp_map(half, f):
    # boundary.exp_map: the dense unitary from the full decomposition, and the
    # spectral norm of each depth layer's columns of U - 1
    eig = diagonalize(half.hamiltonian)
    U = eig.function_of(np.exp(2j * np.pi * f(eig.eigenvalues)))
    D = U - np.eye(U.shape[0])
    n_d = half.lattice.linear_sizes[-1]
    profile = np.array([np.linalg.norm(D[:, _layer_indices(half.hamiltonian, l)], 2)
                        for l in range(n_d)])
    return U, profile


def ref_decay_length(profile):
    # boundary.exp_map: log-linear fit of the three-layer envelope over the near half
    n_d = len(profile)
    upper = max(3, n_d // 2)
    env = np.array([profile[l:min(l + 3, n_d)].max() for l in range(upper)])
    xs = np.arange(upper)
    good = env > 1e-14
    if good.sum() >= 2:
        slope = np.polyfit(xs[good], np.log(env[good]), 1)[0]
        return -1.0 / slope if slope < 0 else np.inf
    return 0.0


# --- random samples ----------------------------------------------------------

def complex_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def unitary(rng, n):
    q, r = np.linalg.qr(complex_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def lattices(draw, dims=(1, 2, 3), last_open=False):
    d = draw(st.sampled_from(dims))
    sizes = tuple(draw(st.integers(2, {1: 8, 2: 5, 3: 3}[d])) for _ in range(d))
    boundary = [draw(st.sampled_from((OPEN, PERIODIC))) for _ in range(d)]
    if last_open:
        boundary[-1] = OPEN
    return LatticeSpec(d, sizes, tuple(boundary), draw(st.integers(1, 3)))


def random_sample(lat, rng, spectrum, vectors=None):
    """Dense Hermitian matrix on the lattice with the given eigenvalues and
    eigenvectors (random unless given)."""
    V = unitary(rng, lat.hilbert_dim) if vectors is None else vectors
    H = (V * spectrum) @ V.conj().T
    model = ModelDefinition(lat, MagneticFieldSpec.zero(lat.dimension), (),
                            np.zeros((lat.fiber, lat.fiber)))
    return HamiltonianSample(csr=sparse.csr_array(0.5 * (H + H.conj().T)), model=model,
                             realization_seed=0)


def edge_sample(lat, rng, levels, bulk):
    """Sample whose eigenvectors for `levels` decay away from the near face of
    the open last axis; the `bulk` eigenvectors span the rest."""
    depth = lat.positions()[:, -1]
    n, k = lat.hilbert_dim, len(levels)
    edge = complex_matrix(rng, n, k) * np.exp(-depth / rng.uniform(0.7, 2.0))[:, None]
    Q, _ = np.linalg.qr(np.hstack([edge, complex_matrix(rng, n, n - k)]))
    return random_sample(lat, rng, np.concatenate([levels, bulk]), vectors=Q)


def gapped_projection(lat, rng):
    """Fermi projection at mu = 0 of a random sample gapped on (-0.5, 0.5)."""
    n = lat.hilbert_dim
    w = rng.uniform(0.5, 3.0, n) * np.where(np.arange(n) % 2, 1.0, -1.0)
    return fermi_projection(diagonalize(random_sample(lat, rng, w)), 0.0)


SEEDS = st.integers(0, 2 ** 32 - 1)


# --- cocycles ----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(lattices(dims=(2, 3)), SEEDS, st.data())
def test_chern_projection_matches_reference(lat, seed, data):
    P = gapped_projection(lat, np.random.default_rng(seed))
    pairs = [(1, 2)] if lat.dimension == 2 else [(1, 2), (1, 3), (2, 3)]
    I = data.draw(st.sampled_from(pairs))
    region = ref_region(P.sample)
    assert core_mask(P.sample).any()
    got = chern_projection(P, I).raw
    assert abs(got - ref_chern_even(P.projector, P.sample, I, region)) < TOL
    # |I| = 0 is the windowed state density
    got = chern_projection(P, ()).raw
    assert abs(got - ref_trace_per_volume(P.projector, P.sample, region)) < TOL


@settings(max_examples=40, deadline=None)
@given(lattices(), SEEDS, st.data())
def test_chern_unitary_matches_reference(lat, seed, data):
    rng = np.random.default_rng(seed)
    # full fiber (fiber=None) or a reduced space of fewer orbitals per site
    reduced = data.draw(st.one_of(st.none(), st.integers(1, lat.fiber)))
    per_site = reduced or lat.fiber
    sample = random_sample(lat, rng, np.zeros(lat.hilbert_dim))
    n = lat.num_sites * per_site
    mat = unitary(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ unitary(rng, n)
    sets = [(a,) for a in range(1, lat.dimension + 1)] + ([(1, 2, 3)] if lat.dimension == 3 else [])
    I = data.draw(st.sampled_from(sets))
    U = FermiUnitary(matrix=mat, sample=sample, fiber=per_site,
                     min_singular=np.linalg.svd(mat, compute_uv=False).min())
    assert core_mask(sample, per_site=per_site).any()
    got = chern_unitary(U, I).raw
    assert abs(got - ref_chern_unitary(mat, I, sample, per_site, ref_region(sample))) < TOL


@pytest.mark.parametrize("size, mass, strength", [(3, 2.0, 0.0), (3, -2.0, 0.6), (4, 2.0, 0.4),
                                                  (4, 4.0, 0.8)])
def test_chern_unitary_three_axes_on_chiral_tori(size, mass, strength):
    # |I| = 3 on a torus, the Fermi unitary and its inverse read from the chiral solve
    model = make_named_model("chiral_3d", sizes=size, mass=mass,
                             disorder=DisorderSpec("symmetry-constrained-matrix", strength, 5))
    U = fermi_unitary(occupied_projection(build_hamiltonian(model, 1), 0.0))
    want = ref_chern_unitary(U.matrix, (1, 2, 3), U.sample, U.fiber, "all")
    assert abs(chern_unitary(U, (1, 2, 3)).raw - want) < TOL


# --- index pairings ----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(6, 9), st.sampled_from((-1.0, 1.0, 3.0)), st.floats(0.0, 1.5),
       st.sampled_from((3, 5)))
def test_pair_index_matches_reference(seed, size, mass, strength, power):
    model = make_named_model("qwz", sizes=size, mass=mass, boundary=(OPEN, OPEN),
                             disorder=DisorderSpec(strength=strength, seed=seed))
    sample = build_hamiltonian(model)
    P = fermi_projection(diagonalize(sample), 0.0)
    want = ref_pair_index(P, power)
    if abs(want.real - round(want.real)) > 0.1:
        with pytest.raises(NotConvergedError):
            pair_index(P, power)
        return
    assert abs(pair_index(P, power).raw - want) < TOL


@settings(max_examples=15, deadline=None)
@given(lattices(dims=(2, 3)), SEEDS, st.sampled_from((3, 4, 8)))
def test_veg_invariant_matches_reference(lat, seed, n_t):
    P = gapped_projection(lat, np.random.default_rng(seed))
    got = veg_invariant(P, n_t=n_t).raw
    assert abs(got - ref_veg(P.sample, P.mu, n_t)) < TOL


# --- edge pairings -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(lattices(last_open=True), SEEDS)
def test_boundary_current_matches_reference(lat, seed):
    rng = np.random.default_rng(seed)
    # spectrum across the switch interval, so f'(H) has weight
    sample = random_sample(lat, rng, rng.uniform(-2.0, 2.0, lat.hilbert_dim))
    half = HalfSpaceSample(hamiltonian=sample, bulk_gap=(-1.0, 1.0), mu=0.0)
    f = SwitchFunction("exp", (-1.0, 1.0))
    near = _near_window(sample)
    for orientation, window in (("near", near), ("far", ~near)):
        got = boundary_current(half, f, orientation)
        assert abs(got - ref_edge_pairing(half, f, window)) < TOL
    s_z = np.diag(rng.normal(size=lat.fiber))
    got, _ = spin_edge_current(half, f, s_z)
    assert abs(got - ref_edge_pairing(half, f, near, observable=s_z)) < TOL


# bulk gaps with both sides finite or one side infinite, and the switch inside
BULK_GAPS = st.sampled_from(((-1.0, 1.0), (-np.inf, 1.0), (-1.0, np.inf)))


@settings(max_examples=40, deadline=None)
@given(lattices(last_open=True), SEEDS, BULK_GAPS, st.data())
def test_exp_map_matches_reference(lat, seed, bulk_gap, data):
    # the envelope fit of the depth profile reads three layers
    assume(lat.linear_sizes[-1] >= 3)
    rng = np.random.default_rng(seed)
    n = lat.hilbert_dim
    # in-gap levels inside the switch and, where the bulk gap is wider, outside
    # it; some of them exactly doubly degenerate
    lo, hi = max(bulk_gap[0], -2.5), min(bulk_gap[1], 2.5)
    distinct = rng.uniform(lo + 0.05, hi - 0.05, data.draw(st.integers(0, min(4, n // 3))))
    levels = np.concatenate([distinct, distinct[:data.draw(st.integers(0, len(distinct)))]])
    # bulk levels on each finite side of the bulk gap
    sides = [s for s, g in ((-1.0, bulk_gap[0]), (1.0, bulk_gap[1])) if np.isfinite(g)]
    bulk = rng.choice(sides, n - len(levels)) * rng.uniform(1.2, 3.0, n - len(levels))
    sample = edge_sample(lat, rng, levels, bulk)
    half = HalfSpaceSample(hamiltonian=sample, bulk_gap=bulk_gap, mu=0.0)
    f = SwitchFunction("exp", (-1.0, 1.0))
    bu = exp_map(half, f)
    U, profile = ref_exp_map(half, f)
    assert np.abs(bu.depth_profile - profile).max() < TOL
    # decay_length is the reference fit of the depth profile ...
    xi = ref_decay_length(bu.depth_profile)
    assert bu.decay_length == xi or abs(bu.decay_length - xi) < TOL * max(1.0, xi)
    # ... and that of the reference profile, compared as fitted slopes (a flat
    # profile's length is unbounded).  The dense reference rounds U - 1 at about
    # dim * eps, so the slopes agree to TOL where every fitted envelope value
    # exceeds 1e-2.
    n_d = len(profile)
    if min(profile[l:l + 3].max() for l in range(max(3, n_d // 2))) > 1e-2:
        assert abs(1 / bu.decay_length - 1 / ref_decay_length(profile)) < TOL
    assert np.abs(bu.matrix - U).max() < TOL


# --- occupied solves -----------------------------------------------------------

def full_projection(sample, mu=None, states=None):
    """The Fermi projection from the full decomposition, mu as occupied_projection takes it."""
    full = diagonalize(sample)
    if states is not None:
        mu = 0.5 * (full.eigenvalues[states - 1] + full.eigenvalues[states])
    return fermi_projection(full, mu)


def assert_same_projection(got, want):
    assert got.eigen.window[0] == -np.inf
    assert got.rank == want.rank
    assert abs(got.mu - want.mu) < TOL
    for a, b in zip(got.gap, want.gap):
        assert a == b or abs(a - b) < TOL
    assert np.abs(got.projector - want.projector).max(initial=0.0) < TOL
    # the window holds every level up to its edge, and the first level above mu
    w_all = want.eigen.eigenvalues
    lo, hi = got.eigen.window
    assert len(got.eigen.eigenvalues) == (w_all <= hi).sum()
    assert hi == np.inf or got.eigen.eigenvalues[-1] > want.mu


@st.composite
def occupied_spectra(draw):
    """A lattice, levels on a 0.1 grid with many exact degeneracies (or Kramers
    pairs throughout) and mu halfway between grid points, below every level,
    above every level or inside.  The levels above mu are taken as drawn,
    moved far up (a first level above mu at the far end of the spectrum) or
    merged into one flat band reaching the top."""
    lat = draw(lattices(dims=(2, 3)))
    n = lat.hilbert_dim
    levels = 0.1 * np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    if n % 2 == 0 and draw(st.booleans()):
        levels = np.repeat(levels[:n // 2], 2)
    mu = 0.1 * draw(st.integers(-22, 21)) + 0.05
    above = levels > mu
    shape = draw(st.sampled_from(("as drawn", "far", "flat")))
    if shape == "far":
        levels[above] += 20.0
    elif shape == "flat":
        levels[above] = 2.5
    return lat, levels, mu


@settings(max_examples=60, deadline=None)
@given(occupied_spectra(), SEEDS, st.data())
def test_occupied_projection_matches_full(case, seed, data):
    lat, levels, mu = case
    rng = np.random.default_rng(seed)
    sample = random_sample(lat, rng, rng.permutation(levels))
    got, want = occupied_projection(sample, mu), full_projection(sample, mu)
    assert_same_projection(got, want)
    pairs = [(1, 2)] if lat.dimension == 2 else [(1, 2), (1, 3), (2, 3)]
    I = data.draw(st.sampled_from(pairs))
    assert abs(chern_projection(got, I).raw - chern_projection(want, I).raw) < TOL
    # a mu_states request: the lowest k levels and the one at index k
    k = data.draw(st.integers(1, lat.hilbert_dim - 1))
    w = np.sort(levels)
    if w[k] - w[k - 1] < 1e-6:
        for build in (occupied_projection, full_projection):
            with pytest.raises(NoGapError):
                build(sample, states=k)
        return
    assert_same_projection(occupied_projection(sample, states=k), full_projection(sample, states=k))


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(6, 9), st.sampled_from((-1.0, 1.0, 3.0)), st.floats(0.0, 1.5))
def test_occupied_pair_index_and_core_chern(seed, size, mass, strength):
    model = make_named_model("qwz", sizes=size, mass=mass, boundary=(OPEN, OPEN),
                             disorder=DisorderSpec(strength=strength, seed=seed))
    sample = build_hamiltonian(model)
    try:
        want = full_projection(sample, 0.0)
    except NoGapError:
        with pytest.raises(NoGapError):
            occupied_projection(sample, 0.0)
        return
    got = occupied_projection(sample, 0.0)
    assert_same_projection(got, want)
    assert abs(chern_projection(got, (1, 2)).raw - chern_projection(want, (1, 2)).raw) < TOL
    try:
        ref = pair_index(want).raw
    except NotConvergedError:
        with pytest.raises(NotConvergedError):
            pair_index(got)
        return
    assert abs(pair_index(got).raw - ref) < TOL


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(8, 40), st.sampled_from((-1.5, -0.5, 0.0, 0.3, 2.0)),
       st.floats(0.0, 0.4))
def test_occupied_fermi_unitary_winding(seed, size, m, strength):
    model = make_named_model("ssh", sizes=size, m=m, disorder=DisorderSpec(strength=strength, seed=1))
    sample = build_hamiltonian(model, seed)
    got, want = occupied_projection(sample, 0.0), full_projection(sample, 0.0)
    assert_same_projection(got, want)
    U, V = fermi_unitary(got), fermi_unitary(want)
    assert abs(U.min_singular - V.min_singular) < TOL
    assert abs(chern_unitary(U, (1,)).raw - chern_unitary(V, (1,)).raw) < TOL


@pytest.mark.parametrize("size, mass, strength, seed", [
    (6, 1.0, 0.0, 0), (6, 3.5, 0.3, 1), (8, 1.0, 0.0, 0), (8, 1.0, 0.3, 2), (8, 3.5, 0.3, 1)])
def test_occupied_z2_parity_and_spin_chern(size, mass, strength, seed):
    # Kramers-degenerate spectra: time reversal is odd and survives the disorder
    dis = DisorderSpec(strength=strength, seed=29)
    open_model = make_named_model("kane_mele_qsh", sizes=size, boundary="open", mass=mass,
                                  rashba=0.1, disorder=dis)
    sample = build_hamiltonian(open_model, seed)
    got, want = occupied_projection(sample, 0.0), full_projection(sample, 0.0)
    assert_same_projection(got, want)
    dp = dirac_phase(sample)
    res_got = z2_kernel_parity(trs_fredholm(got))
    res_want = z2_kernel_parity(trs_fredholm(want))
    assert res_got.value == res_want.value
    assert res_got.extra["total_small"] == res_want.extra["total_small"]
    # the margin is a ratio of singular values of T = P G P + (1 - P), each of
    # which moves by at most delta = ||T_got - T_want|| (Weyl), so its relative
    # change is at most 2 delta / s_min to first order; on these samples that
    # bound is < 1e-9
    T_got, T_want = (P.projector @ (dp.G[:, None] * P.projector) + np.eye(sample.dim)
                     - P.projector for P in (got, want))
    delta = np.linalg.norm(T_got - T_want, 2)
    bound = 2 * delta / np.linalg.svd(T_want, compute_uv=False).min()
    assert bound < 1e-9
    margin = res_want.extra["margin"]
    assert abs(res_got.extra["margin"] - margin) <= max(TOL, bound) * margin

    torus = make_named_model("kane_mele_qsh", sizes=size, mass=mass, rashba=0.1, disorder=dis)
    sample = build_hamiltonian(torus, seed)
    got, want = occupied_projection(sample, 0.0), full_projection(sample, 0.0)
    assert_same_projection(got, want)
    res_got, res_want = (spin_chern(P, torus.metadata["s_z"]) for P in (got, want))
    assert abs(res_got.raw - res_want.raw) < TOL
    assert abs(res_got.extra["spin_gap"] - res_want.extra["spin_gap"]) < TOL
    assert abs(res_got.extra["sum_rule_residue"] - res_want.extra["sum_rule_residue"]) < TOL
