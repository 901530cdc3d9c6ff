"""The closed-form axial gauge against the per-site walk it replaced.

The reference functions below are the assembly and the translations as the
package had them before every bond came from one vectorized table: a unit
step at a time, site by site, with the seam correction added on each
wrapping step.  `build_hamiltonian`, `magnetic_translations` and
`dual_translations` must reproduce them on random lattices, fields,
hoppings and disorder.  When no displacement moves more than one step
along an axis, every bond (source, target, gauge phase) is the walk's bit
for bit and the assembled matrix agrees to the rounding of one complex
product; otherwise it agrees to 1e-12 (the closed form sums the phases of
a multi-step move in another order).

The dense scatter below is the assembly the package had before it built
each sample in CSR form: the CSR assembly, its dense matrix and the
translations must equal it byte for byte.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from topoinv.models import (
    MODEL_NAMES,
    OPEN,
    PERIODIC,
    DisorderSpec,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    _bonds,
    _translation,
    build_hamiltonian,
    dual_translations,
    magnetic_translations,
    make_named_model,
)

TOL = 1e-12
# numpy rounds a complex product exp(i phase) t on its length-1 loop (a hopping
# with one bond) differently from its vector loops, by about an ulp of each
# product; that difference is carried through the sums into an entry
PRODUCT_ROUNDING = 4 * np.finfo(float).eps


# --- references --------------------------------------------------------------

def ref_step_phase(coord, axis, direction, lattice, B):
    """One unit step: (new coordinate or None off an open lattice, phase)."""
    d = lattice.dimension
    sizes = lattice.linear_sizes
    m = coord.copy()
    if direction > 0:
        phase = float(sum(B[axis, j] * m[j] for j in range(axis + 1, d)))
        m[axis] += 1
        if m[axis] == sizes[axis]:
            if lattice.boundary[axis] == OPEN:
                return None, 0.0
            m[axis] = 0
            for i in range(axis):
                phase += -B[i, axis] * sizes[axis] * m[i]
        return m, phase
    # backward step: adjoint of the forward step from the target
    m[axis] -= 1
    if m[axis] < 0:
        if lattice.boundary[axis] == OPEN:
            return None, 0.0
        m[axis] = sizes[axis] - 1
    _, phase = ref_step_phase(m, axis, +1, lattice, B)
    return m, -phase


def ref_peierls_target(coord, a, lattice, B):
    """Target site index and gauge phase for displacement a, stepping axis by axis."""
    m = np.array(coord, dtype=int)
    phase = 0.0
    for axis in range(lattice.dimension):
        step = 1 if a[axis] > 0 else -1
        for _ in range(abs(a[axis])):
            m, ph = ref_step_phase(m, axis, step, lattice, B)
            if m is None:
                return None, 0.0
            phase += ph
    index = 0
    for j in range(lattice.dimension):
        index = index * lattice.linear_sizes[j] + int(m[j])
    return index, phase


def ref_site_matrices(disorder, num_sites, fiber, realization_seed, symmetry):
    """On-site disorder with the per-site diagonal loop of the matrix family."""
    if disorder.family != "diagonal-matrix" or disorder.strength == 0.0:
        return disorder.sample_site_matrices(num_sites, fiber, realization_seed, symmetry)
    rng = np.random.default_rng(np.random.SeedSequence((disorder.seed, realization_seed)))
    u = rng.uniform(-1.0, 1.0, size=(num_sites, fiber))
    return np.array([disorder.strength * np.diag(row) for row in u], dtype=complex)


def ref_build_hamiltonian(model, realization_seed=0):
    lat = model.lattice
    L = lat.fiber
    coords = lat.site_coords()
    H = np.zeros((lat.hilbert_dim,) * 2, dtype=complex)
    for a, t in model.positive_hoppings():
        for n in range(lat.num_sites):
            target, phase = ref_peierls_target(coords[n], a, lat, model.field.B)
            if target is None:
                continue
            H[target * L:(target + 1) * L, n * L:(n + 1) * L] += np.exp(1j * phase) * t
    H = H + H.conj().T
    omega = ref_site_matrices(model.disorder, lat.num_sites, L, realization_seed, model.symmetry)
    for n in range(lat.num_sites):
        H[n * L:(n + 1) * L, n * L:(n + 1) * L] += model.onsite + omega[n]
    return H


def ref_magnetic_translations(lattice, B):
    coords = lattice.site_coords()
    out = []
    for axis in range(lattice.dimension):
        U = np.zeros((lattice.num_sites,) * 2, dtype=complex)
        for n in range(lattice.num_sites):
            target, phase = ref_peierls_target(coords[n], np.eye(lattice.dimension, dtype=int)[axis],
                                               lattice, B)
            U[target, n] = np.exp(1j * phase)
        out.append(np.kron(U, np.eye(lattice.fiber)))
    return out


def ref_dual_translations(lattice, B):
    d = lattice.dimension
    Bm = -B[::-1, ::-1].copy()
    lat_m = LatticeSpec(d, lattice.linear_sizes[::-1], lattice.boundary[::-1], 1)
    coords_m = lat_m.site_coords()
    native_index = {tuple(c): i for i, c in enumerate(lattice.site_coords())}
    out = []
    for axis in range(d):
        V = np.zeros((lattice.num_sites,) * 2, dtype=complex)
        for nm in range(lattice.num_sites):
            target_m, phase = ref_peierls_target(coords_m[nm], np.eye(d, dtype=int)[d - 1 - axis],
                                                 lat_m, Bm)
            V[native_index[tuple(coords_m[target_m][::-1])],
              native_index[tuple(coords_m[nm][::-1])]] = np.exp(1j * phase)
        out.append(np.kron(V, np.eye(lattice.fiber)))
    return out


def scatter(out, bonds, t):
    """out[target block, source block] += exp(i phase) t for every bond."""
    src, tgt, phase = bonds
    N, L = len(out) // len(t), len(t)
    out.reshape(N, L, N, L)[tgt, :, src, :] += np.exp(1j * phase)[:, None, None] * t


def scatter_hamiltonian(model, realization_seed=0):
    """The dense assembly: the positive hoppings scattered in turn, the adjoint
    added, then the on-site blocks."""
    lat = model.lattice
    N, L = lat.num_sites, lat.fiber
    H = np.zeros((lat.hilbert_dim,) * 2, dtype=complex)
    for a, t in model.positive_hoppings():
        scatter(H, _bonds(lat, model.field.B, a), t)
    H = H + H.conj().T
    omega = model.disorder.sample_site_matrices(N, L, realization_seed, model.symmetry)
    sites = np.arange(N)
    H.reshape(N, L, N, L)[sites, :, sites, :] += model.onsite + omega
    return H


def assert_assembly_is_the_scatter(model, realization_seed):
    """The sample's CSR form holds no zero, and it, its dense matrix and (on a torus)
    each translation equal the dense scatter byte for byte."""
    sample = build_hamiltonian(model, realization_seed)
    want = scatter_hamiltonian(model, realization_seed)
    assert np.all(sample.csr.data) and sample.csr.has_canonical_format
    assert sample.matrix.tobytes() == want.tobytes()
    if any(flag != PERIODIC for flag in model.lattice.boundary):
        return
    seen = []

    def spy(lattice, bonds):
        seen.append((lattice, bonds))
        return _translation(lattice, bonds)

    with mock.patch("topoinv.models._translation", spy):
        got = magnetic_translations(model.lattice, model.field.B)
        got += dual_translations(model.lattice, model.field.B)
    assert len(seen) == len(got) == 2 * model.lattice.dimension
    for U, (lattice, bonds) in zip(got, seen):
        want = np.zeros((lattice.hilbert_dim,) * 2, dtype=complex)
        scatter(want, bonds, np.eye(lattice.fiber))
        assert U.tobytes() == want.tobytes()


# --- strategies --------------------------------------------------------------

@st.composite
def lattices(draw, boundaries=(OPEN, PERIODIC)):
    d = draw(st.integers(1, 3))
    sizes = tuple(draw(st.integers(2, 5)) for _ in range(d))
    boundary = tuple(draw(st.sampled_from(boundaries)) for _ in range(d))
    return LatticeSpec(d, sizes, boundary, draw(st.integers(1, 3)))


@st.composite
def fields(draw, lat):
    """Antisymmetric B, a whole number of flux quanta on every periodic axis pair."""
    d = lat.dimension
    B = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            if lat.boundary[i] == lat.boundary[j] == PERIODIC:
                quanta = draw(st.integers(-3, 3))
                B[i, j] = 2 * np.pi * quanta / (lat.linear_sizes[i] * lat.linear_sizes[j])
            else:
                B[i, j] = draw(st.floats(-np.pi, np.pi))
            B[j, i] = -B[i, j]
    return B


def canonical(a):
    """The representative of {a, -a} whose first nonzero entry is positive."""
    first = next(c for c in a if c != 0)
    return a if first > 0 else tuple(-c for c in a)


@st.composite
def models(draw):
    lat = draw(lattices())
    d, L = lat.dimension, lat.fiber
    B = draw(fields(lat))
    steps = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    displacements = sorted({canonical(a) for a in draw(st.lists(steps, min_size=1, max_size=3))})
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hops = []
    for a in displacements:
        t = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
        hops += [(a, t), (tuple(-c for c in a), t.conj().T)]
    h = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
    disorder = DisorderSpec(
        family=draw(st.sampled_from(DisorderSpec._FAMILIES)),
        strength=draw(st.sampled_from((0.0, 0.3, 1.7))),
        seed=draw(st.integers(0, 1000)),
    )
    return ModelDefinition(lat, MagneticFieldSpec(B), tuple(hops), h + h.conj().T, disorder)


def single_steps(model):
    return all(abs(c) <= 1 for a, _ in model.hoppings for c in a)


def assert_bonds_are_the_walk(model):
    """Each positive hopping's (source, target, phase) from `_bonds` is the walk's, bit for bit."""
    lat, B = model.lattice, model.field.B
    coords = lat.site_coords()
    for a, _ in model.positive_hoppings():
        walk = [(n, *ref_peierls_target(coords[n], a, lat, B)) for n in range(lat.num_sites)]
        walk = [(n, g, p) for n, g, p in walk if g is not None]
        src, tgt, phase = _bonds(lat, B, a)
        assert src.tolist() == [n for n, _, _ in walk] and tgt.tolist() == [g for _, g, _ in walk]
        assert phase.tobytes() == np.array([p for _, _, p in walk], dtype=float).tobytes()


# a 2 x 2 open lattice with one (1, -1) bond, of phase 1: the one-bond product
# exp(1j) t rounds its real part to -0.09238691950120304 in `build_hamiltonian`
# and to -0.09238691950120306 in the walk
_ONE_BOND_T = np.array([[1.3040000451301372 + 0.9470809631292422j]])
ONE_BOND = ModelDefinition(
    LatticeSpec(2, (2, 2), (OPEN, OPEN), 1), MagneticFieldSpec.two_dimensional(1.0),
    (((1, -1), _ONE_BOND_T), ((-1, 1), _ONE_BOND_T.conj().T)), np.zeros((1, 1)))


# --- tests -------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 50))
@example(ONE_BOND, 0)
def test_build_hamiltonian_matches_walk(model, realization_seed):
    H = build_hamiltonian(model, realization_seed).matrix
    R = ref_build_hamiltonian(model, realization_seed)
    if single_steps(model):
        assert_bonds_are_the_walk(model)
        scale = (sum(np.abs(t).max() for _, t in model.hoppings) + np.abs(model.onsite).max()
                 + model.disorder.strength)
        assert np.abs(H - R).max() <= PRODUCT_ROUNDING * scale
    else:
        assert np.abs(H - R).max() <= TOL


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translations_match_walk(data):
    lat = data.draw(lattices(boundaries=(PERIODIC,)))
    B = data.draw(fields(lat))
    for kind, ref in ((magnetic_translations, ref_magnetic_translations),
                      (dual_translations, ref_dual_translations)):
        got, want = kind(lat, B), ref(lat, B)
        assert len(got) == len(want) == lat.dimension
        for U, R in zip(got, want):
            assert np.array_equal(U, R)



@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 50))
@example(ONE_BOND, 0)
def test_assembly_is_the_dense_scatter(model, realization_seed):
    assert_assembly_is_the_scatter(model, realization_seed)


# every zoo model at the sizes the tests use, both boundaries, with disorder
ZOO_SIZES = {"ssh": (8, 64), "harper": ((12, 8), 24), "qwz": (10, 16),
             "kane_mele_qsh": (8, 12), "kitaev_chain": (16, 64), "chiral_3d": (4, 6)}
ZOO_PARAMS = {"ssh": {"m": 0.5}, "kane_mele_qsh": {"rashba": 0.3, "zeeman": 0.1},
              "kitaev_chain": {"mu": 0.3}, "chiral_3d": {"mass": 1.0}}


@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
@pytest.mark.parametrize("family", DisorderSpec._FAMILIES)
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_zoo_assembly_is_the_dense_scatter(name, family, boundary):
    for sizes in ZOO_SIZES[name]:
        model = make_named_model(name, sizes=sizes, boundary=boundary,
                                 disorder=DisorderSpec(family, 0.3, seed=5),
                                 **ZOO_PARAMS.get(name, {}))
        assert_assembly_is_the_scatter(model, 3)
