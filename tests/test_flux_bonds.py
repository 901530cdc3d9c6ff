"""Flux insertion on the bond table against the dense string-phase reference.

`ref_insert_flux` is the earlier implementation: it forms the N^2 arrays of
every (source, target) pair, reads the bonds off |H| > 0 and unrolls wrap
bonds by minimal image.  On every plaquette away from the wrap column the
bond-table `insert_flux` must give the same matrix entry by entry (values,
not bytes: the reference also multiplies the zeros between non-bonds by
phases, which flips the sign of some zeros).  On the wrap column of a
periodic axis 0 the reference is not Hermitian; the bond table is.
"""

import numpy as np
import pytest
from scipy import sparse

from topoinv import (
    DisorderSpec,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    build_hamiltonian,
    insert_flux,
    make_named_model,
)
from topoinv.errors import BadDimensionError, ParamOutOfRangeError
from topoinv.models import OPEN, PERIODIC, HamiltonianSample

TS = np.union1d(np.linspace(0.0, 1.0, 21), np.arange(65) / 64)


def _ref_string_phases(x_from, y_from, x_to, y_to, px, py, t, active, half=False):
    dx = x_to - x_from
    out = np.ones(dx.shape, dtype=complex)
    moving = dx != 0
    s = np.zeros_like(dx)
    s[moving] = (px - x_from[moving]) / dx[moving]
    crossing = moving & (s > 0.0) & (s < 1.0)
    y_cross = y_from + s * (y_to - y_from)
    if np.any(crossing & active & (np.abs(y_cross - py) < 1e-9)):
        raise BadDimensionError("a bond passes through the flux plaquette center")
    sgn = np.sign(dx)
    if half:
        side = np.where(y_cross > py, 1.0, -1.0)
        out[crossing] = np.exp(1j * np.pi * t * sgn[crossing] * side[crossing])
    else:
        up = crossing & (y_cross > py)
        out[up] = np.exp(2j * np.pi * t * sgn[up])
    return out


def ref_insert_flux(sample, t, plaquette):
    """Dense reference: string phases on every (target, source) pair."""
    lat = sample.lattice
    L = lat.fiber
    H = sample.matrix.copy()
    coords = lat.site_coords().astype(float)
    if lat.dimension == 2:
        px, py = plaquette[0] + 0.5, plaquette[1] + 0.5
        X, Y = coords[:, 0], coords[:, 1]
        x_from = np.broadcast_to(X[None, :], (len(X), len(X)))
        x_to = x_from + lat.minimal_image(X[:, None] - X[None, :], 0)
        y_from = np.broadcast_to(Y[None, :], x_from.shape)
        y_to = np.broadcast_to(Y[:, None], x_from.shape)
        blocks = H.reshape(len(X), L, len(X), L)
        active = np.abs(blocks).max(axis=(1, 3)) > 0
        blocks *= _ref_string_phases(x_from, y_from, x_to, y_to, px, py, t, active)[:, None, :, None]
    else:
        px = plaquette[0] + 0.4
        N = lat.linear_sizes[0]
        xs = np.repeat(coords[:, 0], 2)
        ys = np.tile(np.array([0.0, 1.0]), N)
        x_from = np.broadcast_to(xs[None, :], (2 * N, 2 * N))
        x_to = x_from + lat.minimal_image(xs[:, None] - xs[None, :], 0)
        y_from = np.broadcast_to(ys[None, :], x_from.shape)
        y_to = np.broadcast_to(ys[:, None], x_from.shape)
        H *= _ref_string_phases(x_from, y_from, x_to, y_to, px, 0.5, t, np.abs(H) > 0, half=True)
    return HamiltonianSample(csr=sparse.csr_array(H), model=sample.model,
                             realization_seed=sample.realization_seed)


def _qwz_disordered(seed):
    model = make_named_model("qwz", sizes=16, boundary=OPEN, mass=1.0,
                             disorder=DisorderSpec(strength=0.3))
    return build_hamiltonian(model, seed)


# (sample builder, interior plaquettes); builders are lazy so collection stays cheap
INTERIOR = {
    **{f"qwz16-lambda0.3-seed{seed}": (lambda seed=seed: _qwz_disordered(seed), [(8, 8)])
       for seed in range(5)},
    "qwz10-open": (lambda: build_hamiltonian(make_named_model("qwz", sizes=10, boundary=OPEN)),
                   [(5, 5), (0, 0), (8, 8)]),
    "qwz12-open": (lambda: build_hamiltonian(make_named_model("qwz", sizes=12, boundary=OPEN)),
                   [(6, 6), (3, 9)]),
    "kane_mele-periodic-open": (
        lambda: build_hamiltonian(make_named_model(
            "kane_mele_qsh", sizes=8, boundary=(PERIODIC, OPEN), rashba=0.3,
            disorder=DisorderSpec("symmetry-constrained-matrix", 0.5)), 2),
        [(4, 3), (0, 0), (6, 6)]),
    "kane_mele-open-open": (
        lambda: build_hamiltonian(make_named_model("kane_mele_qsh", sizes=8, boundary=OPEN,
                                                   rashba=0.3)),
        [(3, 4)]),
    "harper-field-periodic-open": (
        lambda: build_hamiltonian(make_named_model("harper", sizes=12, boundary=(PERIODIC, OPEN),
                                                   disorder=DisorderSpec(strength=0.5)), 1),
        [(6, 4), (10, 0)]),
    "kitaev-strip-open": (
        lambda: build_hamiltonian(make_named_model("kitaev_chain", sizes=32, mu=0.3,
                                                   w_strength=0.5, boundary=OPEN), 3),
        [(16,), (0,), (30,)]),
    "kitaev-strip-periodic": (
        lambda: build_hamiltonian(make_named_model("kitaev_chain", sizes=32, mu=0.3,
                                                   w_strength=0.5, boundary=PERIODIC), 3),
        [(8,), (0,), (30,)]),
}


@pytest.mark.parametrize("case", sorted(INTERIOR))
def test_insert_flux_matches_reference(case):
    build, plaquettes = INTERIOR[case]
    sample = build()
    for plaq in plaquettes:
        for t in TS:
            got = insert_flux(sample, t, plaq).matrix
            want = ref_insert_flux(sample, t, plaq).matrix
            assert np.array_equal(got, want), (plaq, t)


WRAP = {
    "qwz": (lambda: make_named_model("qwz", sizes=12, boundary=(PERIODIC, OPEN)), (11, 6)),
    "kane_mele": (lambda: make_named_model("kane_mele_qsh", sizes=12, boundary=(PERIODIC, OPEN)),
                  (11, 6)),
    "harper": (lambda: make_named_model("harper", sizes=12, boundary=(PERIODIC, OPEN)), (11, 4)),
    "kitaev-strip": (lambda: make_named_model("kitaev_chain", sizes=32, mu=0.3,
                                              boundary=PERIODIC), (31,)),
}


@pytest.mark.parametrize("case", sorted(WRAP))
def test_wrap_column_flux_is_hermitian(case):
    build, plaq = WRAP[case]
    s0 = build_hamiltonian(build())
    for t in (0.3, 0.5, 0.75):
        H = insert_flux(s0, t, plaq).matrix
        assert np.abs(H - H.conj().T).max() == 0.0
    if s0.lattice.dimension == 2:
        # a full flux quantum is a gauge transformation away from no flux
        w1 = np.linalg.eigvalsh(insert_flux(s0, 1.0, plaq).matrix)
        assert np.abs(w1 - np.linalg.eigvalsh(s0.matrix)).max() < 1e-10


def test_wrap_column_threads_one_cell():
    # the wrap bonds of column N_0 - 1 carry the phase, and nothing else does
    s0 = build_hamiltonian(make_named_model("harper", sizes=6, boundary=(PERIODIC, OPEN)))
    H = insert_flux(s0, 0.25, (5, 2)).matrix
    changed = np.argwhere(H != s0.matrix)
    # harper site index = 6 x + y: the wrap bonds (x = 5 <-> x = 0) above y = 2.5
    assert sorted(map(tuple, changed)) == sorted(
        [(y, 30 + y) for y in (3, 4, 5)] + [(30 + y, y) for y in (3, 4, 5)])
    assert np.allclose(H[3, 33], s0.matrix[3, 33] * np.exp(0.5j * np.pi))


QWZ_OPEN = make_named_model("qwz", sizes=12, boundary=OPEN)
STRIP_OPEN = make_named_model("kitaev_chain", sizes=32, mu=0.3, boundary=OPEN)
# a periodic ring of two sites: the forward bond and the wrap bond share a block
SHORT_RING = make_named_model("kitaev_chain", sizes=2, boundary=PERIODIC)
OUTSIDE = [(QWZ_OPEN, (20, 20)), (QWZ_OPEN, (6, 11)), (QWZ_OPEN, (-3, 6)), (QWZ_OPEN, (11, 6)),
           (QWZ_OPEN, (6, -1)), (QWZ_OPEN, (6,)), (QWZ_OPEN, (6, 6, 6)),
           (STRIP_OPEN, (40,)), (STRIP_OPEN, (-5,)), (STRIP_OPEN, (31,)), (STRIP_OPEN, (3, 4)),
           (SHORT_RING, (0,))]


@pytest.mark.parametrize("model,plaq", OUTSIDE,
                         ids=[f"{m.name}{m.lattice.linear_sizes[0]}-{p}" for m, p in OUTSIDE])
def test_insert_flux_rejects_plaquette_outside_sample(model, plaq):
    sample = build_hamiltonian(model)
    for t in (0.0, 0.5):
        with pytest.raises(ParamOutOfRangeError):
            insert_flux(sample, t, plaq)


def _square_model(boundary, *extra):
    """One orbital on an 8 x 5 lattice; hoppings (1, 0), (0, 1), (2, 0) and any extra (a, amp)."""
    hops = []
    for a, amp in (((1, 0), 1.0), ((0, 1), 0.7), ((2, 0), 0.3j)) + extra:
        hops += [(a, np.array([[amp]])), (tuple(-c for c in a), np.array([[np.conj(amp)]]))]
    lat = LatticeSpec(2, (8, 5), boundary, 1)
    return ModelDefinition(lat, MagneticFieldSpec.zero(2), tuple(hops), np.zeros((1, 1)))


def test_flux_translation_covariant_on_periodic_axis():
    # a clean periodic axis 0 makes the plaquettes (p, q) and (p + 1, q) unitarily
    # equivalent, the wrap column and the (2, 0) bonds across the string's image included
    sample = build_hamiltonian(_square_model((PERIODIC, OPEN)))
    spectra = [np.linalg.eigvalsh(insert_flux(sample, 0.3, (p, 1)).matrix) for p in range(8)]
    assert np.abs(spectra[0] - np.linalg.eigvalsh(sample.matrix)).max() > 1e-3
    for w in spectra[1:]:
        assert np.abs(w - spectra[0]).max() < 1e-12


def test_bond_through_plaquette_center_is_refused():
    # the (1, 1) bond from site (2, 1) passes through the center (2.5, 1.5)
    sample = build_hamiltonian(_square_model((OPEN, OPEN), ((1, 1), 0.2)))
    with pytest.raises(BadDimensionError, match="plaquette center"):
        insert_flux(sample, 0.3, (2, 1))
