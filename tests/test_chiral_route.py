"""The chiral route of `diagonalize` against the dense routes it replaces.

A sample whose model declares s_ch with equal sectors, and which
anticommutes with 1_N (x) s_ch to rounding, is solved from one SVD of its
off-diagonal block.  On such samples every request kind must agree with the
dense routes (`numpy.linalg.eigh`, `eigvalsh`, `spectral._partial_eigh` on
the dense matrix) to 1e-12: eigenvalues, window edge and the projector onto
the kept eigenvectors.  A sample that breaks its declared chirality must
take the dense routes, with their bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoinv import build_hamiltonian, diagonalize, make_named_model
from topoinv import spectral
from topoinv.models import (
    PERIODIC,
    SIGMA_1,
    DisorderSpec,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    SymmetrySpec,
    insert_flux,
)

TOL = 1e-12


def custom_chain(n, t, onsite):
    """Two-orbital chain with s_ch = sigma_1: a block [[a, b], [-b, -a]] and an
    on-site [[c, i d], [-i d, -c]] anticommute with it exactly."""
    (a, b), (c, d) = t, onsite
    hop = np.array([[a, b], [-b, -a]])
    ons = np.array([[c, 1j * d], [-1j * d, -c]])
    lat = LatticeSpec(1, (n,), (PERIODIC,), 2)
    return ModelDefinition(lat, MagneticFieldSpec.zero(1), (((1,), hop), ((-1,), hop.conj().T)),
                           ons, symmetry=SymmetrySpec(s_ch=SIGMA_1))


def chiral_samples():
    seeds = st.integers(0, 2**16)
    amplitude = st.floats(-1.5, 1.5, allow_nan=False)
    complex_amp = st.builds(complex, amplitude, amplitude)
    disorder = st.builds(DisorderSpec, st.just("symmetry-constrained-matrix"),
                         st.floats(0.0, 1.5), seeds)
    ssh = st.builds(lambda n, m, dis: make_named_model("ssh", sizes=n, m=m, disorder=dis),
                    st.integers(2, 24), st.sampled_from([0.0, 0.5, 1.0, -1.0, 1.7]) | amplitude,
                    disorder)
    chiral_3d = st.builds(lambda n, m, dis: make_named_model("chiral_3d", sizes=n, mass=m,
                                                             disorder=dis),
                          st.integers(2, 3), st.sampled_from([1.0, 3.0]) | amplitude, disorder)
    kitaev = st.builds(lambda n, mu: make_named_model("kitaev_chain", sizes=n, mu=mu),
                       st.integers(2, 24), st.sampled_from([0.0, 1.0, -1.0]) | amplitude)
    custom = st.builds(custom_chain, st.integers(2, 16), st.tuples(complex_amp, complex_amp),
                       st.tuples(amplitude, amplitude))
    models = ssh | chiral_3d | kitaev | custom
    return st.builds(build_hamiltonian, models, seeds)


def projector(V):
    return V @ V.conj().T


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sample=chiral_samples(), data=st.data())
def test_chiral_route_matches_dense_routes(sample, data):
    assert spectral._chiral_block(sample) is not None
    H = sample.matrix
    scale = max(1.0, np.abs(H).max())
    w_dense = np.linalg.eigvalsh(H)
    n = sample.dim

    full = diagonalize(sample)
    assert full.window is None
    assert np.abs(full.eigenvalues - w_dense).max() <= TOL * scale
    V = full.eigenvectors
    assert np.abs(H @ V - V * full.eigenvalues).max() <= TOL * scale
    assert spectral.orthogonality_residual(V) <= TOL

    values = diagonalize(sample, vectors=False)
    assert values.eigenvectors is None and values.window is None
    assert np.abs(values.eigenvalues - w_dense).max() <= TOL * scale

    level = data.draw(st.sampled_from([{"mu": 0.0}, {"mu": float(w_dense[n // 2])},
                                       {"states": n // 2},
                                       {"states": data.draw(st.integers(0, n - 1))}]))
    occupied = diagonalize(sample, **level)
    w, v, cut = spectral._partial_eigh(H, None, level.get("mu"), level.get("states"))
    assert occupied.window[0] == -np.inf
    assert occupied.window[1] == cut[1] or abs(occupied.window[1] - cut[1]) <= TOL * scale
    assert len(occupied.eigenvalues) == len(w)
    assert np.abs(occupied.eigenvalues - w).max(initial=0.0) <= TOL * scale
    assert np.abs(projector(occupied.eigenvectors) - projector(v)).max() <= TOL

    # a window whose edges split gaps of the spectrum, as an occupied edge does
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
    window = (spectral._occupied_edge(w_dense, None, i), spectral._occupied_edge(w_dense, None, j))
    if window[0] < window[1]:
        w, v, _ = spectral._partial_eigh(H, window, None, None)
        inside = diagonalize(sample, window=window)
        counted = diagonalize(sample, window=window, count=len(w))
        for got in (inside, counted):
            assert got.window == window
            assert len(got.eigenvalues) == len(w)
            assert np.abs(got.eigenvalues - w).max(initial=0.0) <= TOL * scale
            assert np.abs(projector(got.eigenvectors) - projector(v)).max() <= TOL


def test_count_request_tries_shift_invert_first(monkeypatch):
    sample = build_hamiltonian(make_named_model("ssh", sizes=24, m=0.5))
    window, count = (-1.2, 1.2), 24
    solved = spectral._shift_invert(sample.csr, window, count)
    assert solved is not None
    got = diagonalize(sample, window=window, count=count)
    assert np.array_equal(got.eigenvalues, solved[0])
    assert np.array_equal(got.eigenvectors, solved[1])
    # a failed shift-invert solve falls back to the SVD of the off-diagonal block
    monkeypatch.setattr(spectral, "_shift_invert", lambda *args: None)
    fallback = diagonalize(sample, window=window, count=count)
    chiral = spectral._chiral_eigh(*spectral._chiral_block(sample), window, None, None, True)
    assert np.array_equal(fallback.eigenvalues, chiral[0])
    assert np.array_equal(fallback.eigenvectors, chiral[1])


def broken_samples():
    """ssh with scalar disorder and the half-flux kitaev chain: each declares
    s_ch and breaks it."""
    ssh = build_hamiltonian(make_named_model(
        "ssh", sizes=16, m=0.5, disorder=DisorderSpec("diagonal-scalar", 0.4, 3)), 1)
    kitaev = make_named_model("kitaev_chain", sizes=16, mu=0.5, w_strength=0.3)
    half = insert_flux(build_hamiltonian(kitaev.with_boundary(0, "open"), 2), 0.5, (8,))
    return [ssh, half]


@pytest.mark.parametrize("sample", broken_samples(), ids=["ssh-scalar-disorder", "kitaev-halfflux"])
def test_broken_chirality_takes_the_dense_routes(sample):
    assert spectral._chiral_block(sample) is None
    H = sample.matrix
    w, v = np.linalg.eigh(H)
    full = diagonalize(sample)
    assert np.array_equal(full.eigenvalues, w) and np.array_equal(full.eigenvectors, v)
    assert np.array_equal(diagonalize(sample, vectors=False).eigenvalues, np.linalg.eigvalsh(H))
    for request in ({"mu": 0.0}, {"states": sample.dim // 2}):
        got = diagonalize(sample, **request)
        want = spectral._partial_eigh(H, None, request.get("mu"), request.get("states"))
        assert got.window == want[2]
        assert np.array_equal(got.eigenvalues, want[0])
        assert np.array_equal(got.eigenvectors, want[1])


def test_chiral_check_is_relative_to_rounding():
    """One off-chiral entry of 1e-10 on an ssh chain takes the dense route;
    the same entry scaled below dim * eps keeps the chiral route."""
    base = make_named_model("ssh", sizes=8, m=0.5)
    for eps, chiral in ((1e-10, False), (1e-16, True)):
        model = ModelDefinition(base.lattice, base.field, base.hoppings,
                                base.onsite + eps * np.diag([1.0, 0.0]), base.disorder,
                                base.symmetry)
        assert (spectral._chiral_block(build_hamiltonian(model)) is not None) == chiral
