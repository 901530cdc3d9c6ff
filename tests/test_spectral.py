import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from topoinv import (
    HamiltonianSample,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    SwitchFunction,
    build_hamiltonian,
    detect_gap,
    diagonalize,
    fermi_projection,
    make_named_model,
    occupied_projection,
)
from topoinv import spectral
from topoinv.errors import NoGapError
from topoinv.models import OPEN, PERIODIC
from topoinv.spectral import orthogonality_residual


def onsite_model(values, sizes=(4, 4)):
    lat = LatticeSpec(2, sizes, (PERIODIC, PERIODIC), len(values))
    return ModelDefinition(lat, MagneticFieldSpec.zero(2), (), np.diag(values))


def test_diagonalize_invariants():
    sample = build_hamiltonian(make_named_model("qwz", sizes=6, mass=1.0))
    eig = diagonalize(sample)
    H = sample.matrix
    res = H @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
    assert np.abs(res).max() <= 1e-9 * np.abs(H).max()
    V = eig.eigenvectors
    assert np.abs(V.conj().T @ V - np.eye(len(V))).max() < 1e-9
    assert np.all(np.diff(eig.eigenvalues) >= -1e-12)


def test_diagonalize_onsite_blocks():
    eig = diagonalize(build_hamiltonian(onsite_model([2.0, -2.0])))
    assert np.allclose(eig.eigenvalues[:16], -2.0)
    assert np.allclose(eig.eigenvalues[16:], 2.0)


def test_spectral_symmetry_chiral_and_phs():
    for name, kw in (("ssh", dict(sizes=8, m=0.0)), ("kitaev_chain", dict(sizes=16, mu=0.0))):
        eig = diagonalize(build_hamiltonian(make_named_model(name, **kw)))
        w = np.sort(eig.eigenvalues)
        assert np.abs(w + w[::-1]).max() < 1e-9


def test_fermi_projection_ranks():
    eig = diagonalize(build_hamiltonian(make_named_model("ssh", sizes=16, m=0.0)))
    P = fermi_projection(eig, 0.0)
    assert P.rank == 16
    assert np.abs(P.projector @ P.projector - P.projector).max() < 1e-9
    assert np.abs(P.projector - P.projector.conj().T).max() < 1e-9
    below = fermi_projection(eig, eig.eigenvalues[0] - 0.5)
    assert below.rank == 0 and np.abs(below.projector).max() == 0.0


def test_fermi_projection_harper_third(harper24_eigen):
    _, eig = harper24_eigen
    nb = 24 * 24 // 3
    mu = 0.5 * (eig.eigenvalues[nb - 1] + eig.eigenvalues[nb])
    assert fermi_projection(eig, mu).rank == nb


def test_fermi_projection_matches_indicator():
    eig = diagonalize(build_hamiltonian(make_named_model("qwz", sizes=6, mass=1.0)))
    P = fermi_projection(eig, 0.0)
    indicator = eig.function_of((eig.eigenvalues <= 0.0).astype(float))
    assert np.abs(indicator - P.projector).max() < 1e-9


def test_detect_gap_values():
    eig = diagonalize(build_hamiltonian(make_named_model("ssh", sizes=64, m=0.0)))
    lo, hi = detect_gap(eig, 0.0)
    assert abs((hi - lo) - 2.0) < 0.01
    with pytest.raises(NoGapError):
        detect_gap(diagonalize(build_hamiltonian(make_named_model("ssh", sizes=64, m=1.0))), 0.0)
    eig2 = diagonalize(build_hamiltonian(onsite_model([2.0, -2.0])))
    lo2, hi2 = detect_gap(eig2, 0.0)
    assert abs((hi2 - lo2) - 4.0) < 1e-12


def test_switch_function_shapes():
    f = SwitchFunction("exp", (-1.0, 1.0))
    xs = np.linspace(-2, 2, 201)
    vals = f(xs)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= -1e-12)
    g = SwitchFunction("ind", (-1.0, 1.0))
    gv = g(xs)
    assert gv[0] == -1.0 and gv[-1] == 1.0
    # odd about the gap center
    assert np.abs(gv + gv[::-1]).max() < 1e-12
    # derivative matches a finite difference
    d_num = np.gradient(f(xs), xs)
    assert np.abs(f.derivative(xs) - d_num).max() < 1e-2
    assert f.c_norm() >= 1.0


def test_eval_switch_trivial_and_bulk(harper24_eigen):
    model, eig = harper24_eigen
    # spectrum entirely below the window
    f = SwitchFunction("exp", (eig.eigenvalues[-1] + 1.0, eig.eigenvalues[-1] + 2.0))
    fh = eig.function_of(f(eig.eigenvalues))
    assert np.abs(fh).max() < 1e-12
    # bulk torus: no spectrum inside the true gap, so exp(2 pi i f(H)) = 1
    nb = 24 * 24 // 3
    gap = detect_gap(eig, 0.5 * (eig.eigenvalues[nb - 1] + eig.eigenvalues[nb]))
    fg = SwitchFunction("exp", gap)
    U = eig.function_of(np.exp(2j * np.pi * fg(eig.eigenvalues)))
    assert np.abs(U - np.eye(len(U))).max() < 1e-9


def test_eval_switch_halfspace_nontrivial(harper24_eigen):
    model, eig = harper24_eigen
    nb = 24 * 24 // 3
    gap = detect_gap(eig, 0.5 * (eig.eigenvalues[nb - 1] + eig.eigenvalues[nb]))
    half = build_hamiltonian(model.with_boundary(1, OPEN))
    heig = diagonalize(half)
    f = SwitchFunction("exp", gap)
    U = heig.function_of(np.exp(2j * np.pi * f(heig.eigenvalues)))
    assert np.abs(U @ U.conj().T - np.eye(len(U))).max() < 1e-9
    assert np.linalg.norm(U - np.eye(len(U)), 2) >= 0.1


def test_matrix_element_locality_strong_gap():
    model = make_named_model("qwz", sizes=12, boundary="open", mass=10.0)
    sample = build_hamiltonian(model)
    eig = diagonalize(sample)
    P = fermi_projection(eig, 0.0).projector
    pos = sample.lattice.positions()
    dist = np.abs(pos[:, 0][:, None] - pos[:, 0][None, :])
    dist = np.maximum(dist, np.abs(pos[:, 1][:, None] - pos[:, 1][None, :]))
    far = dist > 6
    assert np.abs(P[far]).max() < 1e-6


# ---------------------------------------------------------------------------
# partial decompositions: windowed (MRRR, certified) and eigenvalues only
# ---------------------------------------------------------------------------

def hermitian_sample(levels, seed):
    """Chain sample whose matrix has the given eigenvalues and random eigenvectors."""
    rng = np.random.default_rng(seed)
    n = len(levels)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = q * (np.diag(r) / np.abs(np.diag(r)))
    H = (V * np.asarray(levels)) @ V.conj().T
    lat = LatticeSpec(1, (n,), (PERIODIC,), 1)
    model = ModelDefinition(lat, MagneticFieldSpec.zero(1), (), np.zeros((1, 1)))
    return HamiltonianSample(csr=sparse.csr_array(0.5 * (H + H.conj().T)), model=model,
                             realization_seed=0)


@st.composite
def spectra_and_windows(draw):
    """Levels on a 0.1 grid, some exactly doubly degenerate, and a window with
    edges halfway between grid points, so no level sits near an edge."""
    grid = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=20, unique=True))
    doubled = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    levels = sorted(0.1 * k for k, two in zip(grid, doubled) for _ in range(1 + two))
    lo, hi = sorted(draw(st.lists(st.integers(-32, 32), min_size=2, max_size=2, unique=True)))
    return levels, (0.1 * lo + 0.05, 0.1 * hi + 0.05)


def window_projector(eig):
    return eig.eigenvectors @ eig.eigenvectors.conj().T


@settings(max_examples=60, deadline=None)
@given(spectra_and_windows(), st.integers(0, 2 ** 32 - 1))
def test_windowed_matches_full_solve(case, seed):
    levels, window = case
    sample = hermitian_sample(levels, seed)
    full = diagonalize(sample)
    keep = (full.eigenvalues > window[0]) & (full.eigenvalues <= window[1])
    part = diagonalize(sample, window=window)
    assert part.window == window
    assert len(part.eigenvalues) == keep.sum()
    assert np.abs(part.eigenvalues - full.eigenvalues[keep]).max(initial=0.0) < 1e-12
    ref = full.eigenvectors[:, keep] @ full.eigenvectors[:, keep].conj().T
    assert np.abs(window_projector(part) - ref).max() < 1e-12
    assert orthogonality_residual(part.eigenvectors) <= 1e-10
    values = diagonalize(sample, vectors=False)
    assert values.eigenvectors is None
    assert np.abs(values.eigenvalues - full.eigenvalues).max() < 1e-12


def test_windowed_qwz_flux_sample_window():
    sample = build_hamiltonian(make_named_model("qwz", sizes=8, boundary="open", mass=1.0))
    full = diagonalize(sample)
    part = diagonalize(sample, window=(-0.5, 0.5))
    keep = np.abs(full.eigenvalues) < 0.5
    assert 0 < len(part.eigenvalues) == keep.sum()
    assert np.abs(part.eigenvalues - full.eigenvalues[keep]).max() < 1e-12
    ref = full.eigenvectors[:, keep] @ full.eigenvectors[:, keep].conj().T
    assert np.abs(window_projector(part) - ref).max() < 1e-12


def test_windowed_solve_needs_vectors():
    sample = build_hamiltonian(make_named_model("ssh", sizes=8, m=0.5))
    with pytest.raises(ValueError):
        diagonalize(sample, window=(-1.0, 1.0), vectors=False)


@pytest.fixture
def partial_decompositions():
    sample = build_hamiltonian(make_named_model("ssh", sizes=16, m=0.5))
    return {"windowed": diagonalize(sample, window=(-1.6, 1.6)),
            "eigenvalues only": diagonalize(sample, vectors=False)}


@pytest.mark.parametrize("kind", ["windowed", "eigenvalues only"])
def test_partial_decomposition_builds_no_projector(partial_decompositions, kind):
    eig = partial_decompositions[kind]
    with pytest.raises(ValueError, match="fermi_projection"):
        fermi_projection(eig, 0.0)


@pytest.mark.parametrize("kind", ["windowed", "eigenvalues only"])
def test_partial_decomposition_has_no_function_of(partial_decompositions, kind):
    eig = partial_decompositions[kind]
    with pytest.raises(ValueError, match="function_of"):
        eig.function_of(np.ones(len(eig.eigenvalues)))


def test_windowed_decomposition_certifies_no_gap(partial_decompositions):
    # the window holds no level near 0, but levels outside it are unknown
    with pytest.raises(ValueError, match="detect_gap"):
        detect_gap(partial_decompositions["windowed"], 0.0)
    # eigenvalues alone suffice for a gap
    full = diagonalize(partial_decompositions["windowed"].sample)
    gap = detect_gap(partial_decompositions["eigenvalues only"], 0.0)
    assert np.abs(np.subtract(gap, detect_gap(full, 0.0))).max() < 1e-12


@pytest.mark.parametrize("failure", [None, "non-orthogonal", "LinAlgError"])
@pytest.mark.parametrize("request_kind", ["window", "mu"])
def test_partial_solve_route_and_fallback(monkeypatch, request_kind, failure):
    """Both partial requests take one route; a forced failure of it (vectors no
    longer orthonormal, or a LAPACK error) gives the same cut of the full solve,
    bit for bit.  On either route the eigenvectors own their memory."""
    sample = hermitian_sample([-1.0, -0.5, -0.5, 0.2, 0.2, 0.7, 1.5], seed=3)
    w, v = np.linalg.eigh(sample.matrix)
    # the first level above 0 is the Kramers-like pair at 0.2, kept whole
    kwargs, window, keep = {
        "window": (dict(window=(-0.6, 0.8)), (-0.6, 0.8), slice(1, 6)),
        "mu": (dict(mu=0.0), (-np.inf, 0.5 * (w[4] + w[5])), slice(0, 5)),
    }[request_kind]
    inner = spectral.linalg.eigh_tridiagonal

    def broken(d, e, **kw):
        if failure == "LinAlgError":
            raise np.linalg.LinAlgError("forced failure")
        vals, vecs = inner(d, e, **kw)
        return vals, vecs + 1e-6  # columns no longer orthonormal

    if failure is not None:
        monkeypatch.setattr(spectral.linalg, "eigh_tridiagonal", broken)
    part = diagonalize(sample, **kwargs)
    assert part.eigenvectors.base is None
    if failure is not None:
        assert part.window == window
        assert np.array_equal(part.eigenvalues, w[keep])
        assert np.array_equal(part.eigenvectors, v[:, keep])
    else:
        assert part.window[0] == window[0] and abs(part.window[1] - window[1]) < 1e-12
        assert np.abs(part.eigenvalues - w[keep]).max() < 1e-12
        ref = v[:, keep] @ v[:, keep].conj().T
        assert np.abs(window_projector(part) - ref).max() < 1e-12


@pytest.mark.parametrize("mu, states, kept, edge", [
    (-2.0, None, 1, -0.75),  # below the spectrum: rank 0, the lowest level only
    (0.0, None, 5, 0.45),  # the degenerate first level above mu is kept whole
    (1.0, None, 7, np.inf),  # the last level above mu: nothing is left above the edge
    (2.0, None, 7, np.inf),  # above the spectrum
    (None, 1, 3, -0.15),  # the level at index 1 is the pair at -0.5
    (None, 3, 5, 0.45),  # degenerate at index 3: the window still holds every level <= hi
    (None, 6, 7, np.inf),
])
def test_occupied_solve_window(mu, states, kept, edge):
    sample = hermitian_sample([-1.0, -0.5, -0.5, 0.2, 0.2, 0.7, 1.5], seed=5)
    full = diagonalize(sample)
    part = diagonalize(sample, mu=mu, states=states)
    assert part.window[0] == -np.inf
    assert part.window[1] == edge or abs(part.window[1] - edge) < 1e-12
    assert len(part.eigenvalues) == kept
    assert np.abs(part.eigenvalues - full.eigenvalues[:kept]).max() < 1e-12
    assert orthogonality_residual(part.eigenvectors) <= 1e-10
    if mu is not None:
        for a, b in zip(detect_gap(part, mu), detect_gap(full, mu)):
            assert a == b or abs(a - b) < 1e-12


def test_occupied_solve_arguments():
    sample = hermitian_sample([-1.0, 0.5, 1.5], seed=0)
    for kwargs in (dict(window=(-1.0, 1.0), mu=0.0), dict(mu=0.0, states=1),
                   dict(mu=0.0, vectors=False), dict(states=3), dict(states=-1)):
        with pytest.raises(ValueError):
            diagonalize(sample, **kwargs)
    for kwargs in (dict(), dict(mu=0.0, states=1), dict(states=0)):
        with pytest.raises(ValueError):
            occupied_projection(sample, **kwargs)


@pytest.fixture
def refused_decompositions():
    """Partial decompositions that certify no gap at mu = 0: a flow window around
    mu, occupied-form windows that end at or below mu or below the first level
    above it, and eigenvalues without vectors."""
    sample = hermitian_sample([-1.0, -0.5, 0.6, 1.5], seed=2)
    return {"flow window": diagonalize(sample, window=(-0.8, 0.8)),
            "edge below mu": diagonalize(sample, window=(-np.inf, -0.2)),
            "no level above mu": diagonalize(sample, window=(-np.inf, 0.3)),
            "eigenvalues only": diagonalize(sample, vectors=False)}


@pytest.mark.parametrize("kind", ["flow window", "edge below mu", "no level above mu",
                                  "eigenvalues only"])
def test_projection_needs_an_occupied_window(refused_decompositions, kind):
    eig = refused_decompositions[kind]
    with pytest.raises(ValueError, match="fermi_projection|detect_gap"):
        fermi_projection(eig, 0.0)
    if kind != "eigenvalues only":  # the whole spectrum's eigenvalues certify a gap
        with pytest.raises(ValueError, match="detect_gap"):
            detect_gap(eig, 0.0)


def test_stalled_arpack_run_is_bounded_and_takes_the_dense_route(monkeypatch):
    """On the clean kane_mele torus each gap edge is a degenerate level, and ARPACK
    at its default tolerance never converges on it; the restart cap ends both edge
    solves, and the dense route gives the same gap."""
    sample = build_hamiltonian(make_named_model("kane_mele_qsh", sizes=12, mass=1.0))
    applied = []
    operator = spectral.LinearOperator

    def counted(shape, matvec, dtype):
        return operator(shape, matvec=lambda x: applied.append(1) or matvec(x), dtype=dtype)

    monkeypatch.setattr(spectral, "LinearOperator", counted)
    mu, gap = spectral.certified_gap(sample, 0.0)
    assert (mu, gap) == (0.0, detect_gap(diagonalize(sample, vectors=False), 0.0))
    # each restart applies the operator fewer than ncv = 20 times
    assert 0 < len(applied) <= 2 * 20 * (spectral._ARPACK_MAXITER + 1)
