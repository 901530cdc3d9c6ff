"""Level counts by sparse inertia (`count_below`, `certified_gap`) against dense solves.

Where a count is not certified the caller takes the dense route, so each test
also tallies those fallbacks: until runs record them, this is where a change
in their number shows.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from topoinv import (
    DisorderSpec,
    build_hamiltonian,
    diagonalize,
    make_half_space,
    make_named_model,
    occupied_projection,
)
from topoinv import boundary, spectral
from topoinv.errors import NoGapError
from topoinv.harness import load_config
from topoinv.models import OPEN, PERIODIC
from topoinv.spectral import EigenData, certified_gap, count_below, detect_gap

HARPER_B = 2 * np.pi / 3
EDGE_TOL = 1e-12  # sparse gap edges and mu against the dense eigenvalues
WINDOW_TOL = 1e-14  # in-gap eigenvalues of the count route against the dense window


def harper(sizes, strength, seed, boundary=None):
    return make_named_model("harper", sizes=sizes, b12=HARPER_B, boundary=boundary,
                            disorder=DisorderSpec(strength=strength, seed=seed))


def harper_mu():
    w = np.linalg.eigvalsh(build_hamiltonian(make_named_model("harper", sizes=24,
                                                              b12=HARPER_B)).matrix)
    return 0.5 * (w[191] + w[192])


def dense_gap(sample, mu=None, states=None):
    """mu and the gap around it from every eigenvalue: the dense route."""
    w = np.linalg.eigvalsh(sample.matrix)
    if states is not None:
        mu = 0.5 * (w[states - 1] + w[states])
    return mu, detect_gap(EigenData(w, None, sample), mu)


def check_realization(model, seed, mu=None, states=None, occupied=False):
    """Compare the torus gap and the half-space counts and window with the dense
    route; return the names of the steps that fell back to it."""
    fallbacks = []
    torus = build_hamiltonian(model.with_boundaries(PERIODIC), seed)
    dmu, dgap = dense_gap(torus, mu, states)
    if occupied:  # the bbc task reads its gap from the dense occupied solve
        mu, gap = dmu, dgap
    else:
        found = spectral._sparse_gap(torus.csr, mu, states)
        if found is None:
            fallbacks.append("companion gap")
            found = dmu, dgap
        mu, gap = found
        assert abs(mu - dmu) <= EDGE_TOL and np.abs(np.subtract(gap, dgap)).max() <= EDGE_TOL
    half = build_hamiltonian(model.with_boundary(model.lattice.dimension - 1, OPEN), seed)
    w = np.linalg.eigvalsh(half.matrix)
    counts = [count_below(half.csr, edge) for edge in gap]
    for side, edge, count in zip(("lower", "upper"), gap, counts):
        if count is None:
            fallbacks.append(f"half-space count at the {side} gap edge")
        else:
            assert count == (w < edge).sum()
    if None not in counts:
        eig = diagonalize(half, window=gap, count=counts[1] - counts[0])
        dense, _, _ = spectral._partial_eigh(half.matrix, gap, None, None)
        assert len(eig.eigenvalues) == len(dense)
        assert np.abs(eig.eigenvalues - dense).max(initial=0.0) <= WINDOW_TOL
    return fallbacks


def test_criterion_03_realizations_count_as_dense():
    mu = harper_mu()
    fallbacks = {seed: check_realization(harper(24, 0.0, 13), seed, mu) for seed in [0]}
    fallbacks.update({f"disordered {seed}": check_realization(harper(24, 0.3, 13), seed, mu)
                      for seed in range(10)})
    # the clean cylinder has a level 3e-10 from the lower gap edge: no count is certain
    assert {k: v for k, v in fallbacks.items() if v} == {
        0: ["half-space count at the lower gap edge"]}


@pytest.mark.slow
def test_criterion_04_realizations_count_as_dense():
    mu = harper_mu()
    model = harper((33, 32), 0.3, 17)
    fallbacks = {seed: check_realization(model, seed, mu) for seed in range(10)}
    assert {k: v for k, v in fallbacks.items() if v} == {}


def test_edge_ensemble_realizations_count_as_dense():
    # the realizations perfbench's edge_ensemble workload runs at seed 11
    bbc = harper(24, 0.3, 13, ("periodic", "open"))
    current = harper((33, 32), 0.3, 17, ("periodic", "open"))
    fallbacks = [check_realization(bbc, seed, states=192, occupied=True) for seed in (60017, 60018)]
    fallbacks += [check_realization(current, seed, states=352) for seed in (66409, 66410)]
    assert fallbacks == [[]] * 4


def test_sparse_routes_never_form_the_dense_matrix(monkeypatch):
    # the boundary-current realization of the edge_ensemble workload: its companion
    # gap and its half-space window are certified from the CSR form alone
    current = harper((33, 32), 0.3, 17, ("periodic", "open"))
    tori = []

    def gap_spy(sample, *args, **kwargs):
        tori.append(sample)
        return certified_gap(sample, *args, **kwargs)

    monkeypatch.setattr(boundary, "certified_gap", gap_spy)
    half = make_half_space(current, realization_seed=66409, states=352)  # via companion_gap
    assert len(half.eigen.eigenvalues) > 0
    assert len(tori) == 1
    assert all("matrix" not in sample.__dict__ for sample in (*tori, half.hamiltonian))


def test_half_space_takes_the_bulk_projection_as_it_is():
    # the bbc realizations of the edge_ensemble workload: mu and the gap are the
    # projection's own, with no second gap search
    bbc = harper(24, 0.3, 13, ("periodic", "open"))
    for seed in (60017, 60018):
        P = occupied_projection(build_hamiltonian(bbc.with_boundaries(PERIODIC), seed), states=192)
        half = make_half_space(bbc, realization_seed=seed, bulk=P)
        assert np.float64(half.mu).tobytes() == np.float64(P.mu).tobytes()
        assert np.array(half.bulk_gap).tobytes() == np.array(detect_gap(P.eigen, P.mu)).tobytes()
        for level in ({"mu": P.mu}, {"states": 192}):
            with pytest.raises(ValueError, match="not both"):
                make_half_space(bbc, realization_seed=seed, bulk=P, **level)


@pytest.mark.parametrize("states", [0, 72])
def test_fermi_level_needs_a_level_on_each_side(states):
    # states=0 once read the top level as w[-1] and certified the gap mid-spectrum
    model = make_named_model("qwz", sizes=6, mass=1.0)
    sample = build_hamiltonian(model)
    assert sample.dim == 72
    for request in (lambda: certified_gap(sample, states=states),
                    lambda: occupied_projection(sample, states=states),
                    lambda: boundary.companion_gap(model, states=states),
                    lambda: make_half_space(model.with_boundary(1, OPEN), states=states)):
        with pytest.raises(ValueError, match=r"give mu or states in \[1, 71\], not both"):
            request()


def test_shipped_configs_count_as_dense(pytestconfig):
    # each config's sample and its torus, counted at the config's mu
    fallbacks = set()
    for path in sorted((pytestconfig.rootpath / "configs").glob("*.cfg")):
        config = load_config(path)
        model, params = config.model(), config.task_params
        for name, sample in (("sample", build_hamiltonian(model, config.base_seed)),
                             ("torus", build_hamiltonian(model.with_boundaries(PERIODIC),
                                                         config.base_seed))):
            w = np.linalg.eigvalsh(sample.matrix)
            k = params.get("mu_states")
            mu = 0.5 * (w[k - 1] + w[k]) if k else params.get("mu", 0.0)
            count = count_below(sample.csr, mu)
            if count is None:
                fallbacks.add(f"{path.stem} {name}")
            else:
                assert count == (w < mu).sum(), (path.stem, name)
    assert fallbacks == {
        # chiral at E = 0: a zero diagonal, so SuperLU pivots off it
        "custom_chain sample", "custom_chain torus", "ssh_winding sample", "ssh_winding torus",
        # a level 9e-17 from E = 0 on the clean field-1/72 samples
        "harper_streda sample", "harper_streda torus",
        # pivot growth: a backward error of 1.6e3, no certificate
        "kitaev_halfflux sample", "kitaev_halfflux torus",
        # a level 6e-5 from mu: a 7e-8 pivot whose imaginary part is 4e-6 of it
        "harper_bbc sample"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(strength=st.floats(0.0, 3.0), seed=st.integers(0, 10**6), where=st.floats(0.0, 1.0),
       on_level=st.booleans(), name=st.sampled_from(["qwz", "harper", "kane_mele_qsh"]))
def test_count_below_is_the_dense_count_or_none(strength, seed, where, on_level, name):
    sizes = {"qwz": 6, "harper": 6, "kane_mele_qsh": 4}[name]
    extra = {"b12": HARPER_B} if name == "harper" else {}
    model = make_named_model(name, sizes=sizes, boundary="open", **extra,
                             disorder=DisorderSpec(strength=strength, seed=seed % 97))
    H = build_hamiltonian(model, seed).matrix
    w = np.linalg.eigvalsh(H)
    if on_level:
        E = w[int(where * (len(w) - 1))]
    else:
        E = w[0] - 1.0 + where * (w[-1] - w[0] + 2.0)
    count = count_below(sparse.csr_array(H), E)
    if on_level:
        # the true level sits within rounding of E on either side: no count is certain
        assert count is None
    elif np.abs(w - E).min() > 1e-4:
        assert count == (w < E).sum()
    else:
        assert count is None or count == (w < E).sum()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(strength=st.floats(0.0, 2.0), seed=st.integers(0, 10**6), where=st.floats(0.0, 1.0),
       by_states=st.booleans())
def test_certified_gap_is_the_dense_gap(strength, seed, where, by_states):
    model = make_named_model("qwz", sizes=6, mass=1.0,
                             disorder=DisorderSpec(strength=strength, seed=seed % 97))
    sample = build_hamiltonian(model, seed)
    w = np.linalg.eigvalsh(sample.matrix)
    if by_states:
        kwargs = {"states": 1 + int(where * (len(w) - 2))}
    else:
        kwargs = {"mu": w[0] - 0.5 + where * (w[-1] - w[0] + 1.0)}
    try:
        dmu, dgap = dense_gap(sample, **kwargs)
    except NoGapError:
        with pytest.raises(NoGapError):
            certified_gap(sample, **kwargs)
        return
    mu, gap = certified_gap(sample, **kwargs)
    assert abs(mu - dmu) <= EDGE_TOL
    assert np.isclose(gap, dgap, rtol=0.0, atol=EDGE_TOL).all()


class _Factor:
    """A SuperLU factor with some of its attributes replaced."""

    def __init__(self, lu, **replaced):
        self._lu = lu
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _asymmetric(lu):
    return _Factor(lu, perm_r=np.roll(lu.perm_r, 1))


def _complex_pivot(lu):
    U = lu.U
    return _Factor(lu, U=U + 1e-3j * sparse.diags_array(np.abs(U.diagonal())))


@pytest.mark.parametrize("force", ["asymmetric permutation", "complex pivot", "unstable count"])
def test_each_none_path_gives_the_dense_bytes(monkeypatch, force):
    model = harper(12, 0.3, 13, ("periodic", "open"))
    torus = build_hamiltonian(model.with_boundaries(PERIODIC), 4)
    half = build_hamiltonian(model, 4)
    mu, gap = dense_gap(torus, states=48)
    dense_values = diagonalize(torus, vectors=False).eigenvalues
    dense_window = diagonalize(half, window=gap)
    # unforced, every step is certified and the in-gap levels take the count route
    assert count_below(half.csr, gap[0]) is not None
    assert spectral._sparse_gap(torus.csr, None, 48) is not None
    if force == "unstable count":
        # delta spans the spectrum, so the counts at E -+ delta differ
        monkeypatch.setattr(spectral, "_COUNT_MARGIN", 1e12)
    else:
        inner = spectral.splu
        wrap = _asymmetric if force == "asymmetric permutation" else _complex_pivot
        monkeypatch.setattr(spectral, "splu", lambda *a, **kw: wrap(inner(*a, **kw)))
    assert count_below(half.csr, gap[0]) is None
    assert spectral._sparse_gap(torus.csr, None, 48) is None
    hs = make_half_space(model, None, 4, states=48)
    assert hs.mu == float(0.5 * (dense_values[47] + dense_values[48]))
    assert hs.bulk_gap == detect_gap(diagonalize(torus, vectors=False), hs.mu)
    assert hs.eigen.eigenvalues.tobytes() == dense_window.eigenvalues.tobytes()
    assert hs.eigen.eigenvectors.tobytes() == dense_window.eigenvectors.tobytes()


def test_singular_shift_is_none():
    # E exactly on a level of a diagonal matrix: an exactly singular factor
    A = sparse.csr_array(np.diag([-1.0, 0.0, 1.0]).astype(complex))
    assert count_below(A, 0.0) is None
    assert count_below(A, 0.5) == 2
    # a level 1e-15 above E: the factor is regular, the counts at E -+ delta differ
    near = sparse.csr_array(np.diag([-1.0, 1e-15, 1.0]).astype(complex))
    assert count_below(near, 0.0) is None


def test_certified_gap_refuses_a_non_hermitian_matrix(monkeypatch):
    sample = build_hamiltonian(harper(12, 0.3, 13), 0)
    H = sample.matrix.copy()
    H[3, 7] += 2.5e-6
    monkeypatch.setattr(spectral, "splu", None)
    with pytest.raises(spectral.ConvergenceFailureError, match=r"deviation 2\.50e-06"):
        certified_gap(dataclasses.replace(sample, csr=sparse.csr_array(H)), states=48)
