import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from topoinv import (
    DisorderSpec,
    FluxPath,
    SymmetrySpec,
    build_hamiltonian,
    diagonalize,
    fermi_projection,
    flow,
    halfflux_kernel_parity,
    insert_flux,
    kramers_halfflux_probe,
    majorana_zero_mode_parity,
    make_named_model,
    models,
    pair_index,
    spectral,
    spectral_flow,
    z2_spectral_flow,
)
from topoinv.errors import (
    ConvergenceFailureError,
    KernelAtEndpointError,
    NoGapError,
    SymmetryBrokenAtHalfFluxError,
)
from topoinv.flow import flow_trace, majorana_form
from topoinv.harness import load_config
from topoinv.invariants import _pfaffian_sign_logabs
from topoinv.models import OPEN, SIGMA_1, flux_string

ROOT = Path(__file__).resolve().parent.parent


def bdg_phs_spec():
    return SymmetrySpec(s_ph=SIGMA_1.real, eta_ph=+1)


def qwz_flux_path(mass=1.0, lam=0.0, seed=0, n=16):
    dis = DisorderSpec(strength=lam, seed=5)
    model = make_named_model("qwz", sizes=n, boundary="open", mass=mass, disorder=dis)
    sample = build_hamiltonian(model, seed)
    return sample, FluxPath(base=sample, plaquette=(n // 2, n // 2))


def test_spectral_flow_chern_one():
    sample, path = qwz_flux_path()
    res = spectral_flow(path, 0.0)
    assert res.net == 1
    assert res.raw_net == 0  # the outer boundary returns what the defect pumps


def test_spectral_flow_trivial():
    _, path = qwz_flux_path(mass=5.0, n=12)
    res = spectral_flow(path, 0.0)
    assert res.net == 0 and len(res.crossings) == 0


def test_spectral_flow_matches_pair_index_disordered():
    for seed in (1, 2):
        sample, path = qwz_flux_path(lam=0.3, seed=seed)
        res = spectral_flow(path, 0.0)
        pi = pair_index(fermi_projection(diagonalize(sample), 0.0))
        assert res.net == pi.rounded == 1


def test_spectral_flow_concatenation():
    sample, _ = qwz_flux_path(lam=0.3, seed=3)
    full = FluxPath(base=sample, plaquette=(8, 8))
    first = FluxPath(base=sample, plaquette=(8, 8), ts=list(np.linspace(0, 0.5, 11)))
    second = FluxPath(base=sample, plaquette=(8, 8), ts=list(np.linspace(0.5, 1.0, 11)))
    total = spectral_flow(full, 0.0).net
    parts = spectral_flow(first, 0.0).net + spectral_flow(second, 0.0).net
    assert total == parts


def test_endpoint_gauge_equivalence():
    for name, kw, plaq in (("qwz", dict(sizes=12, boundary="open", mass=1.0), (6, 6)),
                           ("kitaev_chain", dict(sizes=32, boundary="open", mu=0.3), (16,))):
        sample = build_hamiltonian(make_named_model(name, **kw))
        end = insert_flux(sample, 1.0, plaq)
        dev = np.abs(np.sort(np.linalg.eigvalsh(end.matrix))
                     - np.sort(np.linalg.eigvalsh(sample.matrix))).max()
        assert dev < 1e-9


def test_flow_trace_rows():
    sample, path = qwz_flux_path(n=12)
    rows = flow_trace(spectral_flow(path, 0.0))
    assert len(rows) > 0
    branches = {b for _, _, b in rows}
    assert all(isinstance(b, int) for b in branches)
    ts = sorted({t for t, _, _ in rows})
    assert ts[0] == 0.0 and ts[-1] == 1.0


def _fully_solved_flow(monkeypatch, path):
    """spectral_flow with every flux value solved in full, the band cut from that."""
    inner = flow.diagonalize
    with monkeypatch.context() as m:
        m.setattr(flow, "diagonalize",
                  lambda s, window=None, vectors=True, **kwargs: inner(s, None, vectors))
        return spectral_flow(FluxPath(base=path.base, plaquette=path.plaquette, ts=path.ts), 0.0)


def _assert_same_flow(a, b):
    assert (a.net, a.raw_net) == (b.net, b.raw_net)
    assert abs(a.min_overlap - b.min_overlap) < 1e-12
    assert [(c["t"], c["direction"], c["branch"]) for c in a.crossings] == \
        [(c["t"], c["direction"], c["branch"]) for c in b.crossings]
    assert all(abs(c["weight"] - d["weight"]) < 1e-12 for c, d in zip(a.crossings, b.crossings))
    rows_a, rows_b = flow_trace(a), flow_trace(b)
    assert [(t, k) for t, _, k in rows_a] == [(t, k) for t, _, k in rows_b]
    assert max(abs(ea - eb) for (_, ea, _), (_, eb, _) in zip(rows_a, rows_b)) < 1e-12


def test_windowed_flow_matches_full_decompositions(monkeypatch):
    sample, banded = qwz_flux_path(lam=0.3, seed=2, n=12)
    inner = flow.diagonalize
    solves = []

    def spy(s, window=None, vectors=True, **kwargs):
        solves.append((s, window, vectors, kwargs))
        return inner(s, window, vectors, **kwargs)

    monkeypatch.setattr(flow, "diagonalize", spy)
    a = spectral_flow(banded, 0.0)
    # half-width: twice the smallest step norm of the grid
    width = min(2.0 * banded.step_norm(t0, t1) for t0, t1 in zip(banded.ts, banded.ts[1:]))
    band = (-width, width)
    sampled = [(s, window, kw["count"]) for s, window, vectors, kw in solves
               if vectors and s is not sample]
    # each flux value but t = 0 was solved (a skipped one too), only on the band,
    # with the band's level count certified
    assert len(sampled) >= len(a.branches) - 1
    assert all(window == band for _, window, _ in sampled)
    for s, _, count in sampled:
        w = np.linalg.eigvalsh(s.matrix)
        assert count == int(((w > band[0]) & (w < band[1])).sum())

    _assert_same_flow(a, _fully_solved_flow(monkeypatch, banded))


@pytest.mark.parametrize("name, kw, plaquette", [
    ("qwz", dict(sizes=(12, 10), boundary=("periodic", "open"), mass=1.0), (11, 4)),
    ("kitaev_chain", dict(sizes=16, boundary="open", mu=0.3), (8,))])
def test_string_block_is_the_flux_sample_on_the_string_rows(name, kw, plaquette):
    # the step norms and level counts read H(t) only there: it must be all that changes
    model = make_named_model(name, disorder=DisorderSpec(strength=0.3, seed=5), **kw)
    sample = build_hamiltonian(model, 3)
    string = flux_string(sample, plaquette)
    rows = string.rows
    for t in (0.0, 0.3, 0.5, 1.0):
        H = insert_flux(sample, t, plaquette).matrix
        assert np.array_equal(string.block_at(t), H[np.ix_(rows, rows)])
        assert np.array_equal(string.sample_at(t).matrix, H)
        rest = np.setdiff1d(np.arange(len(H)), rows)
        assert np.array_equal(H[rest], sample.matrix[rest])


@pytest.mark.parametrize("name, kw, plaquette", [
    ("qwz", dict(sizes=10, boundary="open", mass=1.0), (5, 5)),
    ("kane_mele_qsh", dict(sizes=8, boundary=("periodic", "open"), rashba=0.3), (4, 3)),
    ("harper", dict(sizes=(12, 8), boundary=("periodic", "open")), (6, 4)),
    ("kitaev_chain", dict(sizes=16, boundary="periodic", mu=0.3), (15,))])
def test_flux_string_is_one_antisymmetric_angle_block(name, kw, plaquette):
    # the string's angles, one per stored entry of the CSR form, placed on the rows
    # form one antisymmetric block, so every H(t) is Hermitian as the sample is, and
    # the block the flux steps read is the flux sample on the rows
    model = make_named_model(name, disorder=DisorderSpec(strength=0.3, seed=5), **kw)
    sample = build_hamiltonian(model, 3)
    string = flux_string(sample, plaquette)
    rows, A = string.rows, sample.csr
    assert np.array_equal(rows, np.unique(rows)) and string.angle.shape == string.entries.shape
    r, c = np.searchsorted(A.indptr, string.entries, side="right") - 1, A.indices[string.entries]
    assert np.isin(r, rows).all() and np.isin(c, rows).all()
    angle = np.zeros(A.shape)
    angle[r, c] = string.angle
    assert np.all(string.angle) and np.array_equal(angle, -angle.T)
    assert np.array_equal(sample.matrix, sample.matrix.conj().T)
    for t in (0.0, 0.1, 0.5, 0.7, 1.0):
        H = string.sample_at(t).matrix
        assert np.array_equal(string.block_at(t), H[np.ix_(rows, rows)])
        assert np.array_equal(H, H.conj().T)


def test_flux_path_keeps_only_the_base_decomposition():
    # no state grows with the flux values solved: the base decomposition and
    # the t-independent string are all a path keeps
    sample, path = qwz_flux_path(n=10)
    spectral_flow(path, 0.0)
    assert set(vars(path)) == {"base", "plaquette", "ts", "base_eigen", "string"}
    assert path.base_eigen.sample is sample and path.base_eigen.window is None
    assert path.string.sample is sample


def test_flow_walks_the_string_once_per_path(monkeypatch):
    inner = models._string_bonds
    walks = []

    def counted(*args):
        walks.append(args)
        return inner(*args)

    monkeypatch.setattr(models, "_string_bonds", counted)
    path = laughlin_path(0)
    res = spectral_flow(path, 0.0)
    assert res.net == 1 and len(walks) == 1


def test_count_route_steps_never_form_the_dense_matrix(monkeypatch):
    # a flux step whose levels the count route solved reads only the CSR form of H(t)
    inner_diagonalize, inner_shift_invert = flow.diagonalize, spectral._shift_invert
    counted, accepted = [], []

    def diagonalize_spy(sample, *args, **kwargs):
        if kwargs.get("count") is not None:
            counted.append(sample)
        return inner_diagonalize(sample, *args, **kwargs)

    def shift_invert_spy(*args):
        solved = inner_shift_invert(*args)
        accepted.append(solved is not None)
        return solved

    monkeypatch.setattr(flow, "diagonalize", diagonalize_spy)
    monkeypatch.setattr(spectral, "_shift_invert", shift_invert_spy)
    assert spectral_flow(laughlin_path(0), 0.0).net == 1
    assert len(counted) == len(accepted) and any(accepted)
    assert all("matrix" not in sample.__dict__
               for sample, ok in zip(counted, accepted) if ok)


def test_laughlin_pump_script(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_laughlin_pump.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("spectral flow 1 (raw 0), pair index 1 ")
    lines = (tmp_path / "flow.csv").read_text().splitlines()
    assert lines[0] == "t,eigenvalue,branch" and len(lines) > 21


def laughlin_path(seed):
    """The flux path of `configs/qwz_laughlin.cfg` at one realization seed; None
    stands for the clean open qwz 12 x 12 path."""
    if seed is None:
        return qwz_flux_path(n=12)[1]
    model = load_config(ROOT / "configs" / "qwz_laughlin.cfg").model().with_boundaries(OPEN)
    n = model.lattice.linear_sizes
    return FluxPath(base=build_hamiltonian(model, seed), plaquette=(n[0] // 2, n[1] // 2))


@pytest.mark.parametrize("seed, refined, skipped", [
    pytest.param(2, set(), set(), id="2"), pytest.param(4, set(), set(), id="4"),
    pytest.param(None, {0.475, 0.4875}, {0.5}, id="clean12")])
def test_flow_trace_is_the_counted_branches(monkeypatch, seed, refined, skipped):
    """The band solves track what full solves track, and the trace holds the
    branches the flow counted, at every flux value it accepted.  The clean
    path refines toward t = 1/2, where two levels meet at mu, and skips that
    point; each crossing is one branch through mu."""
    path = laughlin_path(seed)
    res = spectral_flow(path, 0.0)
    _assert_same_flow(res, _fully_solved_flow(monkeypatch, path))
    grid = [t for t, _, _ in res.branches]
    rows = flow_trace(res)
    assert sorted({t for t, _, _ in rows}) == grid
    assert set(grid) - set(path.ts) == refined and set(path.ts) - set(grid) == skipped
    steps = {0.5 * (t0 + t1): (t0, t1) for t0, t1 in zip(grid, grid[1:])}
    assert res.crossings
    for c in res.crossings:
        t0, t1 = steps[c["t"]]
        (e0,), (e1,) = ([e for t, e, b in rows if t == tt and b == c["branch"]] for tt in (t0, t1))
        assert e0 * e1 < 0 and np.sign(e1 - e0) == c["direction"]


@pytest.mark.parametrize("seed", [pytest.param(12, id="12"), pytest.param(14, id="14"),
                                  pytest.param(15, id="15"), pytest.param(None, id="clean12")])
def test_flow_equals_pair_index_where_the_window_edge_was_ambiguous(seed):
    # a companion-gap window once paired a level leaving it with one entering
    # it, two unrelated vectors far from mu, and raised BranchAmbiguityError
    path = laughlin_path(seed)
    res = spectral_flow(path, 0.0)
    pi = pair_index(fermi_projection(path.base_eigen, 0.0))
    assert res.net == pi.rounded == 1


def test_flow_reads_only_its_path(monkeypatch):
    """The band is Weyl's bound from the path's own step norms: no torus companion
    is built or certified, and seed 2 of `configs/qwz_laughlin.cfg` keeps its
    crossings, grid and overlap."""
    from topoinv import boundary

    def refuse(*args, **kwargs):
        raise AssertionError("spectral_flow certified a companion gap")

    monkeypatch.setattr(flow, "companion_gap", refuse)
    monkeypatch.setattr(boundary, "certified_gap", refuse)
    path = laughlin_path(2)
    res = spectral_flow(path, 0.0)
    assert (res.net, res.raw_net) == (1, 0)
    assert [(c["t"], c["direction"], c["branch"]) for c in res.crossings] == \
        [(0.525, 1, 15), (0.925, -1, 8)]
    assert [c["weight"] > 0.5 for c in res.crossings] == [True, False]
    assert [t for t, _, _ in res.branches] == path.ts
    assert abs(res.min_overlap - 0.9915196744407626) < 1e-9


def test_flow_needs_a_gap_of_the_base_sample_at_mu():
    path = laughlin_path(2)
    w = path.base_eigen.eigenvalues
    with pytest.raises(NoGapError):
        spectral_flow(path, float(w[np.abs(w).argmin()]))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(lam=st.floats(0.0, 0.6), seed=st.integers(0, 99), px=st.integers(2, 6),
       py=st.integers(2, 6), t=st.floats(0.01, 0.99), mu=st.floats(-0.4, 0.4),
       half=st.floats(0.1, 1.0))
def test_certified_count_and_band_solve_match_dense(lam, seed, px, py, t, mu, half):
    model = make_named_model("qwz", sizes=10, boundary="open", mass=1.0,
                             disorder=DisorderSpec(strength=lam, seed=5))
    path = FluxPath(base=build_hamiltonian(model, seed), plaquette=(px, py))
    band = (mu - half, mu + half)
    sample = path.sample_at(t)
    w = np.linalg.eigvalsh(sample.matrix)
    count = path.level_count(t, *band)
    edges = np.abs(np.subtract.outer(np.r_[w, path.base_eigen.eigenvalues], band)).min()
    assert count == int(((w > band[0]) & (w < band[1])).sum()) or (count is None and edges < 1e-8)
    eig = diagonalize(sample, window=band, count=count)
    dense, _, _ = spectral._partial_eigh(sample.matrix, band, None, None)
    assert len(eig.eigenvalues) == len(dense)
    assert np.abs(eig.eigenvalues - dense).max(initial=0.0) < 1e-12


def test_failed_shift_invert_takes_the_dense_route(monkeypatch):
    path = laughlin_path(None)
    sample, band = path.sample_at(0.3), (-0.6, 0.6)
    count = path.level_count(0.3, *band)
    dense, _, _ = spectral._partial_eigh(sample.matrix, band, None, None)
    assert count == len(dense) > 0
    inner_dense, inner_eigsh = spectral._partial_eigh, spectral.eigsh
    routes = []

    def counted(*args):
        routes.append("dense")
        return inner_dense(*args)

    monkeypatch.setattr(spectral, "_partial_eigh", counted)
    eig = diagonalize(sample, window=band, count=count)
    assert routes == [] and np.abs(eig.eigenvalues - dense).max() < 1e-12

    def raising(*args, **kwargs):
        raise ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

    def one_short(*args, **kwargs):
        w, v = inner_eigsh(*args, **kwargs)
        return w[1:], v[:, 1:]

    for eigsh, k in ((raising, count), (one_short, count), (inner_eigsh, count + 1)):
        monkeypatch.setattr(spectral, "eigsh", eigsh)
        routes.clear()
        eig = diagonalize(sample, window=band, count=k)
        assert routes == ["dense"] and np.array_equal(eig.eigenvalues, dense)


@pytest.mark.parametrize("kwargs", [
    dict(window=(-0.6, 0.6), count=4), dict(window=(-0.6, 0.6)), dict(mu=0.0), dict(states=3),
    dict(vectors=False), dict()], ids=["count", "window", "mu", "states", "values", "full"])
def test_diagonalize_refuses_a_non_hermitian_matrix(monkeypatch, kwargs):
    # every route checks the CSR form and reports the deviation before any solve starts
    sample = laughlin_path(None).sample_at(0.3)
    H = sample.matrix.copy()
    H[3, 7] += 2.5e-6
    monkeypatch.setattr(spectral, "eigsh", None)
    monkeypatch.setattr(spectral, "_partial_eigh", None)
    with pytest.raises(ConvergenceFailureError, match=r"not Hermitian \(deviation 2\.50e-06\)"):
        diagonalize(dataclasses.replace(sample, csr=sparse.csr_array(H)), **kwargs)


# ---------------------------------------------------------------------------
# Kramers pairs at half flux
# ---------------------------------------------------------------------------

def test_kramers_halfflux_topological():
    model = make_named_model("kane_mele_qsh", sizes=14, boundary=("periodic", "open"),
                             mass=1.0, rashba=0.1)
    probe = kramers_halfflux_probe(model, (7, 7))
    assert len(probe) >= 1
    assert all(p["multiplicity"] % 2 == 0 for p in probe)
    assert all(p["degenerate"] for p in probe)


def test_kramers_halfflux_open_sample():
    # the gap comes from the periodic companion: the open sample's edge levels
    # lie inside it, so a companion open on one axis would find no gap at mu
    model = make_named_model("kane_mele_qsh", sizes=12, boundary="open", mass=1.0, rashba=0.1)
    probe = kramers_halfflux_probe(model, (6, 6))
    assert len(probe) >= 1
    assert all(p["multiplicity"] % 2 == 0 for p in probe)
    assert all(p["degenerate"] for p in probe)


def test_kramers_halfflux_trivial_control():
    model = make_named_model("kane_mele_qsh", sizes=14, boundary=("periodic", "open"),
                             mass=4.0, rashba=0.1)
    probe = kramers_halfflux_probe(model, (7, 7))
    assert len(probe) == 0 or all(p["multiplicity"] % 2 == 0 for p in probe)


def test_kramers_requires_odd_trs():
    model = make_named_model("qwz", sizes=8, boundary="open", mass=1.0)
    with pytest.raises(SymmetryBrokenAtHalfFluxError):
        kramers_halfflux_probe(model, (4, 4))


# ---------------------------------------------------------------------------
# parity flows of pairing chains
# ---------------------------------------------------------------------------

def kitaev_ring_path(mu, n=32, lam=0.0, seed=0):
    model = make_named_model("kitaev_chain", sizes=n, mu=mu, w_strength=lam)
    sample = build_hamiltonian(model, seed)
    return FluxPath(base=sample, plaquette=(n // 4,), ts=list(np.linspace(0, 1, 21)))


def test_majorana_form_real_skew():
    sample = build_hamiltonian(make_named_model("kitaev_chain", sizes=16, mu=0.3))
    T = majorana_form(sample.matrix, 16)
    assert np.abs(T + T.T).max() < 1e-12
    assert np.abs(np.sort(np.linalg.eigvalsh(1j * T))
                  - np.sort(np.linalg.eigvalsh(sample.matrix))).max() < 1e-9


def test_z2_flow_topological_and_trivial():
    assert z2_spectral_flow(kitaev_ring_path(0.0))["sf2"] == 1
    assert z2_spectral_flow(kitaev_ring_path(0.5))["sf2"] == 1
    assert z2_spectral_flow(kitaev_ring_path(2.0))["sf2"] == 0


def test_z2_flow_constant_path_trivial():
    class ConstPath(FluxPath):
        def sample_at(self, t):
            return self.base

    sample = build_hamiltonian(make_named_model("kitaev_chain", sizes=24, mu=0.5))
    assert z2_spectral_flow(ConstPath(base=sample, plaquette=(6,)))["sf2"] == 0


def test_z2_flow_pfaffian_sign_constant_on_gapped_segments():
    res = z2_spectral_flow(kitaev_ring_path(2.0))
    signs = [s for _, s in res["signs"]]
    assert len(set(signs)) == 1
    res2 = z2_spectral_flow(kitaev_ring_path(0.5))
    before = [s for t, s in res2["signs"] if s != 0 and t < 0.5]
    after = [s for t, s in res2["signs"] if s != 0 and t > 0.5]
    assert len(set(before)) == 1 and len(set(after)) == 1
    assert before[0] != after[0]


def test_z2_flow_partial_path_rejected():
    model = make_named_model("kitaev_chain", sizes=16, mu=0.5)
    sample = build_hamiltonian(model)
    path = FluxPath(base=sample, plaquette=(4,), ts=list(np.linspace(0, 0.4, 5)))
    with pytest.raises(KernelAtEndpointError):
        z2_spectral_flow(path)


def test_halfflux_kernel_parity_phase_diagram():
    for mu, lam, seeds, expect in ((0.0, 0.0, [0], 1), (0.5, 0.3, [1, 2], 1),
                                   (2.0, 0.0, [0], 0)):
        model = make_named_model("kitaev_chain", sizes=64, mu=mu, w_strength=lam)
        for seed in seeds:
            assert halfflux_kernel_parity(model, seed)["parity"] == expect


def test_majorana_zero_mode_parity_single_copy():
    model = make_named_model("qwz", sizes=16, mass=1.0)
    model = dataclasses.replace(model, symmetry=bdg_phs_spec())
    res = majorana_zero_mode_parity(model)
    assert res["parity"] == 1 == res["chern_mod2"]
    triv = dataclasses.replace(make_named_model("qwz", sizes=16, mass=5.0),
                               symmetry=bdg_phs_spec())
    res_t = majorana_zero_mode_parity(triv)
    assert res_t["parity"] == 0 == res_t["chern_mod2"]


def doubled_qwz(n=16, coupling=0.0):
    from topoinv.models import (
        LatticeSpec,
        MagneticFieldSpec,
        ModelDefinition,
        PERIODIC,
        SIGMA_0,
        SIGMA_2,
    )

    base = make_named_model("qwz", sizes=n, mass=1.0)
    z = np.zeros((2, 2), complex)
    hops = tuple((a, np.block([[t, z], [z, t]])) for a, t in base.hoppings)
    ons = np.block([[base.onsite, z], [z, base.onsite]])
    if coupling:
        # particle-hole odd inter-copy term; generic, no extra protecting symmetry
        ons = ons + coupling * np.kron(SIGMA_2, SIGMA_0)
    lat = LatticeSpec(2, (n, n), (PERIODIC, PERIODIC), 4)
    sym = SymmetrySpec(s_ph=np.kron(np.eye(2), SIGMA_1).real, eta_ph=+1)
    return ModelDefinition(lat, MagneticFieldSpec.zero(2), hops, ons, symmetry=sym)


def test_majorana_parity_even_pairing_and_lift():
    res = majorana_zero_mode_parity(doubled_qwz())
    assert res["parity"] == 0 == res["chern_mod2"]
    assert res["near_zero_localized"] == 2  # two modes at the defect before lifting
    lifted = majorana_zero_mode_parity(doubled_qwz(coupling=0.3))
    assert lifted["parity"] == 0
    assert lifted["near_zero_localized"] == 0  # generic symmetric perturbation removes them


def test_pfaffian_sign_helper_matches_eigen_structure():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 6))
    A = X - X.T
    sign, logabs = _pfaffian_sign_logabs(A)
    det = np.linalg.det(A)
    assert abs(np.exp(2 * logabs) - det) < 1e-8 * abs(det)
    assert sign in (-1.0, 1.0)
