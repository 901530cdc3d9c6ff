import numpy as np
import pytest

from topoinv import (
    DisorderSpec,
    SwitchFunction,
    boundary_current,
    boundary_winding,
    build_hamiltonian,
    chern_projection,
    diagonalize,
    exp_map,
    fermi_projection,
    ind_map,
    make_half_space,
    make_named_model,
    spin_edge_current,
)
from topoinv.boundary import edge_dispersion_rows
from topoinv.errors import GapMismatchError, ProfileNotDecayedError

HARPER_B = 2 * np.pi / 3


def harper_mu(n=24):
    model = make_named_model("harper", sizes=n, b12=HARPER_B)
    eig = diagonalize(build_hamiltonian(model))
    nb = n * n // 3
    return model, 0.5 * (eig.eigenvalues[nb - 1] + eig.eigenvalues[nb])


@pytest.fixture(scope="module")
def harper_halfspace():
    model, mu = harper_mu()
    half = make_half_space(model, mu)
    f = SwitchFunction("exp", half.bulk_gap)
    return half, f


def test_exp_map_trivial_insulator_is_identity():
    model = make_named_model("qwz", sizes=10, mass=5.0)
    half = make_half_space(model, 0.0)
    bu = exp_map(half, SwitchFunction("exp", half.bulk_gap))
    assert np.abs(bu.matrix - np.eye(bu.matrix.shape[0])).max() < 1e-6


def test_exp_map_profile(harper_halfspace):
    half, f = harper_halfspace
    bu = exp_map(half, f)
    assert np.abs(bu.matrix @ bu.matrix.conj().T - np.eye(len(bu.matrix))).max() < 1e-9
    assert bu.depth_profile[0] >= 0.5
    # the envelope decays by two orders of magnitude into the slab; the raw
    # profile oscillates with the magnetic period, so compare window maxima
    assert bu.depth_profile[12] < 0.05
    assert bu.depth_profile[10:13].max() < bu.depth_profile[0:3].max() / 50
    assert 0 < bu.decay_length < 6.0


def test_boundary_winding_matches_bulk(harper_halfspace):
    half, f = harper_halfspace
    P = fermi_projection(diagonalize(half.companion), half.mu)
    bulk = chern_projection(P, (1, 2)).value
    edge = boundary_winding(exp_map(half, f)).value
    assert abs(bulk - edge) < 0.05


def test_boundary_winding_circumference_stability():
    model, mu = harper_mu()
    wide = make_named_model("harper", sizes=(48, 24), b12=HARPER_B)
    vals = []
    for m in (model, wide):
        half = make_half_space(m, mu)
        f = SwitchFunction("exp", half.bulk_gap)
        vals.append(boundary_winding(exp_map(half, f)).value)
    assert abs(vals[0] - vals[1]) < 2e-2


def test_boundary_winding_profile_gate():
    thin = make_named_model("harper", sizes=(24, 6), b12=HARPER_B)
    _, mu = harper_mu()
    half = make_half_space(thin, mu)
    bu = exp_map(half, SwitchFunction("exp", half.bulk_gap))
    with pytest.raises(ProfileNotDecayedError):
        boundary_winding(bu)


def test_exp_map_thin_slab_refused():
    # the envelope fit of the depth profile reads three layers
    half = make_half_space(make_named_model("qwz", sizes=(8, 2), mass=1.0), 0.0)
    with pytest.raises(ProfileNotDecayedError, match="at least 3 layers"):
        exp_map(half, SwitchFunction("exp", half.bulk_gap))


def test_bbc_disordered(harper_halfspace):
    _, f = harper_halfspace
    model, mu = harper_mu()
    dis = DisorderSpec(strength=0.3, seed=21)
    dm = make_named_model("harper", sizes=24, b12=HARPER_B, disorder=dis)
    for seed in range(3):
        half = make_half_space(dm, mu, seed)
        fd = SwitchFunction("exp", half.bulk_gap)
        bulk = chern_projection(fermi_projection(diagonalize(half.companion), mu), (1, 2)).value
        edge = boundary_winding(exp_map(half, fd)).value
        assert abs(bulk - edge) < 0.05


def test_boundary_current_values(harper_halfspace):
    half, f = harper_halfspace
    near = boundary_current(half, f)
    far = boundary_current(half, f, orientation="far")
    assert abs(near - 1.0) < 0.02
    assert abs(near + far) < 1e-3


def test_boundary_current_trivial():
    model = make_named_model("qwz", sizes=10, mass=5.0)
    half = make_half_space(model, 0.0)
    assert abs(boundary_current(half, SwitchFunction("exp", half.bulk_gap))) < 1e-6


def test_gap_mismatch_guard(harper_halfspace):
    # the half-space eigenpairs are solved on the bulk gap, so a wider switch
    # would drop terms; every boundary functional must refuse it
    half, _ = harper_halfspace
    lo, hi = half.bulk_gap
    for bad in (SwitchFunction("exp", (lo - 1.0, hi)), SwitchFunction("exp", (lo, hi + 1.0))):
        for functional, *extra in ((boundary_current,), (exp_map,), (spin_edge_current, np.eye(1))):
            with pytest.raises(GapMismatchError):
                functional(half, bad, *extra)


def test_edge_state_persistence_under_disorder():
    # edge level spacing scales with 1/circumference; 64 is the smallest
    # desk-scale circumference where every gap subinterval of width |gap|/8
    # is guaranteed to contain spectrum
    model, mu = harper_mu()
    dis = DisorderSpec(strength=0.3, seed=33)
    dm = make_named_model("harper", sizes=(64, 12), b12=HARPER_B, disorder=dis)
    for seed in range(3):
        half = make_half_space(dm, mu, seed)
        lo, hi = half.bulk_gap
        ev = np.linalg.eigvalsh(half.hamiltonian.matrix)
        inside = np.sort(ev[(ev > lo) & (ev < hi)])
        gaps = np.diff(np.concatenate([[lo], inside, [hi]]))
        assert gaps.max() < (hi - lo) / 8


def test_ind_map_ssh_zero_mode_count():
    for m, expect in ((0.0, 1.0), (2.0, 0.0)):
        model = make_named_model("ssh", sizes=64, m=m)
        half = make_half_space(model, 0.0)
        f = SwitchFunction("ind", half.bulk_gap)
        res = ind_map(half, f, model.symmetry.s_ch)
        assert abs(res.trace_difference - expect) < 1e-6


@pytest.mark.slow
def test_ind_map_chiral_3d_surface_sectors():
    import dataclasses

    from topoinv.models import MagneticFieldSpec

    model = make_named_model("chiral_3d", sizes=(6, 6, 8), mass=2.0)
    # surface-gap opener: weak field perpendicular to the surface normal
    b = 2 * np.pi / 36
    B = np.zeros((3, 3))
    B[0, 1], B[1, 0] = b, -b
    model = dataclasses.replace(model, field=MagneticFieldSpec(B))
    half = make_half_space(model, 0.0)
    f = SwitchFunction("ind", half.bulk_gap)
    res = ind_map(half, f, model.symmetry.s_ch, surface_split=True)
    tp, tm = res.sector_traces
    assert abs((tp - tm) - round(tp - tm)) < 0.1


def test_spin_edge_current_decoupled_equals_spin_pairing():
    model = make_named_model("kane_mele_qsh", sizes=12, mass=1.0)
    half = make_half_space(model, 0.0)
    f = SwitchFunction("exp", half.bulk_gap)
    val, budget = spin_edge_current(half, f, model.metadata["s_z"])
    assert budget == 0.0
    assert abs(val - 1.0) < 1e-2


def test_spin_edge_current_trivial_and_perturbed():
    triv = make_named_model("kane_mele_qsh", sizes=10, mass=4.0)
    half_t = make_half_space(triv, 0.0)
    val_t, _ = spin_edge_current(half_t, SwitchFunction("exp", half_t.bulk_gap),
                                 triv.metadata["s_z"])
    assert abs(val_t) < 1e-6
    pert = make_named_model("kane_mele_qsh", sizes=12, mass=1.0, rashba=0.1, zeeman=0.1)
    half_p = make_half_space(pert, 0.0)
    f = SwitchFunction("exp", half_p.bulk_gap)
    val_p, budget = spin_edge_current(half_p, f, pert.metadata["s_z"])
    assert abs(val_p) > 0.5
    assert abs(val_p - 1.0) <= budget


def test_spin_budget_is_commutator_two_norm():
    model = make_named_model("kane_mele_qsh", sizes=8, mass=1.0, rashba=0.3, zeeman=0.2)
    half = make_half_space(model, 0.0)
    f = SwitchFunction("exp", half.bulk_gap)
    _, budget = spin_edge_current(half, f, model.metadata["s_z"])
    H, s_z = half.hamiltonian.matrix, np.kron(np.eye(half.lattice.num_sites), model.metadata["s_z"])
    want = np.linalg.norm(H @ s_z - s_z @ H, 2) * f.c_norm()
    assert want > 0.0
    assert abs(budget - want) < 1e-12 * want


def test_edge_dispersion_rows():
    model = make_named_model("harper", sizes=(24, 12), boundary=("periodic", "open"),
                             b12=HARPER_B)
    rows = edge_dispersion_rows(model, nk=12)
    assert len(rows) == 12 * 12
    weights = [w for _, _, w in rows]
    assert max(weights) > 0.9 and min(weights) >= 0.0


@pytest.mark.parametrize("name, params", [
    ("harper", {}), ("qwz", {}), ("kane_mele_qsh", {"rashba": 0.1})])
def test_edge_dispersion_is_the_cylinder_spectrum(name, params):
    # the strip folds the bonds leaving column x = 0 with exp(-i k a_0): at the
    # N_0 grid momenta its levels are those of the assembled cylinder
    model = make_named_model(name, sizes=(12, 9), boundary=("periodic", "open"), **params)
    strip = np.sort([e for _, e, _ in edge_dispersion_rows(model, nk=12)])
    cylinder = np.linalg.eigvalsh(build_hamiltonian(model).matrix)
    assert np.abs(strip - cylinder).max() <= 1e-12
