import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoinv import (
    DisorderSpec,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    SymmetrySpec,
    build_hamiltonian,
    chern_projection,
    chern_unitary,
    diagonalize,
    dirac_phase,
    fermi_projection,
    fermi_unitary,
    hardy_index,
    nc_derivative,
    pair_index,
    pairing_range_check,
    pfaffian,
    spin_chern,
    streda_derivative,
    trace_per_volume,
    veg_invariant,
    z2_kernel_parity,
)
from topoinv.errors import (
    BadDimensionError,
    EvenIndexSetError,
    NoGapError,
    NotAntisymmetricError,
    OddDimensionError,
    OddIndexSetError,
    ParamOutOfRangeError,
)
from topoinv.invariants import FermiUnitary, FredholmCompression, trs_fredholm
from topoinv.models import PERIODIC, SIGMA_0

from kspace_oracle import chern_kspace_oracle


# ---------------------------------------------------------------------------
# trace per volume and derivative
# ---------------------------------------------------------------------------

def test_trace_identity_exact():
    sample = build_hamiltonian(make_harper(6))
    assert trace_per_volume(np.eye(sample.dim), sample) == 1.0


def make_harper(n, **kw):
    from topoinv import make_named_model
    return make_named_model("harper", sizes=n, **kw)


def test_trace_of_derivative_vanishes():
    sample = build_hamiltonian(make_harper(6))
    for axis in (0, 1):
        val = trace_per_volume(nc_derivative(sample.matrix, sample, axis), sample)
        assert abs(val) < 1e-12


def test_derivative_of_diagonal_vanishes():
    sample = build_hamiltonian(make_harper(6))
    A = np.diag(np.arange(sample.dim, dtype=float))
    assert np.abs(nc_derivative(A, sample, 0)).max() == 0.0


def test_derivative_of_shift_open_chain():
    from topoinv import make_named_model
    model = make_named_model("ssh", sizes=8, m=0.0, boundary="open")
    sample = build_hamiltonian(model)
    S = np.diag(np.ones(14), -2)  # site shift by one (fiber 2)
    dS = nc_derivative(S, sample, 0)
    assert np.abs(dS - 1j * S).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_leibniz_rule(seed):
    rng = np.random.default_rng(seed)
    sample = build_hamiltonian(make_harper(9, b12=0.0))
    n = sample.dim
    pos = sample.lattice.positions()[:, :2]

    def finite_range(rg):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for ax in (0, 1):
            d = pos[:, ax][:, None] - pos[:, ax][None, :]
            d = (d + 4.5) % 9 - 4.5
            A[np.abs(d) > rg] = 0.0
        return A

    A, B = finite_range(1), finite_range(1)
    for ax in (0, 1):
        lhs = nc_derivative(A @ B, sample, ax)
        rhs = nc_derivative(A, sample, ax) @ B + A @ nc_derivative(B, sample, ax)
        assert np.abs(lhs - rhs).max() < 1e-9


# ---------------------------------------------------------------------------
# even pairings
# ---------------------------------------------------------------------------

def test_harper_state_density(harper24_projection):
    _, P = harper24_projection
    res = chern_projection(P, ())
    assert abs(res.value - 1.0 / 3.0) < 1e-10


def test_harper_chern(harper24_projection):
    _, P = harper24_projection
    res = chern_projection(P, (1, 2))
    assert abs(res.value - 1.0) < 1e-3


def test_constant_projections_pair_to_zero():
    sample = build_hamiltonian(make_harper(6))
    eig = diagonalize(sample)
    P = fermi_projection(eig, eig.eigenvalues[-1] + 1.0)
    # P = V V*: no occupied vector gives P = 0, and V = 1 gives P = 1
    identity = dataclasses.replace(eig, eigenvectors=np.eye(sample.dim))
    for fake in (dataclasses.replace(P, rank=0), dataclasses.replace(P, eigen=identity)):
        assert chern_projection(fake, (1, 2)).value == 0.0


def test_index_set_parity_guards(harper24_projection):
    _, P = harper24_projection
    with pytest.raises(OddIndexSetError):
        chern_projection(P, (1,))
    U = FermiUnitary(matrix=np.eye(P.sample.dim), sample=P.sample, fiber=1, min_singular=1.0)
    with pytest.raises(EvenIndexSetError):
        chern_unitary(U, (1, 2))


def test_cocycle_antisymmetry(harper24_projection):
    _, P = harper24_projection
    sample = P.sample
    d1 = nc_derivative(P.projector, sample, 0)
    d2 = nc_derivative(P.projector, sample, 1)
    t12 = trace_per_volume(P.projector @ d1 @ d2, sample)
    t21 = trace_per_volume(P.projector @ d2 @ d1, sample)
    # swapping the two slots flips the antisymmetrized sum
    assert abs((t12 - t21) + (t21 - t12)) < 1e-15
    assert abs(t12 - t21) > 1e-6


def test_additivity_block_models():
    from topoinv import make_named_model
    top = make_named_model("qwz", sizes=10, mass=1.0)
    triv = make_named_model("qwz", sizes=10, mass=5.0)
    z = np.zeros((2, 2), complex)
    hops = []
    for (a, t1), (_, t2) in zip(top.hoppings, triv.hoppings):
        hops.append((a, np.block([[t1, z], [z, t2]])))
    ons = np.block([[top.onsite, z], [z, triv.onsite]])
    lat = LatticeSpec(2, (10, 10), (PERIODIC, PERIODIC), 4)
    stacked = ModelDefinition(lat, MagneticFieldSpec.zero(2), tuple(hops), ons)
    P = fermi_projection(diagonalize(build_hamiltonian(stacked)), 0.0)
    P1 = fermi_projection(diagonalize(build_hamiltonian(top)), 0.0)
    P2 = fermi_projection(diagonalize(build_hamiltonian(triv)), 0.0)
    total = chern_projection(P, (1, 2)).value
    parts = chern_projection(P1, (1, 2)).value + chern_projection(P2, (1, 2)).value
    assert abs(total - parts) < 1e-8


def test_homotopy_invariance_along_gapped_path():
    from topoinv import make_named_model
    for mass in np.linspace(0.5, 1.5, 10):
        P = fermi_projection(diagonalize(build_hamiltonian(
            make_named_model("qwz", sizes=8, mass=float(mass)))), 0.0)
        assert chern_projection(P, (1, 2)).rounded == 1


# ---------------------------------------------------------------------------
# odd pairings and the chiral block
# ---------------------------------------------------------------------------

def ssh_projection(n, m, lam=0.0, seed=0):
    from topoinv import make_named_model
    dis = DisorderSpec(strength=lam, seed=1)
    model = make_named_model("ssh", sizes=n, m=m, disorder=dis)
    return model, fermi_projection(diagonalize(build_hamiltonian(model, seed)), 0.0)


def test_ssh_winding_values():
    for m, expect in ((0.0, 1), (0.5, 1), (2.0, 0)):
        model, P = ssh_projection(64, m)
        res = chern_unitary(fermi_unitary(P), (1,))
        assert abs(res.value - expect) < 1e-6


def test_identity_winding_zero():
    sample = build_hamiltonian(make_harper(6))
    U = FermiUnitary(matrix=np.eye(sample.dim), sample=sample, fiber=1, min_singular=1.0)
    res = chern_unitary(U, (1,))
    assert res.value == 0.0


def test_fermi_unitary_reconstruction():
    model, P = ssh_projection(32, 0.5)
    U = fermi_unitary(P)
    n = 32
    w, v = np.linalg.eigh(model.symmetry.s_ch)
    basis = np.hstack([np.kron(np.eye(n), v[:, w > 0.5]), np.kron(np.eye(n), v[:, w < -0.5])])
    rotated = basis.conj().T @ P.projector @ basis
    target = 0.5 * np.block([[np.eye(n), U.matrix.conj().T], [U.matrix, np.eye(n)]])
    assert np.abs(rotated - target).max() < 1e-8


def test_fermi_unitary_stable_under_chiral_breaking():
    from topoinv import make_named_model
    base = make_named_model("ssh", sizes=64, m=0.9)
    perturbed = dataclasses.replace(base, onsite=base.onsite + 0.05 * SIGMA_0)
    P = fermi_projection(diagonalize(build_hamiltonian(perturbed)), 0.0)
    U = fermi_unitary(P)
    assert U.min_singular > 1e-3
    assert chern_unitary(U, (1,)).rounded == 1


def fermi_unitary_cases():
    from topoinv import make_named_model
    ssh = lambda dis=None, **kw: make_named_model("ssh", sizes=48, m=0.5, disorder=dis, **kw)
    base = make_named_model("ssh", sizes=64, m=0.9)
    breaking = dataclasses.replace(base, onsite=base.onsite + 0.05 * SIGMA_0)
    return {
        "ssh-clean": ssh(),
        "ssh-constrained-disorder": ssh(DisorderSpec("symmetry-constrained-matrix", 0.8, 2)),
        "ssh-scalar-disorder": ssh(DisorderSpec("diagonal-scalar", 0.5, 2)),
        "ssh-chiral-breaking": breaking,
        "kitaev-clean": make_named_model("kitaev_chain", sizes=32, mu=0.4),
    }


@pytest.mark.parametrize("case", sorted(fermi_unitary_cases()))
@pytest.mark.parametrize("solve", ["full", "occupied"])
def test_fermi_unitary_matches_projector_block(case, solve):
    """The block 2 P_{-+} from the occupied vectors against the compression of
    the dense projector, fermi_unitary's former formula."""
    from topoinv import occupied_projection
    from topoinv.models import apply_fiber, chiral_sectors
    model = fermi_unitary_cases()[case]
    sample = build_hamiltonian(model, 3)
    P = (fermi_projection(diagonalize(sample), 0.0) if solve == "full"
         else occupied_projection(sample, 0.0))
    plus, minus = chiral_sectors(model.symmetry.s_ch)
    block = 2.0 * apply_fiber(minus.conj().T, apply_fiber(plus, P.projector, "right"), "left")
    uu, sv, vv = np.linalg.svd(block)
    U = fermi_unitary(P)
    assert np.abs(U.matrix - uu @ vv).max() <= 1e-12
    assert abs(U.min_singular - sv.min()) <= 1e-12


# ---------------------------------------------------------------------------
# momentum-space oracle
# ---------------------------------------------------------------------------

def test_kspace_oracle_values():
    from topoinv import make_named_model
    assert chern_kspace_oracle(make_harper(6), 1, (1, 2)).rounded == 1
    assert chern_kspace_oracle(make_named_model("qwz", sizes=6, mass=1.0), 1, (1, 2)).rounded == 1
    assert chern_kspace_oracle(make_named_model("ssh", sizes=8, m=0.0), 1, (1,)).rounded == 1
    assert chern_kspace_oracle(make_named_model("ssh", sizes=8, m=2.0), 1, (1,)).rounded == 0


def test_kspace_oracle_flat_band_trivial():
    lat = LatticeSpec(2, (6, 6), (PERIODIC, PERIODIC), 2)
    t = 0.05 * np.eye(2, dtype=complex)
    hops = (((1, 0), t), ((-1, 0), t), ((0, 1), t), ((0, -1), t))
    model = ModelDefinition(lat, MagneticFieldSpec.zero(2), hops, np.diag([2.0, -2.0]))
    assert chern_kspace_oracle(model, 1, (1, 2)).rounded == 0


def test_oracle_equivalence_with_real_space():
    from topoinv import make_named_model
    model = make_named_model("qwz", sizes=12, mass=1.0)
    P = fermi_projection(diagonalize(build_hamiltonian(model)), 0.0)
    rs = chern_projection(P, (1, 2)).value
    ks = chern_kspace_oracle(model, 1, (1, 2)).value
    assert abs(rs - ks) < 1e-3
    sshm, Ps = ssh_projection(256, 0.5)
    rs1 = chern_unitary(fermi_unitary(Ps), (1,)).value
    ks1 = chern_kspace_oracle(sshm, 1, (1,)).value
    assert abs(rs1 - ks1) < 1e-3


# ---------------------------------------------------------------------------
# Dirac phase and index pairings
# ---------------------------------------------------------------------------

def test_dirac_phase_properties(qwz_open20):
    _, sample, _ = qwz_open20
    dp = dirac_phase(sample)
    assert np.abs(np.abs(dp.G) - 1.0).max() < 1e-12


def test_dirac_phase_d1_hardy_projection():
    from topoinv import make_named_model
    sample = build_hamiltonian(make_named_model("ssh", sizes=16, m=0.0, boundary="open"))
    dp = dirac_phase(sample)
    e = dp.E
    pos = sample.lattice.positions()[:, 0]
    assert np.array_equal(e, (pos > dp.origin[0]).astype(float))


def test_dirac_phase_d3_refused():
    from topoinv import make_named_model
    # the d = 3 Hardy projection has off-diagonal spinor blocks (n_x -+ i n_y) / 2,
    # which a diagonal read would drop
    sample = build_hamiltonian(make_named_model("chiral_3d", sizes=4, mass=2.0))
    with pytest.raises(BadDimensionError, match="spinor"):
        dirac_phase(sample)


def test_pair_index_values(qwz_open20):
    _, sample, P = qwz_open20
    res = pair_index(P)
    assert res.rounded == 1 and res.error_proxy < 0.05
    zero = dataclasses.replace(P, rank=0)
    assert pair_index(zero).value == 0.0


def test_pair_index_disordered():
    from topoinv import make_named_model
    for seed in range(3):
        model = make_named_model("qwz", sizes=20, boundary="open", mass=1.0,
                                 disorder=DisorderSpec(strength=0.5, seed=2))
        sample = build_hamiltonian(model, seed)
        P = fermi_projection(diagonalize(sample), 0.0)
        assert pair_index(P).rounded == 1


def test_hardy_index_values():
    from topoinv import make_named_model
    for m, expect in ((0.0, 1), (2.0, 0)):
        model = make_named_model("ssh", sizes=256, m=m)
        sample = build_hamiltonian(model)
        P = fermi_projection(diagonalize(sample), 0.0)
        U = fermi_unitary(P)
        res = hardy_index(U)
        assert res.rounded == expect


def test_hardy_index_identity_zero():
    from topoinv import make_named_model
    model = make_named_model("ssh", sizes=64, m=0.0)
    sample = build_hamiltonian(model)
    U = FermiUnitary(matrix=np.eye(64), sample=sample, fiber=1, min_singular=1.0)
    res = hardy_index(U)
    assert res.rounded == 0


# ---------------------------------------------------------------------------
# parity index and spin pairing
# ---------------------------------------------------------------------------

def qsh_open(n, mass, lam=0.0, seed=0, rashba=0.1):
    from topoinv import make_named_model
    model = make_named_model("kane_mele_qsh", sizes=n, boundary="open", mass=mass,
                             rashba=rashba, disorder=DisorderSpec(strength=lam, seed=3))
    sample = build_hamiltonian(model, seed)
    return model, sample, fermi_projection(diagonalize(sample), 0.0)


def test_z2_parity_values():
    for mass, expect in ((1.0, 1.0), (3.0, 0.0)):
        model, sample, P = qsh_open(14, mass)
        res = z2_kernel_parity(trs_fredholm(P))
        assert res.value == expect
        assert res.extra["margin"] > 1e2


def test_z2_parity_antisymmetric_unitary_trivial():
    model, sample, _ = qsh_open(6, 1.0, rashba=0.0)
    # a sample whose model declares s_tr = 1, eta = +1
    model = dataclasses.replace(model, symmetry=SymmetrySpec(s_tr=np.eye(4), eta_tr=+1))
    sample = dataclasses.replace(sample, model=model)
    n = sample.dim // 2
    T = FredholmCompression(basis=np.eye(sample.dim),
                            matrix=np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]])),
                            sample=sample)
    # T itself is antisymmetric and unitary: empty kernel, parity 0
    res = z2_kernel_parity(T)
    assert res.value == 0.0


def test_z2_parity_rejects_nonantisymmetric():
    model, sample, P = qsh_open(6, 1.0)
    bad = FredholmCompression(basis=np.eye(sample.dim),
                              matrix=np.eye(sample.dim) + np.diag(np.arange(sample.dim) * 0.01),
                              sample=sample)
    assert model.symmetry.eta_tr == -1
    with pytest.raises(NotAntisymmetricError):
        z2_kernel_parity(bad)


def test_spin_chern_values():
    from topoinv import make_named_model
    for kw, expect in ((dict(mass=1.0), 1), (dict(mass=3.0), 0),
                       (dict(mass=1.0, zeeman=0.1), 1),
                       (dict(mass=1.0, rashba=0.1, zeeman=0.1), 1)):
        model = make_named_model("kane_mele_qsh", sizes=10, **kw)
        P = fermi_projection(diagonalize(build_hamiltonian(model)), 0.0)
        res = spin_chern(P, model.metadata["s_z"])
        assert res.rounded == expect
        assert res.extra["spin_gap"] > 0.5
        assert abs(res.extra["sum_rule_residue"]) < 1e-3


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_two_by_two():
    assert abs(pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) - 2.5) < 1e-12


def test_pfaffian_four_by_four_cofactor():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a12, a13, a14, a23, a24, a34 = rng.normal(size=6)
        A = np.array([
            [0, a12, a13, a14],
            [-a12, 0, a23, a24],
            [-a13, -a23, 0, a34],
            [-a14, -a24, -a34, 0],
        ])
        expect = a12 * a34 - a13 * a24 + a14 * a23
        assert abs(pfaffian(A) - expect) < 1e-10 * max(1, abs(expect))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_pfaffian_squares_to_determinant(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(8, 8))
    A = X - X.T
    det = np.linalg.det(A)
    assert abs(pfaffian(A) ** 2 - det) < 1e-8 * max(1.0, abs(det))


def test_pfaffian_guards():
    with pytest.raises(OddDimensionError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(NotAntisymmetricError):
        pfaffian(np.eye(4))


# ---------------------------------------------------------------------------
# field derivative, resolvent route, generator audit
# ---------------------------------------------------------------------------

def test_streda_harper():
    model = make_harper(24, b12=2 * np.pi * 8 / 576)
    lhs, rhs = streda_derivative(model, ())
    assert abs(lhs - rhs) / abs(rhs) < 5e-2
    assert abs(rhs * 2 * np.pi - 1.0) < 5e-2


def test_streda_atomic_insulator_zero():
    lat = LatticeSpec(2, (8, 8), (PERIODIC, PERIODIC), 2)
    model = ModelDefinition(lat, MagneticFieldSpec.zero(2), (), np.diag([2.0, -2.0]))
    lhs, rhs = streda_derivative(model, (), state_count_fn=lambda m, b: 64)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-10


def test_tracked_gap_state_count_checked():
    # b12 = 0: the field step below puts -1 states under the tracked gap
    with pytest.raises(ParamOutOfRangeError):
        streda_derivative(make_harper(8, b12=0.0), ())
    with pytest.raises(ParamOutOfRangeError):
        pairing_range_check(make_harper(8, b12=0.0), (1, 2), (1, 2))
    # a count that splits the 64-fold lower level finds no gap
    lat = LatticeSpec(2, (8, 8), (PERIODIC, PERIODIC), 2)
    model = ModelDefinition(lat, MagneticFieldSpec.zero(2), (), np.diag([2.0, -2.0]))
    with pytest.raises(NoGapError):
        streda_derivative(model, (), state_count_fn=lambda m, b: 10)


def test_veg_matches_direct_pairing():
    from topoinv import make_named_model
    sample = build_hamiltonian(make_named_model("qwz", sizes=14, mass=1.0))
    P = fermi_projection(diagonalize(sample), 0.0)
    res = veg_invariant(P, n_t=64)
    direct = chern_projection(P, (1, 2))
    assert abs(res.value - direct.value) < 1e-2


def test_veg_trivial_and_convergence_order():
    from topoinv import make_named_model
    triv = build_hamiltonian(make_named_model("qwz", sizes=10, mass=5.0))
    assert abs(veg_invariant(fermi_projection(diagonalize(triv), 0.0), n_t=64).value) < 1e-2
    sample = build_hamiltonian(make_named_model("qwz", sizes=10, mass=1.0))
    P = fermi_projection(diagonalize(sample), 0.0)
    direct = chern_projection(P, (1, 2)).value
    dev64 = abs(veg_invariant(P, n_t=64).value - direct)
    dev32 = abs(veg_invariant(P, n_t=32).value - direct)
    assert dev32 > 1.5 * dev64


def test_pairing_range_table():
    b = 2 * np.pi * 8 / 576
    m, p = pairing_range_check(make_harper(24, b12=2 * np.pi / 3), (1, 2), (1, 2))
    assert p == 1.0 and abs(m - p) < 5e-3
    m, p = pairing_range_check(make_harper(12, b12=b), (1, 2), ())
    assert m == 0.0 and p == 0.0
    m, p = pairing_range_check(make_harper(24, b12=b), (), (1, 2))
    assert abs(p - b / (2 * np.pi)) < 1e-12
    assert abs(m - p) < 1e-10


def test_quantization_pair_vs_realspace():
    from topoinv import make_named_model
    model = make_named_model("qwz", sizes=24, boundary="open", mass=1.0)
    sample = build_hamiltonian(model)
    P = fermi_projection(diagonalize(sample), 0.0)
    pi = pair_index(P)
    assert pi.error_proxy < 0.05
    ch = chern_projection(P, (1, 2))
    assert abs(ch.value - pi.value) < 0.05


def test_pfaffian_of_a_singular_matrix_is_zero():
    assert pfaffian(np.zeros((4, 4))) == 0.0
