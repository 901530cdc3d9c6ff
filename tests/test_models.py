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
    classify_caz,
    insert_flux,
    make_half_space,
    make_named_model,
)
from topoinv.errors import (
    BadDimensionError,
    FluxQuantizationError,
    NonHermitianHoppingsError,
    ParamOutOfRangeError,
    UnknownModelError,
)
from topoinv.models import (
    OPEN,
    PERIODIC,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    _symmetric_part,
    dual_translations,
    magnetic_translations,
)


def ssh_bloch_spectrum(n, m):
    # independent oracle: 2x2 Bloch matrix over the n discrete momenta
    ks = 2 * np.pi * np.arange(n) / n
    mags = np.abs(np.exp(-1j * ks) - 1j * m)
    return np.sort(np.concatenate([mags, -mags]))


def test_ssh_matches_bloch_oracle():
    for m in (0.0, 0.4):
        sample = build_hamiltonian(make_named_model("ssh", sizes=8, m=m))
        ev = np.sort(np.linalg.eigvalsh(sample.matrix))
        assert np.abs(ev - ssh_bloch_spectrum(8, m)).max() < 1e-10


def test_ssh_gap_edge_value():
    sample = build_hamiltonian(make_named_model("ssh", sizes=8, m=0.0))
    ev = np.linalg.eigvalsh(sample.matrix)
    assert abs(np.abs(ev).min() - 1.0) < 1e-10


def test_onsite_only_spectrum():
    lat = LatticeSpec(2, (4, 4), (PERIODIC, PERIODIC), 2)
    model = ModelDefinition(lat, MagneticFieldSpec.zero(2), (), np.diag([2.0, -2.0]))
    ev = np.sort(np.linalg.eigvalsh(build_hamiltonian(model).matrix))
    assert np.allclose(ev[:16], -2.0) and np.allclose(ev[16:], 2.0)


def harper_bloch_bands(b, q, nk=40):
    # magnetic Bloch oracle: q x q matrix, x-hop phase exp(i b j)
    bands = []
    for k1 in np.linspace(0, 2 * np.pi, nk, endpoint=False):
        for k2 in np.linspace(0, 2 * np.pi, nk, endpoint=False):
            h = np.zeros((q, q), complex)
            for j in range(q):
                h[j, j] = 2 * np.cos(k1 + b * j)
                jp = (j + 1) % q
                ph = np.exp(-1j * k2) if j == q - 1 else 1.0
                h[jp, j] += ph
                h[j, jp] += np.conj(ph)
            bands.append(np.linalg.eigvalsh(h))
    return np.array(bands)


def test_harper_three_bands():
    sample = build_hamiltonian(make_named_model("harper", sizes=6))
    ev = np.sort(np.linalg.eigvalsh(sample.matrix))
    bands = harper_bloch_bands(2 * np.pi / 3, 3)
    lo, hi = bands.min(axis=0), bands.max(axis=0)
    # 12 states per subband, inside the oracle band hulls, gap above band 1
    assert ev[11] <= hi[0] + 1e-8 and ev[0] >= lo[0] - 1e-8
    assert ev[12] - ev[11] > 0.5 * (lo[1] - hi[0])
    assert lo[1] - hi[0] > 0


def test_magnetic_commutation():
    lat = LatticeSpec(2, (6, 6), (PERIODIC, PERIODIC), 1)
    B = MagneticFieldSpec.two_dimensional(2 * np.pi / 3).B
    U1, U2 = magnetic_translations(lat, B)
    assert np.abs(U1 @ U2 - np.exp(1j * B[0, 1]) * U2 @ U1).max() < 1e-12


def test_magnetic_commutation_3d():
    lat = LatticeSpec(3, (4, 4, 4), (PERIODIC,) * 3, 1)
    B = np.array([[0.0, np.pi / 2, np.pi / 4], [-np.pi / 2, 0.0, np.pi / 2],
                  [-np.pi / 4, -np.pi / 2, 0.0]])
    Us = magnetic_translations(lat, B)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            dev = np.abs(Us[i] @ Us[j] - np.exp(1j * B[i, j]) * Us[j] @ Us[i]).max()
            assert dev < 1e-12, (i, j, dev)


def test_covariance_clean_torus():
    model = make_named_model("harper", sizes=6)
    H = build_hamiltonian(model).matrix
    lat = model.lattice
    for V in dual_translations(lat, model.field.B):
        assert np.abs(V @ H @ V.conj().T - H).max() < 1e-12
    # duals commute with the gauge translations
    Us = magnetic_translations(lat, model.field.B)
    for V in dual_translations(lat, model.field.B):
        for U in Us:
            assert np.abs(V @ U - U @ V).max() < 1e-12


def test_gauge_origin_shift_leaves_spectrum():
    # relabeling the transverse coordinate by a constant shifts every x-bond
    # phase and the seam correction; the spectrum must not move
    N = 6
    b = 2 * np.pi / 3
    sample = build_hamiltonian(make_named_model("harper", sizes=N, b12=b))
    shift = 2
    idx = lambda x, y: x * N + y
    Hs = np.zeros((N * N, N * N), complex)
    for x in range(N):
        for y in range(N):
            Hs[idx((x + 1) % N, y), idx(x, y)] += np.exp(1j * b * (y + shift))
            ph = 1.0 if y < N - 1 else np.exp(-1j * b * N * x)
            Hs[idx(x, (y + 1) % N), idx(x, y)] += ph
    Hs = Hs + Hs.conj().T
    dev = np.abs(np.sort(np.linalg.eigvalsh(Hs))
                 - np.sort(np.linalg.eigvalsh(sample.matrix))).max()
    assert dev < 1e-10


def test_flux_quantization_rejected():
    with pytest.raises(FluxQuantizationError):
        make_named_model("harper", sizes=8, b12=2 * np.pi / 3)


def test_cylinder_needs_no_quantization():
    model = make_named_model("harper", sizes=8, boundary=("periodic", "open"),
                             b12=2 * np.pi / 5)
    build_hamiltonian(model)


def test_hermiticity_closure_enforced():
    lat = LatticeSpec(1, (8,), (PERIODIC,), 2)
    t = np.array([[0, 1], [0, 0]], complex)
    with pytest.raises(NonHermitianHoppingsError):
        ModelDefinition(lat, MagneticFieldSpec.zero(1), (((1,), t),), np.zeros((2, 2)))
    with pytest.raises(NonHermitianHoppingsError):
        ModelDefinition(lat, MagneticFieldSpec.zero(1),
                        (((1,), t), ((-1,), t)), np.zeros((2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2))
def test_assembled_hermiticity_random_hoppings(seed, fiber):
    rng = np.random.default_rng(seed)
    lat = LatticeSpec(2, (5, 5), (PERIODIC, PERIODIC), fiber)
    hops = []
    for a in ((1, 0), (0, 1), (1, 1)):
        t = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
        hops.append((a, t))
        hops.append((tuple(-x for x in a), t.conj().T))
    ons = rng.normal(size=(fiber, fiber))
    ons = ons + ons.T
    model = ModelDefinition(lat, MagneticFieldSpec.two_dimensional(2 * np.pi / 5),
                            tuple(hops), ons)
    H = build_hamiltonian(model, seed % 17).matrix
    assert np.abs(H - H.conj().T).max() < 1e-12


def test_determinism():
    dis = DisorderSpec(family="diagonal-matrix", strength=0.7, seed=3)
    a = build_hamiltonian(make_named_model("qwz", sizes=6, mass=1.0, disorder=dis), 9)
    b = build_hamiltonian(make_named_model("qwz", sizes=6, mass=1.0, disorder=dis), 9)
    assert np.array_equal(a.matrix, b.matrix)
    c = build_hamiltonian(make_named_model("qwz", sizes=6, mass=1.0, disorder=dis), 10)
    assert not np.array_equal(a.matrix, c.matrix)


def test_disorder_norm_bound_and_constraint():
    dis = DisorderSpec(family="diagonal-matrix", strength=0.4, seed=0)
    mats = dis.sample_site_matrices(50, 3, 1, SymmetrySpec())
    assert max(np.linalg.norm(m, 2) for m in mats) <= 0.4 + 1e-12
    # the pairing-chain constraint projects every draw onto the sigma_3 line
    model = make_named_model("kitaev_chain", sizes=16, mu=0.0, w_strength=0.3)
    mats = model.disorder.sample_site_matrices(16, 2, 5, model.symmetry)
    for m in mats:
        assert abs(m[0, 0] + m[1, 1]) < 1e-12
        assert abs(m[0, 1]) < 1e-12
        assert np.linalg.norm(m, 2) <= 0.3 + 1e-12


def ref_constrained_site_matrices(disorder, num_sites, fiber, realization_seed, symmetry):
    """The symmetry-constrained family as a per-site loop: draw a, b (L x L) and v,
    project, normalize; the batched sampler must give these bytes."""
    rng = np.random.default_rng(np.random.SeedSequence((disorder.seed, realization_seed)))
    out = np.zeros((num_sites, fiber, fiber), dtype=complex)
    if disorder.strength == 0.0:
        return out
    for n in range(num_sites):
        a = rng.uniform(-1.0, 1.0, size=(fiber, fiber))
        b = rng.uniform(-1.0, 1.0, size=(fiber, fiber))
        h = (a + a.T) / 2 + 1j * (b - b.T) / 2
        v = rng.uniform(-1.0, 1.0)
        h = _symmetric_part(h, symmetry)
        norm = np.linalg.norm(h, 2)
        if norm > 1e-14:
            out[n] = disorder.strength * v * h / norm
    return out


@st.composite
def fibers_and_symmetries(draw):
    """(fiber, symmetry): a zoo model's operators, or sign and identity operators
    of every symmetry class on a fiber of 1 to 4 orbitals."""
    zoo = {name: make_named_model(name).symmetry
           for name in ("ssh", "qwz", "kane_mele_qsh", "kitaev_chain", "chiral_3d")}
    name = draw(st.sampled_from(sorted(zoo) + ["signs"]))
    if name != "signs":
        sym = zoo[name]
        return len(next(op for op in (sym.s_tr, sym.s_ch, np.eye(2)) if op is not None)), sym
    fiber = draw(st.integers(1, 4))
    signs = np.diag(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=fiber,
                                  max_size=fiber)))
    which = draw(st.sampled_from(["none", "tr", "ph", "ch", "tr+ch"]))
    return fiber, SymmetrySpec(s_tr=np.eye(fiber) if "tr" in which else None,
                               s_ph=np.eye(fiber) if which == "ph" else None,
                               s_ch=signs if "ch" in which else None)


@settings(max_examples=80, deadline=None)
@given(fs=fibers_and_symmetries(), num_sites=st.integers(1, 40),
       strength=st.floats(0.0, 2.0), seed=st.integers(0, 2**16), realization=st.integers(0, 99))
def test_constrained_disorder_matches_site_loop(fs, num_sites, strength, seed, realization):
    fiber, symmetry = fs
    dis = DisorderSpec(family="symmetry-constrained-matrix", strength=strength, seed=seed)
    got = dis.sample_site_matrices(num_sites, fiber, realization, symmetry)
    want = ref_constrained_site_matrices(dis, num_sites, fiber, realization, symmetry)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_named_model_symmetry_checks():
    # chiral relation of the dimerized chain
    model = make_named_model("ssh", sizes=16, m=0.3)
    H = build_hamiltonian(model).matrix
    S = np.kron(np.eye(16), SIGMA_3)
    assert np.abs(S @ H @ S + H).max() < 1e-12
    # pairing chain: Majorana representation purely imaginary
    km = make_named_model("kitaev_chain", sizes=16, mu=0.0)
    Hk = build_hamiltonian(km).matrix
    c = np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)
    C = np.kron(np.eye(16), c)
    assert np.abs((C.conj().T @ Hk @ C).real).max() < 1e-12


def test_unknown_model_and_param_range():
    with pytest.raises(UnknownModelError):
        make_named_model("nope")
    with pytest.raises(ParamOutOfRangeError):
        make_named_model("qwz", mass=2.0)


def test_classify_caz_labels():
    cases = [
        ("harper", dict(sizes=6), "A", 0),
        ("ssh", dict(sizes=16, m=0.5), "AIII", 1),
        ("kitaev_chain", dict(sizes=16, mu=0.3), "BDI", 1),
        ("kane_mele_qsh", dict(sizes=6, mass=1.0, rashba=0.1), "AII", 4),
        ("chiral_3d", dict(sizes=4, mass=2.0), "AIII", 1),
    ]
    for name, kw, label, j in cases:
        model = make_named_model(name, **kw)
        sample = build_hamiltonian(model)
        assert classify_caz(sample) == (label, j)


def test_classify_caz_invariant_under_fiber_rotation():
    model = make_named_model("kitaev_chain", sizes=12, mu=0.3)
    sample = build_hamiltonian(model)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Q, _ = np.linalg.qr(X)
    lift = np.kron(np.eye(12), Q)
    H2 = lift.conj().T @ sample.matrix @ lift
    sym = model.symmetry
    s_tr2 = Q.T @ sym.s_tr @ Q
    s_ph2 = Q.T @ sym.s_ph @ Q
    s_ch2 = Q.conj().T @ sym.s_ch @ Q

    # the transformed operators are no longer real, so test the class
    # relations directly rather than through the validated container
    def rel_holds(S, conj, sign):
        Sf = np.kron(np.eye(12), S)
        target = Sf.conj().T @ (H2.conj() if conj else H2) @ Sf
        return np.abs(target - sign * H2).max() < 1e-9

    assert rel_holds(s_tr2, True, +1)
    assert rel_holds(s_ph2, True, -1)
    assert rel_holds(s_ch2, False, -1)


def test_restrict_half_space_entries_and_edge_modes():
    model = make_named_model("harper", sizes=6)
    torus = build_hamiltonian(model)
    half = build_hamiltonian(model.with_boundary(1, OPEN))
    assert half.lattice.boundary == (PERIODIC, OPEN)
    # retained entries agree except on the dropped wrap bonds
    N = 6
    for n in range(N * N):
        for m in range(N * N):
            y1, y2 = n % N, m % N
            if {y1, y2} == {0, N - 1}:
                continue
            assert half.matrix[m, n] == torus.matrix[m, n]
    # half-line ssh at the critical coupling has a near-zero mode
    chain = build_hamiltonian(make_named_model("ssh", sizes=64, m=0.0, boundary="open"))
    assert np.abs(np.linalg.eigvalsh(chain.matrix)).min() < 1e-6


def test_harper_halfspace_edge_spectrum_in_gap(harper24_projection):
    model, P = harper24_projection
    half = build_hamiltonian(model.with_boundary(1, OPEN))
    ev = np.linalg.eigvalsh(half.matrix)
    lo, hi = P.gap
    assert np.any((ev > lo + 0.05) & (ev < hi - 0.05))


def test_insert_flux_identity_and_endpoint():
    model = make_named_model("qwz", sizes=10, boundary="open", mass=1.0)
    s0 = build_hamiltonian(model)
    assert np.array_equal(insert_flux(s0, 0.0, (5, 5)).matrix, s0.matrix)
    s1 = insert_flux(s0, 1.0, (5, 5))
    assert np.abs(np.sort(np.linalg.eigvalsh(s1.matrix))
                  - np.sort(np.linalg.eigvalsh(s0.matrix))).max() < 1e-10


def test_insert_flux_kitaev_half_phs():
    model = make_named_model("kitaev_chain", sizes=32, mu=0.3, boundary="open")
    s0 = build_hamiltonian(model)
    sh = insert_flux(s0, 0.5, (16,))
    S = np.kron(np.eye(32), SIGMA_1.real)
    assert np.abs(S.T @ sh.matrix.conj() @ S + sh.matrix).max() < 1e-10
    s1 = insert_flux(s0, 1.0, (16,))
    assert np.abs(np.sort(np.linalg.eigvalsh(s1.matrix))
                  - np.sort(np.linalg.eigvalsh(s0.matrix))).max() < 1e-10


def test_insert_flux_bad_dimension():
    model = make_named_model("chiral_3d", sizes=3, mass=2.0)
    with pytest.raises(BadDimensionError):
        insert_flux(build_hamiltonian(model), 0.3, (1, 1))


def test_half_space_forces_open_axis():
    model = make_named_model("harper", sizes=6)
    half = make_half_space(model, -1.4)
    assert half.hamiltonian.lattice.boundary == (PERIODIC, OPEN)


def test_unknown_model_parameter_rejected():
    with pytest.raises(ParamOutOfRangeError, match="known: mass"):
        make_named_model("qwz", mas=1.5)
    with pytest.raises(ParamOutOfRangeError, match="known: mu, w_strength"):
        make_named_model("kitaev_chain", mu=0.2, w=0.3)


def test_fingerprint_covers_symmetry_and_disorder_constraint():
    from dataclasses import replace

    model = make_named_model("ssh", sizes=8, m=0.4)
    assert make_named_model("ssh", sizes=8, m=0.4).fingerprint() == model.fingerprint()
    flipped = replace(model, symmetry=SymmetrySpec(s_ch=-SIGMA_3))
    assert flipped.fingerprint() != model.fingerprint()
    # the symmetry is hashed once more where the disorder constraint was, so
    # fingerprints recorded in earlier results.csv files still match
    assert model.fingerprint() == "57cd0c455f81c459"
    chain = make_named_model("kitaev_chain", sizes=16, mu=0.2, w_strength=0.3)
    assert chain.fingerprint() == "ecdddcdd5b9192fc"


def test_named_disorder_inherits_model_symmetry():
    dis = DisorderSpec(family="symmetry-constrained-matrix", strength=0.5, seed=3)
    model = make_named_model("kitaev_chain", sizes=16, mu=0.2, disorder=dis)
    assert classify_caz(build_hamiltonian(model, 1)) == ("BDI", 1)
