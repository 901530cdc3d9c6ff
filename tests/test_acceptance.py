"""Acceptance criteria, one test per numbered requirement.

Each test prints a PASS line with the measured numbers so a run of
`pytest tests/test_acceptance.py -v -s` doubles as the verification report.
"""

import time

import numpy as np
import pytest

from topoinv import (
    DisorderSpec,
    SwitchFunction,
    boundary_current,
    boundary_winding,
    build_hamiltonian,
    chern_projection,
    chern_unitary,
    diagonalize,
    exp_map,
    fermi_projection,
    fermi_unitary,
    halfflux_kernel_parity,
    make_half_space,
    make_named_model,
    nc_derivative,
    occupied_projection,
    pair_index,
    pfaffian,
    spectral_flow,
    spin_chern,
    streda_derivative,
    trace_per_volume,
    veg_invariant,
    z2_kernel_parity,
)
from topoinv.flow import FluxPath, kramers_halfflux_probe
from topoinv.harness import ExperimentConfig, run_experiment
from topoinv.invariants import trs_fredholm
from topoinv.serialize import parse_config

HARPER_B = 2 * np.pi / 3


def report(num, detail):
    print(f"\nACCEPTANCE {num:02d} PASS: {detail}")


def test_criterion_01_ssh_winding_sweep():
    t0 = time.time()
    values = []
    for m in (-2.0, -0.5, 0.0, 0.5, 2.0):
        model = make_named_model("ssh", sizes=256, m=m)
        P = fermi_projection(diagonalize(build_hamiltonian(model)), 0.0)
        res = chern_unitary(fermi_unitary(P), (1,))
        values.append(res.value)
        assert abs(res.value - round(res.value)) < 1e-6
    elapsed = time.time() - t0
    assert [round(v) for v in values] == [0, 1, 1, 1, 0]
    assert elapsed < 10.0
    report(1, f"windings {[round(v) for v in values]}, max int distance "
              f"{max(abs(v - round(v)) for v in values):.1e}, {elapsed:.1f} s")


def test_criterion_02_local_index_formula():
    t0 = time.time()
    model = make_named_model("qwz", sizes=24, boundary="open", mass=1.0)
    sample = build_hamiltonian(model)
    P = occupied_projection(sample, 0.0)
    pi = pair_index(P)
    ch = chern_projection(P, (1, 2))
    assert pi.rounded == 1
    assert abs(ch.value - pi.value) < 0.05
    dis = DisorderSpec(strength=0.5, seed=2)
    dmodel = make_named_model("qwz", sizes=24, boundary="open", mass=1.0, disorder=dis)
    indices = []
    for seed in range(10):
        s = build_hamiltonian(dmodel, seed)
        indices.append(pair_index(occupied_projection(s, 0.0)).rounded)
    elapsed = time.time() - t0
    assert indices == [1] * 10
    assert elapsed < 300.0
    report(2, f"pair index 1, |chern - index| = {abs(ch.value - pi.value):.3f}, "
              f"10/10 disordered realizations at 1, {elapsed:.0f} s")


def _harper_mu():
    eig = diagonalize(build_hamiltonian(make_named_model("harper", sizes=24, b12=HARPER_B)))
    nb = 192
    return 0.5 * (eig.eigenvalues[nb - 1] + eig.eigenvalues[nb])


def test_criterion_03_bulk_boundary_correspondence():
    mu = _harper_mu()
    devs = []
    for lam, seeds in ((0.0, [0]), (0.3, range(10))):
        model = make_named_model("harper", sizes=24, b12=HARPER_B,
                                 disorder=DisorderSpec(strength=lam, seed=13))
        for seed in seeds:
            half = make_half_space(model, mu, seed)
            bulk = chern_projection(fermi_projection(diagonalize(half.companion), mu), (1, 2))
            edge = boundary_winding(exp_map(half, SwitchFunction("exp", half.bulk_gap)))
            devs.append(abs(bulk.value - edge.value))
    assert max(devs) < 0.05
    report(3, f"max |bulk - edge| = {max(devs):.4f} over clean + 10 disordered cylinders")


def test_criterion_04_boundary_currents():
    # circumference 33 is the nearest size to 32 whose periodic companion
    # satisfies flux quantization at one third of a flux quantum per cell
    mu = _harper_mu()
    model = make_named_model("harper", sizes=(33, 32), b12=HARPER_B,
                             disorder=DisorderSpec(strength=0.3, seed=17))
    currents = []
    for seed in range(10):
        half = make_half_space(model, mu, seed)
        currents.append(boundary_current(half, SwitchFunction("exp", half.bulk_gap)))
    mean = float(np.mean(currents))
    assert abs(mean - 1.0) < 0.02
    report(4, f"edge current mean {mean:.4f} over 10 realizations at 33x32 "
              f"(spread {max(currents) - min(currents):.4f})")


def test_criterion_05_field_derivative():
    model = make_named_model("harper", sizes=24, b12=2 * np.pi * 8 / 576)
    lhs, rhs = streda_derivative(model, ())
    rel = abs(lhs - rhs) / abs(rhs)
    assert rel < 0.05
    report(5, f"state-density slope {lhs:.5f} vs pairing/2pi {rhs:.5f} ({100 * rel:.1f}%)")


def test_criterion_06_flux_pump_flow():
    dis = DisorderSpec(strength=0.3, seed=23)
    model = make_named_model("qwz", sizes=16, boundary="open", mass=1.0, disorder=dis)
    pairs = []
    for seed in range(5):
        sample = build_hamiltonian(model, seed)
        sf = spectral_flow(FluxPath(base=sample, plaquette=(8, 8)), 0.0)
        pi = pair_index(fermi_projection(diagonalize(sample), 0.0))
        pairs.append((sf.net, pi.rounded))
        assert sf.net == pi.rounded
    report(6, f"flow = index on 5/5 realizations: {pairs}")


def test_criterion_07_halfflux_kernel_parity():
    results = []
    model = make_named_model("kitaev_chain", sizes=64, mu=0.0, w_strength=0.0)
    assert halfflux_kernel_parity(model)["parity"] == 1
    results.append((0.0, 0.0, 1))
    model = make_named_model("kitaev_chain", sizes=64, mu=0.5, w_strength=0.3)
    for seed in range(10):
        assert halfflux_kernel_parity(model, seed)["parity"] == 1
    results.append((0.5, 0.3, 1))
    trivial = make_named_model("kitaev_chain", sizes=64, mu=2.0, w_strength=0.0)
    assert halfflux_kernel_parity(trivial)["parity"] == 0
    results.append((2.0, 0.0, 0))
    report(7, f"(mu, w, parity): {results}; disordered case over 10 seeds")


def test_criterion_08_z2_consistency():
    outcomes = []
    for mass, lam in ((1.0, 0.0), (1.0, 0.2), (3.5, 0.0), (3.5, 0.2)):
        dis = DisorderSpec(strength=lam, seed=29)
        torus = make_named_model("kane_mele_qsh", sizes=12, mass=mass, rashba=0.1,
                                 disorder=dis)
        P = occupied_projection(build_hamiltonian(torus, 1), 0.0)
        sch = spin_chern(P, torus.metadata["s_z"])
        open_model = make_named_model("kane_mele_qsh", sizes=14, boundary="open",
                                      mass=mass, rashba=0.1, disorder=dis)
        Pn = occupied_projection(build_hamiltonian(open_model, 1), 0.0)
        parity = z2_kernel_parity(trs_fredholm(Pn))
        assert sch.rounded % 2 == int(parity.value)
        outcomes.append((mass, lam, sch.rounded, int(parity.value)))
    report(8, f"(mass, lam, spin pairing, parity): {outcomes}")


def test_criterion_09_property_suite():
    checks = []
    # Hermiticity of assembled samples
    for name, kw in (("qwz", dict(sizes=8, mass=1.0)), ("kitaev_chain", dict(sizes=16, mu=0.3))):
        H = build_hamiltonian(make_named_model(name, **kw)).matrix
        assert np.abs(H - H.conj().T).max() < 1e-12
    checks.append("hermiticity")
    # Leibniz rule and vanishing trace of derivatives
    sample = build_hamiltonian(make_named_model("harper", sizes=9, b12=0.0))
    rng = np.random.default_rng(0)
    pos = sample.lattice.positions()[:, :2]
    mats = []
    for _ in range(2):
        A = rng.normal(size=(sample.dim, sample.dim)) + 1j * rng.normal(size=(sample.dim, sample.dim))
        for ax in (0, 1):
            d = pos[:, ax][:, None] - pos[:, ax][None, :]
            d = (d + 4.5) % 9 - 4.5
            A[np.abs(d) > 1] = 0.0
        mats.append(A)
    A, B = mats
    for ax in (0, 1):
        lhs = nc_derivative(A @ B, sample, ax)
        rhs = nc_derivative(A, sample, ax) @ B + A @ nc_derivative(B, sample, ax)
        assert np.abs(lhs - rhs).max() < 1e-9
        assert abs(trace_per_volume(nc_derivative(A, sample, ax), sample)) < 1e-12
    checks.append("leibniz+trace")
    # Pfaffian squares to the determinant
    X = rng.normal(size=(8, 8))
    Apf = X - X.T
    assert abs(pfaffian(Apf) ** 2 - np.linalg.det(Apf)) < 1e-8
    checks.append("pfaffian")
    # additivity over independent blocks
    import dataclasses
    from topoinv.models import LatticeSpec, MagneticFieldSpec, ModelDefinition, PERIODIC
    top = make_named_model("qwz", sizes=8, mass=1.0)
    triv = make_named_model("qwz", sizes=8, mass=5.0)
    z = np.zeros((2, 2), complex)
    hops = tuple((a, np.block([[t1, z], [z, t2]]))
                 for (a, t1), (_, t2) in zip(top.hoppings, triv.hoppings))
    stacked = ModelDefinition(LatticeSpec(2, (8, 8), (PERIODIC, PERIODIC), 4),
                              MagneticFieldSpec.zero(2), hops,
                              np.block([[top.onsite, z], [z, triv.onsite]]))
    Ps = fermi_projection(diagonalize(build_hamiltonian(stacked)), 0.0)
    P1 = fermi_projection(diagonalize(build_hamiltonian(top)), 0.0)
    P2 = fermi_projection(diagonalize(build_hamiltonian(triv)), 0.0)
    assert abs(chern_projection(Ps, (1, 2)).value
               - chern_projection(P1, (1, 2)).value
               - chern_projection(P2, (1, 2)).value) < 1e-8
    checks.append("additivity")
    # Kramers multiplicities all even at half flux under odd time reversal
    km = make_named_model("kane_mele_qsh", sizes=12, boundary=("periodic", "open"),
                          mass=1.0, rashba=0.1)
    probe = kramers_halfflux_probe(km, (6, 6))
    assert all(p["multiplicity"] % 2 == 0 for p in probe)
    checks.append("kramers")
    # endpoint gauge equivalence of flux paths
    from topoinv import insert_flux
    s0 = build_hamiltonian(make_named_model("qwz", sizes=10, boundary="open", mass=1.0))
    s1 = insert_flux(s0, 1.0, (5, 5))
    assert np.abs(np.sort(np.linalg.eigvalsh(s1.matrix))
                  - np.sort(np.linalg.eigvalsh(s0.matrix))).max() < 1e-9
    checks.append("endpoints")
    # parallel/serial bit equality
    cfg = ExperimentConfig.from_sections(parse_config("""
[model]
name = kitaev_chain
mu = 0.5
w_strength = 0.3

[lattice]
sizes = 64

[task]
name = kitaev-halfflux

[ensemble]
realizations = 3
base_seed = 0
"""))
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as td:
        outs = []
        for sub, workers in (("s", 1), ("p", 3)):
            c = dataclasses.replace(cfg, out_dir=Path(td) / sub)
            run_experiment(c, workers=workers)
            outs.append((Path(td) / sub / "results.csv").read_bytes())
        assert outs[0] == outs[1]
    checks.append("parallel=serial")
    report(9, f"properties verified: {', '.join(checks)}")


def test_criterion_10_resolvent_formula():
    sample = build_hamiltonian(make_named_model("qwz", sizes=14, mass=1.0))
    P = fermi_projection(diagonalize(sample), 0.0)
    res = veg_invariant(P, n_t=64)
    direct = chern_projection(P, (1, 2))
    dev = abs(res.value - direct.value)
    assert dev < 1e-2
    report(10, f"resolvent loop {res.value:.4f} vs direct {direct.value:.4f} "
               f"(|diff| = {dev:.4f} at 64 nodes)")
