"""The Z2 kernel parity on Ran P against the dense formulas it replaces.

The references below are trs_fredholm and z2_kernel_parity as the package
had them while T = P G P + (1 - P) was a dense dim x dim matrix: its
antisymmetry was checked entrywise on T s_tr and its kernel found from a
full SVD.  The package keeps only the compression M = V* G V to the occupied
eigenvectors V; value, kernel count and localized count must be equal and
the singular-value margin must agree to 1e-10 relative.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinv import (
    DisorderSpec,
    SymmetrySpec,
    build_hamiltonian,
    dirac_phase,
    harness,
    make_named_model,
    occupied_projection,
    z2_kernel_parity,
)
from topoinv.errors import MarginTooSmallError, NotAntisymmetricError
from topoinv.invariants import (
    _antisymmetry_bound,
    _near_zero_cluster,
    localized_mode_count,
    trs_fredholm,
)
from topoinv.models import OPEN, apply_fiber
from topoinv.serialize import model_from_config, read_config_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- references --------------------------------------------------------------

def ref_trs_fredholm(P, dirac):
    # invariants.trs_fredholm: the dense P G P + (1 - P)
    g = dirac.G
    return P.projector @ (g[:, None] * P.projector) + (np.eye(len(g)) - P.projector)


def ref_z2_kernel_parity(T, sym, sample, origin, threshold_factor=1e-4, margin=1e2,
                         radius_frac=0.25):
    # invariants.z2_kernel_parity: entrywise antisymmetry check, full SVD of T
    TS = apply_fiber(sym.s_tr, T, "right")
    scale = np.abs(TS).max()
    if np.abs(TS + TS.T).max() > 1e-8 * scale:
        raise NotAntisymmetricError("T s_tr is not antisymmetric")
    uu, sv, vv = np.linalg.svd(T)
    tol = threshold_factor * sv[0]
    sorted_sv = np.sort(sv)
    k = int((sorted_sv < tol).sum())
    if k > 0:
        ratio = sorted_sv[k] / max(sorted_sv[k - 1], 1e-300)
    else:
        ratio = sorted_sv[0] / tol
    if ratio < margin:
        k = _near_zero_cluster(sorted_sv, margin, 1e2 * tol)
        if not k:
            raise MarginTooSmallError(f"singular-value margin below {margin:.0f}")
        ratio = sorted_sv[k] / max(sorted_sv[k - 1], 1e-300)
    small = sv < sorted_sv[k - 1] * (1 + 1e-12) if k else sv < tol
    keep = sample.lattice.window(origin, radius_frac)
    loc = localized_mode_count(vv.conj().T[:, small], keep)
    return {"value": float(loc % 2), "margin": float(ratio), "total_small": k, "localized": loc}


# --- samples -----------------------------------------------------------------

def _kane_mele_open(size, mass, strength, seed, zeeman=0.0):
    model = make_named_model("kane_mele_qsh", sizes=size, boundary="open", mass=mass,
                             rashba=0.1, zeeman=zeeman,
                             disorder=DisorderSpec(strength=strength, seed=29))
    return model, build_hamiltonian(model, seed)


def _shipped_z2():
    model = model_from_config(read_config_file(CONFIGS / "kane_mele_z2.cfg")).with_boundaries(OPEN)
    return model, build_hamiltonian(model, 0)


CASES = {
    # criterion 08's four (mass, disorder) cases
    "c08-1.0-0.0": lambda: _kane_mele_open(14, 1.0, 0.0, 1),
    "c08-1.0-0.2": lambda: _kane_mele_open(14, 1.0, 0.2, 1),
    "c08-3.5-0.0": lambda: _kane_mele_open(14, 3.5, 0.0, 1),
    "c08-3.5-0.2": lambda: _kane_mele_open(14, 3.5, 0.2, 1),
    "kane_mele_z2.cfg": _shipped_z2,
    # the disordered 8x8 samples of test_occupied_z2_parity_and_spin_chern
    "8x8-1.0-0.3": lambda: _kane_mele_open(8, 1.0, 0.3, 2),
    "8x8-3.5-0.3": lambda: _kane_mele_open(8, 3.5, 0.3, 1),
}


@pytest.mark.parametrize("case", list(CASES))
def test_z2_parity_matches_dense_reference(case):
    model, sample = CASES[case]()
    P = occupied_projection(sample, 0.0)
    dp = dirac_phase(sample)
    want = ref_z2_kernel_parity(ref_trs_fredholm(P, dp), model.symmetry, sample, dp.origin)
    got = z2_kernel_parity(trs_fredholm(P))
    assert got.value == want["value"]
    assert got.extra["total_small"] == want["total_small"]
    assert got.extra["localized"] == want["localized"]
    assert abs(got.extra["margin"] - want["margin"]) <= 1e-10 * want["margin"]


@pytest.mark.parametrize("zeeman, sym", [(0.1, None),
                                         (0.0, SymmetrySpec(s_tr=np.eye(4), eta_tr=+1))])
def test_z2_parity_not_antisymmetric(zeeman, sym):
    # a Zeeman term breaks time reversal, and s_tr = 1 (eta = +1) is no
    # symmetry of the sample: either way T s_tr is not antisymmetric
    model, sample = _kane_mele_open(6, 1.0, 0.0, 0, zeeman=zeeman)
    if sym is not None:
        # the same matrix on a model that declares sym
        sample = dataclasses.replace(sample, model=dataclasses.replace(model, symmetry=sym))
    P = occupied_projection(sample, 0.0)
    dp = dirac_phase(sample)
    with pytest.raises(NotAntisymmetricError):
        ref_z2_kernel_parity(ref_trs_fredholm(P, dp), sample.model.symmetry, sample, dp.origin)
    with pytest.raises(NotAntisymmetricError):
        z2_kernel_parity(trs_fredholm(P))


@pytest.mark.parametrize("eta", [-1, 1])
@pytest.mark.parametrize("local", [False, True])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sites=st.integers(2, 4), data=st.data())
def test_antisymmetry_bound_dominates_dense(eta, local, seed, n_sites, data):
    # the bound must hold for any orthonormal V and diagonal unitary G, not
    # only for time-reversal invariant ranges, and for either parity; a V that
    # spans whole sites has Y' = 0, so there the other terms carry it alone
    flip = np.array([[0.0, -1.0], [1.0, 0.0]]) if eta < 0 else np.array([[0.0, 1.0], [1.0, 0.0]])
    sym = SymmetrySpec(s_tr=np.kron(flip, np.eye(2)), eta_tr=eta)
    dim = 4 * n_sites
    rng = np.random.default_rng(seed)
    if local:
        k = 4 * data.draw(st.integers(1, n_sites - 1))
        W = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        V = np.eye(dim)[:, :k] @ W
    else:
        k = data.draw(st.integers(1, dim))
        V = np.linalg.qr(rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k)))[0]
    g = np.exp(2j * np.pi * rng.random(dim))
    M = V.conj().T @ (g[:, None] * V)
    T = V @ M @ V.conj().T + np.eye(dim) - V @ V.conj().T
    TS = apply_fiber(sym.s_tr, T, "right")
    dense = np.linalg.norm(TS + TS.T)
    bound = _antisymmetry_bound(V, M, sym, np.linalg.norm(M, 2))
    assert bound >= dense * (1 - 1e-12) - 1e-12


def test_trs_fredholm_stays_on_ran_p():
    model, sample = _kane_mele_open(8, 1.0, 0.3, 2)
    P = occupied_projection(sample, 0.0)
    T = trs_fredholm(P)
    arrays = [a for a in vars(T).values() if isinstance(a, np.ndarray)]
    assert arrays and all(a.size <= sample.dim * P.rank for a in arrays)
    assert "projector" not in vars(P)


def test_z2_task_never_forms_projector(monkeypatch):
    made = []

    def spy(*args):
        made.append(projection(*args))
        return made[-1]

    projection = harness._projection
    monkeypatch.setattr(harness, "_projection", spy)
    model, _ = _kane_mele_open(8, 1.0, 0.0, 0)
    values = harness.TASKS["z2"].run(model, {"mu": 0.0}, 0)
    assert values["value"] == 1.0
    assert len(made) == 1 and "projector" not in vars(made[0])
