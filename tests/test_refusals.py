"""Every refusal of the package that no other run reaches, reached once.

A refusal a config can reach runs through `topo <task> --config FILE` in
process: exit code 1, and stderr is one `error:` message naming the fault.
A refusal only the library can reach is one call; where the natural input
would be contrived, an internal tolerance or helper is monkeypatched.
`scripts/unreached.py` lists the statements that no run reaches.
"""

import dataclasses
import re

import numpy as np
import pytest

from topoinv import boundary, flow, invariants
from topoinv.boundary import edge_dispersion_rows, ind_map, make_half_space
from topoinv.cli import main
from topoinv.errors import (
    BadDimensionError,
    BranchAmbiguityError,
    ContourHitsSpectrumError,
    ConvergenceFailureError,
    ConfigError,
    GapMismatchError,
    InconsistentSymmetriesError,
    KernelAtEndpointError,
    MarginTooSmallError,
    NoGapError,
    NotAntisymmetricError,
    OddDimensionError,
    ParamOutOfRangeError,
    PfaffianUnderflowError,
    SpinSpectrumGaplessError,
    SurfaceBandAmbiguousError,
    SymmetryBrokenAtHalfFluxError,
    ThresholdAmbiguityError,
)
from topoinv.flow import (
    FluxPath,
    halfflux_kernel_parity,
    majorana_form,
    majorana_zero_mode_parity,
    spectral_flow,
    z2_spectral_flow,
)
from topoinv.invariants import (
    fermi_unitary,
    hardy_index,
    pair_index,
    pfaffian,
    spin_chern,
    trs_fredholm,
    veg_invariant,
    z2_kernel_parity,
)
from topoinv.models import (
    OPEN,
    SIGMA_3,
    DisorderSpec,
    MagneticFieldSpec,
    SymmetrySpec,
    apply_fiber,
    build_hamiltonian,
    classify_caz,
    dual_translations,
    insert_flux,
    magnetic_translations,
    make_named_model,
)
from topoinv.serialize import load_matrix, save_matrix
from topoinv.spectral import SwitchFunction, diagonalize, fermi_projection, occupied_projection

# a two-band chain with every custom section but [field] and [disorder]
CUSTOM = """
[model]
name = custom

[lattice]
dimension = 1
sizes = 8
boundary = periodic
fiber = 2

[hoppings]
hop0 = 1 | 0 0  1 0  0 0  0 0
hop1 = -1 | 0 0  0 0  1 0  0 0
onsite = 0 0  0 -0.5 ; 0 0.5  0 0

[task]
name = spectrum
"""

# a gapped three-band chain declaring a chiral operator whose sectors have
# dimensions 2 and 1
UNEQUAL_SECTORS = """
[model]
name = custom

[lattice]
dimension = 1
sizes = 8
boundary = periodic
fiber = 3

[hoppings]
hop0 = 1 | 0.3 0  0 0  0 0 ; 0 0  0.3 0  0 0 ; 0 0  0 0  0.3 0
hop1 = -1 | 0.3 0  0 0  0 0 ; 0 0  0.3 0  0 0 ; 0 0  0 0  0.3 0
onsite = -1 0  0 0  0 0 ; 0 0  -1 0  0 0 ; 0 0  0 0  1 0

[symmetry]
s_ch = 1 0  0 0  0 0 ; 0 0  1 0  0 0 ; 0 0  0 0  -1 0

[task]
name = winding
mu = 0.0
index_set = 1
"""


def named(model: str, task: str, *lines: str, **params) -> str:
    """Config text of a named model at small sizes, its `params`, then `lines`."""
    sizes = {"ssh": "8", "kitaev_chain": "16", "harper": "6 6"}.get(model, "4 4")
    head = [f"[model]\nname = {model}", *(f"{k} = {v}" for k, v in params.items()),
            f"[lattice]\nsizes = {sizes}\n[task]\nname = {task}"]
    return "\n".join(head + list(lines)) + "\n"


SPECTRUM = ["spectrum"]

CONFIG_REFUSALS = [
    pytest.param(SPECTRUM, CUSTOM.replace("dimension = 1", "dimension = 4"),
                 "dimension must be 1, 2 or 3, got 4", id="lattice-dimension"),
    pytest.param(SPECTRUM, CUSTOM.replace("boundary = periodic", "boundary = closed"),
                 "boundary flags must be 'periodic' or 'open'", id="lattice-boundary"),
    pytest.param(SPECTRUM, CUSTOM.replace("fiber = 2", "fiber = 0"),
                 "fiber dimension must be positive", id="lattice-fiber"),
    pytest.param(SPECTRUM, CUSTOM.replace("dimension = 1\n", ""),
                 "custom model needs lattice.dimension", id="custom-dimension-missing"),
    pytest.param(SPECTRUM, CUSTOM.replace("sizes = 8\n", ""),
                 "custom model needs lattice.sizes and lattice.boundary",
                 id="custom-sizes-missing"),
    pytest.param(SPECTRUM, CUSTOM + "[field]\nb = 1.0\n",
                 "B must be exactly antisymmetric", id="field-not-antisymmetric"),
    pytest.param(SPECTRUM, CUSTOM + "[symmetry]\ns_tr = 0 1  0 0 ; 0 0  0 1\n",
                 "s_tr must have real entries", id="symmetry-complex-s_tr"),
    pytest.param(SPECTRUM, CUSTOM + "[symmetry]\ns_ch = 2 0  0 0 ; 0 0  -2 0\n",
                 "s_ch is not unitary", id="symmetry-not-unitary"),
    pytest.param(SPECTRUM, CUSTOM + "[symmetry]\ns_tr = 1 0  0 0 ; 0 0  1 0\neta_tr = -1\n",
                 r"s_tr\^2 differs from declared parity -1", id="symmetry-parity"),
    pytest.param(SPECTRUM, CUSTOM + "[symmetry]\ns_tr = 1 0  0 0 ; 0 0  1 0\n"
                 "s_ph = 1 0  0 0 ; 0 0  -1 0\ns_ch = 0 0  1 0 ; 1 0  0 0\n",
                 "s_ch is not proportional to s_ph @ s_tr", id="symmetry-s_ch-not-product"),
    pytest.param(SPECTRUM, CUSTOM + "[disorder]\nfamily = gaussian\n",
                 "unknown disorder family 'gaussian'", id="disorder-family"),
    pytest.param(SPECTRUM, CUSTOM.replace("0 0  0 -0.5 ; 0 0.5  0 0", "0 0  1 0 ; 0 0  0 0"),
                 "onsite matrix must be self-adjoint", id="onsite-not-self-adjoint"),
    pytest.param(SPECTRUM, CUSTOM.replace("0 0  0 -0.5 ;", "0 0  0 ;"),
                 "hoppings.onsite: matrix row has odd number of entries", id="matrix-odd-row"),
    pytest.param(SPECTRUM, CUSTOM.replace("hop0 = 1 |", "hop0 = 1"),
                 "hopping 'hop0' must be 'displacement | matrix entries'", id="hopping-no-bar"),
    pytest.param(SPECTRUM, CUSTOM.replace("hop0 = 1 |", "hop0 = 1 0 |"),
                 r"displacement \(1, 0\) has wrong dimension", id="hopping-dimension"),
    pytest.param(SPECTRUM, CUSTOM.replace("onsite =", "hop2 = 0 | 0 0  0 0  0 0  0 0\nonsite ="),
                 "zero displacement belongs in the onsite matrix", id="hopping-zero"),
    pytest.param(SPECTRUM, CUSTOM.replace("onsite =", "hop2 = 1 | 0 0  1 0  0 0  0 0\nonsite ="),
                 "duplicate displacement in hopping list", id="hopping-duplicate"),
    pytest.param(SPECTRUM, "[model\nname = ssh\n", "File contains no section headers",
                 id="config-syntax"),
    pytest.param(SPECTRUM, named("kane_mele_qsh", "spectrum", mass=0),
                 r"gap closes at mass in \{0, \+-2\}", id="kane-mele-gapless-mass"),
    pytest.param(SPECTRUM, named("ssh", "spectrum", m="1e200"),
                 r"ssh parameter\(s\) m must lie within \+-1e\+100", id="parameter-limit"),
    pytest.param(["winding"], UNEQUAL_SECTORS,
                 "chiral operator sectors have unequal dimension", id="winding-unequal-sectors"),
    pytest.param(["streda"], named("harper", "streda", "index_set = 1"),
                 "I must not contain the field axes 1 and 2", id="streda-field-axis"),
    pytest.param(["pairing-range"], named("harper", "pairing-range", "generator = 1"),
                 r"unsupported generator pair I=\(\), J=\(1,\)", id="pairing-range-generator"),
    pytest.param(["veg"], named("qwz", "veg", "mu = -100"), "mu outside the spectrum",
                 id="veg-mu-below-spectrum"),
    pytest.param(["kitaev-halfflux"],
                 named("kitaev_chain", "kitaev-halfflux",
                       "[disorder]\nfamily = diagonal-scalar\nstrength = 0.5"),
                 "particle-hole broken at half flux", id="halfflux-particle-hole-broken"),
    pytest.param(["sweep", "--param", "m", "--values", "1"], named("ssh", "spectrum"),
                 "sweep parameter must be 'section.key'", id="sweep-param-without-dot"),
]


def test_config_refusals_vary_valid_configs(tmp_path, capsys):
    # each config row breaks one of these in one place
    for task, text in (("spectrum", CUSTOM), ("spectrum", named("kane_mele_qsh", "spectrum")),
                       ("streda", named("harper", "streda")),
                       ("kitaev-halfflux", named("kitaev_chain", "kitaev-halfflux"))):
        cfg = tmp_path / "valid.cfg"
        cfg.write_text(text)
        assert main([task, "--config", str(cfg)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("argv, text, message", CONFIG_REFUSALS)
def test_config_refusal(tmp_path, capsys, argv, text, message):
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(text)
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert re.search(message, err), err


# ---------------------------------------------------------------------------
# refusals only the library reaches
# ---------------------------------------------------------------------------

def ssh(**kwargs):
    return make_named_model("ssh", sizes=kwargs.pop("sizes", 8), **kwargs)


def small_projection(name, **kwargs):
    return occupied_projection(build_hamiltonian(make_named_model(name, **kwargs)), 0.0)


def caz_with_tilted_chiral_operator(mp, tmp):
    # s_ch rotated by 1e-5 rad keeps |tr(s_ch* s_ph s_tr)| within 1e-9 of 2, so the
    # declaration is accepted, but no longer anticommutes with H to 1e-10
    model = make_named_model("kitaev_chain", sizes=8)
    R = np.diag(np.exp([1e-5j, -1e-5j]))
    s_ch = R @ model.symmetry.s_ch @ R.conj().T
    sym = dataclasses.replace(model.symmetry, s_ch=s_ch)
    classify_caz(build_hamiltonian(dataclasses.replace(model, symmetry=sym)))


def caz_with_rounded_parity(mp, tmp):
    # a parity that passes the s_tr^2 check only to rounding
    sym = SymmetrySpec(s_tr=np.eye(2), eta_tr=1 + 1e-13)
    classify_caz(build_hamiltonian(dataclasses.replace(ssh(), symmetry=sym)))


def matrix_file(tmp, header: bytes = b"TIMX"):
    """A saved 2 x 2 matrix whose first bytes are replaced by `header`."""
    path = tmp / "m.timx"
    save_matrix(path, np.eye(2))
    path.write_bytes(header + path.read_bytes()[len(header):])
    return path


def truncated_matrix_file(tmp):
    path = matrix_file(tmp)
    path.write_bytes(path.read_bytes()[:-16])
    return path


def failing_eigh(mp, tmp):
    def eigh(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    mp.setattr(np.linalg, "eigh", eigh)
    diagonalize(build_hamiltonian(make_named_model("qwz", sizes=4)))


def veg_contour_through_a_level(mp, tmp):
    # the contour passes through mu, 5e-7 below the first level above the gap
    eig = diagonalize(build_hamiltonian(make_named_model("qwz", sizes=4)))
    above = eig.eigenvalues[eig.eigenvalues > 0][0]
    veg_invariant(fermi_projection(eig, above - 5e-7))


def qwz_flux_path(**kwargs):
    sample = build_hamiltonian(make_named_model("qwz", sizes=6, boundary=OPEN))
    return FluxPath(base=sample, plaquette=(3, 3), **kwargs)


def kitaev_flux_path(mu):
    sample = build_hamiltonian(make_named_model("kitaev_chain", sizes=8, boundary=OPEN, mu=mu))
    return FluxPath(base=sample, plaquette=(4,))


def unmatched_levels(mp, tmp):
    # with the overlap floor above 1 no pair of levels matches, so every step is
    # refined to the floor and the skip over its end point fails too
    mp.setattr(flow, "_OVERLAP_FLOOR", 1.1)
    spectral_flow(qwz_flux_path(), 0.0)


def pfaffian_underflow(mp, tmp):
    mp.setattr(flow, "_pfaffian_sign_logabs", lambda T: (1.0, -1e4))
    z2_spectral_flow(kitaev_flux_path(mu=3.0))


def odd_localized_count(mp, tmp):
    mp.setattr(flow, "localized_mode_count", lambda vectors, window: 1)
    halfflux_kernel_parity(make_named_model("kitaev_chain", sizes=16))


def ind_map_switch(kind, m, surface_split=False):
    half = make_half_space(ssh(sizes=16, m=m), 0.0)
    ind_map(half, SwitchFunction(kind, half.bulk_gap), SIGMA_3, surface_split=surface_split)


def unsplit_surface_chirality(mp, tmp):
    # the surface band of test_ind_map_chiral_3d_surface_sectors, with a sector gap
    # no chirality can clear
    mp.setattr(boundary, "_SECTOR_GAP", np.inf)
    model = make_named_model("chiral_3d", sizes=(6, 6, 8), mass=2.0)
    B = np.zeros((3, 3))
    B[0, 1], B[1, 0] = 2 * np.pi / 36, -2 * np.pi / 36
    model = dataclasses.replace(model, field=MagneticFieldSpec(B))
    half = make_half_space(model, 0.0)
    ind_map(half, SwitchFunction("ind", half.bulk_gap), model.symmetry.s_ch, surface_split=True)


def wide_hardy_cut(mp, tmp):
    # the compression's singular values near 1 then lie within a factor 10 of the cut
    mp.setattr(invariants, "_HARDY_CUT", 0.5)
    hardy_index(fermi_unitary(occupied_projection(build_hamiltonian(ssh(sizes=16)), 0.0)))


def z2_without_margin(mp, tmp):
    mp.setattr(invariants, "_Z2_MARGIN", 1e300)
    P = small_projection("kane_mele_qsh", sizes=6, boundary=OPEN)
    z2_kernel_parity(trs_fredholm(P))


def spin_gap_below_floor(mp, tmp):
    mp.setattr(invariants, "_SPIN_GAP_FLOOR", 10.0)
    model = make_named_model("kane_mele_qsh", sizes=6)
    spin_chern(occupied_projection(build_hamiltonian(model), 0.0), model.metadata["s_z"])


def two_leg_flux_beyond_neighbors(mp, tmp):
    model = ssh(boundary=OPEN)
    model = dataclasses.replace(model, hoppings=tuple(((2 * a[0],), t) for a, t in model.hoppings))
    insert_flux(build_hamiltonian(model), 0.5, (3,))


LIBRARY_REFUSALS = [
    # models
    pytest.param(lambda mp, tmp: apply_fiber(np.eye(2), np.eye(4), "up"),
                 ValueError, "side must be 'left' or 'right'", id="apply-fiber-side"),
    pytest.param(lambda mp, tmp: MagneticFieldSpec(np.zeros(3)),
                 ParamOutOfRangeError, "B must be a square matrix", id="field-not-square"),
    pytest.param(lambda mp, tmp: dataclasses.replace(
                     ssh(), field=MagneticFieldSpec.two_dimensional(0.0)),
                 ParamOutOfRangeError, "B dimension does not match the lattice",
                 id="field-dimension"),
    pytest.param(lambda mp, tmp: dataclasses.replace(ssh(), onsite=np.zeros((3, 3))),
                 ParamOutOfRangeError, "onsite matrix must be L x L", id="onsite-shape"),
    pytest.param(lambda mp, tmp: dataclasses.replace(ssh(), symmetry=SymmetrySpec(s_ch=np.eye(4))),
                 ParamOutOfRangeError, "symmetry operators must be L x L", id="symmetry-shape"),
    pytest.param(lambda mp, tmp: dataclasses.replace(
                     ssh(), hoppings=(((1,), np.eye(3)), ((-1,), np.eye(3)))),
                 ParamOutOfRangeError, "hopping matrices must be L x L", id="hopping-shape"),
    pytest.param(lambda mp, tmp: magnetic_translations(ssh(boundary=OPEN).lattice, np.zeros((1, 1))),
                 ParamOutOfRangeError, "magnetic translations need a full torus",
                 id="magnetic-translations-open"),
    pytest.param(lambda mp, tmp: dual_translations(ssh(boundary=OPEN).lattice, np.zeros((1, 1))),
                 ParamOutOfRangeError, "dual translations need a full torus",
                 id="dual-translations-open"),
    pytest.param(two_leg_flux_beyond_neighbors, BadDimensionError,
                 "two-leg flux insertion supports nearest-neighbor hopping only",
                 id="two-leg-flux-range"),
    pytest.param(caz_with_tilted_chiral_operator, InconsistentSymmetriesError,
                 "declared chiral operator does not anticommute with H", id="caz-chiral"),
    pytest.param(caz_with_rounded_parity, InconsistentSymmetriesError,
                 "unclassifiable symmetry data", id="caz-parity"),
    # serialize
    pytest.param(lambda mp, tmp: load_matrix(matrix_file(tmp, header=b"XXXX")), ConfigError,
                 "not a matrix container", id="matrix-file-magic"),
    pytest.param(lambda mp, tmp: load_matrix(matrix_file(tmp, header=b"TIMX\x02")), ConfigError,
                 "unsupported container version 2", id="matrix-file-version"),
    pytest.param(lambda mp, tmp: load_matrix(truncated_matrix_file(tmp)), ConfigError,
                 "truncated payload", id="matrix-file-truncated"),
    # spectral
    pytest.param(lambda mp, tmp: diagonalize(build_hamiltonian(ssh()), states=0), ValueError,
                 r"give mu or states in \[1, 15\]", id="diagonalize-states-0"),
    pytest.param(lambda mp, tmp: diagonalize(build_hamiltonian(ssh()), states=16), ValueError,
                 r"give mu or states in \[1, 15\]", id="diagonalize-states-dim"),
    pytest.param(lambda mp, tmp: diagonalize(build_hamiltonian(ssh()), count=2), ValueError,
                 "count certifies the levels of a window", id="diagonalize-count-no-window"),
    pytest.param(failing_eigh, ConvergenceFailureError, "Eigenvalues did not converge",
                 id="diagonalize-linalg-error"),
    pytest.param(lambda mp, tmp: SwitchFunction("log", (0.0, 1.0)), ValueError,
                 "kind must be 'exp' or 'ind'", id="switch-kind"),
    pytest.param(lambda mp, tmp: SwitchFunction("exp", (1.0, 1.0)), NoGapError,
                 "switch gap must be a nonempty interval", id="switch-empty-gap"),
    # invariants
    pytest.param(lambda mp, tmp: pair_index(small_projection("ssh", sizes=8)), BadDimensionError,
                 "pair index needs even dimension", id="pair-index-odd-dimension"),
    pytest.param(lambda mp, tmp: pair_index(small_projection("qwz", sizes=4), power=2),
                 BadDimensionError, "power must be odd and exceed the dimension",
                 id="pair-index-power"),
    pytest.param(lambda mp, tmp: hardy_index(fermi_unitary(small_projection("chiral_3d", sizes=2))),
                 BadDimensionError, "Hardy index implemented for d = 1", id="hardy-dimension"),
    pytest.param(wide_hardy_cut, ThresholdAmbiguityError,
                 "singular values within a factor 10 of the threshold", id="hardy-threshold"),
    pytest.param(z2_without_margin, MarginTooSmallError, "singular-value margin below",
                 id="z2-margin"),
    pytest.param(spin_gap_below_floor, SpinSpectrumGaplessError, "spin gap .* below",
                 id="spin-gap-floor"),
    pytest.param(lambda mp, tmp: pfaffian(np.zeros((2, 3))), OddDimensionError,
                 "need a square matrix", id="pfaffian-not-square"),
    pytest.param(lambda mp, tmp: pfaffian(1j * np.array([[0.0, 1.0], [-1.0, 0.0]])),
                 NotAntisymmetricError, "only real antisymmetric matrices are supported",
                 id="pfaffian-complex"),
    pytest.param(veg_contour_through_a_level, ContourHitsSpectrumError,
                 r"contour approaches spectrum to 5\.0e-07", id="veg-contour"),
    # flow
    pytest.param(lambda mp, tmp: qwz_flux_path(ts=[0.0, 1.5]), ValueError,
                 r"flux values must lie in \[0, 1\]", id="flux-path-range"),
    pytest.param(unmatched_levels, BranchAmbiguityError, "overlap .* below 1.1",
                 id="spectral-flow-branch-ambiguity"),
    pytest.param(lambda mp, tmp: majorana_form(np.zeros((4, 4)), 3), BadDimensionError,
                 "the Majorana form needs a two-component fiber", id="majorana-form-fiber"),
    pytest.param(lambda mp, tmp: majorana_form(np.eye(2), 1), SymmetryBrokenAtHalfFluxError,
                 "Majorana form is not purely imaginary", id="majorana-form-real"),
    pytest.param(lambda mp, tmp: z2_spectral_flow(qwz_flux_path()), SymmetryBrokenAtHalfFluxError,
                 "path samples must declare a particle-hole operator", id="parity-flow-no-ph"),
    pytest.param(pfaffian_underflow, PfaffianUnderflowError, "Pfaffian underflow after rescaling",
                 id="parity-flow-underflow"),
    pytest.param(lambda mp, tmp: z2_spectral_flow(kitaev_flux_path(mu=0.0)), KernelAtEndpointError,
                 "flux-path endpoint touches zero", id="parity-flow-end-modes"),
    pytest.param(odd_localized_count, MarginTooSmallError,
                 "odd defect-localized zero count", id="halfflux-odd-count"),
    pytest.param(lambda mp, tmp: majorana_zero_mode_parity(make_named_model("kitaev_chain")),
                 SymmetryBrokenAtHalfFluxError, "needs a two-dimensional sample",
                 id="majorana-parity-dimension"),
    # boundary
    pytest.param(lambda mp, tmp: edge_dispersion_rows(make_named_model(
                     "harper", sizes=6, disorder=DisorderSpec(strength=0.1))),
                 GapMismatchError, "edge dispersion is a clean-model diagnostic",
                 id="edge-dispersion-disorder"),
    pytest.param(lambda mp, tmp: edge_dispersion_rows(ssh()), GapMismatchError,
                 "edge dispersion implemented for d = 2 cylinders", id="edge-dispersion-dimension"),
    pytest.param(lambda mp, tmp: ind_map_switch("exp", m=0.0), GapMismatchError,
                 "ind map needs an odd switch", id="ind-map-even-switch"),
    pytest.param(lambda mp, tmp: ind_map_switch("ind", m=2.0, surface_split=True),
                 SurfaceBandAmbiguousError, "no surface band inside the bulk gap",
                 id="ind-map-trivial-surface"),
    pytest.param(unsplit_surface_chirality, SurfaceBandAmbiguousError,
                 "chirality spectrum of the surface band not split", id="ind-map-unsplit-sectors"),
]


@pytest.mark.parametrize("call, error, message", LIBRARY_REFUSALS)
def test_library_refusal(monkeypatch, tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(monkeypatch, tmp_path)
