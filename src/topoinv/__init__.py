"""Finite-volume tight-binding models and their real-space topological invariants."""

from .errors import TopoError
from .models import (
    DisorderSpec,
    HamiltonianSample,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    SymmetrySpec,
    build_hamiltonian,
    classify_caz,
    insert_flux,
    make_named_model,
)
from .spectral import (
    EigenData,
    FermiProjection,
    SwitchFunction,
    detect_gap,
    diagonalize,
    fermi_level,
    fermi_projection,
    occupied_projection,
)
from .invariants import (
    InvariantResult,
    chern_projection,
    chern_unitary,
    dirac_phase,
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
from .boundary import (
    BoundaryUnitary,
    HalfSpaceSample,
    boundary_current,
    boundary_winding,
    exp_map,
    ind_map,
    make_half_space,
    spin_edge_current,
)
from .flow import (
    FluxPath,
    SpectralFlowResult,
    halfflux_kernel_parity,
    kramers_halfflux_probe,
    majorana_zero_mode_parity,
    spectral_flow,
    z2_spectral_flow,
)

__version__ = "0.1.0"
