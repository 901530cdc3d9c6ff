"""Flux-pump spectral flow of a Chern insulator with a central defect.

Writes the flow trace (t, eigenvalue, branch) of the branches the flow
counted, for spaghetti plots, and prints the defect-localized flow against
the pair index of the same sample.
"""

from topoinv import (
    FluxPath,
    build_hamiltonian,
    fermi_projection,
    make_named_model,
    pair_index,
    spectral_flow,
)
from topoinv.flow import flow_trace
from topoinv.serialize import write_csv

N = 16
MASS = 1.0

model = make_named_model("qwz", sizes=N, boundary="open", mass=MASS)
sample = build_hamiltonian(model)
path = FluxPath(base=sample, plaquette=(N // 2, N // 2))
# one full decomposition of the base sample serves the pair index and the flow at t = 0
flow = spectral_flow(path, 0.0)
pi = pair_index(fermi_projection(path.base_eigen, 0.0))
print(f"spectral flow {flow.net} (raw {flow.raw_net}), pair index {pi.rounded} ({pi.value:+.5f})")

write_csv("flow.csv", "t,eigenvalue,branch", flow_trace(flow))
print("wrote flow.csv")
