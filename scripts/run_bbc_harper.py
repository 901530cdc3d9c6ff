"""Bulk pairing vs boundary pairing of the flux-1/3 hopping model.

Clean and disordered cylinders; writes bbc_harper.csv and the clean-model
edge dispersion for plotting.
"""

import numpy as np

from topoinv import (
    DisorderSpec,
    SwitchFunction,
    boundary_winding,
    build_hamiltonian,
    chern_projection,
    exp_map,
    make_half_space,
    make_named_model,
    occupied_projection,
)
from topoinv.boundary import companion_gap, edge_dispersion_rows
from topoinv.serialize import write_csv

N = 24
B12 = 2 * np.pi / 3
N_REALIZATIONS = 10
LAMBDA = 0.3

model = make_named_model("harper", sizes=N, boundary=("periodic", "open"), b12=B12)
mu, _ = companion_gap(model, states=N * N // 3)

rows = []
for lam, seeds in ((0.0, [0]), (LAMBDA, range(N_REALIZATIONS))):
    dis = DisorderSpec(strength=lam, seed=7)
    m = make_named_model("harper", sizes=N, boundary=("periodic", "open"), b12=B12, disorder=dis)
    for seed in seeds:
        # the companion's occupied solve gives the bulk projection and certifies the gap
        P = occupied_projection(build_hamiltonian(m.with_boundary(1, "periodic"), seed), mu)
        half = make_half_space(m, realization_seed=seed, bulk=P)
        bulk = chern_projection(P, (1, 2))
        edge = boundary_winding(exp_map(half, SwitchFunction("exp", half.bulk_gap)))
        rows.append((lam, seed, bulk.value, edge.value))
        print(f"lam={lam} seed={seed}: bulk {bulk.value:+.5f} edge {edge.value:+.5f}")

write_csv("bbc_harper.csv", "lambda,seed,bulk,edge", rows)
write_csv("edge_dispersion.csv", "k,energy,near_face_weight", edge_dispersion_rows(model, nk=96))
print("wrote bbc_harper.csv, edge_dispersion.csv")
