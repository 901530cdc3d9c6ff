"""Winding number of the dimerized chain across its mass range.

Writes ssh_sweep.csv (m, winding_raw, winding) in the working directory.
"""

import numpy as np

from topoinv import build_hamiltonian, chern_unitary, fermi_unitary, make_named_model, occupied_projection
from topoinv.serialize import write_csv

N = 256
masses = np.linspace(-2.0, 2.0, 17)

rows = []
for m in masses.tolist():
    if abs(abs(m) - 1.0) < 1e-9:
        continue  # gap closes
    model = make_named_model("ssh", sizes=N, m=m)
    P = occupied_projection(build_hamiltonian(model), 0.0)
    res = chern_unitary(fermi_unitary(P), (1,))
    rows.append((m, res.value, res.rounded))
    print(f"m={m:+.3f}  winding={res.value:+.6f} -> {res.rounded}")

write_csv("ssh_sweep.csv", "m,winding_raw,winding", rows)
