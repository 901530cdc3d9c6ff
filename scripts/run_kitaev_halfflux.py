"""Half-flux kernel parity of the pairing chain across chemical potentials."""

from topoinv import halfflux_kernel_parity, make_named_model
from topoinv.serialize import write_csv

N = 64
GRID = (0.0, 0.25, 0.5, 0.75, 1.25, 2.0)
W = 0.3
SEEDS = range(5)

rows = []
for mu in GRID:
    model = make_named_model("kitaev_chain", sizes=N, mu=mu, w_strength=W)
    for seed in SEEDS:
        r = halfflux_kernel_parity(model, realization_seed=seed)
        rows.append((mu, W, seed, r["parity"], r["near_zero_localized"]))
        print(f"mu={mu} seed={seed}: parity {r['parity']}")

write_csv("kitaev_halfflux.csv", "mu,w,seed,parity,near_zero_localized", rows)
