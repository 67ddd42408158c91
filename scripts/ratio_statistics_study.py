"""Gap ratio statistic across system sizes for the three spectra.

For each n: average the min gap ratio statistic over disorder samples of
the original Hamiltonian, its level-replaced (poissonized) counterpart
and the quartic relocalization of that counterpart, then print the table
next to Monte Carlo GUE / Poisson references.
"""

import argparse

import numpy as np

from syklab.decompose import majorana_coefficients, truncate_local
from syklab.ensemble import EnsembleParams
from syklab.poissonize import build_pool, poissonize_member
from syklab.spectral import REFERENCES, diagonalize, min_ratio_statistic, sector_ratios


def statistics_for(n, seed, samples, pool_members, pool_start):
    params = EnsembleParams(n=n, seed=seed)
    pool = build_pool(params, pool_members, start_member=pool_start)
    rows = np.empty((samples, 3))
    for m in range(samples):
        pair = poissonize_member(params, pool, m, m)
        local = truncate_local(majorana_coefficients(pair.poissonized, n), k=4)
        s_reloc = diagonalize(local, need_vectors=False)
        rows[m] = (
            min_ratio_statistic(sector_ratios(pair.spectra)),
            min_ratio_statistic(sector_ratios(pair.poissonized_spectra)),
            min_ratio_statistic(sector_ratios(s_reloc)),
        )
    return rows.mean(axis=0), rows.std(axis=0) / np.sqrt(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=str, default="8,10,12")
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--pool-members", type=int, default=64)
    ap.add_argument("--pool-start", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    gue, poisson = REFERENCES["gue"], REFERENCES["poisson"]
    print(f"reference gue     {gue.mean:.4f} +- {gue.stderr:.4f}")
    print(f"reference poisson {poisson.mean:.4f} +- {poisson.stderr:.4f}")
    print()
    print(f"{'n':>4} {'original':>18} {'poissonized':>18} {'relocalized':>18}")
    for n in (int(x) for x in args.sizes.split(",")):
        mean, err = statistics_for(
            n, args.seed, args.samples, args.pool_members, args.pool_start
        )
        cells = [f"{m:.4f} +- {e:.4f}" for m, e in zip(mean, err)]
        print(f"{n:>4} {cells[0]:>18} {cells[1]:>18} {cells[2]:>18}")


if __name__ == "__main__":
    main()
