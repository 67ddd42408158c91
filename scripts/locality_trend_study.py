"""Nonlocal weight of the poissonized Hamiltonian as the system grows.

For each n, poissonize fresh disorder members against a fixed pool and
record the amplitude fraction carried by fermion monomials of size > 4.
The fraction should shrink roughly geometrically, tracked here against
2^(-n/4).
"""

import argparse

import numpy as np

from syklab.decompose import majorana_coefficients, nonlocal_fraction, size_spectrum
from syklab.ensemble import EnsembleParams
from syklab.poissonize import build_pool, poissonize_member


def sample_fractions(n, seed, samples, pool_members, pool_start):
    params = EnsembleParams(n=n, seed=seed)
    pool = build_pool(params, pool_members, start_member=pool_start)
    fractions = np.empty(samples)
    shares = np.zeros(n + 1)
    for m in range(samples):
        pair = poissonize_member(params, pool, m, m)
        fractions[m] = nonlocal_fraction(pair.poissonized, n)
        weights = size_spectrum(majorana_coefficients(pair.poissonized, n))
        shares += weights / weights.sum()
    return fractions, shares / samples


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=str, default="8,10,12,14")
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--pool-members", type=int, default=32)
    ap.add_argument("--pool-start", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--shares", action="store_true", help="print the size breakdown")
    args = ap.parse_args()

    print(f"{'n':>4} {'nonlocal fraction':>22} {'2^(-n/4)':>10} {'ratio':>8}")
    for n in (int(x) for x in args.sizes.split(",")):
        fractions, shares = sample_fractions(
            n, args.seed, args.samples, args.pool_members, args.pool_start
        )
        mean = fractions.mean()
        err = fractions.std() / np.sqrt(fractions.size)
        ref = 2.0 ** (-n / 4.0)
        print(f"{n:>4} {f'{mean:.4f} +- {err:.4f}':>22} {ref:>10.4f} {mean / ref:>8.3f}")
        if args.shares:
            for k in range(0, n + 1, 2):
                if shares[k] > 1e-12:
                    print(f"       size {k:>2}: {shares[k]:.5f}")


if __name__ == "__main__":
    main()
