"""Stage-resolved diagnostics of the level-clustering annealing chain.

Runs the Metropolis schedule and, at every stage boundary, reports how
far the coupling vector has rotated away from the initial disorder draw
(cosine and relative displacement), the gap ratio statistic, and the
step size the adaptation has settled on. At the end it compares thermal
two-point functions and the (1, 2) OTOC of the annealed couplings with
the SYK ensemble, as acceptance criterion 7 does: the 64 members after
--member are each scored against the mean of the other 63, which
calibrates how far "a different draw" reads on the same observables,
and the annealed member is scored against the mean of all 64.
"""

import argparse

import numpy as np

from syklab.correlators import fermion_block, otoc, two_point
from syklab.ensemble import EnsembleParams, CouplingTensor, build_hamiltonian, member_rng, sample_couplings
from syklab.metropolis import Schedule, run_schedule
from syklab.spectral import diagonalize, min_ratio_statistic, sector_ratios

REFERENCE_MEMBERS = 64


def parse_stages(text):
    stages = []
    for part in text.split(","):
        beta_d, steps = part.split(":")
        stages.append((float(beta_d), int(steps)))
    return tuple(stages)


def rotation(j0: np.ndarray, j: np.ndarray):
    cos = float(np.dot(j0, j) / (np.linalg.norm(j0) * np.linalg.norm(j)))
    rel = float(np.linalg.norm(j - j0) / np.linalg.norm(j0))
    return cos, rel


def eigenbasis_series(beta, times, spectra, flavors) -> np.ndarray:
    """Two-point series of each flavour, then the (1, 2) OTOC, one row each."""
    psi = {i: fermion_block(spectra, i) for i in dict.fromkeys((*flavors, 1, 2))}
    rows = [two_point(spectra, psi[i], beta, times).values for i in flavors]
    rows.append(otoc(spectra, psi[1], psi[2], beta, times).values)
    return np.array(rows)


def worst_deviation(deviation: np.ndarray):
    """Largest |deviation| over the two-point rows, and over the OTOC row."""
    return float(np.max(deviation[:-1], initial=0.0)), float(np.max(deviation[-1]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--member", type=int, default=0)
    ap.add_argument("--chain-stream", type=int, default=10 ** 6)
    ap.add_argument("--stages", type=str, default="0.5:20000,1.0:20000,1.5:20000,2.0:20000")
    ap.add_argument("--sigma0", type=float, default=0.001)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--t-points", type=int, default=128)
    ap.add_argument("--flavors", type=int, default=4)
    args = ap.parse_args()

    params = EnsembleParams(n=args.n, seed=args.seed)
    j0 = sample_couplings(params, args.member)
    s0 = diagonalize(build_hamiltonian(j0), need_vectors=False)
    times = np.linspace(0.0, 10.0, args.t_points)
    flavors = range(min(args.flavors, args.n))

    members = range(args.member + 1, args.member + 1 + REFERENCE_MEMBERS)
    series = np.array([
        eigenbasis_series(
            args.beta, times, diagonalize(build_hamiltonian(sample_couplings(params, m))), flavors
        )
        for m in members
    ])
    total = series.sum(axis=0)
    loo = [worst_deviation(np.abs(x - (total - x) / (len(members) - 1))) for x in series]
    base2, base_otoc = np.max(loo, axis=0)
    print(f"SYK members {members[0]}-{members[-1]}, each against the other {len(members) - 1}: "
          f"max worst2pt {base2:.3f} otoc {base_otoc:.3f}")
    print(f"initial statistic {min_ratio_statistic(sector_ratios(s0)):.4f}")
    print()

    # capture the coupling vector at each stage boundary via the sink
    stages = parse_stages(args.stages)
    boundaries = np.cumsum([s for _, s in stages])
    snapshots = {}

    def sink(payload):
        if payload["global_step"] in boundaries:
            snapshots[payload["global_step"]] = (
                np.array(payload["couplings"]), payload["sigma"]
            )

    gcd = int(np.gcd.reduce(boundaries))
    result = run_schedule(
        params,
        Schedule(stages=stages, window=100),
        member_rng(args.seed, args.chain_stream),
        checkpoint_sink=sink,
        member=args.member,
        sigma0=args.sigma0,
        checkpoint_every=gcd,
    )

    print(f"{'stage':>6} {'beta_D':>7} {'cos(J0,J)':>10} {'|dJ|/|J|':>9} "
          f"{'sigma':>10} {'statistic':>10}")
    for k, (beta_d, _) in enumerate(stages):
        j, sigma = snapshots[boundaries[k]]
        cos, rel = rotation(j0.values, j)
        sk = diagonalize(
            build_hamiltonian(CouplingTensor(n=args.n, values=j)), need_vectors=False
        )
        print(f"{k:>6} {beta_d:>7.2f} {cos:>10.3f} {rel:>9.3f} "
              f"{sigma:>10.2e} {min_ratio_statistic(sector_ratios(sk)):>10.4f}")

    sf = diagonalize(build_hamiltonian(result.couplings))
    dev2, dev_otoc = worst_deviation(
        np.abs(eigenbasis_series(args.beta, times, sf, flavors) - total / len(members))
    )
    print()
    print(f"annealed vs the {len(members)}-member mean: worst2pt {dev2:.3f} otoc {dev_otoc:.3f} "
          f"(members' max {base2:.3f} / {base_otoc:.3f})")


if __name__ == "__main__":
    main()
