"""Stage-resolved diagnostics of the level-clustering annealing chain.

Runs the Metropolis schedule and, at every stage boundary, reports how
far the coupling vector has rotated away from the initial disorder draw
(cosine and relative displacement), the gap ratio statistic, and the
step size the adaptation has settled on. At the end it compares thermal
two-point functions, the (1, 2) OTOC and the levels of the annealed
couplings with the SYK ensemble through correlators.score_against_members,
as acceptance criterion 7 does: the 64 members after --member are each
scored against the other 63, which calibrates how far "a different
draw" reads on the same observables, and the annealed member is scored
against all 64.
"""

import argparse

import numpy as np

from syklab.correlators import score_against_members
from syklab.ensemble import EnsembleParams, CouplingTensor, build_hamiltonian, member_rng, sample_couplings
from syklab.metropolis import Schedule, parse_stages, run_schedule
from syklab.spectral import diagonalize, min_ratio_statistic, sector_ratios

REFERENCE_MEMBERS = 64


def rotation(j0: np.ndarray, j: np.ndarray):
    cos = float(np.dot(j0, j) / (np.linalg.norm(j0) * np.linalg.norm(j)))
    rel = float(np.linalg.norm(j - j0) / np.linalg.norm(j0))
    return cos, rel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--member", type=int, default=0)
    ap.add_argument("--chain-stream", type=int, default=10 ** 6)
    ap.add_argument("--stages", type=parse_stages, default="0.5:20000,1.0:20000,1.5:20000,2.0:20000")
    ap.add_argument("--sigma0", type=float, default=0.001)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--t-points", type=int, default=128)
    ap.add_argument("--flavors", type=int, default=4)
    args = ap.parse_args()

    params = EnsembleParams(n=args.n, seed=args.seed)
    j0 = sample_couplings(params, args.member)
    s0 = diagonalize(build_hamiltonian(j0), need_vectors=False)

    print(f"initial statistic {min_ratio_statistic(sector_ratios(s0)):.4f}")
    print()

    # capture the coupling vector at each stage boundary via the sink; no
    # checkpoint fires at step 0, where a first stage of 0 steps ends.  An
    # integer cumsum keeps np.gcd defined for an empty stage list; a chain of
    # no steps has gcd 0 and writes nothing, at any checkpoint_every >= 1
    stages = args.stages
    boundaries = np.cumsum([s for _, s in stages], dtype=np.int64)
    snapshots = {0: (j0.values, args.sigma0)}

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
        checkpoint_every=max(gcd, 1),
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

    members = range(args.member + 1, args.member + 1 + REFERENCE_MEMBERS)
    annealed, ref = score_against_members(
        diagonalize(build_hamiltonian(result.couplings)),
        [diagonalize(build_hamiltonian(sample_couplings(params, m))) for m in members],
        args.beta, np.linspace(0.0, 10.0, args.t_points), range(min(args.flavors, args.n)),
    )
    print()
    print(f"SYK members {members[0]}-{members[-1]}, each against the other {len(members) - 1}: "
          f"max worst2pt {ref.two_point.max():.3f} otoc {ref.otoc.max():.3f} ks {ref.ks.max():.3f}")
    print(f"annealed vs the {len(members)}-member mean: worst2pt {annealed.two_point:.3f} "
          f"otoc {annealed.otoc:.3f} ks {annealed.ks:.3f} (members' max {ref.two_point.max():.3f} / "
          f"{ref.otoc.max():.3f} / {ref.ks.max():.3f})")


if __name__ == "__main__":
    main()
