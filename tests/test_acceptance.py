"""End-to-end acceptance gate, one test per numbered criterion.

Each test is one pass/fail line under pytest -v. Tolerances are fixed
here and are not tuned to the implementation. One leg is expected to
fail at this scale: the density leg of criterion 7, the KS distance of
the annealed spectrum to the SYK level pool. The chain keeps tr(H^2)
but not the mean density, and clustering widens the band beyond every
reference member's; the failure message carries the measured
bandwidths. Whether annealing must keep SYK's mean density is an open
question of the method, so the leg stays as it is. All protocols are
fully pinned (seeds, streams, pools, grids) so every number below is
reproducible bit for bit.
"""

import itertools
import json
from math import comb

import numpy as np
import pytest
from fractions import Fraction

from syklab.correlators import compare_series, cyclic_moment, fermion_block, gram_rank, otoc, tfd_gram
from syklab.correlators import score_against_members
from syklab.decompose import (
    majorana_coefficients,
    nonlocal_fraction,
    truncate_local,
)
from syklab.ensemble import (
    EnsembleParams,
    build_hamiltonian,
    member_rng,
    sample_couplings,
)
from syklab.cli import main as cli_main
from syklab.metropolis import Schedule, run_schedule
from syklab.pauli import hermitian_monomial, majorana_matrix, parity_sector_indices
from syklab.poissonize import build_pool, poissonize
from syklab.spectral import (
    MeanDensity,
    combined_eigenvalues,
    diagonalize,
    min_ratio_statistic,
    poisson_moment,
    reference_ratio_statistic,
    sector_ratios,
    sff,
    sff_long_time_average,
    sff_poisson_average,
)


def all_subsets(n: int, max_size: int) -> list:
    subsets = []
    for k in range(max_size + 1):
        subsets.extend(itertools.combinations(range(n), k))
    return subsets


def monomial_rows(subsets, n: int) -> np.ndarray:
    dim = 2 ** (n // 2)
    rows = np.empty((len(subsets), dim * dim), dtype=complex)
    for k, s in enumerate(subsets):
        rows[k] = hermitian_monomial(s, n).reshape(-1)
    return rows


@pytest.fixture(scope="module")
def pool128_n14():
    params = EnsembleParams(n=14, seed=42)
    return params, build_pool(params, 128, start_member=1000)


def test_criterion_01_majorana_algebra():
    for n in (6, 8, 10):
        dim = 2 ** (n // 2)
        eye = np.eye(dim)
        psis = [majorana_matrix(i, n) for i in range(n)]
        for i in range(n):
            assert np.max(np.abs(psis[i] - psis[i].conj().T)) <= 1e-12
            for j in range(i, n):
                anti = psis[i] @ psis[j] + psis[j] @ psis[i]
                want = 2.0 * eye if i == j else 0.0
                assert np.max(np.abs(anti - want)) <= 1e-12

        h = build_hamiltonian(sample_couplings(EnsembleParams(n=n, seed=42), 0))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        even, odd = parity_sector_indices(dim)
        leak = h[np.ix_(even, odd)]
        assert np.max(np.abs(leak)) <= 1e-12

        # trace orthogonality over every monomial of size <= 4
        subsets = all_subsets(n, 4)
        rows = monomial_rows(subsets, n)
        gram = (rows.conj() @ rows.T) / dim
        assert np.max(np.abs(gram - np.eye(len(subsets)))) <= 1e-12


def test_criterion_02_decomposition_oracle():
    for n in (6, 8, 10):
        dim = 2 ** (n // 2)
        rng = np.random.default_rng(7 + n)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        random_h = (a + a.conj().T) / 2.0
        syk_h = build_hamiltonian(sample_couplings(EnsembleParams(n=n, seed=42), 0))
        subsets = all_subsets(n, n)
        rows = monomial_rows(subsets, n)
        for h in (random_h, syk_h):
            expansion = majorana_coefficients(h, n)
            oracle = (rows.conj() @ h.reshape(-1)).real / dim
            for s, want in zip(subsets, oracle):
                assert abs(expansion.coefficient(s) - want) <= 1e-10
            parseval = abs(expansion.weight() - np.vdot(h, h).real / dim)
            assert parseval / expansion.weight() <= 1e-8


def test_criterion_03_gap_ratio_reproduction(pool128_n14):
    params, pool = pool128_n14
    orig, poiss, reloc = [], [], []
    for m in range(64):
        h = build_hamiltonian(sample_couplings(params, m))
        pair = poissonize(h, pool, member_rng(43, m))
        orig.append(sector_ratios(pair.spectra))
        poiss.append(sector_ratios(pair.poissonized_spectra))
        local = truncate_local(majorana_coefficients(pair.poissonized, 14), k=4)
        reloc.append(sector_ratios(diagonalize(local, need_vectors=False)))
    stat_orig = min_ratio_statistic(np.concatenate(orig))
    stat_poiss = min_ratio_statistic(np.concatenate(poiss))
    stat_reloc = min_ratio_statistic(np.concatenate(reloc))
    gue = reference_ratio_statistic("gue")
    poisson = reference_ratio_statistic("poisson")
    kept = (1 + comb(14, 2) + comb(14, 4)) / 2 ** 13
    print(f"original {stat_orig:.4f} (gue {gue.mean:.4f})  "
          f"poissonized {stat_poiss:.4f} (poisson {poisson.mean:.4f})  "
          f"relocalized {stat_reloc:.4f} ({stat_reloc - gue.mean:+.4f} from gue)")
    # the relocalized spectrum is roughly (1 - kept) E + kept E'; the sign of
    # its offset from GUE changes with n (n=10 reads below), so only the
    # lower edge is a claim of the method
    print(f"size<=4 share of the replacement levels {kept:.3f}: the overshoot is "
          f"rigidity from averaging two independent gap sequences, not residual Poisson")
    assert abs(stat_orig - gue.mean) <= 0.02
    assert abs(stat_poiss - poisson.mean) <= 0.02
    assert stat_reloc >= gue.mean - 0.03, (
        f"relocalized statistic {stat_reloc:.4f} is below {gue.mean:.4f} - 0.03: "
        f"truncating to size<=4 did not bring level repulsion back"
    )


def test_criterion_04_sff_plateau(pool128_n14):
    params, pool = pool128_n14
    h = build_hamiltonian(sample_couplings(params, 0))
    beta = 1.0
    times = np.linspace(0.0, 100.0, 1024)
    total = np.zeros_like(times)
    first_even = None
    for k in range(128):
        pair = poissonize(h, pool, member_rng(43, k))
        levels = np.concatenate([x.eigenvalues for x in pair.poissonized_spectra])
        total += sff(levels, beta, times)
        if first_even is None:
            first_even = pair.poissonized_spectra[0].eigenvalues
    ensemble = total / 128.0

    density = MeanDensity.from_samples(np.concatenate(pool))
    analytic = sff_poisson_average(density, beta, times, 128)
    plateau = 128.0 * float(density.transform(2.0 * beta).real[0])
    past_dip = np.nonzero(analytic <= 1.05 * plateau)[0]
    t_dip = times[past_dip[0]]

    # four equal windows past the dip; single-time comparison would sit
    # at the 1/sqrt(128) noise floor of the plateau fluctuations
    edges = np.linspace(t_dip, times[-1], 5)
    worst = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (times >= lo) & (times <= hi)
        got = float(np.mean(ensemble[mask]))
        want = float(np.mean(analytic[mask]))
        worst = max(worst, abs(got - want) / want)
    print(f"t_dip {t_dip:.2f}  worst windowed deviation {worst:.4f}")
    assert worst <= 0.10

    single = sff_long_time_average(first_even, beta, 1e4, 2e4)
    z2b = float(np.sum(np.exp(-2.0 * beta * first_even)))
    print(f"single-spectrum long-time average / Z(2b): {single / z2b:.4f}")
    assert abs(single / z2b - 1.0) <= 0.02


def test_criterion_05_otoc_agreement(pool128_n14):
    params, pool = pool128_n14
    h = build_hamiltonian(sample_couplings(params, 0))
    pair = poissonize(h, pool, np.random.default_rng(0))
    s0 = pair.spectra
    s1 = diagonalize(pair.poissonized)
    times = np.linspace(0.0, 10.0, 512)
    psi0 = [fermion_block(s0, i) for i in (1, 2)]
    psi1 = [fermion_block(s1, i) for i in (1, 2)]
    devs = []
    for beta in (0.0, 1.0, 2.0, 3.0):
        a = otoc(s0, *psi0, beta, times)
        b = otoc(s1, *psi1, beta, times)
        if beta == 0.0:
            assert abs(a.values[0] - (-1.0)) <= 1e-10
            assert abs(b.values[0] - (-1.0)) <= 1e-10
        devs.append(compare_series(a, b))
    print("otoc deviations per beta:", [f"{d:.3f}" for d in devs])
    assert max(devs) <= 0.1


def test_criterion_06_nonlocal_fraction_trend():
    means = []
    for n in (10, 14, 18):
        params = EnsembleParams(n=n, seed=42)
        pool = build_pool(params, 32, start_member=1000)
        fracs = []
        for m in range(16):
            h = build_hamiltonian(sample_couplings(params, m))
            fracs.append(nonlocal_fraction(poissonize(h, pool, member_rng(43, m)).poissonized, n))
        means.append(float(np.mean(fracs)))
    steps = [means[1] / means[0], means[2] / means[1]]
    print(f"fractions {[f'{m:.4f}' for m in means]}  step ratios "
          f"{[f'{r:.3f}' for r in steps]}  reference 0.5")
    assert means[0] > means[1] > means[2]
    for r in steps:
        assert 0.25 <= r <= 1.0


def test_criterion_07_metropolis_end_to_end():
    params = EnsembleParams(n=10, seed=42)
    result = run_schedule(params, Schedule(), member_rng(42, 10 ** 6))

    # The chain's stationary law does not depend on its start (cos(J0, Jf) is
    # about 0), so the annealed member is compared with the SYK ensemble, not
    # with member 0. Members 1-64 are scored leave-one-out against the other
    # 63; the annealed member against all 64, and it must be no further out
    # than the furthest member. The series are the ten flavours' two-point
    # functions and the (1, 2) OTOC at beta = 1.
    members = [diagonalize(build_hamiltonian(sample_couplings(params, m))) for m in range(1, 65)]
    s1 = diagonalize(build_hamiltonian(result.couplings))
    annealed, ref = score_against_members(s1, members, 1.0, np.linspace(0.0, 10.0, 256), range(10))

    legs = [
        ("final ratio statistic", annealed.ratio, 0.45),
        ("ks distance to the SYK level pool", annealed.ks, float(ref.ks.max())),
        ("two-point deviation from the SYK mean", annealed.two_point, float(ref.two_point.max())),
        ("otoc deviation from the SYK mean", annealed.otoc, float(ref.otoc.max())),
        ("trace drift", result.trace_drift, 1e-8),
    ]
    report = "; ".join(f"{name} {value:.4g} (bound {bound:.4g})" for name, value, bound in legs)
    print(report)
    print(f"percentile among members: two-point {np.mean(ref.two_point < annealed.two_point):.0%}, "
          f"otoc {np.mean(ref.otoc < annealed.otoc):.0%}, ks {np.mean(ref.ks < annealed.ks):.0%}")
    failing = [name for name, value, bound in legs if not value <= bound]
    assert not failing, (
        f"failing legs {failing}: {report}. The annealed bandwidth is "
        f"{annealed.bandwidth:.3f} against {ref.bandwidth.min():.3f}-{ref.bandwidth.max():.3f} for "
        f"the members: clustering widens the band, and the chain fixes only "
        f"tr(H^2), not the mean density, so the KS leg reads band widening, not "
        f"decorrelation. Whether annealing must keep SYK's mean density is not "
        f"settled by the paper's claim, which names eigenbasis chaos and level "
        f"statistics only."
    )


def test_criterion_08_poisson_moment_combinatorics():
    n_levels = 32
    for order in (2, 3):
        total = sum((t.weight for t in poisson_moment(order, n_levels)), Fraction(0))
        assert total == 1
    w2 = {t.blocks: t.weight for t in poisson_moment(2, n_levels)}
    assert w2[((0, 1),)] == Fraction(1, n_levels)
    w3 = {t.blocks: t.weight for t in poisson_moment(3, n_levels)}
    assert w3[((0, 1, 2),)] == Fraction(1, n_levels ** 2)

    rng = np.random.default_rng(8)
    idx = rng.integers(0, n_levels, size=(10 ** 6, 3))
    pair = (idx[:, 0] == idx[:, 1]).astype(float)
    triple = ((idx[:, 0] == idx[:, 1]) & (idx[:, 1] == idx[:, 2])).astype(float)
    for name, sample, want in (
        ("pair", pair, 1.0 / n_levels),
        ("triple", triple, 1.0 / n_levels ** 2),
    ):
        mc = float(np.mean(sample))
        se = float(np.std(sample) / np.sqrt(sample.size))
        print(f"{name}: mc {mc:.6f} analytic {want:.6f} se {se:.2e}")
        assert abs(mc - want) <= 3.0 * se


def one_turn_t1(levels: np.ndarray) -> float:
    # largest grid step whose phase map stays injective over the
    # bandwidth; wrapping folds distinct levels onto nearby unit-circle
    # nodes and the Vandermonde factor loses numerical rank
    return 2.0 * np.pi / (1.05 * float(levels[-1] - levels[0]))


def test_criterion_09_tfd_gram_rank():
    params = EnsembleParams(n=10, seed=42)
    pool = build_pool(params, 128, start_member=1000)
    h = build_hamiltonian(sample_couplings(params, 0))
    dim = 32
    beta = 1.0

    # genericity: with-replacement pool draws can collide; a repeated
    # level caps the rank below Omega, so take the first collision-free
    # draw of the stream
    for k in range(64):
        pair = poissonize(h, pool, member_rng(43, k))
        levels = np.sort(np.concatenate([x.eigenvalues for x in pair.poissonized_spectra]))
        bandwidth = float(levels[-1] - levels[0])
        if np.diff(levels).min() > 1e-12 * bandwidth:
            break
    else:
        pytest.fail("no collision-free draw in 64 attempts")
    spectra = diagonalize(pair.poissonized, need_vectors=False)
    t1 = one_turn_t1(levels)
    print(f"draw {k}, t1 {t1:.3f}")
    for omega in (4, 16, dim):
        assert gram_rank(tfd_gram(spectra, beta, t1, omega), 1e-8) == omega
    assert gram_rank(tfd_gram(spectra, beta, t1, 2 * dim), 1e-8) == dim

    diffs = []
    for k in range(64):
        pk = poissonize(h, pool, member_rng(44, k))
        sk = diagonalize(pk.poissonized, need_vectors=False)
        e = combined_eigenvalues(sk)
        moment = cyclic_moment(tfd_gram(sk, beta, one_turn_t1(e), dim), 2).real
        shifted = e - e.min()
        z1 = float(np.sum(np.exp(-beta * shifted)))
        z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
        diffs.append(moment - z2 / z1 ** 2)
    diffs = np.array(diffs)
    se = float(np.std(diffs) / np.sqrt(diffs.size))
    print(f"cyclic 2-moment minus Z(2b)/Z(b)^2: mean {np.mean(diffs):.2e} se {se:.2e}")
    assert abs(float(np.mean(diffs))) <= 3.0 * se


def test_criterion_10_byte_identical_reruns(tmp_path):
    commands = {
        "sample": ["sample", "--n", "10", "--seed", "3"],
        "poissonize": ["poissonize", "--n", "8", "--seed", "7", "--samples", "2",
                       "--pool-members", "6"],
        "correlators": ["correlators", "--n", "8", "--seed", "7", "--pool-members", "6",
                        "--t-points", "48", "--betas", "0,1", "--two-point", "0"],
        "decompose": ["decompose", "--n", "8", "--seed", "7", "--pool-members", "6"],
        "metropolis": ["metropolis", "--n", "8", "--seed", "5",
                       "--stages", "0.5:200,1.0:200", "--checkpoint-every", "100"],
        "gram": ["gram", "--n", "8", "--seed", "7", "--pool-members", "6",
                 "--omega", "8", "--moment-draws", "4"],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        runs = []
        for _ in range(2):
            assert cli_main(argv + ["--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1], f"{name} rerun differs"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"])  # every command manifests its outputs
