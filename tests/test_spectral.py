import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from syklab import spectral
from syklab.ensemble import EnsembleParams, build_hamiltonian, sample_couplings
from syklab.pauli import parity_sector_indices, sector_split
from syklab.poissonize import build_pool, poissonize
from syklab.spectral import (
    GUE_MIN_RATIO,
    POISSON_MIN_RATIO,
    REFERENCES,
    RESIDUAL_TOL,
    MeanDensity,
    combined_eigenvalues,
    diagonalize,
    gap_ratios,
    ks_distance,
    min_ratio_statistic,
    poisson_moment,
    reference_ratio_statistic,
    sff,
    sff_long_time_average,
    sff_poisson_average,
)


def syk_hamiltonian(n, seed, member=0):
    return build_hamiltonian(sample_couplings(EnsembleParams(n=n, seed=seed), member=member))


def test_diagonalize_reconstructs_sectors():
    h = syk_hamiltonian(10, 1)
    even, odd = diagonalize(h)
    for s, indices in zip((even, odd), parity_sector_indices(h.shape[0])):
        assert np.all(np.diff(s.eigenvalues) >= 0.0)
        block = h[np.ix_(indices, indices)]
        rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - block) < 1e-10 * np.linalg.norm(block)
    # sector union equals the full spectrum
    full = np.linalg.eigvalsh(h)
    assert np.allclose(combined_eigenvalues((even, odd)), full, atol=1e-12)


def test_diagonalize_without_vectors():
    h = syk_hamiltonian(8, 5)
    even, odd = diagonalize(h, need_vectors=False)
    assert even.eigenvectors is None
    indices, _ = parity_sector_indices(h.shape[0])
    w_even, _ = np.linalg.eigh(h[np.ix_(indices, indices)])
    assert np.allclose(even.eigenvalues, w_even, atol=1e-12)


def block_calls(monkeypatch):
    """The sector blocks diagonalize hands to the eigensolver, in call order."""
    calls, solve = [], spectral._diagonalize_block

    def record(block, need_vectors):
        calls.append(block)
        return solve(block, need_vectors)

    monkeypatch.setattr(spectral, "_diagonalize_block", record)
    return calls


@pytest.mark.parametrize("n", [6, 10, 14, 18])
def test_diagonalize_mirrors_the_odd_sector_of_a_builder_hamiltonian(n, monkeypatch):
    h = syk_hamiltonian(n, 42)
    ee, oo = sector_split(h)
    calls = block_calls(monkeypatch)
    even, odd = diagonalize(h)
    assert len(calls) == 1 and np.array_equal(calls[0], ee)
    assert np.array_equal(odd.eigenvalues, even.eigenvalues)
    residual = np.linalg.norm((odd.eigenvectors * odd.eigenvalues) @ odd.eigenvectors.conj().T - oo)
    assert residual <= RESIDUAL_TOL * np.linalg.norm(oo)
    assert np.max(np.abs(odd.eigenvalues - np.linalg.eigvalsh(oo))) < 1e-13
    levels = diagonalize(h, need_vectors=False)
    assert len(calls) == 2 and levels[1].eigenvectors is None
    assert np.array_equal(levels[1].eigenvalues, levels[0].eigenvalues)


def unmirrored_input(n, kind):
    """An input diagonalize must solve sector by sector: H' or a one-ulp nudge of H at q odd, H at q even."""
    h = syk_hamiltonian(n, 42)
    if kind == "poissonized":
        pool = build_pool(EnsembleParams(n=n, seed=42), 2, start_member=1)
        return poissonize(h, pool, np.random.default_rng(3)).poissonized
    if kind == "nudged":  # the largest Hermitian pair of odd-block entries, by one ulp
        odd = parity_sector_indices(h.shape[0])[1]
        j, k = np.unravel_index(np.argmax(np.abs(np.triu(sector_split(h)[1], 1))), (odd.size, odd.size))
        a, b = odd[j], odd[k]
        h[a, b] = complex(np.nextafter(h[a, b].real, np.inf), h[a, b].imag)
        h[b, a] = np.conj(h[a, b])
    return h


@pytest.mark.parametrize("n, kind", [(n, kind) for n in (6, 10, 14) for kind in ("poissonized", "nudged")]
                         + [(8, "builder"), (12, "builder")])
def test_diagonalize_solves_each_sector_of_an_unmirrored_input(n, kind, monkeypatch):
    h = unmirrored_input(n, kind)
    calls = block_calls(monkeypatch)
    got = diagonalize(h)
    assert len(calls) == 2
    for sector, (w, u) in zip(got, (np.linalg.eigh(block) for block in sector_split(h))):
        assert np.array_equal(sector.eigenvalues, w) and np.array_equal(sector.eigenvectors, u)


def test_gap_ratios_hand_example():
    sample = gap_ratios(np.array([0.0, 1.0, 3.0, 7.0]))
    assert np.allclose(sample.ratios, [2.0, 2.0])
    assert sample.degenerate_count == 0


def test_gap_ratios_degenerate_entries_are_omitted_and_counted():
    sample = gap_ratios(np.array([0.0, 0.0, 1.0, 2.0]))
    assert sample.degenerate_count == 1
    assert np.allclose(sample.ratios, [1.0])
    flat = gap_ratios(np.array([1.0, 1.0, 1.0]))
    assert flat.degenerate_count == 2
    assert flat.ratios.size == 0


@pytest.mark.parametrize("n, doublets", [(12, True), (14, False)])
def test_gap_ratios_collapse_kramers_doublets(n, doublets):
    # at n = 4 (mod 8) every level of a parity sector is an exact doublet
    for sector in diagonalize(syk_hamiltonian(n, 42), need_vectors=False):
        e = sector.eigenvalues
        assert doublets == bool(np.all(e[1::2] - e[::2] <= 1e-14 * (e[-1] - e[0])))
        gaps = np.diff(e[::2] if doublets else e)
        sample = gap_ratios(e)
        assert sample.ratios.size == gaps.size - 1
        assert np.array_equal(sample.ratios, gaps[1:] / gaps[:-1])
        assert sample.degenerate_count == 0


@given(st.floats(0.05, 20.0), st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_gap_ratios_affine_invariance(scale, shift):
    e = np.array([0.0, 0.3, 0.35, 1.1, 2.0, 2.2, 3.7])
    a = gap_ratios(e).ratios
    b = gap_ratios(scale * e + shift).ratios
    assert np.allclose(a, b, rtol=1e-9)


def test_min_ratio_statistic_symmetry():
    r = np.array([2.0, 0.5, 1.0])
    assert min_ratio_statistic(r) == pytest.approx((0.5 + 0.5 + 1.0) / 3.0)
    with pytest.raises(ValueError):
        min_ratio_statistic(np.empty(0))


def test_ks_distance_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    for k in range(3000):
        n1, n2 = (int(v) for v in rng.integers(2, 1101, size=2))
        if k % 3 == 0:  # many ties, within and across the samples
            a, b = rng.integers(0, 20, n1).astype(float), rng.integers(0, 20, n2).astype(float)
        elif k % 3 == 1:
            a, b = rng.normal(size=n1), rng.normal(0.1, 1.2, size=n2)
        else:
            a, b = np.round(rng.normal(size=n1), 1), np.round(rng.normal(size=n2), 1)
        assert ks_distance(a, b) == float(ks_2samp(a, b).statistic), (n1, n2)


def test_ks_distance_edge_cases():
    assert ks_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_distance([0.0, 1.0], [2.0, 3.0, 4.0]) == 1.0
    with pytest.raises(ValueError):
        ks_distance([], [1.0])


def test_poisson_reference_matches_analytic_value():
    ref = reference_ratio_statistic("poisson", rng=np.random.default_rng(10))
    assert ref.count > 900_000
    assert abs(ref.mean - POISSON_MIN_RATIO) < 3.0 * ref.stderr


def test_gue_reference_matches_frozen_value():
    ref = reference_ratio_statistic("gue", rng=np.random.default_rng(11))
    # frozen large matrix value 0.5996; allow Monte Carlo error plus the
    # small finite size bias of 64 dimensional matrices
    assert ref.mean == pytest.approx(GUE_MIN_RATIO, abs=3.0 * ref.stderr + 0.004)


def test_reference_matches_the_benchmark_record():
    with open(Path(__file__).resolve().parents[1] / "perfbench" / "reference_seed42.json") as f:
        stats = json.load(f)["pool-relocalize-n14"]["call0/stats.csv"]
    assert sorted(REFERENCES) == ["gue", "poisson"]
    for kind, stored in REFERENCES.items():
        # the stored constants are the oracle's draw, bit for bit
        assert reference_ratio_statistic(kind) == stored
        assert stored.mean == pytest.approx(stats[f"reference_{kind}"], rel=1e-9)
        assert stored.stderr == pytest.approx(stats[f"reference_{kind}_stderr"], rel=1e-9)


def test_reference_kind_validation():
    with pytest.raises(ValueError):
        reference_ratio_statistic("goe")


def test_sff_at_zero_time_is_z_beta_squared():
    e = np.array([-1.0, 0.2, 0.9])
    beta = 0.7
    z = float(np.sum(np.exp(-beta * e)))
    assert sff(e, beta, np.array([0.0]))[0] == pytest.approx(z * z, rel=1e-13)


@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12), st.floats(0.0, 2.0), st.floats(0.0, 30.0))
@settings(max_examples=60, deadline=None)
def test_sff_is_nonnegative(levels, beta, t):
    val = sff(np.array(levels), beta, np.array([t]))[0]
    assert val >= 0.0


def test_sff_long_time_average_hits_plateau():
    # single parity sector: nondegenerate spectrum, plateau Z(2 beta)
    even, _ = diagonalize(syk_hamiltonian(10, 3), need_vectors=False)
    beta = 1.0
    plateau = float(np.sum(np.exp(-2.0 * beta * even.eigenvalues)))
    avg = sff_long_time_average(even.eigenvalues, beta, 1e4, 2e4)
    assert avg == pytest.approx(plateau, rel=0.02)
    with pytest.raises(ValueError):
        sff_long_time_average(even.eigenvalues, beta, 2.0, 1.0)


def test_mean_density_normalization_and_interpolation():
    rng = np.random.default_rng(4)
    rho = MeanDensity.from_samples(rng.normal(size=20_000), bins=64)
    assert rho.norm == pytest.approx(1.0, abs=1e-12)
    rho.require_normalized()
    bad = MeanDensity(rho.edges, rho.density * 1.1)
    with pytest.raises(ValueError):
        bad.require_normalized()


def test_mean_density_transform_against_quadrature():
    rng = np.random.default_rng(5)
    rho = MeanDensity.from_samples(rng.normal(size=50_000), bins=48)
    # per bin midpoint quadrature, aligned with the bin edges
    for w in (0.0, 1.3, 2.0 - 0.7j, 0.5 + 4.0j):
        quad = 0.0 + 0.0j
        for k in range(rho.density.size):
            xs = np.linspace(rho.edges[k], rho.edges[k + 1], 2001)
            mids = (xs[:-1] + xs[1:]) / 2.0
            quad += rho.density[k] * np.sum(np.exp(-w * mids)) * (xs[1] - xs[0])
        direct = complex(rho.transform(w)[0])
        assert direct == pytest.approx(quad, rel=1e-7, abs=1e-10)


def test_sff_poisson_average_at_t_zero():
    rng = np.random.default_rng(6)
    rho = MeanDensity.from_samples(rng.normal(size=30_000), bins=64)
    beta, levels = 1.0, 128
    val = sff_poisson_average(rho, beta, np.array([0.0]), levels)[0]
    zbar = levels * complex(rho.transform(beta)[0]).real
    plateau = levels * complex(rho.transform(2.0 * beta)[0]).real
    assert val == pytest.approx(zbar**2 + plateau, rel=1e-12)


def test_poisson_moment_weights_n2():
    terms = poisson_moment(2, 100)
    weights = {t.blocks: t.weight for t in terms}
    assert weights[((0,), (1,))] == Fraction(99, 100)
    assert weights[((0, 1),)] == Fraction(1, 100)


def test_poisson_moment_fully_connected_n3():
    terms = poisson_moment(3, 50)
    connected = [t for t in terms if t.blocks == ((0, 1, 2),)]
    assert len(connected) == 1
    assert connected[0].weight == Fraction(1, 50**2)


def test_poisson_moment_weights_sum_to_one_exactly():
    for n in (1, 2, 3, 4):
        total = sum((t.weight for t in poisson_moment(n, 37)), Fraction(0))
        assert total == 1


def test_poisson_moment_validation():
    with pytest.raises(ValueError):
        poisson_moment(5, 10)
    with pytest.raises(ValueError):
        poisson_moment(2, 0)


def test_count_moment_small_monte_carlo():
    # levels i.i.d. from a discrete density; count the hits in a region
    n_levels, p_region, draws = 8, 0.375, 200_000
    rng = np.random.default_rng(12)
    hits = rng.random((draws, n_levels)) < p_region
    counts = hits.sum(axis=1).astype(float)
    for order in (1, 2, 3):
        mc = float(np.mean(counts**order))
        se = float(np.std(counts**order) / np.sqrt(draws))
        # a partition with r blocks contributes weight * N^order * p^r
        want = sum(
            float(t.weight) * n_levels**order * p_region ** len(t.blocks)
            for t in poisson_moment(order, n_levels)
        )
        assert abs(mc - want) < 3.0 * se + 1e-9
