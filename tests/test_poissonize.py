import numpy as np
import pytest
from scipy.stats import ks_2samp

from syklab.ensemble import EnsembleParams, build_hamiltonian, member_rng, sample_couplings
from syklab.pauli import parity_sector_indices, sector_split
from syklab.poissonize import build_pool, poissonize, poissonize_member
from syklab.spectral import diagonalize


def target(n=10, seed=21):
    params = EnsembleParams(n=n, seed=seed)
    return params, build_hamiltonian(sample_couplings(params, member=1000))


def test_build_pool_shapes_and_order():
    params = EnsembleParams(n=8, seed=1)
    even, odd = build_pool(params, members=6)
    assert even.size == odd.size == 6 * 8
    assert np.all(np.diff(even) >= 0.0)
    with pytest.raises(ValueError):
        build_pool(params, members=0)


def test_poissonize_member_draws_from_the_shared_stream():
    params = EnsembleParams(n=8, seed=3)
    pool = build_pool(params, members=4, start_member=100)
    h = build_hamiltonian(sample_couplings(params, member=2))
    want = poissonize(h, pool, member_rng(4, 5))
    got = poissonize_member(params, pool, 2, 5)
    assert np.array_equal(got.original, h)
    assert np.array_equal(got.poissonized, want.poissonized)


def test_poissonized_operator_structure():
    params, h = target()
    pool = build_pool(params, members=24)
    pair = poissonize(h, pool, np.random.default_rng(5))
    hp = pair.poissonized
    assert np.max(np.abs(hp - hp.conj().T)) < 1e-12
    sector_split(hp)
    # replaced levels are sorted pool values, placed rank to rank
    sectors = parity_sector_indices(hp.shape[0])
    for s, new, values, indices in zip(pair.spectra, pair.poissonized_spectra, pool, sectors):
        d_prime = new.eigenvalues
        assert np.all(np.diff(d_prime) >= 0.0)
        assert np.all(np.isin(d_prime, values))
        block = hp[np.ix_(indices, indices)]
        back = s.eigenvectors.conj().T @ block @ s.eigenvectors
        assert np.allclose(np.diag(back).real, d_prime, atol=1e-10)


def test_delta_commutes_with_original():
    params, h = target()
    pool = build_pool(params, members=24)
    pair = poissonize(h, pool, np.random.default_rng(7))
    delta = pair.delta()
    commutator = np.linalg.norm(h @ delta - delta @ h)
    scale = np.linalg.norm(h) * np.linalg.norm(delta)
    assert commutator < 1e-11 * max(scale, 1e-300)
    relative = np.linalg.norm(delta) / np.linalg.norm(pair.poissonized)
    assert 0.01 < relative < 0.9  # small but nonzero surgery at n=10


def test_eigenvectors_are_shared_with_target():
    params, h = target(seed=33)
    pool = build_pool(params, members=32)
    pair = poissonize(h, pool, np.random.default_rng(2))
    # the pair carries the spectrum of H' = U D' U^dag: D' on the eigenbasis of H
    replay = np.random.default_rng(2)
    for old, new, values in zip(pair.spectra, pair.poissonized_spectra, pool):
        d_prime = np.sort(values[replay.integers(0, values.size, size=old.eigenvalues.size)])
        assert np.array_equal(new.eigenvalues, d_prime)
        assert np.array_equal(new.eigenvectors, old.eigenvectors)
    rediagonalized = diagonalize(pair.poissonized)
    for fresh, new in zip(rediagonalized, pair.poissonized_spectra):
        assert np.max(np.abs(fresh.eigenvalues - new.eigenvalues)) < 1e-12
    re_even = rediagonalized[0]
    old_even = pair.spectra[0]
    d_prime = pair.poissonized_spectra[0].eigenvalues
    gaps = np.diff(d_prime)
    for k in range(d_prime.size):
        # only well separated replacement levels identify a unique vector
        left = gaps[k - 1] if k > 0 else np.inf
        right = gaps[k] if k < gaps.size else np.inf
        if min(left, right) < 1e-6:
            continue
        overlap = abs(np.vdot(re_even.eigenvectors[:, k], old_even.eigenvectors[:, k]))
        assert overlap > 1.0 - 1e-8


def test_pool_draws_match_pool_density():
    params, h = target(seed=40)
    pool = build_pool(params, members=64)
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(10_000 // h.shape[0]):
        pair = poissonize(h, pool, rng)
        draws.append(np.concatenate([s.eigenvalues for s in pair.poissonized_spectra]))
    draws = np.concatenate(draws)
    combined = np.concatenate(pool)
    assert ks_2samp(draws, combined).statistic <= 0.05


def test_tiny_pool_with_replacement_duplicates_levels():
    _, h = target()
    two = (np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    pair = poissonize(h, two, np.random.default_rng(0))
    assert np.unique(pair.poissonized_spectra[0].eigenvalues).size <= 2


def test_poissonize_is_reproducible():
    params, h = target()
    pool = build_pool(params, members=16)
    a = poissonize(h, pool, np.random.default_rng(9))
    b = poissonize(h, pool, np.random.default_rng(9))
    assert np.array_equal(a.poissonized, b.poissonized)
