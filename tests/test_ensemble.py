import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from syklab.ensemble import (
    CouplingTensor,
    EnsembleParams,
    HamiltonianBuilder,
    build_hamiltonian,
    coupling_subsets,
    coupling_variance,
    gaussian,
    member_rng,
    rescale_to_trace,
    sample_couplings,
    trace_h_squared,
)
from syklab.pauli import accumulate_string, hermitian_monomial, sector_split


def test_variance_value_n8():
    assert coupling_variance(8, 1.0) == pytest.approx(1.0 / 280.0, rel=1e-14)


def test_variance_scales_with_j():
    assert coupling_variance(10, 2.0) == pytest.approx(4.0 * coupling_variance(10, 1.0), rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(n=7)
    with pytest.raises(ValueError):
        EnsembleParams(n=4)
    with pytest.raises(ValueError):
        EnsembleParams(n=28)
    with pytest.raises(ValueError):
        EnsembleParams(n=8, j_scale=0.0)


def test_subsets_lexicographic():
    subsets = coupling_subsets(6)
    assert len(subsets) == 15
    assert subsets[0] == (0, 1, 2, 3)
    assert subsets[-1] == (2, 3, 4, 5)
    assert list(subsets) == sorted(subsets)
    assert subsets[1] == (0, 1, 2, 4)


def test_draws_are_reproducible_and_order_independent():
    params = EnsembleParams(n=8, seed=11)
    # drawing members 0..2 first must not change member 3
    for k in range(3):
        sample_couplings(params, member=k)
    late = sample_couplings(params, member=3)
    fresh = sample_couplings(EnsembleParams(n=8, seed=11), member=3)
    assert np.array_equal(late.values, fresh.values)
    other = sample_couplings(params, member=4)
    assert not np.array_equal(late.values, other.values)


def test_gaussian_transform_is_standard_normal():
    # inverse CDF of one uniform per variate; KS against the normal law
    z = gaussian(member_rng(5, 0), 200_000)
    stat = kstest(z, "norm").statistic
    assert stat < 0.005
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.std(z)) - 1.0) < 0.01


def test_empirical_coupling_variance():
    # Monte Carlo oracle for the variance formula
    params = EnsembleParams(n=8, seed=2)
    draws = np.stack([sample_couplings(params, member=k).values for k in range(2000)])
    est = float(np.var(draws))
    want = coupling_variance(8, 1.0)
    # 2000 * 70 samples: 3 sigma of the variance estimator is ~1.2%
    assert est == pytest.approx(want, rel=0.015)


def test_hamiltonian_is_hermitian_and_parity_blocked():
    params = EnsembleParams(n=10, seed=3)
    h = build_hamiltonian(sample_couplings(params))
    assert np.max(np.abs(h - h.conj().T)) < 1e-13
    sector_split(h)  # raises if off-sector weight leaks


@pytest.mark.parametrize("n", [8, 10, 18])
def test_build_matches_monomial_sum_oracle(n):
    # H = sum_k -J_k m_k, accumulated one monomial at a time
    coup = sample_couplings(EnsembleParams(n=n, seed=5), member=1)
    want = np.zeros((2 ** (n // 2),) * 2, dtype=complex)
    for s, j in zip(coupling_subsets(n), coup.values):
        accumulate_string(want, hermitian_monomial(s, n), -j)
    np.testing.assert_allclose(build_hamiltonian(coup), want, rtol=0.0, atol=1e-14)


def test_builder_keeps_no_dense_map():
    # a dense (C(16,4), 4^8) complex couplings-to-H map would take 1.9 GB
    kept = 0
    for value in vars(HamiltonianBuilder(16)).values():
        for a in value if isinstance(value, (list, tuple)) else [value]:
            kept += a.nbytes if isinstance(a, np.ndarray) else 0
    assert kept < 16e6


def test_trace_identity_against_dense():
    for n, seed in ((8, 0), (10, 1)):
        coup = sample_couplings(EnsembleParams(n=n, seed=seed))
        h = build_hamiltonian(coup)
        dense_trace = float(np.trace(h @ h).real)
        assert dense_trace == pytest.approx(trace_h_squared(coup), rel=1e-12)


def test_rescale_to_trace():
    coup = sample_couplings(EnsembleParams(n=8, seed=9))
    scaled = rescale_to_trace(coup, 3.5)
    assert trace_h_squared(scaled) == pytest.approx(3.5, rel=1e-14)
    # direction is preserved
    ratio = scaled.values / coup.values
    assert np.allclose(ratio, ratio[0])
    with pytest.raises(ValueError):
        rescale_to_trace(coup, -1.0)
    with pytest.raises(ValueError):
        rescale_to_trace(CouplingTensor(8, np.zeros(70)), 1.0)


@given(st.integers(0, 2**32 - 1), st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_member_rng_streams_differ(seed, stream):
    a = member_rng(seed, stream).integers(0, 1 << 63, size=4)
    b = member_rng(seed, stream + 1).integers(0, 1 << 63, size=4)
    c = member_rng(seed, stream).integers(0, 1 << 63, size=4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)

