"""Decomposition tests against the brute force trace inner product oracle.

The Walsh-Hadamard expansion under majorana_coefficients is checked on
its own too, through the module's private _expand, since it and
reconstruct are the one place that handles arbitrary (also non-Hermitian)
matrices.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syklab.decompose import (
    FermionExpansion,
    _expand,
    majorana_coefficients,
    nonlocal_fraction,
    reconstruct,
    size_spectrum,
    truncate_local,
)
from syklab.ensemble import EnsembleParams, build_hamiltonian, coupling_subsets, sample_couplings
from syklab.pauli import hermitian_monomial, majorana_matrix


def monomial_coefficients(a, n):
    """Nonzero complex coefficients of _expand, keyed by ascending Majorana indices."""
    flat = _expand(a, n)
    coefficients = {s: flat[sum(1 << i for i in s)] for s in all_subsets(n)}
    return {s: c for s, c in coefficients.items() if abs(c) > 1e-14}


def monomial_sum(coefficients, n):
    return sum(c * hermitian_monomial(s, n).dense() for s, c in coefficients.items())


def oracle_majorana_coefficients(a, n):
    dim = 2 ** (n // 2)
    out = {}
    for size in range(n + 1):
        for indices in itertools.combinations(range(n), size):
            m = hermitian_monomial(indices, n).dense()
            c = complex(np.trace(m.conj().T @ a)) / dim
            if abs(c) > 1e-14:
                out[indices] = c
    return out


def all_subsets(n):
    return [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def test_single_majorana_decomposes_to_one_x():
    assert monomial_coefficients(majorana_matrix(0, 2), 2) == {(0,): 1.0 + 0.0j}
    for i in range(6):
        assert monomial_coefficients(majorana_matrix(i, 6), 6) == {(i,): 1.0 + 0.0j}


def test_pauli_decompose_matches_trace_oracle():
    for n, seed in ((4, 0), (6, 1), (8, 2)):
        rng = np.random.default_rng(seed)
        dim = 2 ** (n // 2)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))  # not Hermitian
        got = monomial_coefficients(a, n)
        want = oracle_majorana_coefficients(a, n)
        assert set(got) == set(want)
        for indices, c in want.items():
            assert got[indices] == pytest.approx(c, abs=1e-10)


def test_pauli_decompose_roundtrip_general_matrix():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))  # not Hermitian
    assert np.max(np.abs(monomial_sum(monomial_coefficients(a, 8), 8) - a)) < 1e-10
    assert np.max(np.abs(reconstruct(FermionExpansion(8, _expand(a, 8))) - a)) < 1e-12


def test_pauli_decompose_rejects_bad_shapes():
    for bad, n in ((np.zeros((3, 3)), 4), (np.zeros((4, 2)), 4), (np.zeros((4, 4)), 6), (np.zeros((4, 4)), 3)):
        for expand in (_expand, majorana_coefficients, nonlocal_fraction):
            with pytest.raises(ValueError):
                expand(bad, n)


def test_majorana_coefficients_match_trace_oracle():
    n = 6
    a = np.zeros((8, 8), dtype=complex)
    rng = np.random.default_rng(8)
    # random even operator with sizes 0, 2, 4, 6 represented
    wanted = {}
    for size in (0, 2, 4, 6):
        for indices in itertools.combinations(range(n), size):
            if rng.random() < 0.4:
                c = float(rng.normal())
                wanted[indices] = c
                a += c * hermitian_monomial(indices, n).dense()
    exp = majorana_coefficients(a, n)
    oracle = oracle_majorana_coefficients(a, n)
    assert {s for s in all_subsets(n) if exp.coefficient(s) != 0.0} == set(oracle)
    for indices, c in oracle.items():
        assert exp.coefficient(indices) == pytest.approx(c.real, abs=1e-10)
        assert exp.coefficient(indices) == pytest.approx(wanted[indices], abs=1e-10)


def test_majorana_coefficients_recover_couplings():
    params = EnsembleParams(n=8, seed=13)
    coup = sample_couplings(params)
    h = build_hamiltonian(coup)
    exp = majorana_coefficients(h, 8)
    # only size 4 subsets appear and each coefficient is minus the coupling
    assert all(len(s) == 4 for s in all_subsets(8) if exp.coefficient(s) != 0.0)
    for subset, j in zip(coupling_subsets(8), coup.values):
        assert exp.coefficient(subset) == pytest.approx(-j, abs=1e-12)
    for bad in ((1, 0, 2, 3), (2, 2), (7, 8)):
        with pytest.raises(ValueError):
            exp.coefficient(bad)


def test_parseval_identity():
    params = EnsembleParams(n=10, seed=14)
    h = build_hamiltonian(sample_couplings(params))
    exp = majorana_coefficients(h, 10)
    tr_h2 = float(np.trace(h @ h).real)
    assert exp.weight() == pytest.approx(tr_h2 / h.shape[0], rel=1e-8)


def test_majorana_coefficients_reject_non_hermitian():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        majorana_coefficients(a, 4)


def test_reconstruct_roundtrip():
    a = random_hermitian(8, 21)
    # general Hermitian operators include parity odd monomials
    exp = majorana_coefficients(a, 6)
    assert np.max(np.abs(reconstruct(exp) - a)) < 1e-10


def test_size_spectrum_matches_trace_oracle():
    n = 8
    a = random_hermitian(16, 23)
    want = np.zeros(n + 1)
    for indices, c in oracle_majorana_coefficients(a, n).items():
        want[len(indices)] += c.real**2
    assert np.allclose(size_spectrum(majorana_coefficients(a, n)), want, atol=1e-12)
    assert nonlocal_fraction(a, n) == pytest.approx(np.sqrt(want[5:].sum() / want.sum()), abs=1e-12)
    h = build_hamiltonian(sample_couplings(EnsembleParams(n=10, seed=15)))
    s = size_spectrum(majorana_coefficients(h, 10))
    assert s.shape == (11,)
    assert np.argmax(s) == 4


def test_nonlocal_fraction_zero_for_four_local():
    h = build_hamiltonian(sample_couplings(EnsembleParams(n=8, seed=16)))
    assert nonlocal_fraction(h, 8) < 1e-7


def test_nonlocal_fraction_rejects_a_negative_cut():
    a = random_hermitian(32, 24)
    expansion = majorana_coefficients(a, 10)
    for fraction in (lambda k: nonlocal_fraction(a, 10, k), expansion.nonlocal_fraction):
        with pytest.raises(ValueError, match="nonnegative"):
            fraction(-5)
    # k = 0 keeps only the identity: everything traceless is nonlocal
    weights = size_spectrum(expansion)
    want = np.sqrt(weights[1:].sum() / weights.sum())
    assert nonlocal_fraction(a, 10, k=0) == pytest.approx(want, rel=1e-12)
    for k in (0, 4):
        assert expansion.nonlocal_fraction(k) == pytest.approx(nonlocal_fraction(a, 10, k), rel=1e-12)


def test_truncate_local_partition():
    n = 8
    a = random_hermitian(16, 22)
    exp = majorana_coefficients(a, n)
    oracle = oracle_majorana_coefficients(a, n)
    for k in (0, 2, 4, 6, 8):
        local = truncate_local(exp, k=k)
        # the local part is the projection onto the monomials of size <= k
        want = sum(c.real * hermitian_monomial(i, n).dense() for i, c in oracle.items() if len(i) <= k)
        assert np.max(np.abs(local - want)) < 1e-9
        # the remainder carries the weight of the sizes > k (Parseval)
        rest = np.linalg.norm(a - local) / np.linalg.norm(a)
        assert rest == pytest.approx(exp.nonlocal_fraction(k), abs=1e-12)
        exp_local = majorana_coefficients(local, n)
        assert all(len(s) <= k for s in all_subsets(n) if exp_local.coefficient(s) != 0.0)
    assert np.max(np.abs(local - a)) < 1e-9
    with pytest.raises(ValueError):
        truncate_local(exp, k=-1)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_roundtrip_random_small(seed):
    a = random_hermitian(4, seed)
    assert np.max(np.abs(monomial_sum(monomial_coefficients(a, 4), 4) - a)) < 1e-10


def test_expansion_weight_empty():
    exp = FermionExpansion(6, np.zeros(2**6))
    assert exp.weight() == 0.0
