import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from syklab.correlators import (
    CorrelatorSeries,
    compare_series,
    cyclic_moment,
    fermion_block,
    gram_rank,
    otoc,
    tfd_gram,
    two_point,
)
from syklab.ensemble import EnsembleParams, build_hamiltonian, sample_couplings
from syklab.pauli import majorana_matrix
from syklab.spectral import SectorSpectrum, diagonalize, sff


N = 8
DIM = 1 << (N // 2)


@pytest.fixture(scope="module")
def h8():
    params = EnsembleParams(n=N, seed=7)
    return build_hamiltonian(sample_couplings(params, member=0))


@pytest.fixture(scope="module")
def spectra(h8):
    return diagonalize(h8)


@pytest.fixture(scope="module")
def systems(h8, spectra):
    """n -> (H, its sector spectra) at n = 8 and n = 10."""
    h10 = build_hamiltonian(sample_couplings(EnsembleParams(n=10, seed=7), member=0))
    return {N: (h8, spectra), 10: (h10, diagonalize(h10))}


def dense_two_point_oracle(h, o, beta, t):
    # direct matrix-function evaluation, no energy basis
    rho = expm(-beta * h)
    z = np.trace(rho)
    u_t = expm(1j * h * t)
    o_t = u_t @ o @ u_t.conj().T
    return np.trace(rho @ o_t @ o) / z


def dense_otoc_oracle(h, pa, pb, beta, t):
    y = expm(-beta * h / 4.0)
    u_t = expm(1j * h * t)
    pa = u_t @ pa @ u_t.conj().T
    z = np.trace(expm(-beta * h))
    return np.trace(y @ pa @ y @ pb @ y @ pa @ y @ pb) / z


def full_energy_basis(spectra):
    """Full-space energies and eigenvector matrix, sector-concatenated."""
    dim = sum(len(sec.eigenvalues) for sec in spectra)
    u = np.zeros((dim, dim), dtype=np.complex128)
    col = 0
    for sec in spectra:
        k = len(sec.eigenvalues)
        u[sec.basis_indices, col:col + k] = sec.eigenvectors
        col += k
    return np.concatenate([sec.eigenvalues for sec in spectra]), u


def full_basis_two_point(spectra, o, beta, times):
    # the dim x dim energy-basis formula the parity-block kernel replaced
    energies, u = full_energy_basis(spectra)
    o_e = u.conj().T @ o @ u
    pair = o_e * o_e.T
    w = np.exp(-beta * (energies - energies.min()))
    p = np.exp(1j * np.outer(energies, times))
    return np.sum((w[:, None] * p) * (pair @ p.conj()), axis=0) / w.sum()


def full_basis_otoc(spectra, a, b, beta, times):
    # the dim x dim energy-basis formula the parity-block kernel replaced
    energies, u = full_energy_basis(spectra)
    n = 2 * (energies.size.bit_length() - 1)
    psi_a = u.conj().T @ majorana_matrix(a, n) @ u
    psi_b = u.conj().T @ majorana_matrix(b, n) @ u
    r = np.exp(-beta * (energies - energies.min()) / 4.0)
    y_b = (r[:, None] * psi_b) * r[None, :]
    values = []
    for t in times:
        p = np.exp(1j * energies * t)
        m = ((p[:, None] * p.conj()[None, :]) * psi_a) @ y_b
        values.append(np.sum(m * m.T) / np.sum(r ** 4))
    return np.array(values)


def test_sector_bases_diagonalize(h8, spectra):
    # U_i^dagger H[i, j] U_j is diag(E_i) on the diagonal blocks and zero off them
    assert np.array_equal(np.sort(np.concatenate([s.basis_indices for s in spectra])), np.arange(DIM))
    for row in spectra:
        u = row.eigenvectors
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(row.eigenvalues)))) < 1e-12
        for col in spectra:
            block = u.conj().T @ h8[np.ix_(row.basis_indices, col.basis_indices)] @ col.eigenvectors
            want = np.diag(row.eigenvalues) if row is col else 0.0
            assert np.max(np.abs(block - want)) < 1e-10


def partition_function(spectra, z):
    """Z(z) = sum_n e^{-z E_n} over both sectors, z complex."""
    return complex(np.sum(np.exp(-z * np.concatenate([s.eigenvalues for s in spectra]))))


def test_partition_function_matches_sff(spectra):
    beta, t = 0.7, 3.3
    ev = np.concatenate([s.eigenvalues for s in spectra])
    z = partition_function(spectra, beta + 1j * t)
    assert abs(z) ** 2 == pytest.approx(sff(ev, beta, np.array([t]))[0], rel=1e-12)


def test_fermion_block_adjoint_is_the_odd_even_block(systems):
    # psi_i is Hermitian, so U_o^dagger psi_i[o, e] U_e is the adjoint of A_i
    for n, (_, (even, odd)) in systems.items():
        for i in range(n):
            psi = majorana_matrix(i, n)[np.ix_(odd.basis_indices, even.basis_indices)]
            direct = odd.eigenvectors.conj().T @ psi @ even.eigenvectors
            assert np.max(np.abs(fermion_block((even, odd), i).conj().T - direct)) < 1e-13, (n, i)


def test_two_point_fermion_at_zero_time(spectra):
    for i in (0, 3, 7):
        series = two_point(spectra, fermion_block(spectra, i), beta=2.0, times=np.array([0.0]))
        assert series.values[0] == pytest.approx(1.0, abs=1e-10)


def test_two_point_matches_dense_oracle(systems):
    times = np.array([0.0, 0.4, 1.7, 3.9, 8.5])
    for n, (h, spectra) in systems.items():
        for i in range(n):
            psi = fermion_block(spectra, i)
            for beta in (0.0, 1.0, 3.0):
                series = two_point(spectra, psi, beta, times)
                for t, v in zip(times, series.values):
                    want = dense_two_point_oracle(h, majorana_matrix(i, n), beta, t)
                    assert abs(v - want) < 1e-8, (n, i, beta, t)


def test_two_point_zero_time_real_nonnegative(spectra):
    # any block A is the even -> odd block of the Hermitian O with O_oe = A^dagger
    rng = np.random.default_rng(3)
    block = rng.normal(size=(DIM // 2, DIM // 2)) + 1j * rng.normal(size=(DIM // 2, DIM // 2))
    v = two_point(spectra, block, beta=0.9, times=np.array([0.0])).values[0]
    assert abs(v.imag) < 1e-10
    assert v.real >= 0.0


def test_two_point_dimension_mismatch(spectra):
    # the kernels take a (dim/2) x (dim/2) block, not a dim x dim operator
    for wrong in (majorana_matrix(0, N), np.eye(DIM // 2)[:, :-1]):
        with pytest.raises(ValueError, match="block shape"):
            two_point(spectra, wrong, beta=1.0, times=np.array([0.0]))
        with pytest.raises(ValueError, match="block shape"):
            otoc(spectra, fermion_block(spectra, 1), wrong, beta=1.0, times=np.array([0.0]))


def test_otoc_at_infinite_temperature_zero_time(spectra):
    psi_a, psi_b = (fermion_block(spectra, i) for i in (1, 2))
    v = otoc(spectra, psi_a, psi_b, beta=0.0, times=np.array([0.0])).values[0]
    assert v == pytest.approx(-1.0, abs=1e-10)


def test_otoc_matches_dense_oracle(systems):
    times = np.array([0.0, 0.6, 2.2, 5.0, 9.1])
    for n, (h, spectra) in systems.items():
        psi = [fermion_block(spectra, i) for i in range(n)]
        for a in range(n):
            b = (a + 3) % n
            for beta in (0.0, 1.0, 3.0):
                series = otoc(spectra, psi[a], psi[b], beta, times)
                # 2 Re tr(m_ee^2) / Z: the imaginary part is zero by construction
                assert np.all(series.values.imag == 0.0)
                for t, v in zip(times, series.values):
                    want = dense_otoc_oracle(h, majorana_matrix(a, n), majorana_matrix(b, n), beta, t)
                    assert abs(v - want) < 1e-8, (n, a, b, beta, t)


def test_kernels_match_full_basis_formula_on_kramers_doublets():
    # at n = 12 every level of a parity sector is doubly degenerate
    h = build_hamiltonian(sample_couplings(EnsembleParams(n=12, seed=7), member=0))
    spectra = diagonalize(h)
    times = np.linspace(0.0, 10.0, 17)
    psi = {i: fermion_block(spectra, i) for i in (2, 5)}
    for beta in (0.0, 1.0, 3.0):
        got = two_point(spectra, psi[2], beta, times).values
        want = full_basis_two_point(spectra, majorana_matrix(2, 12), beta, times)
        assert np.max(np.abs(got - want)) < 1e-13
        got = otoc(spectra, psi[5], psi[2], beta, times).values
        assert np.max(np.abs(got - full_basis_otoc(spectra, 5, 2, beta, times))) < 1e-13


def test_correlators_need_eigenvectors(h8):
    spectra = diagonalize(h8, need_vectors=False)
    with pytest.raises(ValueError, match="eigenvectors"):
        fermion_block(spectra, 0)


def test_otoc_infinite_temperature_is_real(spectra):
    psi_a, psi_b = (fermion_block(spectra, i) for i in (0, 5))
    series = otoc(spectra, psi_a, psi_b, beta=0.0, times=np.linspace(0, 10, 33))
    assert np.max(np.abs(series.values.imag)) < 1e-10


def shifted(spectra, c):
    return tuple(dataclasses.replace(s, eigenvalues=s.eigenvalues + c) for s in spectra)


def test_global_energy_shift_invariance(spectra):
    times = np.linspace(0.0, 6.0, 11)
    psi = [fermion_block(spectra, i) for i in (4, 0, 1)]
    base_tp = two_point(spectra, psi[0], 1.7, times).values
    base_ot = otoc(spectra, psi[1], psi[2], 1.7, times).values
    moved = shifted(spectra, 37.5)
    assert np.max(np.abs(two_point(moved, psi[0], 1.7, times).values - base_tp)) < 1e-10
    assert np.max(np.abs(otoc(moved, psi[1], psi[2], 1.7, times).values - base_ot)) < 1e-10
    # a shift rotates each TFD state's phase: entries change by e^{i dt c},
    # a diagonal unitary conjugation; moduli, rank, cyclic moments survive
    g0 = tfd_gram(spectra, 1.0, 2.0, 5)
    g1 = tfd_gram(moved, 1.0, 2.0, 5)
    assert np.max(np.abs(np.abs(g0) - np.abs(g1))) < 1e-10
    assert gram_rank(g0) == gram_rank(g1)
    assert cyclic_moment(g0, 3) == pytest.approx(cyclic_moment(g1, 3), abs=1e-12)


def test_series_grid_validation():
    with pytest.raises(ValueError):
        CorrelatorSeries(beta=1.0, times=np.array([0.0, 0.0, 1.0]), values=np.zeros(3))
    with pytest.raises(ValueError):
        CorrelatorSeries(beta=1.0, times=np.array([0.0, 1.0]), values=np.zeros(3))


def test_compare_series_identical_and_offset():
    times = np.linspace(0, 4, 9)
    x = CorrelatorSeries(1.0, times, np.cos(times) + 0j)
    assert compare_series(x, x) == 0.0
    y = CorrelatorSeries(1.0, times, x.values + 0.25)
    assert compare_series(x, y) == pytest.approx(0.25)


def test_compare_series_grid_mismatch():
    x = CorrelatorSeries(1.0, np.linspace(0, 4, 9), np.zeros(9))
    y = CorrelatorSeries(1.0, np.linspace(0, 5, 9), np.zeros(9))
    with pytest.raises(ValueError):
        compare_series(x, y)


def test_gram_entries_match_partition_function(spectra):
    beta, t1, omega = 1.2, 3.7, 6
    g = tfd_gram(spectra, beta, t1, omega)
    z_beta = partition_function(spectra, beta)
    for j in range(omega):
        for k in range(omega):
            z = partition_function(spectra, beta - 1j * (j - k) * t1)
            assert abs(g[j, k] - z / z_beta) < 1e-12


def test_gram_structure(spectra):
    g = tfd_gram(spectra, 1.0, 5.0, 12)
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    assert np.max(np.abs(g - g.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_gram_rank_saturates_at_dimension(spectra):
    full = gram_rank(tfd_gram(spectra, 1.0, 7.3, 2 * DIM))
    assert full == DIM
    partial = gram_rank(tfd_gram(spectra, 1.0, 7.3, DIM // 2))
    assert partial == DIM // 2


def test_gram_validation(spectra):
    with pytest.raises(ValueError):
        tfd_gram(spectra, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        tfd_gram(spectra, 1.0, 1.0, 0)


def test_cyclic_moment_matches_brute_force(spectra):
    omega = 6
    g = tfd_gram(spectra, 0.8, 2.9, omega)
    pairs = [g[j, k] * g[k, j] for j in range(omega) for k in range(omega) if j != k]
    assert cyclic_moment(g, 2) == pytest.approx(np.mean(pairs), rel=1e-12)
    triples = [
        g[j, k] * g[k, l] * g[l, j]
        for j in range(omega)
        for k in range(omega)
        for l in range(omega)
        if j != k and k != l and l != j
    ]
    assert cyclic_moment(g, 3) == pytest.approx(np.mean(triples), rel=1e-12)
    with pytest.raises(ValueError):
        cyclic_moment(g, 4)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.floats(0.0, 3.0),
    t1=st.floats(0.05, 20.0),
    omega=st.integers(2, 10),
)
def test_gram_positive_semidefinite_property(seed, beta, t1, omega):
    rng = np.random.default_rng(seed)
    ev = np.sort(rng.normal(size=8))
    sec = SectorSpectrum("even", ev, None, np.arange(8))
    g = tfd_gram((sec,), beta, t1, omega)
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() >= -1e-10
