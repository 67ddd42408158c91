"""Algebra layer tests.

Oracles here are built from explicit dense matrix products (np.kron
chains), independent of the symbolic string arithmetic they check.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syklab.errors import StructureError
from syklab.pauli import (
    PauliString,
    PAULI_MATRICES,
    accumulate_string,
    hermitian_monomial,
    jordan_wigner,
    majorana_matrix,
    majorana_monomial,
    majorana_string,
    parity_sector_indices,
    sector_block_positions,
    sector_split,
)

TOL = 1e-13


def kron_chain(letters):
    out = np.array([[1.0 + 0.0j]])
    for p in letters:
        out = np.kron(out, PAULI_MATRICES[p])
    return out


def majorana_dense_oracle(i, n):
    # independent JW construction, sigma_z chain then x or y then identities
    q = n // 2
    letters = ["Z"] * (i // 2) + ["X" if i % 2 == 0 else "Y"] + ["I"] * (q - i // 2 - 1)
    return kron_chain(letters)


def monomial_dense_oracle(indices, n):
    dim = 2 ** (n // 2)
    out = np.eye(dim, dtype=complex)
    for i in indices:
        out = out @ majorana_dense_oracle(i, n)
    return out


def test_majorana_matrix_matches_kron_oracle():
    for n in (2, 4, 6, 8):
        for i in range(n):
            assert np.allclose(majorana_matrix(i, n), majorana_dense_oracle(i, n), atol=TOL)
            # the jordan_wigner row gives the symbolic string's matrix, signed zeros included
            assert majorana_matrix(i, n).tobytes() == majorana_string(i, n).dense().tobytes()


def test_first_majorana_is_sigma_x():
    assert np.allclose(majorana_matrix(0, 2), PAULI_MATRICES["X"], atol=0.0)


def test_anticommutators():
    n = 8
    dim = 2 ** (n // 2)
    psis = [majorana_matrix(i, n) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            acom = psis[i] @ psis[j] + psis[j] @ psis[i]
            want = 2.0 * np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.max(np.abs(acom - want)) < TOL


def test_pair_monomial_is_i_sigma_z():
    m = majorana_monomial((0, 1), 2)
    assert m.letters == ("Z",)
    assert m.phase == 1.0j


def test_monomials_match_dense_product_oracle():
    n = 6
    for size in range(0, n + 1):
        for indices in itertools.combinations(range(n), size):
            sym = majorana_monomial(indices, n).dense()
            assert np.max(np.abs(sym - monomial_dense_oracle(indices, n))) < TOL


def test_monomial_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        majorana_monomial((1, 0), 6)
    with pytest.raises(ValueError):
        majorana_monomial((0, 0, 2, 3), 6)


def test_trace_orthogonality():
    # tr(m_I^dag m_J) = 2^{n/2} delta_IJ over all subsets
    n = 6
    dim = 2 ** (n // 2)
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(n), size))
    dense = {s: hermitian_monomial(s, n).dense() for s in subsets}
    for a in subsets:
        for b in subsets:
            t = np.trace(dense[a].conj().T @ dense[b])
            want = dim if a == b else 0.0
            assert abs(t - want) < TOL * dim


def test_hermitian_monomial_is_hermitian():
    n = 8
    rng = np.random.default_rng(7)
    for _ in range(40):
        size = int(rng.integers(0, n + 1))
        indices = tuple(sorted(rng.choice(n, size=size, replace=False)))
        m = hermitian_monomial(indices, n).dense()
        assert np.max(np.abs(m - m.conj().T)) < TOL


def test_size4_monomial_squares_to_identity():
    n = 8
    m = majorana_monomial((0, 1, 2, 3), n).dense()
    assert np.max(np.abs(m @ m - np.eye(2 ** (n // 2)))) < TOL


letters_st = st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=4)
phase_st = st.sampled_from([1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j])


@given(letters_st, phase_st, phase_st, st.data())
@settings(max_examples=80, deadline=None)
def test_string_product_matches_dense(a_letters, pa, pb, data):
    b_letters = data.draw(
        st.lists(st.sampled_from("IXYZ"), min_size=len(a_letters), max_size=len(a_letters))
    )
    a = PauliString(tuple(a_letters), pa)
    b = PauliString(tuple(b_letters), pb)
    prod = a * b
    assert prod.phase in (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)
    assert np.max(np.abs(prod.dense() - a.dense() @ b.dense())) < TOL


@given(st.integers(3, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_monomial_anticommutation_reordering(half, data):
    # psi_i psi_j = -psi_j psi_i for i != j, as strings
    n = 2 * half
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda x: x != i))
    ij = majorana_string(i, n) * majorana_string(j, n)
    ji = majorana_string(j, n) * majorana_string(i, n)
    assert ij.letters == ji.letters
    assert ij.phase == -ji.phase


def test_accumulate_string_matches_dense():
    n = 8
    dim = 2 ** (n // 2)
    rng = np.random.default_rng(3)
    out = np.zeros((dim, dim), dtype=complex)
    want = np.zeros((dim, dim), dtype=complex)
    for _ in range(25):
        size = int(rng.integers(0, 5))
        indices = tuple(sorted(rng.choice(n, size=size, replace=False)))
        c = float(rng.normal())
        ps = hermitian_monomial(indices, n)
        accumulate_string(out, ps, c)
        want += c * ps.dense()
    assert np.max(np.abs(out - want)) < TOL


def test_jordan_wigner_table_matches_symbolic_monomials():
    for n in range(2, 11, 2):
        x, z, units = jordan_wigner(np.arange(2**n), n)
        cols = np.arange(2 ** (n // 2))
        for size in range(n + 1):
            for indices in itertools.combinations(range(n), size):
                mask = sum(1 << i for i in indices)
                ps = hermitian_monomial(indices, n)
                assert (x[mask], z[mask]) == (ps.x_mask, ps.z_mask)
                _, vals = ps.column_action()
                signs = 1.0 - 2.0 * (np.bitwise_count(cols & z[mask]) & 1)
                assert (units[mask] * signs).tobytes() == vals.tobytes()


def test_parity_sector_indices():
    even, odd = parity_sector_indices(8)
    assert list(even) == [0, 3, 5, 6]
    assert list(odd) == [1, 2, 4, 7]


def test_sector_block_positions_tile_the_matrix():
    for dim in (2, 8, 32):
        a = np.arange(dim * dim).reshape(dim, dim)
        positions = sector_block_positions(dim)
        sectors = parity_sector_indices(dim)
        for r, rows in enumerate(sectors):
            for c, cols in enumerate(sectors):
                assert np.array_equal(a.take(positions[r][c]), a[np.ix_(rows, cols)])
                b = np.zeros_like(a)
                np.put(b, positions[r][c], a[np.ix_(rows, cols)])
                assert np.array_equal(b[np.ix_(rows, cols)], a[np.ix_(rows, cols)])
        every = np.concatenate([p.ravel() for row in positions for p in row])
        assert np.array_equal(np.sort(every), np.arange(dim * dim))
        assert not positions[0][1].flags.writeable


def test_sector_split_on_even_operator():
    n = 8
    dim = 2 ** (n // 2)
    rng = np.random.default_rng(11)
    h = np.zeros((dim, dim), dtype=complex)
    for indices in itertools.combinations(range(n), 4):
        accumulate_string(h, hermitian_monomial(indices, n), float(rng.normal()))
    ee, oo = sector_split(h)
    assert ee.shape == (dim // 2, dim // 2)
    even, odd = parity_sector_indices(dim)
    rebuilt = np.zeros_like(h)
    rebuilt[np.ix_(even, even)] = ee
    rebuilt[np.ix_(odd, odd)] = oo
    assert np.max(np.abs(rebuilt - h)) < TOL


def test_sector_split_rejects_parity_odd_operator():
    with pytest.raises(StructureError) as exc:
        sector_split(majorana_matrix(2, 6))
    assert exc.value.leaked > 0.0
