"""Algebra layer tests.

Oracles here are built from explicit dense matrix products (np.kron
chains), independent of the jordan_wigner table they check.
"""

import hashlib
import itertools

import numpy as np
import pytest

from syklab.errors import StructureError
from syklab.pauli import (
    PAULI_MATRICES,
    accumulate_string,
    hermitian_monomial,
    jordan_wigner,
    majorana_matrix,
    parity_sector_indices,
    particle_hole_map,
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
    # the bytes, signed zeros included, feed fermion_block and the correlator tables
    digest = hashlib.sha256(b"".join(majorana_matrix(i, 8).tobytes() for i in range(8)))
    assert digest.hexdigest() == "afbd4cbf015a09d9e6271e2915693c1b22966fbb169bdb0560209c129d03e888"


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
    # psi_0 psi_1 = X Y = i Z, rephased by i to the Hermitian -Z
    assert np.array_equal(hermitian_monomial((0, 1), 2), -PAULI_MATRICES["Z"])


def test_monomials_match_dense_product_oracle():
    n = 6
    for size in range(0, n + 1):
        for indices in itertools.combinations(range(n), size):
            want = monomial_dense_oracle(indices, n) * (1.0j if size % 4 >= 2 else 1.0)
            assert np.max(np.abs(hermitian_monomial(indices, n) - want)) < TOL


def test_monomial_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        hermitian_monomial((1, 0), 6)
    with pytest.raises(ValueError):
        hermitian_monomial((0, 0, 2, 3), 6)
    with pytest.raises(ValueError):
        accumulate_string(np.zeros((8, 8), dtype=complex), (0, 6), 1.0)


def test_trace_orthogonality():
    # tr(m_I^dag m_J) = 2^{n/2} delta_IJ over all subsets
    n = 6
    dim = 2 ** (n // 2)
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(n), size))
    dense = {s: hermitian_monomial(s, n) for s in subsets}
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
        m = hermitian_monomial(indices, n)
        assert np.max(np.abs(m - m.conj().T)) < TOL


def test_size4_monomial_squares_to_identity():
    n = 8
    m = hermitian_monomial((0, 1, 2, 3), n)
    assert np.max(np.abs(m @ m - np.eye(2 ** (n // 2)))) < TOL


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
        accumulate_string(out, indices, c)
        want += c * hermitian_monomial(indices, n)
    assert np.max(np.abs(out - want)) < TOL


def test_jordan_wigner_table_matches_symbolic_monomials():
    for n in range(2, 11, 2):
        x, z, units = jordan_wigner(np.arange(2**n), n)
        cols = np.arange(2 ** (n // 2))
        for size in range(n + 1):
            for indices in itertools.combinations(range(n), size):
                mask = sum(1 << i for i in indices)
                d = hermitian_monomial(indices, n)
                assert np.array_equal(np.count_nonzero(d, axis=0), np.ones_like(cols))
                signs = 1.0 - 2.0 * (np.bitwise_count(cols & z[mask]) & 1)
                assert np.array_equal(d[cols ^ x[mask], cols], units[mask] * signs)


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


@pytest.mark.parametrize("n", [6, 10])
def test_particle_hole_map_is_the_product_of_even_majoranas(n):
    # R = psi_0 psi_2 ... psi_{n-2} from the oracle; R conj(M) R^dag = M for
    # every quartic monomial M, and R carries the even sector onto the odd one
    dim = 2 ** (n // 2)
    r = hermitian_monomial(tuple(range(0, n, 2)), n)
    for indices in itertools.combinations(range(n), 4):
        m = hermitian_monomial(indices, n)
        assert np.array_equal(r @ m.conj() @ r.conj().T, m)
    pi, s = particle_hole_map(dim)
    even, odd = parity_sector_indices(dim)
    assert np.count_nonzero(r[np.ix_(even, even)]) == 0
    block = r[np.ix_(odd, even)]
    want = np.zeros_like(block)
    want[pi, np.arange(dim // 2)] = s
    phase = block[pi[0], 0] / s[0]
    assert abs(phase) == 1.0
    assert np.array_equal(block, phase * want)
    assert not pi.flags.writeable and not s.flags.writeable


def test_particle_hole_map_keeps_the_sectors_at_q_even():
    for n in (2, 4, 8, 12):
        dim = 2 ** (n // 2)
        assert (particle_hole_map(dim) is None) == (n % 4 == 0)


def test_sector_split_on_even_operator():
    n = 8
    dim = 2 ** (n // 2)
    rng = np.random.default_rng(11)
    h = np.zeros((dim, dim), dtype=complex)
    for indices in itertools.combinations(range(n), 4):
        accumulate_string(h, indices, float(rng.normal()))
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
