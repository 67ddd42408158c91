"""The Jordan-Wigner Majorana representation and the parity sectors.

Conventions fixed here and relied on everywhere else:

* A system of N Majorana fermions (N even) lives on q = N/2 spins.
* Basis index b of the 2^q dimensional space carries the state of spin s
  in bit (q - 1 - s), i.e. the first tensor factor is the most
  significant bit, matching np.kron order.
* The even parity sector is the set of basis states whose index has an
  even number of set bits.
* Majorana operators: psi_{2i} has sigma_z on spins 0..i-1, sigma_x on
  spin i; psi_{2i+1} carries sigma_y instead of sigma_x.  With this
  normalization {psi_i, psi_j} = 2 delta_ij.

jordan_wigner is the one table of the Hermitian monomials that the program
reads.  hermitian_monomial and accumulate_string rebuild them from the
definition above, as products of per spin 2x2 factors, reading neither
jordan_wigner nor _UNITS: they are the tests' independent oracle for that
table, and no run path calls them.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .errors import StructureError

# A dense operator is a plain complex ndarray; helpers below check the
# invariants (square, power-of-two dimension, hermiticity on request).
DenseOperator = np.ndarray

# Frobenius-norm tolerances: the anti-Hermitian part relative to max(||A||, 1),
# and the off-sector blocks relative to ||A||
HERMITIAN_TOL = PARITY_LEAK_TOL = 1e-12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def majorana_matrix(i: int, n: int) -> DenseOperator:
    """Dense 2^{n/2} realization of the i-th Majorana operator, from its jordan_wigner row."""
    _check_majorana_args(i, n)
    (x,), (z,), (unit,) = jordan_wigner([1 << i], n)
    dim = 2 ** (n // 2)
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[cols ^ x, cols] = unit * (1.0 - 2.0 * (np.bitwise_count(cols & z) & 1))
    return out


_UNITS = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k


def jordan_wigner(masks, n: int):
    """Hermitian monomials of Majorana subsets as (x_masks, z_masks, units).

    Bit i of a mask selects psi_i.  hermitian_monomial of that subset
    sends column b to row b ^ x_mask with value
    unit * (-1)^{popcount(b & z_mask)}.  At spin s, with a and b flagging
    psi_{2s} and psi_{2s+1} and t the parity of the mask bits above 2s+1,
    the ordered product leaves X^a Y^b Z^t, so x = a ^ b and z = b ^ t;
    the unit is i to the power of the per spin product phases, the
    Hermitian rephasing and the Y count.
    """
    masks = np.asarray(masks, dtype=np.int64)
    q = n // 2
    x, z, power = (np.zeros_like(masks) for _ in range(3))
    for s in range(q):
        a, b = (masks >> 2 * s) & 1, (masks >> 2 * s + 1) & 1
        t = np.bitwise_count(masks >> 2 * s + 2).astype(np.int64) & 1
        x |= (a ^ b) << (q - 1 - s)
        z |= (b ^ t) << (q - 1 - s)
        # X Y = i Z and X Y Z = i; Y Z = i X; X Z = -i Y; then i per Y
        power += (a & b) + (b & t & ~a) + 3 * (a & t & ~b) + ((a ^ b) & (b ^ t))
    # reversing p anticommuting factors costs (-1)^{p(p-1)/2}: p = 2, 3 mod 4 get i
    power += (np.bitwise_count(masks).astype(np.int64) >> 1) & 1
    return x, z, _UNITS[power & 3]


def _check_majorana_args(i: int, n: int):
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"fermion count must be positive even, got {n}")
    if not 0 <= i < n:
        raise ValueError(f"majorana index {i} out of range for n={n}")


@lru_cache(maxsize=64)
def _majorana_factors(i: int, n: int) -> np.ndarray:
    """Per spin 2x2 factors of psi_i, shape (n/2, 2, 2), read-only: Z below spin i // 2, X or Y on it."""
    _check_majorana_args(i, n)
    s = i // 2
    out = np.stack([PAULI_MATRICES[c] for c in "Z" * s + "XY"[i % 2] + "I" * (n // 2 - s - 1)])
    out.flags.writeable = False
    return out


def _monomial_factors(indices, n: int) -> np.ndarray:
    """Per spin 2x2 factors, shape (n/2, 2, 2), of hermitian_monomial(indices, n).

    A product of Kronecker products multiplies spin by spin.  Reversing p
    anticommuting factors costs (-1)^{p(p-1)/2}, so the bare product of
    p = 2, 3 mod 4 Majoranas is anti-Hermitian; those get an extra i.
    """
    indices = tuple(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly ascending, got {indices}")
    _check_majorana_args(0, n)  # n itself, for the identity too
    psis = [_majorana_factors(i, n) for i in indices]
    factors = reduce(np.matmul, psis or [np.broadcast_to(PAULI_MATRICES["I"], (n // 2, 2, 2))])
    if len(indices) % 4 >= 2:
        factors[0] *= 1.0j
    return factors


def hermitian_monomial(indices, n: int) -> DenseOperator:
    """Dense Hermitian monomial of a Majorana subset: the Kronecker product of its factors."""
    q = n // 2
    m = reduce(np.multiply.outer, _monomial_factors(indices, n), np.ones((), dtype=complex))
    # axes (row_0, col_0, row_1, col_1, ...) to (row_0, row_1, ..., col_0, col_1, ...)
    return m.transpose(*range(0, 2 * q, 2), *range(1, 2 * q, 2)).reshape(2**q, 2**q)


def accumulate_string(out: DenseOperator, indices, coeff: complex) -> None:
    """out += coeff * hermitian_monomial(indices, n), n from out's shape, at O(n dim).

    Each factor has one nonzero per column, so column b goes to row b ^ x,
    x flagging the off-diagonal factors, with the Kronecker product of the
    factors' column sums as values.
    """
    dim = out.shape[0]
    q = dim.bit_length() - 1
    factors = _monomial_factors(indices, 2 * q)
    x = sum(1 << (q - 1 - s) for s in np.flatnonzero(factors[:, 1, 0]))
    cols = np.arange(dim)
    out[cols ^ x, cols] += coeff * reduce(np.multiply.outer, factors.sum(axis=1)).reshape(-1)


SECTORS = ("even", "odd")  # the order of every pair of sector data: a sector is its position


def parity_sector_indices(dim: int):
    """Basis indices of the even (even popcount) and odd sectors."""
    if dim <= 0 or dim & (dim - 1):
        raise ValueError(f"dimension must be a power of two, got {dim}")
    b = np.arange(dim)
    even = np.bitwise_count(b) % 2 == 0
    return np.nonzero(even)[0], np.nonzero(~even)[0]


@lru_cache(maxsize=4)
def sector_block_positions(dim: int):
    """Row-major flat positions of the sector blocks of a dim x dim array.

    positions[r][c] holds the block with rows in sector r and columns in
    sector c, in SECTORS order: a.take(positions[r][c]) cuts it and
    np.put(a, positions[r][c], block) places it.  Cached per dim, read-only.
    """
    sectors = parity_sector_indices(dim)
    out = tuple(tuple(rows[:, None] * dim + cols for cols in sectors) for rows in sectors)
    for positions in out[0] + out[1]:
        positions.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def particle_hole_map(dim: int):
    """The even-to-odd sector map (pi, s) of R = prod_i psi_{2i} at q = log2(dim) odd, else None.

    R's jordan_wigner row has the all-ones x-mask, so R sends basis state b
    to its complement with sign s = (-1)^{popcount(b & z)}; at q odd that
    flips the parity.  pi[j] is the odd-sector position of the complement of
    even state j, and s[j] its sign.  Every four-body H commutes with the
    antiunitary R K (You, Ludwig & Xu, arXiv:1602.06964), which at q odd
    reads H_oo[pi_j, pi_k] = s_j s_k conj(H_ee[j, k]).  Cached per dim,
    read-only.
    """
    q = dim.bit_length() - 1
    if q % 2 == 0:
        return None
    (x,), (z,), _ = jordan_wigner([sum(1 << 2 * i for i in range(q))], 2 * q)
    even, odd = parity_sector_indices(dim)
    pi = np.searchsorted(odd, even ^ x)
    s = 1.0 - 2.0 * (np.bitwise_count(even & z) & 1)
    pi.flags.writeable = s.flags.writeable = False
    return pi, s


def sector_split(a: DenseOperator):
    """Split a parity conserving operator into its even and odd blocks.

    Parameters
    ----------
    a : ndarray
        Square operator on a power-of-two dimensional space.

    Returns
    -------
    (even_block, odd_block)

    Raises
    ------
    StructureError
        If the off-sector blocks carry more than PARITY_LEAK_TOL of the
        Frobenius norm.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    (ee, eo), (oe, oo) = sector_block_positions(a.shape[0])
    off = np.sqrt(np.linalg.norm(a.take(eo)) ** 2 + np.linalg.norm(a.take(oe)) ** 2)
    total = np.linalg.norm(a)
    if total > 0.0 and off > PARITY_LEAK_TOL * total:
        raise StructureError(
            f"operator is not parity block diagonal: off-sector norm {off:.3e} "
            f"exceeds {PARITY_LEAK_TOL:g} of total {total:.3e}",
            leaked=float(off),
        )
    return a.take(ee), a.take(oo)


def require_hermitian(a: DenseOperator):
    a = np.asarray(a)
    dev = np.linalg.norm(a - a.conj().T)
    scale = max(np.linalg.norm(a), 1.0)
    if dev > HERMITIAN_TOL * scale:
        raise StructureError(
            f"operator is not Hermitian: deviation {dev:.3e} of scale {scale:.3e}",
            leaked=float(dev),
        )
