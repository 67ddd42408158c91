"""Expansion of dense operators over Hermitian Majorana monomials.

pauli.jordan_wigner gives each monomial m_I, I a Majorana subset mask, as
(x_I, z_I, unit_I): m_I sends column b to row b ^ x_I with value
unit_I * (-1)^{popcount(b & z_I)}.  So for A = sum_I c_I m_I, row x of
G[x, b] = A[b ^ x, b] is a Walsh-Hadamard series over b whose coefficient
at z is c_I unit_I, for the one subset I with (x_I, z_I) = (x, z).  One
unnormalized transform of G over b gives W with c_I = W[x_I, z_I]
conj(unit_I) / dim, at O(dim^2 log dim) cost instead of the 4^q trace
inner products of the brute force method; reconstruction runs the same
steps backwards.  An expansion is kept as one flat vector indexed by
subset mask and truncated by zeroing entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import DenseOperator, jordan_wigner

SPARSE_THRESHOLD = 1e-14  # coefficients with |c| <= this are stored as exact zeros
IMAG_TOL = 1e-10  # largest imaginary coefficient part, relative to max(1, max |c|)


@lru_cache(maxsize=None)
def _table(n: int):
    """Per subset mask 0 .. 2^n - 1: the flat position x * dim + z of its entry of W, and its unit."""
    x, z, units = jordan_wigner(np.arange(2**n), n)
    return x << n // 2 | z, units


def _walsh_hadamard(g: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row, in place."""
    rows, dim = g.shape
    half = dim // 2  # spin 0 (the top bit) first: the stage order fixes the coefficients' last bits
    while half:
        v = g.reshape(rows, -1, 2, half)
        top = v[:, :, 0] + v[:, :, 1]
        v[:, :, 1] = v[:, :, 0] - v[:, :, 1]
        v[:, :, 0] = top
        half //= 2
    return g


def _shifts(dim: int) -> np.ndarray:
    """Row b ^ x of column b, at [x, b]."""
    cols = np.arange(dim)
    return cols ^ cols[:, None]


def _expand(a: DenseOperator, n: int) -> np.ndarray:
    """Complex coefficient of every monomial of any square operator, by subset mask."""
    dim = 2 ** (n // 2)
    a = np.asarray(a)
    if n % 2 != 0 or n <= 0 or a.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)} for a positive even n={n}, got {a.shape}")
    w = _walsh_hadamard(a[_shifts(dim), np.arange(dim)].astype(complex, copy=False))
    positions, units = _table(n)
    return w.ravel()[positions] * np.conj(units) / dim


def _sizes(n: int) -> np.ndarray:
    """Monomial size of every subset mask: its popcount."""
    return np.bitwise_count(np.arange(2**n))


def flat_index(indices, n: int) -> int:
    """Position of the monomial on ascending Majorana indices in a coefficient vector: its mask."""
    indices = tuple(indices)
    if list(indices) != sorted(set(indices)) or not all(0 <= i < n for i in indices):
        raise ValueError(f"indices must be strictly ascending in range({n}), got {indices}")
    return sum(1 << i for i in indices)


@dataclass(frozen=True, eq=False)
class FermionExpansion:
    """Real coefficients over Hermitian normalized Majorana monomials.

    A = sum over index subsets I of coefficients[flat_index(I, n)] * m_I
    where m_I is hermitian_monomial(I, n).  coefficients holds one entry
    per subset, 2^n in all, at the subset's mask: bit i selects psi_i, so
    an entry's monomial size is the popcount of its index.
    """

    n: int
    coefficients: np.ndarray

    def coefficient(self, indices) -> float:
        return float(self.coefficients[flat_index(indices, self.n)])

    def weight(self) -> float:
        """Sum of squared coefficients; tr(A^2)/2^{n/2} for Hermitian A."""
        return float(np.dot(self.coefficients, self.coefficients))

    def nonlocal_fraction(self, k: int = 4) -> float:
        """Square root of the share of the weight that monomials of size > k carry."""
        if k < 0:
            raise ValueError(f"size cut must be nonnegative, got {k}")
        weights = size_spectrum(self)
        total = float(np.sum(weights))
        if total == 0.0:
            raise ValueError("operator has zero weight")
        return float(np.sqrt(np.sum(weights[k + 1 :]) / total))


def majorana_coefficients(a: DenseOperator, n: int) -> FermionExpansion:
    """Expand a Hermitian operator over Majorana monomials.

    Parameters
    ----------
    a : ndarray
        Hermitian matrix on 2^{n/2} dimensions.
    n : int
        Majorana fermion count, even.

    Raises
    ------
    ValueError
        If the dimension does not match n or the coefficients come out
        complex beyond IMAG_TOL (non Hermitian input).
    """
    coeffs = _expand(a, n)
    worst = float(np.max(np.abs(coeffs.imag)))
    if worst > IMAG_TOL * max(1.0, float(np.max(np.abs(coeffs)))):
        raise ValueError(f"non Hermitian input: imaginary coefficient part {worst:.3e}")
    return FermionExpansion(n, np.where(np.abs(coeffs) > SPARSE_THRESHOLD, coeffs.real, 0.0))


def reconstruct(expansion: FermionExpansion) -> DenseOperator:
    """Dense operator sum_I c_I m_I of an expansion; complex coefficients are allowed."""
    dim = 2 ** (expansion.n // 2)
    positions, units = _table(expansion.n)
    w = np.empty(dim * dim, dtype=complex)
    w[positions] = expansion.coefficients * units
    out = np.empty((dim, dim), dtype=complex)
    out[_shifts(dim), np.arange(dim)] = _walsh_hadamard(w.reshape(dim, dim))
    return out


def size_spectrum(expansion: FermionExpansion) -> np.ndarray:
    """Squared coefficient weight per monomial size, indices 0..n."""
    n = expansion.n
    return np.bincount(_sizes(n), weights=expansion.coefficients**2, minlength=n + 1)


def nonlocal_fraction(a: DenseOperator, n: int, k: int = 4) -> float:
    """Frobenius weight fraction carried by monomials of size > k, for any square a."""
    return FermionExpansion(n, np.abs(_expand(a, n))).nonlocal_fraction(k)


def truncate_local(expansion: FermionExpansion, k: int = 4) -> DenseOperator:
    """Dense operator of the expansion's monomials of size <= k."""
    if k < 0:
        raise ValueError(f"size cut must be nonnegative, got {k}")
    n, c = expansion.n, expansion.coefficients
    return reconstruct(FermionExpansion(n, np.where(_sizes(n) <= k, c, 0.0)))
