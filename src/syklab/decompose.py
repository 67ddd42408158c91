"""Fast expansion of dense operators over Pauli strings and Majorana monomials.

The Pauli expansion uses the block identity

    2 [[H1, H2], [H3, H4]] = 1 (H1+H4) + sz (H1-H4) + sx (H2+H3) + i sy (H2-H3)

applied recursively on the leading tensor factor.  Implemented as one
butterfly pass per spin over a rank q tensor, the cost is O(dim^2 log dim)
arithmetic instead of the 4^q trace inner products of the brute force
method.  The inverse passes

    [[H1, H2], [H3, H4]] = [[c1 + cz, cx - i cy], [cx + i cy, c1 - cz]]

rebuild the matrix from its coefficients at the same cost, so a Majorana
expansion is kept as one flat vector and truncated by zeroing entries.

The Pauli-to-Majorana relabeling walks spins from the last tensor
position to the first: a trailing odd count of X/Y letters means an odd
number of higher Majorana indices are present, which swaps the roles of
1 and sigma_z, and of sigma_x and sigma_y, at the current spin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import DenseOperator

SPARSE_THRESHOLD = 1e-14  # coefficients with |c| <= this are stored as exact zeros
IMAG_TOL = 1e-10  # largest imaginary coefficient part, relative to max(1, max |c|)

# per spin phase of the ordered Majorana product, as a power of i,
# indexed by (a, b, trailing parity) where a, b flag psi_{2s}, psi_{2s+1}
_PHASE_POW = {
    (0, 0, 0): 0, (0, 0, 1): 0,
    (1, 0, 0): 0, (1, 0, 1): 3,  # X Z = -i Y
    (0, 1, 0): 0, (0, 1, 1): 1,  # Y Z = +i X
    (1, 1, 0): 1, (1, 1, 1): 1,  # X Y = i Z, X Y Z = i
}


def _interleaved(q: int) -> list[int]:
    """Axis order (r0, c0, r1, c1, ...) of a matrix reshaped to 2q binary axes."""
    return [x for pair in zip(range(q), range(q, 2 * q)) for x in pair]


def _butterfly(work: np.ndarray, q: int, combine) -> np.ndarray:
    """One pass per spin: combine maps the 4 letter slices of a spin to 4 new ones."""
    for ax in range(q):
        m = work.reshape(4**ax, 4, -1)
        out = np.empty_like(m)
        for j, part in enumerate(combine(m[:, 0, :], m[:, 1, :], m[:, 2, :], m[:, 3, :])):
            out[:, j, :] = part
        work = out
    return work.reshape(-1)


def _tensor_decompose(a: np.ndarray) -> np.ndarray:
    """All 4^q Pauli coefficients of a dim x dim matrix, dim = 2^q.

    Flat index: base 4 digits, spin 0 most significant, 0=I 1=X 2=Y 3=Z.
    """
    a = np.asarray(a, dtype=complex)
    dim = a.shape[0]
    if a.ndim != 2 or a.shape[1] != dim or dim & (dim - 1):
        raise ValueError(f"expected a square power-of-two matrix, got shape {a.shape}")
    q = dim.bit_length() - 1
    work = np.ascontiguousarray(a.reshape((2,) * (2 * q)).transpose(_interleaved(q)))
    return _butterfly(work, q, lambda a00, a01, a10, a11: (
        (a00 + a11) * 0.5, (a01 + a10) * 0.5, (a01 - a10) * 0.5j, (a00 - a11) * 0.5,
    ))


def _tensor_reconstruct(flat: np.ndarray) -> DenseOperator:
    """Inverse of _tensor_decompose: the matrix sum_P flat[P] P."""
    q = (flat.size.bit_length() - 1) // 2
    work = _butterfly(np.asarray(flat, dtype=complex), q, lambda c0, c1, c2, c3: (
        c0 + c3, c1 - 1j * c2, c1 + 1j * c2, c0 - c3,
    ))
    work = work.reshape((2,) * (2 * q)).transpose(np.argsort(_interleaved(q)))
    return np.ascontiguousarray(work).reshape(2**q, 2**q)


def _digit_table(q: int) -> np.ndarray:
    """(4^q, q) array of base 4 digits, spin 0 first."""
    idx = np.arange(4**q)
    return np.stack([(idx >> (2 * (q - 1 - s))) & 3 for s in range(q)], axis=1).astype(np.int8)


@lru_cache(maxsize=None)
def subset_data(q: int):
    """Per flat index: Majorana subset bitmask, size, and monomial phase.

    The phase is the unit making coefficient_of(bare string) equal
    phase * coefficient_of(hermitian monomial).  The fourth array is the
    inverse of the masks: flat index by subset bitmask.
    """
    digits = _digit_table(q)
    xy = (digits == 1) | (digits == 2)
    # parity of the X/Y count strictly after spin s
    trailing = np.zeros_like(digits)
    if q > 1:
        trailing[:, :-1] = np.cumsum(xy[:, :0:-1], axis=1, dtype=np.int8)[:, ::-1] & 1
    masks = np.zeros(4**q, dtype=np.int64)
    sizes = np.zeros(4**q, dtype=np.int16)
    phase_pow = np.zeros(4**q, dtype=np.int16)
    for s in range(q):
        d = digits[:, s]
        t = trailing[:, s]
        a = np.where(t == 0, (d == 1) | (d == 3), (d == 2) | (d == 0)).astype(np.int64)
        b = np.where(t == 0, (d == 2) | (d == 3), (d == 1) | (d == 0)).astype(np.int64)
        masks |= (a << (2 * s)) | (b << (2 * s + 1))
        sizes += (a + b).astype(np.int16)
        for (aa, bb, tt), pw in _PHASE_POW.items():
            if pw:
                phase_pow += (pw * ((a == aa) & (b == bb) & (t == tt))).astype(np.int16)
    # Hermitian normalization: sizes p = 2, 3 mod 4 get an extra i
    phase_pow += ((sizes * (sizes - 1) // 2) % 2 == 1).astype(np.int16)
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])[phase_pow % 4]
    index = np.empty(4**q, dtype=np.int64)
    index[masks] = np.arange(4**q)
    return masks, sizes, phases, index


def flat_index(indices, n: int) -> int:
    """Position of the monomial on ascending Majorana indices in a coefficient vector."""
    indices = tuple(indices)
    if list(indices) != sorted(set(indices)) or not all(0 <= i < n for i in indices):
        raise ValueError(f"indices must be strictly ascending in range({n}), got {indices}")
    return int(subset_data(n // 2)[3][sum(1 << i for i in indices)])


@dataclass(frozen=True, eq=False)
class FermionExpansion:
    """Real coefficients over Hermitian normalized Majorana monomials.

    A = sum over index subsets I of coefficients[flat_index(I, n)] * m_I
    where m_I is hermitian_monomial(I, n).  coefficients holds one entry
    per subset, 2^n in all, in the flat Pauli order of _tensor_decompose;
    subset_data(n // 2) gives each entry's mask, size and phase.
    """

    n: int
    coefficients: np.ndarray

    def coefficient(self, indices) -> float:
        return float(self.coefficients[flat_index(indices, self.n)])

    def weight(self) -> float:
        """Sum of squared coefficients; tr(A^2)/2^{n/2} for Hermitian A."""
        return float(np.dot(self.coefficients, self.coefficients))

    def nonlocal_fraction(self, k: int = 4) -> float:
        """nonlocal_fraction of the expanded operator, read off the coefficients."""
        return _tail_fraction(size_spectrum(self), k)


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
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"fermion count must be positive even, got {n}")
    dim = 2 ** (n // 2)
    if a.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)} for n={n}, got {a.shape}")
    _, _, phases, _ = subset_data(n // 2)
    coeffs = _tensor_decompose(a) * np.conj(phases)
    worst = float(np.max(np.abs(coeffs.imag)))
    if worst > IMAG_TOL * max(1.0, float(np.max(np.abs(coeffs)))):
        raise ValueError(f"non Hermitian input: imaginary coefficient part {worst:.3e}")
    return FermionExpansion(n, np.where(np.abs(coeffs) > SPARSE_THRESHOLD, coeffs.real, 0.0))


def reconstruct(expansion: FermionExpansion) -> DenseOperator:
    """Dense operator from a Majorana expansion."""
    _, _, phases, _ = subset_data(expansion.n // 2)
    return _tensor_reconstruct(expansion.coefficients * phases)


def _size_weights(squares: np.ndarray, n: int) -> np.ndarray:
    """Per monomial size 0..n, the sum of squares given in flat order."""
    _, sizes, _, _ = subset_data(n // 2)
    return np.bincount(sizes, weights=squares, minlength=n + 1)


def size_spectrum(expansion: FermionExpansion) -> np.ndarray:
    """Squared coefficient weight per monomial size, indices 0..n."""
    return _size_weights(expansion.coefficients**2, expansion.n)


def _tail_fraction(weights: np.ndarray, k: int) -> float:
    """Square root of the share of the per-size weights that sizes > k carry."""
    if k < 0:
        raise ValueError(f"size cut must be nonnegative, got {k}")
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("operator has zero weight")
    return float(np.sqrt(np.sum(weights[k + 1 :]) / total))


def nonlocal_fraction(a: DenseOperator, n: int, k: int = 4) -> float:
    """Frobenius weight fraction carried by monomials of size > k."""
    dim = 2 ** (n // 2)
    if a.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)} for n={n}, got {a.shape}")
    return _tail_fraction(_size_weights(np.abs(_tensor_decompose(a)) ** 2, n), k)


def truncate_local(expansion: FermionExpansion, k: int = 4) -> DenseOperator:
    """Dense operator of the expansion's monomials of size <= k."""
    if k < 0:
        raise ValueError(f"size cut must be nonnegative, got {k}")
    n, c = expansion.n, expansion.coefficients
    _, sizes, _, _ = subset_data(n // 2)
    return reconstruct(FermionExpansion(n, np.where(sizes <= k, c, 0.0)))
