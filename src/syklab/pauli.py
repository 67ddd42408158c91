"""Pauli string algebra and the Jordan-Wigner Majorana representation.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

# single spin products: (left, right) -> (phase, letter)
_PRODUCT = {}
for _p in "IXYZ":
    _PRODUCT[("I", _p)] = (1.0 + 0.0j, _p)
    _PRODUCT[(_p, "I")] = (1.0 + 0.0j, _p)
    _PRODUCT[(_p, _p)] = (1.0 + 0.0j, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCT[(_a, _b)] = (1.0j, _c)
    _PRODUCT[(_b, _a)] = (-1.0j, _c)

@dataclass(frozen=True)
class PauliString:
    """A scalar multiple of a tensor product of single spin Paulis.

    letters is one of I, X, Y, Z per spin; phase is a complex unit from
    {1, -1, i, -i} times an optional real scale.  Products reduce
    eagerly through the single spin multiplication table, so a
    PauliString is always in canonical form.
    """

    letters: tuple[str, ...]
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not all(p in "IXYZ" for p in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def n_spins(self) -> int:
        return len(self.letters)

    def __mul__(self, other):
        if isinstance(other, PauliString):
            if other.n_spins != self.n_spins:
                raise ValueError("spin counts differ")
            phase = self.phase * other.phase
            letters = []
            for a, b in zip(self.letters, other.letters):
                w, c = _PRODUCT[(a, b)]
                phase *= w
                letters.append(c)
            return PauliString(tuple(letters), phase)
        return PauliString(self.letters, self.phase * complex(other))

    __rmul__ = __mul__

    @property
    def x_mask(self) -> int:
        """Bitmask of spins carrying X or Y, in the basis bit convention."""
        q = self.n_spins
        return sum(1 << (q - 1 - s) for s, p in enumerate(self.letters) if p in "XY")

    @property
    def z_mask(self) -> int:
        q = self.n_spins
        return sum(1 << (q - 1 - s) for s, p in enumerate(self.letters) if p in "ZY")

    @property
    def y_count(self) -> int:
        return sum(1 for p in self.letters if p == "Y")

    def column_action(self):
        """Single nonzero per column: returns (rows, values).

        Column b maps to row b ^ x_mask with value
        phase * i^{#Y} * (-1)^{popcount(b & z_mask)}.
        """
        dim = 2 ** self.n_spins
        cols = np.arange(dim)
        rows = cols ^ self.x_mask
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & self.z_mask) & 1)
        vals = (self.phase * 1.0j ** self.y_count) * signs
        return rows, vals

    def dense(self) -> DenseOperator:
        dim = 2 ** self.n_spins
        out = np.zeros((dim, dim), dtype=complex)
        rows, vals = self.column_action()
        out[rows, np.arange(dim)] = vals
        return out


def majorana_string(i: int, n: int) -> PauliString:
    """Symbolic Jordan-Wigner form of the i-th Majorana for N = n fermions."""
    _check_majorana_args(i, n)
    q = n // 2
    s = i // 2
    letters = ["Z"] * s + ["X" if i % 2 == 0 else "Y"] + ["I"] * (q - s - 1)
    return PauliString(tuple(letters))


def majorana_matrix(i: int, n: int) -> DenseOperator:
    """Dense 2^{n/2} realization of the i-th Majorana operator, from its jordan_wigner row."""
    _check_majorana_args(i, n)
    (x,), (z,), (unit,) = jordan_wigner([1 << i], n)
    dim = 2 ** (n // 2)
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[cols ^ x, cols] = unit * (1.0 - 2.0 * (np.bitwise_count(cols & z) & 1))
    return out


def majorana_monomial(indices, n: int) -> PauliString:
    """Ordered product psi_{i1} psi_{i2} ... for strictly ascending indices.

    Parameters
    ----------
    indices : iterable of int
        Strictly ascending Majorana indices in range(n).  Empty gives
        the identity string.
    n : int
        Total number of Majorana fermions, even.

    Returns
    -------
    PauliString
        The canonical reduced product; its phase is a fourth root of
        unity.
    """
    indices = tuple(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly ascending, got {indices}")
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"fermion count must be positive even, got {n}")
    out = PauliString(("I",) * (n // 2))
    for i in indices:
        out = out * majorana_string(i, n)
    return out


def hermitian_monomial(indices, n: int) -> PauliString:
    """Majorana monomial rephased so that its dense form is Hermitian.

    Reversing p pairwise anticommuting factors costs (-1)^{p(p-1)/2},
    so the bare product is anti-Hermitian for p = 2, 3 mod 4; those get
    an extra factor i.  Size 4 monomials are already Hermitian.
    """
    m = majorana_monomial(indices, n)
    p = len(tuple(indices))
    if (p * (p - 1) // 2) % 2:
        m = m * 1.0j
    return m


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


def accumulate_string(out: DenseOperator, ps: PauliString, coeff: complex) -> None:
    """out += coeff * dense(ps) without materializing the dense string."""
    dim = out.shape[0]
    if dim != 2 ** ps.n_spins:
        raise ValueError("dimension mismatch")
    rows, vals = ps.column_action()
    out[rows, np.arange(dim)] += coeff * vals


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
