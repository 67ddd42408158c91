"""Gaussian coupling ensembles for the four body Majorana Hamiltonian.

H = -sum_{i1<i2<i3<i4} J_{i1 i2 i3 i4} psi_{i1} psi_{i2} psi_{i3} psi_{i4}

with couplings i.i.d. Gaussian of mean zero and variance
(N / (2 p^2)) / binom(N, 4) * jscale^2 at p = 4.  The overall minus sign
is i^{p/2} for p = 4.

Randomness policy: streams are split with SeedSequence spawn keys over
the counter based Philox generator, so ensemble member k is the same no
matter which members were drawn before it, in any order, on any worker.
Gaussians come from the inverse normal CDF applied to exactly one
uniform per variate; nothing in the pipeline uses rejection sampling,
so replay is bit exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf

import numpy as np
from scipy.special import ndtri

from .pauli import DenseOperator, jordan_wigner

P_BODY = 4  # interaction order is fixed at four fermions per term

N_MIN, N_MAX = 6, 26


@dataclass(frozen=True)
class EnsembleParams:
    """Defining data of one disorder ensemble."""

    n: int
    j_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n % 2 != 0 or not N_MIN <= self.n <= N_MAX:
            raise ValueError(f"n must be even in [{N_MIN}, {N_MAX}], got {self.n}")
        if not 0.0 < self.j_scale < inf:
            raise ValueError(f"j_scale must be positive and finite, got {self.j_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def coupling_variance(n: int, j_scale: float = 1.0) -> float:
    """Per coupling variance; 1/280 at n=8, j_scale=1."""
    return (n / (2.0 * P_BODY**2)) / comb(n, P_BODY) * j_scale**2


@lru_cache(maxsize=None)
def coupling_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """All 4-subsets of range(n) in lexicographic order."""
    return tuple(itertools.combinations(range(n), P_BODY))


@dataclass(frozen=True)
class CouplingTensor:
    """Complete antisymmetric coupling data as a flat vector.

    values[k] belongs to coupling_subsets(n)[k]; the layout is the same
    lexicographic order used by the coefficient file format.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        want = comb(self.n, P_BODY)
        if self.values.shape != (want,):
            raise ValueError(f"expected {want} couplings for n={self.n}, got {self.values.shape}")

    def sum_squares(self) -> float:
        return float(np.dot(self.values, self.values))


def member_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent Philox stream for one member; order independent.

    spawn_key addressing means stream k never depends on whether other
    streams were instantiated first.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via inverse CDF; exactly one uniform per variate."""
    u = rng.integers(1, 1 << 53, size=size) * 0.5**53
    return ndtri(u)


def sample_couplings(params: EnsembleParams, member: int = 0) -> CouplingTensor:
    """Draw ensemble member `member` of the coupling distribution.

    Parameters
    ----------
    params : EnsembleParams
    member : int
        Ensemble member index; the draw is reproducible from
        (params.seed, member) alone.
    """
    if member < 0:
        raise ValueError(f"member index must be nonnegative, got {member}")
    std = np.sqrt(coupling_variance(params.n, params.j_scale))
    rng = member_rng(params.seed, member)
    return CouplingTensor(params.n, std * gaussian(rng, comb(params.n, P_BODY)))


class HamiltonianBuilder:
    """Reusable couplings-to-dense-matrix map for a fixed fermion count.

    Each four body monomial sends column b to row b ^ x_mask with value
    unit * (-1)^{popcount(b & z_mask)}, all three read from jordan_wigner,
    so the monomials sharing an x_mask fill the same dim entries of H and
    no two groups write the same entry.  Per group, set up keeps the flat target
    indices and the (terms, dim) column values, zero padded to the largest
    group; a build is one batched matvec into a zeroed matrix, no scatter-add.
    """

    def __init__(self, n: int):
        if n % 2 != 0 or n < P_BODY:
            raise ValueError(f"fermion count must be even and at least {P_BODY}, got {n}")
        self.n = n
        self.dim = 2 ** (n // 2)
        masks = np.array([sum(1 << i for i in s) for s in coupling_subsets(n)])
        x_masks, z_masks, units = jordan_wigner(masks, n)
        x_groups = np.unique(x_masks)
        groups = [np.flatnonzero(x_masks == x) for x in x_groups]
        width = max(len(terms) for terms in groups)
        cols = np.arange(self.dim)
        # padding slots read term 0 against zero values, so they add exact zeros
        self._terms = np.zeros((len(groups), width), dtype=np.int64)
        self._vals = np.zeros((len(groups), width, self.dim), dtype=complex)
        for g, terms in enumerate(groups):
            self._terms[g, : len(terms)] = terms
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & z_masks[terms, None]) & 1)
            self._vals[g, : len(terms)] = units[terms, None] * signs
        self._flat = ((cols ^ x_groups[:, None]) * self.dim + cols).ravel()

    def build(self, couplings: CouplingTensor) -> DenseOperator:
        if couplings.n != self.n:
            raise ValueError(f"couplings are for n={couplings.n}, builder is for n={self.n}")
        coeff = -couplings.values  # i^{p/2} = -1 at p = 4
        out = np.zeros(self.dim * self.dim, dtype=complex)
        out[self._flat] = (coeff[self._terms][:, None, :] @ self._vals).ravel()
        return out.reshape(self.dim, self.dim)


@lru_cache(maxsize=4)
def _cached_builder(n: int) -> HamiltonianBuilder:
    return HamiltonianBuilder(n)


def build_hamiltonian(couplings: CouplingTensor) -> DenseOperator:
    """Dense Hamiltonian for one coupling draw.

    Returns
    -------
    ndarray
        Hermitian, parity block diagonal, with
        tr(H^2) = 2^{n/2} * sum(J^2).
    """
    return _cached_builder(couplings.n).build(couplings)


def trace_h_squared(couplings: CouplingTensor) -> float:
    """tr(H^2) from monomial orthogonality, no dense matrix needed."""
    return 2 ** (couplings.n // 2) * couplings.sum_squares()


def rescale_to_trace(couplings: CouplingTensor, target: float) -> CouplingTensor:
    """Scale all couplings so that tr(H^2) equals target exactly.

    Raises
    ------
    ValueError
        If target is not positive or the couplings are identically zero.
    """
    if not target > 0.0:
        raise ValueError(f"target trace must be positive, got {target}")
    current = trace_h_squared(couplings)
    if current == 0.0:
        raise ValueError("cannot rescale an all zero coupling tensor")
    return CouplingTensor(couplings.n, couplings.values * np.sqrt(target / current))
