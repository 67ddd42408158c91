"""Spectrum replacement surgery: keep the eigenbasis, Poissonize the levels.

A pool of eigenvalues is collected per parity sector from many disorder
draws.  A target Hamiltonian H = U D U^dag (per sector) is then rebuilt
as H' = U D' U^dag where D' holds dim i.i.d. draws from the sector pool,
sorted ascending so that level k of H is replaced by the rank k draw.
The difference dH = H' - H commutes with H and is small in Frobenius
norm relative to H', of order 2^{-N/4}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleParams, build_hamiltonian, member_rng, sample_couplings
from .pauli import DenseOperator
from .spectral import SectorSpectrum, diagonalize


@dataclass(frozen=True)
class EigenvaluePool:
    """Per sector eigenvalue pools, each sorted ascending."""

    even: np.ndarray
    odd: np.ndarray

    def sector(self, tag: str) -> np.ndarray:
        if tag == "even":
            return self.even
        if tag == "odd":
            return self.odd
        raise ValueError(f"unknown sector {tag!r}")


def build_pool(params: EnsembleParams, members: int, start_member: int = 0) -> EigenvaluePool:
    """Collect sector spectra of `members` fresh disorder draws.

    Member k uses the (start_member + k)-th coupling stream, so pools
    are reproducible and extensible without re-drawing earlier members.
    """
    if members < 1:
        raise ValueError(f"need at least one member, got {members}")
    even, odd = [], []
    for member in range(start_member, start_member + members):
        e, o = diagonalize(build_hamiltonian(sample_couplings(params, member=member)), need_vectors=False)
        even.append(e.eigenvalues)
        odd.append(o.eigenvalues)
    return EigenvaluePool(np.sort(np.concatenate(even)), np.sort(np.concatenate(odd)))


@dataclass(frozen=True)
class PoissonizedPair:
    """A target Hamiltonian and its spectrum replaced twin.

    H' = U D' U^dag keeps the eigenbasis of H, so the spectrum of H' is D'
    by construction: each sector of `poissonized_spectra` shares its
    eigenvectors and basis indices with the same sector of `spectra`, and
    its eigenvalues are the sorted replacement levels D'.
    """

    original: DenseOperator
    poissonized: DenseOperator
    spectra: tuple[SectorSpectrum, SectorSpectrum]
    poissonized_spectra: tuple[SectorSpectrum, SectorSpectrum]

    def delta(self) -> DenseOperator:
        return self.poissonized - self.original


def poissonize(h: DenseOperator, pool: EigenvaluePool, rng: np.random.Generator) -> PoissonizedPair:
    """Replace the spectrum of h by sorted i.i.d. pool draws per sector.

    Parameters
    ----------
    h : ndarray
        Hermitian, parity block diagonal target.
    pool : EigenvaluePool
        Sector pools to draw from, with replacement.
    rng : numpy Generator
        Consumed once per sector, even sector first.

    Returns
    -------
    PoissonizedPair
    """
    spectra = diagonalize(h)
    dim = h.shape[0]
    h_prime = np.zeros((dim, dim), dtype=complex)
    replaced = []
    for s in spectra:
        values = pool.sector(s.sector)
        if values.size == 0:
            raise ValueError(f"empty pool for sector {s.sector}")
        d_prime = np.sort(values[rng.integers(0, values.size, size=s.eigenvalues.size)])
        replaced.append(SectorSpectrum(s.sector, d_prime, s.eigenvectors, s.basis_indices))
        block = (s.eigenvectors * d_prime) @ s.eigenvectors.conj().T
        h_prime[np.ix_(s.basis_indices, s.basis_indices)] = block
    return PoissonizedPair(
        original=h, poissonized=h_prime, spectra=spectra, poissonized_spectra=tuple(replaced)
    )


def poissonize_member(
    params: EnsembleParams, pool: EigenvaluePool, member: int, stream: int
) -> PoissonizedPair:
    """Build disorder member `member` of `params` and poissonize it against `pool`.

    The levels are drawn from stream (params.seed + 1, stream), the one
    draw-stream convention every pipeline shares.
    """
    h = build_hamiltonian(sample_couplings(params, member=member))
    return poissonize(h, pool, member_rng(params.seed + 1, stream))
