"""Spectrum replacement surgery: keep the eigenbasis, Poissonize the levels.

A pool of eigenvalues is collected per parity sector from many disorder
draws: an (even, odd) pair of sorted level arrays, in `pauli.SECTORS`
order.  A target Hamiltonian H = U D U^dag (per sector) is then rebuilt
as H' = U D' U^dag where D' holds dim i.i.d. draws from the sector pool,
sorted ascending so that level k of H is replaced by the rank k draw.
The difference dH = H' - H commutes with H and is small in Frobenius
norm relative to H', of order 2^{-N/4}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsembleParams, build_hamiltonian, member_rng, sample_couplings
from .pauli import SECTORS, DenseOperator, sector_block_positions
from .spectral import SectorSpectrum, diagonalize


def build_pool(params: EnsembleParams, members: int, start_member: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The (even, odd) levels of `members` fresh disorder draws, each sorted ascending.

    Member k uses the (start_member + k)-th coupling stream, so pools
    are reproducible and extensible without re-drawing earlier members.
    """
    if members < 1:
        raise ValueError(f"need at least one member, got {members}")
    draws = (sample_couplings(params, member=m) for m in range(start_member, start_member + members))
    spectra = [diagonalize(build_hamiltonian(couplings), need_vectors=False) for couplings in draws]
    return tuple(np.sort(np.concatenate([s.eigenvalues for s in sector])) for sector in zip(*spectra))


@dataclass(frozen=True)
class PoissonizedPair:
    """A target Hamiltonian and its spectrum replaced twin.

    H' = U D' U^dag keeps the eigenbasis of H, so the spectrum of H' is D'
    by construction: each sector of `poissonized_spectra` shares its
    eigenvectors with the same sector of `spectra`, and its eigenvalues
    are the sorted replacement levels D'.
    """

    original: DenseOperator
    poissonized: DenseOperator
    spectra: tuple[SectorSpectrum, SectorSpectrum]
    poissonized_spectra: tuple[SectorSpectrum, SectorSpectrum]

    def delta(self) -> DenseOperator:
        return self.poissonized - self.original


def poissonize(h: DenseOperator, pool: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> PoissonizedPair:
    """Replace the spectrum of h by sorted i.i.d. pool draws per sector.

    Parameters
    ----------
    h : ndarray
        Hermitian, parity block diagonal target.
    pool : (even, odd) pair of arrays
        Sector levels to draw from, with replacement.
    rng : numpy Generator
        Consumed once per sector, even sector first.

    Returns
    -------
    PoissonizedPair
    """
    spectra = diagonalize(h)
    dim = h.shape[0]
    (ee, _), (_, oo) = sector_block_positions(dim)
    h_prime = np.zeros((dim, dim), dtype=complex)
    replaced = []
    for tag, s, values, positions in zip(SECTORS, spectra, pool, (ee, oo)):
        if values.size == 0:
            raise ValueError(f"empty pool for sector {tag}")
        d_prime = np.sort(values[rng.integers(0, values.size, size=s.eigenvalues.size)])
        replaced.append(replace(s, eigenvalues=d_prime))
        np.put(h_prime, positions, (s.eigenvectors * d_prime) @ s.eigenvectors.conj().T)
    return PoissonizedPair(
        original=h, poissonized=h_prime, spectra=spectra, poissonized_spectra=tuple(replaced)
    )


def poissonize_member(
    params: EnsembleParams, pool: tuple[np.ndarray, np.ndarray], member: int, stream: int
) -> PoissonizedPair:
    """Build disorder member `member` of `params` and poissonize it against `pool`.

    The levels are drawn from stream (params.seed + 1, stream), the one
    draw-stream convention every pipeline shares.
    """
    h = build_hamiltonian(sample_couplings(params, member=member))
    return poissonize(h, pool, member_rng(params.seed + 1, stream))
