"""Numerical laboratory for eigenvalue statistics of Majorana fermion models.

The package separates two notions of quantum chaos: spectral statistics
(level repulsion, spectral form factor) and eigenbasis statistics
(correlation functions, OTOC).  It builds dense parity-blocked SYK
Hamiltonians, replaces their spectra with independently drawn levels,
measures what that does to locality, and anneals couplings toward
repulsion-free spectra while tracking correlators.
"""

from .correlators import (
    CorrelatorSeries,
    compare_series,
    cyclic_moment,
    fermion_block,
    gram_rank,
    otoc,
    tfd_gram,
    two_point,
)
from .decompose import (
    FermionExpansion,
    majorana_coefficients,
    nonlocal_fraction,
    size_spectrum,
    truncate_local,
)
from .ensemble import (
    CouplingTensor,
    EnsembleParams,
    build_hamiltonian,
    member_rng,
    rescale_to_trace,
    sample_couplings,
    trace_h_squared,
)
from .errors import NumericalError, StructureError
from .metropolis import ChainState, Schedule, objective, run_schedule
from .pauli import jordan_wigner, majorana_matrix
from .poissonize import EigenvaluePool, PoissonizedPair, build_pool, poissonize, poissonize_member
from .spectral import (
    MeanDensity,
    SectorSpectrum,
    combined_eigenvalues,
    diagonalize,
    gap_ratios,
    min_ratio_statistic,
    sff,
    sff_poisson_average,
)

__all__ = [name for name in dir() if not name.startswith("_")]
