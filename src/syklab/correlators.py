"""Thermal correlators evaluated in the energy eigenbasis.

All routines take the (even, odd) sector pair produced by
spectral.diagonalize and assemble the full-space eigenbasis once: fermion
operators are parity-odd, so their matrix elements connect the sectors and
the correlator engine cannot work sector by sector.  Operators are rotated
to the energy basis a single time; time dependence is then pure phases, so
dense matrix exponentials are never formed outside the small-N test
oracles.

Thermal weights are computed with the spectrum shifted by its minimum,
which keeps e^{-beta E} finite for any beta and makes every correlator
exactly invariant under a global energy shift.
"""

from dataclasses import dataclass

import numpy as np

from .pauli import DenseOperator, majorana_matrix


@dataclass(frozen=True)
class CorrelatorSeries:
    """A correlator sampled on an ascending time grid at one temperature."""

    beta: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.complex128)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly ascending")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("series contains non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def full_energy_basis(spectra):
    """Assemble full-space energies and eigenvector matrix from sectors.

    Returns (energies, u) with u[:, m] the m-th eigenvector embedded in the
    full computational basis; energies are sector-concatenated, not sorted.
    """
    dim = sum(len(sec.eigenvalues) for sec in spectra)
    energies = np.concatenate([sec.eigenvalues for sec in spectra])
    u = np.zeros((dim, dim), dtype=np.complex128)
    col = 0
    for sec in spectra:
        if sec.eigenvectors is None:
            raise ValueError("correlators need eigenvectors; diagonalize with need_vectors=True")
        k = len(sec.eigenvalues)
        u[sec.basis_indices, col:col + k] = sec.eigenvectors
        col += k
    return energies, u


def _thermal_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    # shifted so the largest weight is 1; normalization divides out below
    return np.exp(-beta * (energies - energies.min()))


def two_point(spectra, o: DenseOperator, beta: float, times) -> CorrelatorSeries:
    """(1/Z) Tr(e^{-beta H} O(t) O(0)) on a time grid.

    Evaluated as sum_{mn} w_m e^{i(E_m - E_n)t} O_mn O_nm / Z after a single
    rotation of O to the energy basis.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    energies, u = full_energy_basis(spectra)
    o = np.asarray(o)
    if o.shape != u.shape:
        raise ValueError(f"operator shape {o.shape} does not match dimension {u.shape[0]}")
    times = np.asarray(times, dtype=np.float64)
    o_e = u.conj().T @ o @ u
    pair = o_e * o_e.T
    w = _thermal_weights(energies, beta)
    z = w.sum()
    p = np.exp(1j * np.outer(energies, times))
    values = np.sum((w[:, None] * p) * (pair @ p.conj()), axis=0) / z
    return CorrelatorSeries(beta=beta, times=times, values=values)


def otoc(spectra, a: int, b: int, beta: float, times) -> CorrelatorSeries:
    """Out-of-time-order correlator of two Majorana fermions.

    (1/Z) Tr(y psi_a(t) y psi_b y psi_a(t) y psi_b) with y = e^{-beta H/4},
    the symmetric four-fold splitting of the thermal weight.
    """
    if a == b:
        raise ValueError("fermion indices must differ")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    energies, u = full_energy_basis(spectra)
    dim = energies.size
    n = 2 * (dim.bit_length() - 1)
    psi_a = u.conj().T @ majorana_matrix(a, n) @ u
    psi_b = u.conj().T @ majorana_matrix(b, n) @ u
    times = np.asarray(times, dtype=np.float64)
    r = np.exp(-beta * (energies - energies.min()) / 4.0)
    z = np.sum(r ** 4)
    y_b = (r[:, None] * psi_b) * r[None, :]
    values = np.empty(times.size, dtype=np.complex128)
    for i, t in enumerate(times):
        p = np.exp(1j * energies * t)
        a_t = (p[:, None] * p.conj()[None, :]) * psi_a
        m = a_t @ y_b
        values[i] = np.sum(m * m.T) / z
    return CorrelatorSeries(beta=beta, times=times, values=values)


def compare_series(x: CorrelatorSeries, y: CorrelatorSeries) -> float:
    """Max absolute deviation between two series on one grid."""
    if x.times.shape != y.times.shape or not np.array_equal(x.times, y.times):
        raise ValueError("series grids differ")
    return float(np.max(np.abs(x.values - y.values)))


def tfd_gram(spectra, beta: float, t1: float, omega: int) -> np.ndarray:
    """Gram matrix G_jk = Z(beta - i(t_j - t_k))/Z(beta), t_j = j * t1.

    The overlaps of a ladder of time-evolved thermofield-double states: G is
    Hermitian with unit diagonal and positive semidefinite.
    """
    if t1 <= 0:
        raise ValueError("base spacing t1 must be positive")
    if omega < 1:
        raise ValueError("state count must be at least 1")
    energies = np.concatenate([sec.eigenvalues for sec in spectra])
    w = _thermal_weights(energies, beta)
    w = w / w.sum()
    phases = np.exp(1j * np.outer(np.arange(omega) * t1, energies))
    return (phases * w) @ phases.conj().T


def gram_rank(g: np.ndarray, threshold: float = 1e-8) -> int:
    """Numerical rank: singular values above threshold * largest."""
    s = np.linalg.svd(g, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > threshold * s[0]))


def cyclic_moment(g: np.ndarray, n: int) -> complex:
    """Average of G_{j1 j2} G_{j2 j3} ... G_{jn j1} over distinct index tuples.

    Computed by inclusion-exclusion on traces of powers, using that the
    diagonal of G is exactly 1: the sum over all tuples is tr(G^n) and
    coincident-index tuples reduce to lower powers.
    """
    omega = g.shape[0]
    if n == 2:
        if omega < 2:
            raise ValueError("need at least 2 states for the 2-moment")
        total = np.trace(g @ g) - omega
        count = omega * (omega - 1)
    elif n == 3:
        if omega < 3:
            raise ValueError("need at least 3 states for the 3-moment")
        g2 = g @ g
        total = np.trace(g2 @ g) - 3.0 * np.trace(g2) + 2.0 * omega
        count = omega * (omega - 1) * (omega - 2)
    else:
        raise ValueError("cyclic moment implemented for n in {2, 3}")
    return complex(total / count)
