"""Thermal correlators evaluated in the energy eigenbasis, one parity block at a time.

All routines take the (even, odd) sector pair produced by
spectral.diagonalize.  H conserves fermion parity, so its eigenbasis is the
pair of sector bases U_e, U_o.  A Majorana fermion psi_i is parity-odd and
Hermitian, so in the energy basis it is whole once its even -> odd block
A_i = U_e^dagger psi_i[e, o] U_o is known: the odd -> even block is
A_i^dagger, and a bilinear i psi_a psi_b has the even block i A_a A_b^dagger.
fermion_block rotates a fermion once; the kernels take that block, so a
caller rotates each fermion once per eigenbasis, whatever the temperature
or the number of series.  Time dependence is then pure phases, and neither
a dense matrix exponential nor a full dim x dim eigenbasis is ever formed.

Thermal weights are computed with the spectrum shifted by its minimum over
both sectors, which keeps e^{-beta E} finite for any beta and makes every
correlator exactly invariant under a global energy shift.
"""

from dataclasses import dataclass

import numpy as np

from .pauli import majorana_matrix


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


def _thermal_weights(spectra, beta: float) -> list:
    """e^{-beta (E - E_min)} of each sector, E_min over all sectors, so the largest weight is 1."""
    floor = min(sec.eigenvalues.min() for sec in spectra)
    return [np.exp(-beta * (sec.eigenvalues - floor)) for sec in spectra]


def fermion_block(spectra, i: int) -> np.ndarray:
    """A_i = U_e^dagger psi_i[e, o] U_o, Majorana fermion i in the energy basis."""
    even, odd = spectra
    if even.eigenvectors is None or odd.eigenvectors is None:
        raise ValueError("correlators need eigenvectors; diagonalize with need_vectors=True")
    dim = len(even.eigenvalues) + len(odd.eigenvalues)
    psi = majorana_matrix(i, 2 * (dim.bit_length() - 1))
    return even.eigenvectors.conj().T @ psi[np.ix_(even.basis_indices, odd.basis_indices)] @ odd.eigenvectors


def _require_block(spectra, psi) -> np.ndarray:
    psi = np.asarray(psi)
    want = tuple(len(sec.eigenvalues) for sec in spectra)
    if psi.shape != want:
        raise ValueError(f"fermion block shape {psi.shape} does not match the sectors {want}")
    return psi


def two_point(spectra, psi, beta: float, times) -> CorrelatorSeries:
    """(1/Z) Tr(e^{-beta H} psi(t) psi(0)) of a Majorana fermion on a time grid.

    psi is the fermion's block A = fermion_block(spectra, i).  Its odd -> even
    block is A^dagger, so both sector pairs see only |A|^2: the value is
    sum_{eo} |A_eo|^2 (w_e p_e conj(p_o) + w_o p_o conj(p_e)) / Z, with w the
    thermal weights and p the phases e^{iEt}, two products of |A|^2 with a
    phase grid.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    psi = _require_block(spectra, psi)
    times = np.asarray(times, dtype=np.float64)
    square = psi.real ** 2 + psi.imag ** 2
    w_e, w_o = _thermal_weights(spectra, beta)
    p_e, p_o = (np.exp(1j * np.outer(sec.eigenvalues, times)) for sec in spectra)
    values = np.sum((w_e[:, None] * p_e) * (square @ p_o.conj()), axis=0)
    values += np.sum((w_o[:, None] * p_o) * (square.T @ p_e.conj()), axis=0)
    return CorrelatorSeries(beta=beta, times=times, values=values / (w_e.sum() + w_o.sum()))


def otoc(spectra, psi_a, psi_b, beta: float, times) -> CorrelatorSeries:
    """Out-of-time-order correlator of two Majorana fermions.

    (1/Z) Tr(y psi_a(t) y psi_b y psi_a(t) y psi_b) with y = e^{-beta H/4},
    the symmetric four-fold splitting of the thermal weight; psi_a = A_a and
    psi_b = A_b are the fermions' fermion_block.  Both fermions are
    parity-odd, so the trace splits into an even and an odd block trace:
    tr(m_ee^2) with m_ee = A_a(t) r_o A_b^dagger r_e, r = e^{-beta E/4},
    one (dim/2)^3 product per time.  y and psi are Hermitian, so the odd
    block trace is the complex conjugate of the even one, and the value is
    2 Re tr(m_ee^2) / Z, real by construction.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    psi_a, psi_b = (_require_block(spectra, psi) for psi in (psi_a, psi_b))
    times = np.asarray(times, dtype=np.float64)
    r_e, r_o = _thermal_weights(spectra, beta / 4.0)
    z = np.sum(r_e ** 4) + np.sum(r_o ** 4)
    y_b = (r_o[:, None] * psi_b.conj().T) * r_e[None, :]
    p_e, p_o = (np.exp(1j * np.outer(times, sec.eigenvalues)) for sec in spectra)
    values = np.empty(times.size)
    for i in range(times.size):
        m = ((p_e[i][:, None] * psi_a) * p_o[i].conj()) @ y_b
        values[i] = 2.0 * np.sum(m * m.T).real / z
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
    w = np.concatenate(_thermal_weights(spectra, beta))
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
