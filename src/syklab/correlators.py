"""Thermal correlators evaluated in the energy eigenbasis, one parity block at a time.

All routines take the (even, odd) sector pair produced by
spectral.diagonalize.  H conserves fermion parity, so its eigenbasis is the
pair of sector bases U_e, U_o, and an operator O splits into the four
sector blocks O[i, j]; in the energy basis each one is U_i^dagger O[i, j] U_j,
of size (dim/2) x (dim/2).  A Majorana fermion is parity-odd: only its
even -> odd and odd -> even blocks are nonzero, so the kernels never form a
full dim x dim eigenbasis.  Each block is rotated once per call; time
dependence is then pure phases, so dense matrix exponentials are never
formed outside the small-N test oracles.

Thermal weights are computed with the spectrum shifted by its minimum over
both sectors, which keeps e^{-beta E} finite for any beta and makes every
correlator exactly invariant under a global energy shift.
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


def _thermal_weights(spectra, beta: float) -> list:
    """e^{-beta (E - E_min)} of each sector, E_min over all sectors, so the largest weight is 1."""
    floor = min(sec.eigenvalues.min() for sec in spectra)
    return [np.exp(-beta * (sec.eigenvalues - floor)) for sec in spectra]


def _energy_block(o: DenseOperator, row, col) -> np.ndarray:
    """The (row, col) sector block of O in the energy basis, U_row^dagger O[row, col] U_col."""
    if row.eigenvectors is None or col.eigenvectors is None:
        raise ValueError("correlators need eigenvectors; diagonalize with need_vectors=True")
    return row.eigenvectors.conj().T @ o[np.ix_(row.basis_indices, col.basis_indices)] @ col.eigenvectors


def two_point(spectra, o: DenseOperator, beta: float, times) -> CorrelatorSeries:
    """(1/Z) Tr(e^{-beta H} O(t) O(0)) on a time grid.

    With O_ij = U_i^dagger O[i, j] U_j the energy-basis sector blocks, the
    value is sum_ij sum_{mn} w_im e^{i(E_im - E_jn)t} (O_ij)_mn (O_ji)_nm / Z:
    per sector pair, (O_ij * O_ji^T) @ conj(p_j) weighted by w_i p_i, with
    p the phases e^{iEt}.  Only the blocks O does not leave zero are
    rotated, so a Majorana fermion costs two (dim/2)-sized rotations.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    o = np.asarray(o)
    dim = sum(len(sec.eigenvalues) for sec in spectra)
    if o.shape != (dim, dim):
        raise ValueError(f"operator shape {o.shape} does not match dimension {dim}")
    times = np.asarray(times, dtype=np.float64)
    blocks = {
        (i, j): _energy_block(o, row, col)
        for i, row in enumerate(spectra)
        for j, col in enumerate(spectra)
        if np.any(o[np.ix_(row.basis_indices, col.basis_indices)])
    }
    weights = _thermal_weights(spectra, beta)
    phases = [np.exp(1j * np.outer(sec.eigenvalues, times)) for sec in spectra]
    values = np.zeros(times.size, dtype=np.complex128)
    for (i, j), o_ij in blocks.items():
        if (j, i) in blocks:
            pair = o_ij * blocks[j, i].T
            values += np.sum((weights[i][:, None] * phases[i]) * (pair @ phases[j].conj()), axis=0)
    z = sum(w.sum() for w in weights)
    return CorrelatorSeries(beta=beta, times=times, values=values / z)


def otoc(spectra, a: int, b: int, beta: float, times) -> CorrelatorSeries:
    """Out-of-time-order correlator of two Majorana fermions.

    (1/Z) Tr(y psi_a(t) y psi_b y psi_a(t) y psi_b) with y = e^{-beta H/4},
    the symmetric four-fold splitting of the thermal weight.  Both fermions
    are parity-odd, so with A = U_e^dagger psi_a[e, o] U_o and
    B = U_o^dagger psi_b[o, e] U_e, the trace splits into an even and an odd
    block trace: tr(m_ee^2) with m_ee = A(t) r_o B r_e, r = e^{-beta E/4},
    one (dim/2)^3 product per time.  y and psi are Hermitian, so the odd
    block trace is the complex conjugate of the even one, and the value is
    2 Re tr(m_ee^2) / Z, real by construction.
    """
    if a == b:
        raise ValueError("fermion indices must differ")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    even, odd = spectra
    dim = len(even.eigenvalues) + len(odd.eigenvalues)
    n = 2 * (dim.bit_length() - 1)
    psi_a = _energy_block(majorana_matrix(a, n), even, odd)
    psi_b = _energy_block(majorana_matrix(b, n), odd, even)
    times = np.asarray(times, dtype=np.float64)
    r_e, r_o = _thermal_weights(spectra, beta / 4.0)
    z = np.sum(r_e ** 4) + np.sum(r_o ** 4)
    y_b = (r_o[:, None] * psi_b) * r_e[None, :]
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
