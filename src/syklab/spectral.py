"""Sector resolved diagonalization and spectral statistics.

Gap ratios are always computed within one parity sector; mixing sectors
before taking ratios fakes Poisson statistics even for random matrix
spectra.  For N = 2 mod 4 the odd block of every four-body H is the
particle-hole mirror of the even block (pauli.particle_hole_map), so the
two sector spectra coincide and a combined spectrum is doubly degenerate;
diagonalize then solves the even block alone and mirrors the odd sector.
Inputs without that mirror, such as H' and its relocalized form, get one
eigensolver call per sector.  Pooling happens only at the statistics and
histogram layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log

import numpy as np

from .errors import NumericalError
from .pauli import DenseOperator, particle_hole_map, require_hermitian, sector_split

DEGENERACY_THRESHOLD = 1e-14  # relative to spectrum bandwidth
RESIDUAL_TOL = 1e-10  # eigensolver residual, relative to the sector's Frobenius norm
NORM_TOL = 1e-8  # a mean density must integrate to one within this

# Monte Carlo reference sizes: one long i.i.d. level sequence, and many
# small GUE matrices whose full-spectrum ratios are pooled
POISSON_LEVELS, GUE_SIZE, GUE_SAMPLES = 1_000_000, 64, 400

# mean of min(r, 1/r): exact Poisson value and the random matrix value
# reproduced by the Monte Carlo oracle below (large GUE matrices)
POISSON_MIN_RATIO = 2.0 * log(2.0) - 1.0
GUE_MIN_RATIO = 0.5996


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigendata of one parity sector.

    eigenvalues ascend; eigenvectors hold one normalized column per
    eigenvalue, expressed in the sector's own basis.  Spectra come in
    (even, odd) pairs, pauli.SECTORS order: the place names the sector.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def _diagonalize_block(block: np.ndarray, need_vectors: bool) -> SectorSpectrum:
    if not need_vectors:
        return SectorSpectrum(np.linalg.eigvalsh(block), None)
    w, u = np.linalg.eigh(block)
    scale = max(float(np.linalg.norm(block)), 1e-300)
    residual = float(np.linalg.norm((u * w) @ u.conj().T - block))
    if residual > RESIDUAL_TOL * scale:
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds {RESIDUAL_TOL:g} "
            f"of sector norm {scale:.3e}"
        )
    return SectorSpectrum(w, u)


def diagonalize(h: DenseOperator, need_vectors: bool = True):
    """Diagonalize a parity conserving Hermitian operator per sector.

    At q = log2(dim) odd (N = 2 mod 4), an odd block that equals the
    particle-hole mirror of the even block, H_oo[pi_j, pi_k] =
    s_j s_k conj(H_ee[j, k]) with (pi, s) = pauli.particle_hole_map(dim),
    is not diagonalized: its levels are the even levels and its vectors are
    U_o[pi] = s conj(U_e).  Every SYK H of the builder is mirrored bit for
    bit.  H', a relocalized H', any input whose odd block misses the mirror
    by a single bit, and every input at q even get one eigensolver call per
    sector.

    Parameters
    ----------
    h : ndarray
        Hermitian, parity block diagonal matrix.
    need_vectors : bool
        Skip eigenvector output (cheaper) when False.

    Returns
    -------
    (even, odd) : tuple of SectorSpectrum

    Raises
    ------
    StructureError
        If h is not Hermitian or not block diagonal.
    NumericalError
        If ||U w U^dag - H_sector||_F exceeds RESIDUAL_TOL of ||H_sector||_F
        on a sector that was diagonalized.
    """
    require_hermitian(h)
    even, odd = sector_split(h)
    mirror = particle_hole_map(len(even) + len(odd))
    if mirror is not None:
        pi, s = mirror
        if np.array_equal(odd[np.ix_(pi, pi)], s[:, None] * even.conj() * s):
            spectrum = _diagonalize_block(even, need_vectors)
            vectors = None
            if need_vectors:
                vectors = np.empty_like(spectrum.eigenvectors)
                vectors[pi] = s[:, None] * spectrum.eigenvectors.conj()
            return spectrum, SectorSpectrum(spectrum.eigenvalues.copy(), vectors)
    return _diagonalize_block(even, need_vectors), _diagonalize_block(odd, need_vectors)


def combined_eigenvalues(spectra) -> np.ndarray:
    """Ascending union of the sector spectra."""
    return np.sort(np.concatenate([s.eigenvalues for s in spectra]))


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    The empirical CDFs are compared at every sample point.  The largest
    difference lies on the lattice k / lcm(len(a), len(b)) and is rounded
    onto it, as the exact mode of scipy.stats.ks_2samp does, so the two
    agree bit for bit wherever scipy uses that mode (both samples of at
    most 10 000 values).
    """
    a, b = np.sort(a), np.sort(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_distance needs two non-empty samples")
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / a.size - np.searchsorted(b, both, side="right") / b.size
    d = max(float(diff.max()), float(-diff.min()))
    scale = lcm(a.size, b.size)
    return round(d * scale) / scale


@dataclass(frozen=True)
class GapRatioSample:
    """Consecutive gap ratios of one spectrum.

    ratios[i] = g_{i+1} / g_i over the kept gaps; degenerate_count says
    how many gaps fell below the degeneracy threshold and were omitted
    together with the ratios touching them (gaps inside collapsed Kramers
    doublets are not counted).
    """

    ratios: np.ndarray
    degenerate_count: int


def gap_ratios(eigenvalues: np.ndarray) -> GapRatioSample:
    """Gap ratios r_i = (e_{i+2}-e_{i+1})/(e_{i+1}-e_i) of one sector.

    The input must already be a single sector's spectrum; pass sectors
    separately and pool the results.  A sector whose levels all come in
    exact pairs (e[2k], e[2k+1]), the Kramers doublets of N = 4 (mod 8),
    keeps one level of each pair.  Gaps at or below DEGENERACY_THRESHOLD
    of the bandwidth count as degenerate.
    """
    e = np.sort(np.asarray(eigenvalues, dtype=float))
    if e.size < 3:
        return GapRatioSample(np.empty(0), 0)
    floor = DEGENERACY_THRESHOLD * float(e[-1] - e[0])
    if e.size % 2 == 0 and np.all(e[1::2] - e[::2] <= floor):
        e = e[::2]
    gaps = np.diff(e)
    bad = gaps <= floor
    keep = ~(bad[1:] | bad[:-1])
    ratios = gaps[1:][keep] / gaps[:-1][keep]
    return GapRatioSample(ratios, int(np.count_nonzero(bad)))


def sector_ratios(spectra) -> np.ndarray:
    """Gap ratios taken within each sector, then pooled."""
    return np.concatenate([gap_ratios(sector.eigenvalues).ratios for sector in spectra])


def min_ratio_statistic(ratios: np.ndarray) -> float:
    """Mean of min(r, 1/r), the unfolding free chaos indicator."""
    r = np.asarray(ratios, dtype=float)
    if r.size == 0:
        raise ValueError("no ratios to average")
    return float(np.mean(np.minimum(r, 1.0 / r)))


@dataclass(frozen=True)
class ReferenceStatistic:
    mean: float
    stderr: float
    count: int


def reference_ratio_statistic(kind: str, rng: np.random.Generator | None = None) -> ReferenceStatistic:
    """Monte Carlo reference for the mean min gap ratio.

    kind="poisson" draws one long i.i.d. level sequence; kind="gue"
    pools full spectrum ratios of many complex Hermitian Gaussian
    matrices.  Returns mean, standard error and the ratio count.  At the
    default generator the result is REFERENCES[kind].
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if kind == "poisson":
        r = gap_ratios(rng.random(POISSON_LEVELS)).ratios
    elif kind == "gue":
        pools = []
        for _ in range(GUE_SAMPLES):
            a = rng.normal(size=(GUE_SIZE, GUE_SIZE)) + 1j * rng.normal(size=(GUE_SIZE, GUE_SIZE))
            pools.append(gap_ratios(np.linalg.eigvalsh((a + a.conj().T) / 2.0)).ratios)
        r = np.concatenate(pools)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    vals = np.minimum(r, 1.0 / r)
    return ReferenceStatistic(float(np.mean(vals)), float(np.std(vals) / np.sqrt(vals.size)), int(vals.size))


# reference_ratio_statistic(kind) at its default generator, default_rng(0),
# stored so that a run need not redraw it; a test recomputes each bit for bit
REFERENCES = {
    "gue": ReferenceStatistic(0.6004054239669983, 0.001465638475729954, 24800),
    "poisson": ReferenceStatistic(0.3862974398965389, 0.00027963448917550757, 999998),
}


def sff(eigenvalues: np.ndarray, beta: float, times: np.ndarray) -> np.ndarray:
    """Exact spectral form factor |Z(beta + it)|^2 of one spectrum.

    Parameters
    ----------
    eigenvalues : ndarray
        The levels entering Z; pass the combined spectrum for the full
        system or one sector for a nondegenerate spectrum.
    beta : float
    times : ndarray

    Returns
    -------
    ndarray of float, same shape as times.
    """
    e = np.asarray(eigenvalues, dtype=float)
    t = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(t.size)
    weights = np.exp(-beta * e)
    chunk = max(1, (1 << 22) // max(e.size, 1))
    for k in range(0, t.size, chunk):
        phases = np.exp(-1j * np.outer(e, t[k : k + chunk]))
        z = weights @ phases
        out[k : k + chunk] = np.abs(z) ** 2
    return out.reshape(np.shape(times))


def sff_long_time_average(eigenvalues: np.ndarray, beta: float, t1: float, t2: float) -> float:
    """Exact mean of the SFF over [t1, t2] via closed form integration.

    For a nondegenerate spectrum and t2 >> t1 >> 1/(min gap) this
    converges to Z(2 beta).
    """
    if not t2 > t1:
        raise ValueError("need t2 > t1")
    e = np.asarray(eigenvalues, dtype=float)
    w = np.exp(-beta * e)
    omega = e[:, None] - e[None, :]
    span = t2 - t1
    kernel = np.ones_like(omega)
    nz = omega != 0.0
    kernel[nz] = ((np.exp(1j * omega[nz] * t2) - np.exp(1j * omega[nz] * t1)) / (1j * omega[nz] * span)).real
    return float(w @ kernel @ w)


@dataclass(frozen=True)
class MeanDensity:
    """Normalized histogram model of the mean spectral density.

    density integrates to one over the edges; transforms integrate the
    piecewise constant histogram in closed form.
    """

    edges: np.ndarray
    density: np.ndarray

    @classmethod
    def from_samples(cls, values: np.ndarray, bins: int = 64) -> "MeanDensity":
        density, edges = np.histogram(np.asarray(values, dtype=float), bins=bins, density=True)
        return cls(edges, density)

    @property
    def norm(self) -> float:
        return float(np.sum(self.density * np.diff(self.edges)))

    def require_normalized(self):
        if abs(self.norm - 1.0) > NORM_TOL:
            raise ValueError(f"density integrates to {self.norm:.6f}, not 1")

    def transform(self, w) -> np.ndarray:
        """integral rho(E) exp(-w E) dE for complex w, exact per bin."""
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        lo, hi = self.edges[:-1], self.edges[1:]
        out = np.empty(w.shape, dtype=complex)
        small = np.abs(w) * (self.edges[-1] - self.edges[0]) < 1e-12
        if np.any(small):
            out[small] = np.sum(self.density * (hi - lo))
        big = ~small
        if np.any(big):
            wb = w[big][:, None]
            segments = (np.exp(-wb * lo[None, :]) - np.exp(-wb * hi[None, :])) / wb
            out[big] = segments @ self.density
        return out


def sff_poisson_average(
    density: MeanDensity, beta: float, times: np.ndarray, levels: int
) -> np.ndarray:
    """Ensemble averaged SFF of levels i.i.d. from the mean density.

    Disconnected part |Zbar(beta - it)|^2 from the transform of the
    density plus the constant plateau Zbar(2 beta).

    Raises
    ------
    ValueError
        If the density is not normalized (checked to NORM_TOL).
    """
    density.require_normalized()
    t = np.asarray(times, dtype=float)
    zbar = levels * density.transform(beta - 1j * t)
    plateau = levels * float(density.transform(2.0 * beta).real[0])
    return (np.abs(zbar) ** 2 + plateau).reshape(np.shape(times))


@dataclass(frozen=True)
class MomentTerm:
    """One partition term of a Poisson ensemble density moment.

    Indices sharing a block are constrained to equal energy (the delta
    factors); the weight is the exact index counting fraction.
    """

    blocks: tuple[tuple[int, ...], ...]
    weight: Fraction


def set_partitions(items: tuple):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + ((first,) + part[k],) + part[k + 1 :]
        yield ((first,),) + part


def poisson_moment(n: int, n_levels: int) -> list[MomentTerm]:
    """Partition expansion of the n point density moment, n <= 4.

    For levels i.i.d. from rho-bar, the ensemble average of
    rho(E_1)...rho(E_n) splits over set partitions; a partition with r
    blocks carries weight N(N-1)...(N-r+1)/N^n and one rho-bar factor
    per block with delta constraints inside each block.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"moment order must be in 1..4, got {n}")
    if n_levels < 1:
        raise ValueError(f"need a positive level count, got {n_levels}")
    terms = []
    for part in set_partitions(tuple(range(n))):
        blocks = tuple(tuple(sorted(b)) for b in part)
        blocks = tuple(sorted(blocks))
        r = len(blocks)
        falling = Fraction(1)
        for k in range(r):
            falling *= n_levels - k
        terms.append(MomentTerm(blocks, falling / Fraction(n_levels) ** n))
    return sorted(terms, key=lambda t: (len(t.blocks), t.blocks))
