"""Plain-text data exports and their exact-round-trip readers.

A table is a pair (header, rows): the line naming its columns and lazy
rows of formatted fields.  `write_table` writes every table file.
Numbers get 17 significant digits so that reading a file back reproduces
the in-memory doubles bit for bit.  Every file is written to a temporary
file, synced and renamed over its path, so a write that dies part-way
leaves the previous file intact.
"""

import hashlib
import json
import os
from itertools import combinations
from math import comb

import numpy as np

from .correlators import CorrelatorSeries
from .decompose import FermionExpansion, flat_index
from .ensemble import CouplingTensor, coupling_subsets
from .metropolis import TrajectoryRow
from .poissonize import EigenvaluePool


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _replace(path, write) -> None:
    """Let write(f) fill a temporary file, sync it and rename it over path."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_table(path, table) -> None:
    """Write a (header, rows) table as comma-separated lines."""
    header, rows = table

    def write(f):
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")

    _replace(path, write)


def _read_table(path, header: str) -> list[list[str]]:
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: expected header {header!r}, got {first!r}")
        return [line.rstrip("\n").split(",") for line in f if line.strip()]


def coefficients_table(couplings: CouplingTensor):
    """One row per 4-subset in lexicographic order."""
    subsets = coupling_subsets(couplings.n)
    rows = (
        (str(a), str(b), str(c), str(d), _fmt(v))
        for (a, b, c, d), v in zip(subsets, couplings.values)
    )
    return "i1,i2,i3,i4,value", rows


def read_coefficients(path) -> CouplingTensor:
    """Rows may come in any order; n is inferred from the index range."""
    rows = _read_table(path, "i1,i2,i3,i4,value")
    if not rows:
        raise ValueError(f"{path}: no coefficient rows")
    entries = {}
    top = 0
    for row in rows:
        if len(row) != 5:
            raise ValueError(f"{path}: bad row {row!r}")
        subset = tuple(int(i) for i in row[:4])
        entries[subset] = float(row[4])
        top = max(top, subset[3])
    n = top + 1
    if len(entries) != comb(n, 4):
        raise ValueError(f"{path}: {len(entries)} distinct subsets, want C({n},4)")
    values = np.array([entries[s] for s in coupling_subsets(n)])
    return CouplingTensor(n, values)


def spectrum_table(spectra):
    rows = (
        (s.sector, str(i), _fmt(e))
        for s in spectra
        for i, e in enumerate(s.eigenvalues)
    )
    return "sector,index,eigenvalue", rows


def read_spectrum(path) -> dict[str, np.ndarray]:
    """Sector tag -> eigenvalue array, in file order."""
    out: dict[str, list[float]] = {}
    for sector, _, value in _read_table(path, "sector,index,eigenvalue"):
        out.setdefault(sector, []).append(float(value))
    return {tag: np.array(vals) for tag, vals in out.items()}


def series_table(series):
    """One file holds any number of series; rows group by beta."""
    rows = (
        (_fmt(s.beta), _fmt(t), _fmt(v.real), _fmt(v.imag))
        for s in series
        for t, v in zip(s.times, s.values)
    )
    return "beta,t,re,im", rows


def read_series(path) -> tuple[CorrelatorSeries, ...]:
    groups: dict[float, list[tuple[float, complex]]] = {}
    for b, t, re, im in _read_table(path, "beta,t,re,im"):
        groups.setdefault(float(b), []).append((float(t), complex(float(re), float(im))))
    out = []
    for beta, pts in groups.items():
        times = np.array([t for t, _ in pts])
        values = np.array([v for _, v in pts])
        out.append(CorrelatorSeries(beta=beta, times=times, values=values))
    return tuple(out)


def gram_table(matrix):
    matrix = np.asarray(matrix)
    rows = (
        (str(j), str(k), _fmt(matrix[j, k].real), _fmt(matrix[j, k].imag))
        for j in range(matrix.shape[0])
        for k in range(matrix.shape[1])
    )
    return "j,k,re,im", rows


def read_gram(path) -> np.ndarray:
    rows = _read_table(path, "j,k,re,im")
    dim = int(np.sqrt(len(rows)))
    if dim * dim != len(rows):
        raise ValueError(f"{path}: {len(rows)} rows is not a square matrix")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j, k, re, im in rows:
        out[int(j), int(k)] = complex(float(re), float(im))
    return out


def pool_table(pool: EigenvaluePool):
    rows = (
        (tag, _fmt(e))
        for tag in ("even", "odd")
        for e in pool.sector(tag)
    )
    return "sector,eigenvalue", rows


def read_pool(path) -> dict[str, np.ndarray]:
    out: dict[str, list[float]] = {}
    for sector, value in _read_table(path, "sector,eigenvalue"):
        out.setdefault(sector, []).append(float(value))
    return {tag: np.array(vals) for tag, vals in out.items()}


def expansion_table(expansion: FermionExpansion):
    """Nonzero coefficients by monomial size, then by lexicographic indices.

    Indices are dash-separated and ascending; the identity row has empty
    indices.  The row order is worked out only when the rows are read.
    """
    return "indices,value", _expansion_rows(expansion)


def _expansion_rows(expansion: FermionExpansion):
    n = expansion.n
    masks = np.arange(2**n)
    # same-size index tuples sort lexicographically as their bit-reversed masks sort descending
    reversed_masks = sum(((masks >> i) & 1) << (n - 1 - i) for i in range(n))
    order = np.lexsort((-reversed_masks, np.bitwise_count(masks)))
    values = expansion.coefficients[order]
    start = 0
    for size in range(n + 1):  # one size at a time: floats for all 2^n rows would raise the peak RSS
        block = values[start : start + comb(n, size)].tolist()
        start += len(block)
        subsets = combinations(range(n), size)
        yield from (("-".join(map(str, idx)), _fmt(v)) for idx, v in zip(subsets, block) if v != 0.0)


def read_expansion(path, n: int) -> FermionExpansion:
    coefficients = np.zeros(2**n)
    for idx, value in _read_table(path, "indices,value"):
        indices = (int(i) for i in idx.split("-")) if idx else ()
        coefficients[flat_index(indices, n)] = float(value)
    return FermionExpansion(n=n, coefficients=coefficients)


def trajectory_table(rows):
    out = (
        (str(r.step), _fmt(r.beta_d), _fmt(r.objective), _fmt(r.sigma), _fmt(r.accept_rate))
        for r in rows
    )
    return "step,beta_D,f,sigma,accept_rate", out


def read_trajectory(path) -> tuple[TrajectoryRow, ...]:
    return tuple(
        TrajectoryRow(
            step=int(step), beta_d=float(b), objective=float(f),
            sigma=float(s), accept_rate=float(a),
        )
        for step, b, f, s, a in _read_table(path, "step,beta_D,f,sigma,accept_rate")
    )


def numeric_table(header: str, rows):
    """A table of text and number fields; numbers get 17 significant digits."""
    return header, (tuple(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows)


def stats_table(rows):
    """(quantity name, value) pairs, one per row."""
    return numeric_table("quantity,value", rows)


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_json(path, payload, **options) -> None:
    def write(f):
        json.dump(payload, f, default=_json_default, indent=1, **options)
        f.write("\n")

    _replace(path, write)


def write_checkpoint(path, payload: dict) -> None:
    """Replace the checkpoint at path in one step; a failed write keeps the previous one."""
    _write_json(path, payload)


def read_checkpoint(path) -> dict:
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a readable checkpoint ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a readable checkpoint (no JSON object)")
    return payload


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, params: dict, file_paths) -> None:
    """Run manifest: parameters plus checksums, deliberately no timestamps."""
    files = {}
    for p in sorted(file_paths, key=lambda q: os.path.basename(str(q))):
        files[os.path.basename(str(p))] = {
            "sha256": sha256_of(p),
            "bytes": os.path.getsize(p),
        }
    _write_json(path, {"params": params, "files": files}, sort_keys=True)


def read_manifest(path) -> dict:
    with open(path) as f:
        return json.load(f)


def read_config(path) -> dict[str, str]:
    """key=value lines; blank lines and # comments are skipped."""
    out = {}
    with open(path) as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_config(path, mapping: dict) -> None:
    _replace(path, lambda f: f.writelines(f"{key}={value}\n" for key, value in mapping.items()))
