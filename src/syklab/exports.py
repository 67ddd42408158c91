"""Plain-text data exports and the one table reader.

A table is a pair (header, lines): the line naming its columns and the
lazily formatted lines of its rows.  `numeric_table` formats every table,
`write_table` writes every table file and `read_table` reads any of them
back.  Numbers get 17 significant digits, so that float() of a field read
back reproduces the in-memory double bit for bit.  Every file is written
to a temporary file, synced and renamed over its path, so a write that
dies part-way leaves the previous file intact.
"""

import hashlib
import json
import os
from contextlib import suppress
from itertools import combinations
from math import comb, isfinite

import numpy as np

from .decompose import FermionExpansion
from .ensemble import CouplingTensor, coupling_subsets
from .pauli import SECTORS


def _replace(path, write) -> None:
    """Let write(f) fill a temporary file, sync it and rename it over path.

    A stale temporary file is overwritten.  If opening it fails, nothing is
    cleaned up, since whatever sits at that name is not this write's.
    """
    tmp = f"{path}.tmp"
    f = open(tmp, "w")
    try:
        with f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_table(path, table) -> None:
    """Write a (header, lines) table: the header line, then the row lines."""
    header, lines = table

    def write(f):
        f.write(header + "\n")
        f.writelines(lines)

    _replace(path, write)


def read_table(path, header: str) -> list[list[str]]:
    """The text fields of every row of a table file whose first line is header."""
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: expected header {header!r}, got {first!r}")
        return [line.rstrip("\n").split(",") for line in f if line.strip()]


def numeric_table(header: str, rows):
    """The table of row tuples whose fields are text or numbers.

    Each column holds text in every row or numbers in every row; the first
    row tells which.  Numbers get 17 significant digits.
    """
    return header, _lines(iter(rows))


def _lines(rows):
    for first in rows:
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
        yield line % first
        yield from map(line.__mod__, rows)


def coefficients_table(couplings: CouplingTensor):
    """One row per 4-subset in lexicographic order."""
    rows = zip(coupling_subsets(couplings.n), couplings.values.tolist())
    return numeric_table("i1,i2,i3,i4,value", ((*subset, v) for subset, v in rows))


def read_coefficients(path) -> CouplingTensor:
    """Rows may come in any order; n is inferred from the index range.

    Each row holds four strictly ascending nonnegative indices and a finite
    value, and names a subset no other row names; a ValueError names the
    first row that does not.
    """
    rows = read_table(path, "i1,i2,i3,i4,value")
    if not rows:
        raise ValueError(f"{path}: no coefficient rows")
    entries = {}
    top = 0
    for row in rows:
        if len(row) != 5:
            raise ValueError(f"{path}: bad row {row!r}")
        subset, value = tuple(int(i) for i in row[:4]), float(row[4])
        if not (0 <= subset[0] < subset[1] < subset[2] < subset[3] and isfinite(value)):
            raise ValueError(
                f"{path}: bad row {row!r}: want strictly ascending nonnegative indices and a finite value"
            )
        if subset in entries:
            raise ValueError(f"{path}: bad row {row!r}: repeats the subset {subset}")
        entries[subset] = value
        top = max(top, subset[3])
    n = top + 1
    if len(entries) != comb(n, 4):
        raise ValueError(f"{path}: {len(entries)} distinct subsets, want C({n},4)")
    values = np.array([entries[s] for s in coupling_subsets(n)])
    return CouplingTensor(n, values)


def spectrum_table(spectra):
    rows = ((tag, i, e) for tag, s in zip(SECTORS, spectra) for i, e in enumerate(s.eigenvalues.tolist()))
    return numeric_table("sector,index,eigenvalue", rows)


def series_table(series):
    """One file holds any number of series; rows group by beta."""
    rows = (
        (s.beta, t, v.real, v.imag)
        for s in series
        for t, v in zip(s.times.tolist(), s.values.tolist())
    )
    return numeric_table("beta,t,re,im", rows)


def gram_table(matrix):
    # one matrix row at a time: Python numbers for every entry would raise the peak RSS
    rows = (
        (j, k, v.real, v.imag)
        for j, row in enumerate(np.asarray(matrix))
        for k, v in enumerate(row.tolist())
    )
    return numeric_table("j,k,re,im", rows)


def pool_table(pool):
    rows = ((tag, e) for tag, values in zip(SECTORS, pool) for e in values.tolist())
    return numeric_table("sector,eigenvalue", rows)


def expansion_table(expansion: FermionExpansion):
    """Nonzero coefficients by monomial size, then by lexicographic indices.

    Indices are dash-separated and ascending; the identity row has empty
    indices.  The row order is worked out only when the rows are read.
    """
    return numeric_table("indices,value", _expansion_rows(expansion))


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
        subsets = combinations([str(i) for i in range(n)], size)
        yield from (("-".join(idx), v) for idx, v in zip(subsets, block) if v != 0.0)


def trajectory_table(rows):
    out = ((r.step, r.beta_d, r.objective, r.sigma, r.accept_rate) for r in rows)
    return numeric_table("step,beta_D,f,sigma,accept_rate", out)


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


def read_config(path) -> dict[str, str]:
    """key=value lines, each key once; blank lines and # comments are skipped."""
    out = {}
    with open(path) as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{line_no}: key {key!r} is set more than once")
            out[key] = value.strip()
    return out


def write_config(path, mapping: dict) -> None:
    _replace(path, lambda f: f.writelines(f"{key}={value}\n" for key, value in mapping.items()))
