import json
from itertools import combinations

import numpy as np
import pytest

from syklab.correlators import CorrelatorSeries, tfd_gram
from syklab.decompose import majorana_coefficients
from syklab.ensemble import EnsembleParams, build_hamiltonian, coupling_subsets, sample_couplings
from syklab.exports import (
    coefficients_table,
    expansion_table,
    gram_table,
    pool_table,
    read_checkpoint,
    read_coefficients,
    read_config,
    read_table,
    series_table,
    spectrum_table,
    stats_table,
    trajectory_table,
    write_checkpoint,
    write_config,
    write_manifest,
    write_table,
)
from syklab.metropolis import Schedule, TrajectoryRow, run_schedule
from syklab.poissonize import build_pool
from syklab.spectral import diagonalize


PARAMS = EnsembleParams(n=8, seed=3)


def test_coefficients_round_trip_is_exact(tmp_path):
    couplings = sample_couplings(PARAMS, member=0)
    path = tmp_path / "coefficients.csv"
    write_table(path, coefficients_table(couplings))
    back = read_coefficients(path)
    assert back.n == 8
    assert np.array_equal(back.values, couplings.values)


def test_coefficients_reader_accepts_shuffled_rows(tmp_path):
    couplings = sample_couplings(PARAMS, member=1)
    path = tmp_path / "coefficients.csv"
    write_table(path, coefficients_table(couplings))
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(0)
    body = [lines[1 + i] for i in rng.permutation(len(lines) - 1)]
    path.write_text("\n".join([lines[0]] + body) + "\n")
    assert np.array_equal(read_coefficients(path).values, couplings.values)


def test_coefficients_reader_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError):
        read_coefficients(path)
    path.write_text("i1,i2,i3,i4,value\n0,1,2,3,0.5\n")
    # one row cannot cover all subsets of range(4) ... it can: C(4,4)=1
    assert read_coefficients(path).n == 4
    path.write_text("i1,i2,i3,i4,value\n0,1,2,5,0.5\n")
    with pytest.raises(ValueError):
        read_coefficients(path)


def _coefficients():
    couplings = sample_couplings(PARAMS, member=0)
    rows = [(*subset, v) for subset, v in zip(coupling_subsets(8), couplings.values)]
    return coefficients_table(couplings), rows


def _spectrum():
    spectra = diagonalize(build_hamiltonian(sample_couplings(PARAMS, 0)), need_vectors=False)
    rows = [(s.sector, i, e) for s in spectra for i, e in enumerate(s.eigenvalues)]
    return spectrum_table(spectra), rows


def _series():
    times = np.linspace(0.0, 5.0, 16)
    rng = np.random.default_rng(5)
    series = [
        CorrelatorSeries(beta=b, times=times, values=rng.normal(size=16) + 1j * rng.normal(size=16))
        for b in (0.0, 2.0)
    ]
    rows = [(s.beta, t, v.real, v.imag) for s in series for t, v in zip(s.times, s.values)]
    return series_table(series), rows


def _gram():
    spectra = diagonalize(build_hamiltonian(sample_couplings(PARAMS, 0)), need_vectors=False)
    gram = tfd_gram(spectra, beta=1.0, t1=7.0, omega=6)
    rows = [(j, k, gram[j, k].real, gram[j, k].imag) for j in range(6) for k in range(6)]
    return gram_table(gram), rows


def _pool():
    pool = build_pool(PARAMS, members=3)
    rows = [(tag, e) for tag in ("even", "odd") for e in pool.sector(tag)]
    return pool_table(pool), rows


def _expansion():
    # a random Hermitian operator has a nonzero coefficient at every size
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    expansion = majorana_coefficients(a + a.conj().T, 6)
    # rows run by monomial size, then lexicographically by indices
    subsets = [idx for size in range(7) for idx in combinations(range(6), size)]
    rows = [("-".join(map(str, idx)), expansion.coefficient(idx)) for idx in subsets]
    return expansion_table(expansion), [row for row in rows if row[1] != 0.0]


def _trajectory():
    rows = [(100, 0.5, 12.5, 0.001, 0.99), (200, 0.5, 13.25, 0.0011, 0.42)]
    return trajectory_table([TrajectoryRow(*row) for row in rows]), rows


def _stats():
    rows = [("tiny", 1e-300), ("huge", -1e300), ("negative_zero", -0.0), ("third", 1.0 / 3.0), ("count", 7)]
    return stats_table(rows), rows


TABLES = {
    "coefficients": _coefficients, "spectrum": _spectrum, "series": _series, "gram": _gram,
    "pool": _pool, "expansion": _expansion, "trajectory": _trajectory, "stats": _stats,
}


@pytest.mark.parametrize("name", list(TABLES))
def test_every_table_reads_back_bit_exactly(tmp_path, name):
    table, rows = TABLES[name]()
    header = table[0]
    path = tmp_path / f"{name}.csv"
    write_table(path, table)
    back = read_table(path, header)
    assert len(back) == len(rows)
    for fields, row in zip(back, rows):
        assert len(fields) == len(row)
        for text, value in zip(fields, row):
            if isinstance(value, str):
                assert text == value
            else:
                assert float(text).hex() == float(value).hex()
    with pytest.raises(ValueError, match="expected header"):
        read_table(path, header + ",extra")


def test_expansion_round_trip_and_quartic_slice(tmp_path):
    couplings = sample_couplings(EnsembleParams(n=6, seed=9), member=0)
    expansion = majorana_coefficients(build_hamiltonian(couplings), 6)
    path = tmp_path / "expansion.csv"
    write_table(path, expansion_table(expansion))
    back = {idx: float(value) for idx, value in read_table(path, "indices,value")}
    # k=4 rows mirror the coefficient file: H carries -J per quartic monomial
    coeff_path = tmp_path / "coefficients.csv"
    write_table(coeff_path, coefficients_table(couplings))
    tensor = read_coefficients(coeff_path)
    for idx, j in zip(coupling_subsets(tensor.n), tensor.values):
        assert back["-".join(map(str, idx))] == pytest.approx(-j, abs=1e-12)


def test_a_failed_table_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "stats.csv"
    write_table(path, stats_table([("a", 1.0)]))
    before = path.read_bytes()

    def rows():
        yield "b", 2.0
        raise FloatingPointError("row failed")

    with pytest.raises(FloatingPointError):
        write_table(path, stats_table(rows()))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["stats.csv"]


def test_checkpoint_file_round_trip_preserves_replay(tmp_path):
    params = EnsembleParams(n=8, seed=17)
    schedule = Schedule(stages=((0.5, 200), (1.0, 200)))
    payloads = []
    full = run_schedule(params, schedule, np.random.default_rng(2), payloads.append, checkpoint_every=100)
    path = tmp_path / "checkpoint.json"
    write_checkpoint(path, payloads[2])
    resumed = run_schedule(params, schedule, np.random.default_rng(0), resume=read_checkpoint(path))
    assert np.array_equal(resumed.couplings.values, full.couplings.values)


def test_manifest_checksums_and_stability(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x\n1\n")
    b.write_text("y\n2\n")
    path = tmp_path / "manifest.json"
    write_manifest(path, {"n": 8, "seed": 3}, [b, a])
    first = path.read_bytes()
    manifest = json.loads(path.read_text())
    assert list(manifest["files"]) == ["a.csv", "b.csv"]
    assert manifest["params"] == {"n": 8, "seed": 3}
    for entry in manifest["files"].values():
        assert len(entry["sha256"]) == 64
        assert entry["bytes"] > 0
    write_manifest(path, {"n": 8, "seed": 3}, [a, b])
    assert path.read_bytes() == first
    assert "time" not in json.dumps(manifest).lower()


def test_config_parse_and_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn = 14\nseed=42\n\nbetas\n")
    with pytest.raises(ValueError):
        read_config(path)
    path.write_text("# comment\nn = 14\nseed=42\n\nbetas=0,1,2,3\n")
    cfg = read_config(path)
    assert cfg == {"n": "14", "seed": "42", "betas": "0,1,2,3"}
    out = tmp_path / "echo.cfg"
    write_config(out, cfg)
    assert read_config(out) == cfg


def test_float_extremes_round_trip(tmp_path):
    from syklab.ensemble import CouplingTensor

    values = np.zeros(15)
    values[0] = 1e-300
    values[1] = -1e300
    values[2] = np.pi
    values[3] = 2.0 / 3.0
    tensor = CouplingTensor(6, values)
    path = tmp_path / "coefficients.csv"
    write_table(path, coefficients_table(tensor))
    assert np.array_equal(read_coefficients(path).values, values)
