import json

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
    read_expansion,
    read_gram,
    read_manifest,
    read_pool,
    read_series,
    read_spectrum,
    read_trajectory,
    series_table,
    spectrum_table,
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


def test_spectrum_round_trip(tmp_path):
    spectra = diagonalize(build_hamiltonian(sample_couplings(PARAMS, 0)), need_vectors=False)
    path = tmp_path / "spectrum.csv"
    write_table(path, spectrum_table(spectra))
    back = read_spectrum(path)
    assert list(back) == ["even", "odd"]
    for s in spectra:
        assert np.array_equal(back[s.sector], s.eigenvalues)


def test_series_round_trip_groups_by_beta(tmp_path):
    times = np.linspace(0.0, 5.0, 16)
    rng = np.random.default_rng(5)
    series = tuple(
        CorrelatorSeries(beta=b, times=times, values=rng.normal(size=16) + 1j * rng.normal(size=16))
        for b in (0.0, 2.0)
    )
    path = tmp_path / "series.csv"
    write_table(path, series_table(series))
    back = read_series(path)
    assert [s.beta for s in back] == [0.0, 2.0]
    for orig, got in zip(series, back):
        assert np.array_equal(got.times, orig.times)
        assert np.array_equal(got.values, orig.values)


def test_gram_round_trip(tmp_path):
    spectra = diagonalize(build_hamiltonian(sample_couplings(PARAMS, 0)), need_vectors=False)
    gram = tfd_gram(spectra, beta=1.0, t1=7.0, omega=6)
    path = tmp_path / "gram.csv"
    write_table(path, gram_table(gram))
    assert np.array_equal(read_gram(path), gram)
    path.write_text("j,k,re,im\n0,0,1,0\n0,1,0,0\n1,0,0,0\n")
    with pytest.raises(ValueError):
        read_gram(path)


def test_pool_round_trip(tmp_path):
    pool = build_pool(PARAMS, members=3)
    path = tmp_path / "pool.csv"
    write_table(path, pool_table(pool))
    back = read_pool(path)
    assert np.array_equal(back["even"], pool.even)
    assert np.array_equal(back["odd"], pool.odd)


def test_expansion_round_trip_and_quartic_slice(tmp_path):
    couplings = sample_couplings(EnsembleParams(n=6, seed=9), member=0)
    h = build_hamiltonian(couplings)
    expansion = majorana_coefficients(h, 6)
    path = tmp_path / "expansion.csv"
    write_table(path, expansion_table(expansion))
    back = read_expansion(path, n=6)
    assert np.array_equal(back.coefficients, expansion.coefficients)
    # rows run by monomial size, then lexicographically by indices
    rows = path.read_text().splitlines()[1:]
    keys = [tuple(int(i) for i in row.split(",")[0].split("-") if i) for row in rows]
    assert keys == sorted(keys, key=lambda k: (len(k), k))
    # k=4 rows mirror the coefficient file: H carries -J per quartic monomial
    coeff_path = tmp_path / "coefficients.csv"
    write_table(coeff_path, coefficients_table(couplings))
    tensor = read_coefficients(coeff_path)
    for idx, j in zip(coupling_subsets(tensor.n), tensor.values):
        assert back.coefficient(idx) == pytest.approx(-j, abs=1e-12)


def test_trajectory_round_trip(tmp_path):
    rows = (
        TrajectoryRow(step=100, beta_d=0.5, objective=12.5, sigma=0.001, accept_rate=0.99),
        TrajectoryRow(step=200, beta_d=0.5, objective=13.25, sigma=0.0011, accept_rate=0.42),
    )
    path = tmp_path / "trajectory.csv"
    write_table(path, trajectory_table(rows))
    assert read_trajectory(path) == rows


def test_a_failed_table_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "stats.csv"
    write_table(path, ("quantity,value", [("a", "1")]))
    before = path.read_bytes()

    def rows():
        yield "b", "2"
        raise FloatingPointError("row failed")

    with pytest.raises(FloatingPointError):
        write_table(path, ("quantity,value", rows()))
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
    manifest = read_manifest(path)
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
