import importlib.util
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from syklab import cli, exports, metropolis
from syklab.cli import build_parser, main
from syklab.correlators import fermion_block
from syklab.ensemble import EnsembleParams, sample_couplings
from syklab.exports import read_coefficients, read_config, read_table

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = "step,beta_D,f,sigma,accept_rate"


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_sample_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    argv = ["sample", "--n", "8", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    first = _snapshot(out)
    assert main(argv) == 0
    assert _snapshot(out) == first
    spectrum = read_table(out / "spectrum.csv", "sector,index,eigenvalue")
    assert len(spectrum) == 2 ** 4
    couplings = read_coefficients(out / "coefficients.csv")
    assert np.array_equal(couplings.values, sample_couplings(EnsembleParams(n=8, seed=1), 0).values)


def test_cli_import_leaves_scipy_stats_out():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, syklab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sample_rejects_odd_n(tmp_path):
    assert main(["sample", "--n", "7", "--seed", "1", "--out", str(tmp_path / "x")]) == 2


def test_large_gate_blocks_expensive_sizes(tmp_path):
    assert main(["sample", "--n", "22", "--seed", "1", "--out", str(tmp_path / "x")]) == 2


def test_missing_out_is_usage_error():
    assert main(["sample", "--n", "8", "--seed", "1"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=8\nseed=7\nmember=0\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sample", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b), "--seed", "9"]) == 0
    a = read_coefficients(out_a / "coefficients.csv")
    b = read_coefficients(out_b / "coefficients.csv")
    assert not np.array_equal(a.values, b.values)
    assert read_config(out_b / "run.cfg")["seed"] == "9"


@pytest.mark.parametrize("command, line, key", [
    ("sample", "jobs=2", "jobs"),  # an option no command takes any more, as older run.cfg files hold
    ("sample", "pool_members=4", "pool_members"),  # an option of another command
    ("sample", "large=1", "large"),
    ("sample", "n=abc", "n"),
    ("metropolis", "per_sector=maybe", "per_sector"),
])
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, command, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=7\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--n", "8", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config key {key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=8\nn=10\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"usage error: {cfg}:2: key 'n' is set more than once" in capsys.readouterr().err
    assert not out.exists()


# one tiny run per subcommand, moving most options off their defaults
ROUND_TRIP = {
    "sample": ["--j-scale", "0.5", "--seed", "3", "--member", "2"],
    "poissonize": ["--samples", "2", "--pool-members", "4", "--pool-start", "10", "--bins", "6"],
    "correlators": ["--member", "1", "--betas", "0,1", "--t-max", "5.5", "--t-points", "16",
                    "--otoc-pair", "0,3", "--two-point", "1", "--draw-stream", "3", "--pool-members", "4",
                    "--pool-start", "7"],
    "decompose": ["--member", "1", "--draw-stream", "2", "--pool-members", "4", "--trend-n", "8",
                  "--trend-samples", "2", "--size-cut", "2"],
    "metropolis": ["--member", "1", "--chain-stream", "5", "--sigma0", "0.01", "--stages", "0.5:100",
                   "--window", "20", "--checkpoint-every", "50", "--per-sector"],
    "gram": ["--member", "1", "--beta", "0.5", "--t1", "2.5", "--omega", "4", "--threshold", "1e-6",
             "--draw-stream", "1", "--pool-members", "4", "--moment-draws", "2"],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_run_cfg_round_trips_through_config(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--n", "8", *ROUND_TRIP[command], "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "run.cfg"), "--out", str(second)]) == 0
    a, b = _snapshot(first), _snapshot(second)
    assert a.keys() == b.keys()
    # the manifest lists every file of the run, and nothing else is left behind
    assert a.keys() == json.loads(a["manifest.json"])["files"].keys() | {"manifest.json"}
    for name in a.keys() - {"run.cfg", "manifest.json"}:
        assert a[name] == b[name], name
    cfg_a, cfg_b = read_config(first / "run.cfg"), read_config(second / "run.cfg")
    assert list(cfg_a) == list(cfg_b)
    assert {k: v for k, v in cfg_a.items() if k != "out"} == {k: v for k, v in cfg_b.items() if k != "out"}


def test_benchmark_command_lines_parse():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    parser = build_parser()
    commands = [argv for w in workloads.WORKLOADS.values() for argv in w.commands]
    assert len(commands) == 5
    for argv in commands:
        # the benchmark appends --seed and --out to every call
        args = parser.parse_args([*argv, "--seed", "42", "--out", "x"])
        assert args.command == argv[0]


def _readme_commands() -> list[list[str]]:
    """Every `syklab ...` command of README's Command line block, as argv after `syklab`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if "syklab" in words:
            commands.append(words[words.index("syklab") + 1:])
    return commands


def test_readme_command_lines_parse_and_the_n12_example_runs(tmp_path):
    commands = _readme_commands()
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        try:
            assert parser.parse_args(argv).command == argv[0]
        except SystemExit:
            pytest.fail(f"README command does not parse: syklab {shlex.join(argv)}")
    # n = 12 sectors are Kramers-degenerate; the example must still find gap ratios
    argv = next(a for a in commands if a[:3] == ["poissonize", "--n", "12"])
    argv[argv.index("--out") + 1] = str(tmp_path / "poiss")
    assert main(argv) == 0


def test_traced_benchmark_runner_installs_its_spans(tmp_path):
    # perfbench/spans.py rebinds syklab functions by name and raises when one is gone
    def traced(argv, run_id):
        result = tmp_path / f"{run_id}.json"
        argv = [*argv, "--n", "8", "--pool-members", "4", "--seed", "42", "--out", str(tmp_path / run_id)]
        spec = {"root": str(ROOT), "argv": argv, "trace": True, "run_id": run_id, "result": str(result)}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "runner.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(result.read_text())["trace"]

    functions = traced(["poissonize", "--samples", "2"], "poissonize")["functions"]
    assert functions["poissonize.poissonize"]["calls"] == 2
    # every table, the 2^n-row expansion included, goes through the one traced writer
    trace = traced(["decompose", "--trend-n", "8", "--trend-samples", "2"], "decompose")
    assert trace["functions"]["exports.write_table"]["calls"] == 5
    assert trace["functions"]["decompose.majorana_coefficients"]["calls"] == 3
    written = sum(p.stat().st_size for p in (tmp_path / "decompose").iterdir())
    assert trace["counters"]["exports.bytes_written"] == written


@pytest.mark.parametrize("argv, flag", [
    (["metropolis", "--stages", "0.5"], "--stages"),
    (["metropolis", "--stages", "0.5:100,1.0:-5"], "--stages"),
    (["correlators", "--pool-members", "4", "--otoc-pair", "1"], "--otoc-pair"),
    (["correlators", "--pool-members", "4", "--otoc-pair", "2,2"], "--otoc-pair"),
    (["correlators", "--pool-members", "4", "--two-point", "99"], "--two-point"),
    (["correlators", "--pool-members", "4", "--betas", "0,-1"], "--betas"),
    (["decompose", "--pool-members", "4", "--trend-n", "8,9"], "--trend-n"),
    (["decompose", "--pool-members", "4", "--trend-n", "8,ten"], "--trend-n"),
    (["decompose", "--pool-members", "4", "--trend-n", "8,22"], "--trend-n"),
    (["decompose", "--pool-members", "4", "--size-cut", "-6"], "--size-cut"),
    (["decompose", "--pool-members", "4", "--trend-n", "8", "--trend-samples", "0"], "--trend-samples"),
    (["metropolis", "--checkpoint-every", "0"], "--checkpoint-every"),
    (["metropolis", "--window", "0"], "--window"),
    (["correlators", "--pool-members", "4", "--t-points", "0"], "--t-points"),
    (["poissonize", "--pool-members", "4", "--samples", "0"], "--samples"),
    (["poissonize", "--pool-members", "4", "--bins", "0"], "--bins"),
    (["sample", "--member", "-1"], "--member"),
    (["gram", "--pool-members", "4", "--omega", "-3"], "--omega"),
    (["poissonize", "--pool-members", "0"], "--pool-members"),
    (["correlators", "--pool-members", "4", "--t-max", "-5"], "--t-max"),
    (["gram", "--pool-members", "4", "--t1", "0"], "--t1"),
    (["metropolis", "--sigma0", "0"], "--sigma0"),
    (["gram", "--pool-members", "4", "--beta", "-1"], "--beta"),
    (["gram", "--pool-members", "4", "--threshold", "-1"], "--threshold"),
    (["gram", "--pool-members", "4", "--threshold", "nan"], "--threshold"),
    (["correlators", "--pool-members", "4", "--betas", "1,1"], "--betas"),
    (["correlators", "--pool-members", "4", "--two-point", "3,3"], "--two-point"),
    (["decompose", "--pool-members", "4", "--trend-n", "8,8"], "--trend-n"),
    (["gram", "--pool-members", "4", "--omega", "1", "--moment-draws", "2"], "--moment-draws"),
    # --coefficients draws no pool: pool options beside it are refused before its file is read
    (["correlators", "--coefficients", "c.csv", "--pool-members", "999999"], "--pool-members"),
    (["correlators", "--coefficients", "c.csv", "--draw-stream", "5"], "--draw-stream"),
    (["metropolis", "--stages", "nan:10"], "--stages"),
    (["correlators", "--pool-members", "4", "--betas", "0,inf"], "--betas"),
])
def test_bad_option_values_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main([*argv, "--n", "8", "--seed", "1", "--out", str(out)]) == 2
    assert f"usage error: {flag} " in capsys.readouterr().err
    assert not out.exists()


NUMERIC_OPTIONS = [
    (command, name)
    for command, spec in cli.COMMANDS.items()
    for name in spec.options
    if cli.OPTIONS[name][0] in (int, float)
]


@pytest.mark.parametrize("command, name", NUMERIC_OPTIONS, ids=[f"{c}-{n}" for c, n in NUMERIC_OPTIONS])
def test_every_numeric_option_rejects_minus_one(tmp_path, command, name):
    # and the non-finite floats, which an integer option cannot parse
    out = tmp_path / "out"
    for value in ("-1", "inf", "nan"):
        assert main([command, "--" + name.replace("_", "-"), value, "--out", str(out)]) == 2, value
        assert not out.exists()


def test_poissonize_row_counts(tmp_path):
    out = tmp_path / "run"
    assert main([
        "poissonize", "--n", "8", "--seed", "7", "--samples", "3",
        "--pool-members", "5", "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "pool.csv" in manifest["files"]
    pool_rows = (out / "pool.csv").read_text().splitlines()
    assert len(pool_rows) == 1 + 5 * 16
    hist = (out / "ratio_hist_original.csv").read_text().splitlines()
    assert hist[0] == "r,density"
    assert len(hist) == 1 + 24


def test_correlators_against_own_coefficients_is_flat(tmp_path):
    base = tmp_path / "base"
    assert main(["sample", "--n", "8", "--seed", "3", "--out", str(base)]) == 0
    out = tmp_path / "run"
    assert main([
        "correlators", "--n", "8", "--seed", "3", "--member", "0",
        "--coefficients", str(base / "coefficients.csv"),
        "--t-points", "32", "--betas", "0,2", "--out", str(out),
    ]) == 0
    lines = (out / "deviation.csv").read_text().splitlines()
    assert lines[0] == "series,beta,max_deviation"
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-12
    rows = read_table(out / "otoc_original.csv", "beta,t,re,im")
    _, t, re, im = next(row for row in rows if float(row[0]) == 0.0)
    assert float(t) == 0.0
    assert complex(float(re), float(im)) == pytest.approx(-1.0, abs=1e-10)
    # no pool is drawn, so run.cfg names none, and it repeats the run
    cfg = read_config(out / "run.cfg")
    assert not cfg.keys() & {"pool_members", "pool_start", "draw_stream"}
    again = tmp_path / "again"
    assert main(["correlators", "--config", str(out / "run.cfg"), "--out", str(again)]) == 0
    assert (again / "otoc_modified.csv").read_bytes() == (out / "otoc_modified.csv").read_bytes()
    # a pool option from a config file is refused beside --coefficients, as a flag is
    (tmp_path / "pool.cfg").write_text(f"{(out / 'run.cfg').read_text()}pool_members=4\n")
    refused = tmp_path / "refused"
    assert main(["correlators", "--config", str(tmp_path / "pool.cfg"), "--out", str(refused)]) == 2
    assert not refused.exists()


def test_correlators_poissonized_reports_deviation(tmp_path):
    out = tmp_path / "run"
    assert main([
        "correlators", "--n", "8", "--seed", "7", "--pool-members", "6",
        "--t-points", "32", "--betas", "1", "--out", str(out),
    ]) == 0
    lines = (out / "deviation.csv").read_text().splitlines()
    assert len(lines) == 2
    assert (out / "otoc_poissonized.csv").exists()


@pytest.mark.parametrize("two_point", ["all", "2,5"])
def test_correlators_rotate_each_fermion_once_per_side(tmp_path, monkeypatch, two_point):
    rotated = []

    def counted(spectra, i):
        rotated.append(i)
        return fermion_block(spectra, i)

    monkeypatch.setattr(cli, "fermion_block", counted)
    assert main([
        "correlators", "--n", "8", "--seed", "7", "--pool-members", "6", "--t-points", "16",
        "--betas", "0,1,2,3", "--otoc-pair", "1,2", "--two-point", two_point, "--out", str(tmp_path / "run"),
    ]) == 0
    fermions = {1, 2} | (set(range(8)) if two_point == "all" else {2, 5})
    assert set(rotated) == fermions
    assert len(rotated) <= 2 * len(fermions)


def test_decompose_syk_draw_is_local(tmp_path):
    out = tmp_path / "run"
    assert main([
        "decompose", "--n", "8", "--seed", "7", "--pool-members", "4", "--out", str(out),
    ]) == 0
    stats = dict(
        line.split(",") for line in (out / "stats.csv").read_text().splitlines()[1:]
    )
    assert float(stats["nonlocal_fraction_original"]) < 1e-9
    assert float(stats["nonlocal_fraction_poissonized"]) > 0.01
    rows = (out / "size_spectrum_original.csv").read_text().splitlines()[1:]
    shares = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert shares[4] > 0.999999


def test_decompose_trend_table(tmp_path):
    out = tmp_path / "run"
    assert main([
        "decompose", "--n", "8", "--seed", "7", "--pool-members", "4",
        "--trend-n", "8,10", "--trend-samples", "2", "--out", str(out),
    ]) == 0
    rows = (out / "trend.csv").read_text().splitlines()
    assert rows[0] == "n,samples,mean_fraction,ratio_to_prev,geometric_ref"
    assert len(rows) == 3


def test_metropolis_zero_stages_outputs_the_draw(tmp_path):
    out = tmp_path / "run"
    assert main([
        "metropolis", "--n", "8", "--seed", "5", "--stages", "", "--out", str(out),
    ]) == 0
    got = read_coefficients(out / "coefficients.csv")
    draw = sample_couplings(EnsembleParams(n=8, seed=5), 0)
    assert np.array_equal(got.values, draw.values)
    stats = dict(
        line.split(",") for line in (out / "stats.csv").read_text().splitlines()[1:]
    )
    assert float(stats["ks_distance"]) == 0.0
    assert float(stats["trace_drift"]) == 0.0


def test_metropolis_checkpoint_resume_matches_uninterrupted(tmp_path):
    full = tmp_path / "full"
    argv = [
        "metropolis", "--n", "8", "--seed", "5", "--stages", "0.5:250",
        "--window", "50", "--checkpoint-every", "100", "--out", str(full),
    ]
    assert main(argv) == 0
    resumed = tmp_path / "resumed"
    assert main([
        "metropolis", "--n", "8", "--seed", "5", "--stages", "0.5:250",
        "--window", "50", "--checkpoint-every", "100",
        "--resume", str(full / "checkpoint.json"), "--out", str(resumed),
    ]) == 0
    a = read_coefficients(full / "coefficients.csv")
    b = read_coefficients(resumed / "coefficients.csv")
    assert np.array_equal(a.values, b.values)
    # rolling checkpoint sits at step 200; the resumed trajectory is the tail
    tail = read_table(resumed / "trajectory.csv", TRAJECTORY)
    whole = read_table(full / "trajectory.csv", TRAJECTORY)
    assert len(tail) == 1
    assert tail == whole[-1:]


def test_checkpoint_survives_a_failed_write(tmp_path, monkeypatch, capsys):
    argv = [
        "metropolis", "--n", "8", "--seed", "5", "--stages", "0.5:250",
        "--window", "50", "--checkpoint-every", "100",
    ]
    full = tmp_path / "full"
    assert main(argv + ["--out", str(full)]) == 0
    crashed = tmp_path / "crashed"
    real_dump = json.dump
    calls = []

    def dump_dies_on_second_checkpoint(obj, fp, **kwargs):
        calls.append(obj)
        if len(calls) == 2:
            fp.write('{"version": 1, "n": 8, "seed"')
            raise OSError("disk full")
        real_dump(obj, fp, **kwargs)

    monkeypatch.setattr(exports.json, "dump", dump_dies_on_second_checkpoint)
    capsys.readouterr()
    assert main(argv + ["--out", str(crashed)]) == 4
    err = capsys.readouterr().err
    assert "I/O error: checkpoint write failed at step 200; last durable checkpoint: step 100" in err
    assert "Traceback" not in err
    monkeypatch.undo()
    assert sorted(p.name for p in crashed.iterdir()) == ["checkpoint.json"]
    assert json.loads((crashed / "checkpoint.json").read_text())["global_step"] == 100
    resumed = tmp_path / "resumed"
    assert main(argv + ["--resume", str(crashed / "checkpoint.json"), "--out", str(resumed)]) == 0
    a = read_coefficients(full / "coefficients.csv")
    b = read_coefficients(resumed / "coefficients.csv")
    assert np.array_equal(a.values, b.values)
    tail = read_table(resumed / "trajectory.csv", TRAJECTORY)
    assert tail == read_table(full / "trajectory.csv", TRAJECTORY)[-3:]


CHAIN = ["metropolis", "--n", "8", "--seed", "5", "--stages", "0.5:250",
         "--window", "50", "--checkpoint-every", "100"]


def test_the_manifest_lists_only_a_checkpoint_this_run_wrote(tmp_path):
    out = tmp_path / "run"
    argv = ["metropolis", "--n", "8", "--stages", "0.5:200", "--window", "50", "--out", str(out)]
    assert main(argv + ["--seed", "42", "--checkpoint-every", "100"]) == 0
    stale = (out / "checkpoint.json").read_bytes()
    assert "checkpoint.json" in json.loads((out / "manifest.json").read_text())["files"]
    # a rerun that checkpoints no step leaves the earlier chain's file, unlisted
    assert main(argv + ["--seed", "7", "--checkpoint-every", "1000"]) == 0
    assert "checkpoint.json" not in json.loads((out / "manifest.json").read_text())["files"]
    assert (out / "checkpoint.json").read_bytes() == stale


# a child chain that dies by SIGKILL right after its second checkpoint is durable
KILL_AFTER_SECOND_CHECKPOINT = """
import os, signal, sys
from syklab import cli

real, done = cli.write_checkpoint, []

def write_then_die(path, payload):
    real(path, payload)
    done.append(path)
    if len(done) == 2:
        os.kill(os.getpid(), signal.SIGKILL)

cli.write_checkpoint = write_then_die
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_chain_killed_after_a_checkpoint_resumes_bit_exactly(tmp_path):
    argv = ["metropolis", "--n", "8", "--seed", "5", "--stages", "0.5:150,1.0:150",
            "--window", "30", "--checkpoint-every", "100"]
    full, killed, resumed = tmp_path / "full", tmp_path / "killed", tmp_path / "resumed"
    assert main(argv + ["--out", str(full)]) == 0
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", KILL_AFTER_SECOND_CHECKPOINT, *argv, "--out", str(killed)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stdout + proc.stderr
    assert sorted(p.name for p in killed.iterdir()) == ["checkpoint.json"]
    # step 200 lies inside the second stage and inside a step-size window
    checkpoint = json.loads((killed / "checkpoint.json").read_text())
    at = (checkpoint["global_step"], checkpoint["stage_step"], checkpoint["window_step"])
    assert at == (200, 50, 20)
    assert main(argv + ["--resume", str(killed / "checkpoint.json"), "--out", str(resumed)]) == 0
    for name in ("coefficients.csv", "spectrum_final.csv", "stats.csv"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes(), name
    whole = (full / "trajectory.csv").read_bytes().splitlines()
    tail = (resumed / "trajectory.csv").read_bytes().splitlines()
    assert tail == whole[:1] + whole[-4:]


# a checkpoint is given as its text, or as edits to the checkpoint of a CHAIN run
@pytest.mark.parametrize("checkpoint, flags, named", [
    ("{}", [], "'version'"),
    ('{"version": 1}', [], "checkpoint version is 1"),
    ('{"version": 1, "n": 8, "seed"', [], "checkpoint.json: not a readable checkpoint"),
    ("[8, 42]", [], "checkpoint.json: not a readable checkpoint"),
    ({}, ["--member", "5", "--j-scale", "2", "--per-sector", "--stages", "0.5:250,1.0:100"], "j_scale"),
    ({}, ["--stages", "0.5:250,1.0:100"], "stages"),
    ({}, ["--per-sector"], "per_sector"),
    ({}, ["--window", "25"], "window"),
    ({"rng_state": 5}, [], "checkpoint rng_state is 5"),
    ({"global_step": None}, [], "checkpoint global_step is None"),
    ({"accept_count": [1]}, [], "checkpoint accept_count is [1]"),
    ({"couplings": [0.1, 0.2]}, [], "checkpoint couplings is [0.1, 0.2]"),
    ({"sigma": "x"}, [], "checkpoint sigma is 'x'"),
    # the step-200 checkpoint is at window_step 0 of stage 0
    ({"window_step": 25}, [], "checkpoint window_step is 25"),
    ({"stage_index": 1}, [], "checkpoint stage_index is 1"),
], ids=["empty", "older-version", "truncated", "not-an-object", "other-run", "longer-stages", "per-sector", "window",
        "rng-state", "global-step", "accept-count", "couplings", "sigma", "window-step", "stage-index"])
def test_metropolis_resume_rejects_a_bad_checkpoint(tmp_path, capsys, checkpoint, flags, named):
    path = tmp_path / "checkpoint.json"
    if isinstance(checkpoint, dict):
        assert main(CHAIN + ["--out", str(tmp_path / "first")]) == 0
        payload = json.loads((tmp_path / "first" / "checkpoint.json").read_text())
        path.write_text(json.dumps({**payload, **checkpoint}))
    else:
        path.write_text(checkpoint)
    capsys.readouterr()
    out = tmp_path / "resumed"
    assert main(CHAIN + flags + ["--resume", str(path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_metropolis_trace_drift_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # without the rescale every accepted move changes tr(H^2)
    monkeypatch.setattr(metropolis, "rescale_to_trace", lambda couplings, target: couplings)
    out = tmp_path / "run"
    assert main(CHAIN + ["--out", str(out)]) == 3
    assert "drifted" in capsys.readouterr().err
    assert {p.name for p in out.iterdir()} <= {"checkpoint.json"}


def test_gram_single_state_has_rank_one(tmp_path):
    out = tmp_path / "run"
    assert main([
        "gram", "--n", "8", "--seed", "7", "--pool-members", "4",
        "--omega", "1", "--out", str(out),
    ]) == 0
    report = dict(
        line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]
    )
    assert float(report["rank"]) == 1.0
    gram_rows = (out / "gram.csv").read_text().splitlines()
    assert len(gram_rows) == 2


# per command, a library call it makes after it has computed some of its tables
LATE_CALL = {
    "poissonize": "min_ratio_statistic", "correlators": "compare_series",
    "decompose": "nonlocal_fraction", "metropolis": "min_ratio_statistic", "gram": "gram_rank",
}


@pytest.mark.parametrize("command", sorted(LATE_CALL))
def test_a_failed_run_writes_no_output(tmp_path, monkeypatch, command):
    argv = [command, "--n", "8", *ROUND_TRIP[command]]
    complete = tmp_path / "complete"
    assert main([*argv, "--out", str(complete)]) == 0
    before = _snapshot(complete)

    def fail(*args, **kwargs):
        raise FloatingPointError("injected failure")

    monkeypatch.setattr(cli, LATE_CALL[command], fail)
    fresh = tmp_path / "fresh"
    assert main([*argv, "--out", str(fresh)]) == 3
    # only the checkpoint, written while the chain runs, outlives a failure
    assert {p.name for p in fresh.iterdir()} <= {"checkpoint.json"}
    # a failed rerun leaves a complete earlier run as it was
    assert main([*argv, "--out", str(complete)]) == 3
    assert _snapshot(complete) == before


def test_a_rerun_that_fails_while_writing_leaves_no_manifest(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["sample", "--n", "8", "--seed", "1", "--out", str(out)]) == 0
    real_write = cli.write_table
    written = []

    def write_then_fail(path, table):
        written.append(path)
        if len(written) == 2:
            raise OSError("disk full")
        real_write(path, table)

    monkeypatch.setattr(cli, "write_table", write_then_fail)
    assert main(["sample", "--n", "8", "--seed", "2", "--out", str(out)]) == 4
    # the first table is the new run's, so the earlier manifest must not survive it
    assert not (out / "manifest.json").exists()


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["sample", "--n", "8", "--seed", "1", "--out", str(blocker / "sub")]) == 4


def test_coefficients_file_is_checked_before_the_run(tmp_path, capsys):
    base = tmp_path / "base"
    assert main(["sample", "--n", "8", "--seed", "3", "--out", str(base)]) == 0
    # one coupling of the C(8, 4) = 70 an n = 8 file must hold
    malformed = tmp_path / "coefficients.csv"
    malformed.write_text("i1,i2,i3,i4,value\n0,1,2,7,0.5\n")
    cases = [("10", base / "coefficients.csv", "n=8"), ("8", malformed, "want C(8,4)")]
    # the first row edited: indices out of order, a negative index, a value that is no number
    header, first, *rest = (base / "coefficients.csv").read_text().splitlines(keepends=True)
    value = first.rsplit(",", 1)[1]
    for name, row in (("swapped", f"1,0,2,3,{value}"), ("negative", f"-1,1,2,3,{value}"), ("nan", "0,1,2,3,nan\n")):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join([header, row, *rest]))
        cases.append(("8", path, f"bad row {row.strip().split(',')!r}"))
    # a second row for a subset the file already holds
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("".join([header, first, *rest, "0,1,2,3,99.0\n"]))
    cases.append(("8", repeated, "repeats the subset (0, 1, 2, 3)"))
    for n, path, reason in cases:
        capsys.readouterr()
        out = tmp_path / "run"
        argv = ["correlators", "--n", n, "--seed", "3", "--coefficients", str(path), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage error: --coefficients " in err and reason in err
        assert not out.exists()


def test_library_error_exit_code(tmp_path, capsys, monkeypatch):
    assert main(CHAIN + ["--out", str(tmp_path / "first")]) == 0
    checkpoint = tmp_path / "first" / "checkpoint.json"
    # the --resume check compares the run fields: a checkpoint of another seed is a usage error
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(CHAIN + ["--seed", "6", "--resume", str(checkpoint), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error: --resume " in err and "checkpoint seed is 5" in err
    assert not out.exists()
    # the check restores the whole chain state: a checkpoint without couplings is a usage error too
    payload = json.loads(checkpoint.read_text())
    del payload["couplings"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(payload))
    assert main(CHAIN + ["--resume", str(stripped), "--out", str(out)]) == 2
    assert "checkpoint has no 'couplings' field" in capsys.readouterr().err
    assert not out.exists()
    # a ValueError the library raises once the command runs is a numerical failure

    def fail(*args, **kwargs):
        raise ValueError("injected failure")

    monkeypatch.setattr(cli, "ks_distance", fail)
    assert main(CHAIN + ["--out", str(out)]) == 3
    assert "numerical failure: injected failure" in capsys.readouterr().err
