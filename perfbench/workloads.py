"""The benchmark's four workloads: CLI calls, output checks, exact call counts.

One iteration of a workload runs its CLI calls in order, each in a fresh
process; the benchmark appends `--seed <seed> --out <dir>` to every call.
`check` returns the problems it finds in one iteration's outputs (an empty
list means correct); `counts` are call counts that the traced run must
reproduce exactly, written as the closed forms they come from.
"""

import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass

REFERENCE_SEED = 42
# seed-42 values of stats.csv / report.csv must equal the recorded ones within
# this relative deviation (plus an absolute floor for roundoff-sized values)
REFERENCE_REL = 1e-9
REFERENCE_ABS = 1e-12
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_seed42.json")

POOL_MEMBERS, SAMPLES = 128, 64
ANNEAL_STAGES, STAGE_STEPS, WINDOW, CHECKPOINT_EVERY = (0.5, 1.0, 1.5, 2.0), 5000, 100, 2000
ANNEAL_STEPS = len(ANNEAL_STAGES) * STAGE_STEPS
EIGEN_N, BETAS, MOMENT_DRAWS, EIGEN_POOL = 16, (0, 1, 2, 3), 64, 8
TREND_N, TREND_SAMPLES, TREND_POOL = (10, 14, 18), 16, 32


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    check: object
    counts: dict


def read_stats(path) -> dict[str, float]:
    with open(path) as f:
        return {row["quantity"]: float(row["value"]) for row in csv.DictReader(f)}


def manifest_problems(out) -> list[str]:
    """Recompute every checksum and size that manifest.json records."""
    with open(os.path.join(out, "manifest.json")) as f:
        files = json.load(f)["files"]
    problems = []
    for name, entry in files.items():
        path = os.path.join(out, name)
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        if digest.hexdigest() != entry["sha256"] or os.path.getsize(path) != entry["bytes"]:
            problems.append(f"{path}: checksum or size differs from manifest.json")
    return problems


def reference_problems(workload: str, outs) -> list[str]:
    with open(REFERENCE_PATH) as f:
        reference = json.load(f)[workload]
    problems = []
    for rel, want in reference.items():
        call, _, name = rel.partition("/")
        got = read_stats(os.path.join(outs[int(call[len("call"):])], name))
        for key, value in want.items():
            if key not in got or not abs(got[key] - value) <= REFERENCE_REL * abs(value) + REFERENCE_ABS:
                problems.append(f"{rel}: {key} = {got.get(key)}, recorded {value!r}")
    return problems


def within(problems, label, value, target, tol) -> None:
    if not abs(value - target) <= tol:
        problems.append(f"{label} = {value!r}, want {target!r} within {tol:g}")


def check_pool(outs, logs) -> list[str]:
    s = read_stats(os.path.join(outs[0], "stats.csv"))
    problems = []
    within(problems, "statistic_original", s["statistic_original"], s["reference_gue"], 0.02)
    within(problems, "statistic_poissonized", s["statistic_poissonized"], s["reference_poisson"], 0.02)
    return problems


def check_anneal(outs, logs) -> list[str]:
    s = read_stats(os.path.join(outs[0], "stats.csv"))
    problems = []
    if not s["trace_drift"] <= 1e-8:
        problems.append(f"trace_drift = {s['trace_drift']!r} exceeds 1e-8")
    with open(os.path.join(outs[0], "trajectory.csv")) as f:
        rows = sum(1 for _ in csv.DictReader(f))
    if rows != ANNEAL_STEPS // WINDOW:
        problems.append(f"trajectory.csv has {rows} rows, want one per window: {ANNEAL_STEPS // WINDOW}")
    return problems


def check_eigenbasis(outs, logs) -> list[str]:
    problems = []
    for name in ("otoc_original.csv", "otoc_poissonized.csv"):
        with open(os.path.join(outs[0], name)) as f:
            first = next(r for r in csv.DictReader(f) if float(r["beta"]) == 0.0 and float(r["t"]) == 0.0)
        within(problems, f"{name} otoc(t=0, beta=0)", complex(float(first["re"]), float(first["im"])), -1.0, 1e-10)
    rank = read_stats(os.path.join(outs[1], "report.csv"))["rank"]
    if not 1 <= rank <= 2 ** (EIGEN_N // 2):
        problems.append(f"gram rank {rank} outside [1, 2^(n/2)]")
    return problems


def check_trend(outs, logs) -> list[str]:
    problems = []
    with open(logs[0]) as f:
        parseval = re.findall(r"parseval\[(\w+)\]: relative error (\S+)", f.read())
    if sorted(tag for tag, _ in parseval) != ["original", "poissonized"]:
        problems.append(f"expected two Parseval lines in {logs[0]}, found {parseval}")
    for tag, rel in parseval:
        if not float(rel) <= 1e-8:
            problems.append(f"Parseval relative error {rel} for {tag} exceeds 1e-8")
    with open(os.path.join(outs[0], "trend.csv")) as f:
        rows = [(int(r["n"]), float(r["mean_fraction"])) for r in csv.DictReader(f)]
    fractions = [frac for _, frac in sorted(rows)]
    if [n for n, _ in rows] != list(TREND_N) or any(b >= a for a, b in zip(fractions, fractions[1:])):
        problems.append(f"trend fractions do not decrease with n: {rows}")
    return problems


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pool-relocalize-n14",
        commands=(("poissonize", "--n", "14", "--samples", str(SAMPLES),
                   "--pool-members", str(POOL_MEMBERS), "--pool-start", "1000"),),
        check=check_pool,
        counts={
            "ensemble.HamiltonianBuilder.calls": 1,
            "ensemble.build_hamiltonian.calls": POOL_MEMBERS + SAMPLES,
            "spectral.diagonalize.values.calls": POOL_MEMBERS + SAMPLES,  # pool + relocalized
            "spectral.diagonalize.vectors.calls": SAMPLES,  # inside poissonize
            "poissonize.build_pool.members": POOL_MEMBERS,
            "poissonize.poissonize.calls": SAMPLES,
            "decompose.majorana_coefficients.calls": SAMPLES,
            "decompose.truncate_local.calls": SAMPLES,
        },
    ),
    Workload(
        name="anneal-n10",
        commands=(("metropolis", "--n", "10",
                   "--stages", _csv(f"{b}:{STAGE_STEPS}" for b in ANNEAL_STAGES),
                   "--window", str(WINDOW), "--checkpoint-every", str(CHECKPOINT_EVERY)),),
        check=check_anneal,
        counts={
            "ensemble.HamiltonianBuilder.calls": 1,
            "metropolis.metropolis_step.calls": ANNEAL_STEPS,
            "metropolis.objective.calls": ANNEAL_STEPS + len(ANNEAL_STAGES),
            "ensemble.build_hamiltonian.calls": ANNEAL_STEPS + len(ANNEAL_STAGES) + 2,
            "exports.write_checkpoint.calls": ANNEAL_STEPS // CHECKPOINT_EVERY,
        },
    ),
    Workload(
        name="eigenbasis-n16",
        commands=(
            ("correlators", "--n", str(EIGEN_N), "--betas", _csv(BETAS), "--t-max", "10",
             "--t-points", "256", "--otoc-pair", "1,2", "--two-point", "all",
             "--pool-members", str(EIGEN_POOL)),
            ("gram", "--n", str(EIGEN_N), "--beta", "1", "--t1", "2.8",
             "--moment-draws", str(MOMENT_DRAWS), "--pool-members", str(EIGEN_POOL)),
        ),
        check=check_eigenbasis,
        counts={
            "ensemble.HamiltonianBuilder.calls": 2,  # one per process
            "correlators.otoc.calls": 2 * len(BETAS),
            "correlators.two_point.calls": 2 * len(BETAS) * EIGEN_N,
            "correlators.tfd_gram.calls": 1 + MOMENT_DRAWS,
            "poissonize.poissonize.calls": 1 + 1 + MOMENT_DRAWS,
            "poissonize.build_pool.members": 2 * EIGEN_POOL,
        },
    ),
    Workload(
        name="size-trend-n18",
        commands=(("decompose", "--n", "18", "--trend-n", _csv(TREND_N),
                   "--trend-samples", str(TREND_SAMPLES), "--pool-members", str(TREND_POOL),
                   "--pool-start", "1000"),),
        check=check_trend,
        counts={
            "ensemble.HamiltonianBuilder.calls": len(TREND_N),  # n=18 reused from the base run
            "poissonize.build_pool.calls": 1 + len(TREND_N),
            "poissonize.build_pool.members": (1 + len(TREND_N)) * TREND_POOL,
            "ensemble.build_hamiltonian.calls": 1 + TREND_POOL + len(TREND_N) * (TREND_POOL + TREND_SAMPLES),
            "decompose.majorana_coefficients.calls": 3,  # original, poissonized, CSV export
            "decompose.nonlocal_fraction.calls": 2 + len(TREND_N) * TREND_SAMPLES,
        },
    ),
)}


def check_iteration(workload: Workload, outs, logs, seed: int) -> list[str]:
    """Every problem found in one iteration's outputs."""
    problems = []
    for out in outs:
        problems += manifest_problems(out)
    problems += workload.check(outs, logs)
    if seed == REFERENCE_SEED:
        problems += reference_problems(workload.name, outs)
    return problems
