"""Benchmark of syklab's four pipelines through the real CLI.

    python3 perfbench/run.py --workload <name|all> [--seed 42] [--seconds 18] [--trace 0|1]

Run from the repository root.  Every CLI call runs in a fresh process
(perfbench/runner.py), as every user run does, so each call pays the cold
builder cache.  A run repeats the workload's CLI calls, in order, until
the time measured inside them reaches --seconds (at least once), and checks
every iteration's outputs.

--trace 0 reports the end-to-end metrics: wall_s (median time inside the
CLI's main per iteration, summed over its processes), setup_s (median
spawn-to-main time of one process, times the processes per iteration),
peak_rss_mb (largest peak RSS of any workload process).  --trace 1
alternates untraced and traced iterations and reports the per-layer metrics
named in BENCHMARK.json plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import WORKLOADS, check_iteration

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with the children
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")
RUNNER = os.path.join(HERE, "runner.py")
TIME_LIMIT = 165.0  # seconds one workload run may take; a run must end within 180
SETUP_SAMPLES = 4  # process set-ups per run, topped up with import-only probes
COVER_MARGIN = 0.01  # summed self times must cover this share of the traced wall time


def spawn(argv, log_path, traced, run_id, deadline) -> dict:
    """One runner process; returns its result with setup_s, or just rc."""
    result_path = log_path[: -len(".log")] + ".json"
    spec = {"root": ROOT, "argv": argv, "trace": traced, "run_id": run_id, "result": result_path}
    timeout = deadline - clock()
    if timeout <= 0:
        return {"rc": "not started: time limit reached"}
    with open(log_path, "w") as log:
        t_spawn = clock()
        proc = subprocess.Popen([sys.executable, RUNNER, json.dumps(spec)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"rc": "killed: time limit reached"}
    if rc != 0 or not os.path.exists(result_path):
        return {"rc": rc}
    with open(result_path) as f:
        result = json.load(f)
    result["setup_s"] = result["t_main"] - t_spawn
    return result


def layer_values(procs) -> dict:
    """Per-layer metric values of one traced iteration, summed over its processes."""
    functions = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    counters = defaultdict(float)
    digests, installed = [], set()
    for proc in procs:
        trace = proc["trace"]
        installed.update(trace["installed"])
        for name, f in trace["functions"].items():
            for key, value in f.items():
                functions[name][key] += value
        for key, value in trace["counters"].items():
            counters[key] += value
        digests += trace["digests"]
    values = {f"{name}.{key}": 0 for name in installed for key in ("calls", "self_s", "total_s")}
    for name, f in functions.items():
        for key, value in f.items():
            values[f"{name}.{key}"] = value
    values.update(counters)
    writes = [f for name, f in functions.items() if name.startswith("exports.write_")]
    values["exports.write.calls"] = sum(f["calls"] for f in writes)
    values["exports.write.self_s"] = sum(f["self_s"] for f in writes)
    seen = set()
    repeats = 0
    for d in digests:
        repeats += d in seen
        seen.add(d)
    values["poissonize.poissonize.repeat_share"] = repeats / len(digests) if digests else 0.0
    steps = values["metropolis.metropolis_step.calls"]
    values["metropolis.accept_ratio"] = counters["metropolis.accepted"] / steps if steps else 0.0
    wall = sum(proc["main_s"] for proc in procs)
    values["trace.wall_s"] = wall
    values["trace.spans"] = sum(proc["trace"]["spans"] for proc in procs)
    values["trace.self_cover"] = sum(f["self_s"] for f in functions.values()) / wall
    return values


def iteration(workload, seed, label, traced, deadline) -> dict:
    """Run the workload's CLI calls once, in order, and check the outputs."""
    where = os.path.join(RUNS, workload.name, label)
    os.makedirs(where)
    outs, logs, procs = [], [], []
    problems = []
    for j, command in enumerate(workload.commands):
        out = os.path.join(where, f"call{j}")
        proc = spawn([*command, "--seed", str(seed), "--out", out], out + ".log",
                     traced, f"{workload.name}/{seed}/{label}", deadline)
        outs.append(out)
        logs.append(out + ".log")
        procs.append(proc)
        if proc["rc"] != 0:
            problems.append(f"{command[0]} exit code {proc['rc']}; see {out}.log")
            break
    if not problems:
        try:
            problems = check_iteration(workload, outs, logs, seed)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            problems = [f"output check could not read the outputs: {exc!r}"]
    record = {"label": label, "traced": traced, "procs": procs, "problems": problems}
    if not problems:
        record["wall_s"] = sum(proc["main_s"] for proc in procs)
        record["peak_rss_mb"] = max(proc["peak_rss_mb"] for proc in procs)
        if traced:
            record["layers"] = values = layer_values(procs)
            for key, want in workload.counts.items():
                if values[key] != want:
                    problems.append(f"traced {key} = {values[key]}, want exactly {want}")
            if not 1.0 - COVER_MARGIN <= values["trace.self_cover"] <= 1.0:
                problems.append(f"summed self times cover {values['trace.self_cover']:.4f} of the traced "
                                f"wall time, want within {COVER_MARGIN:g} of 1")
    status = "ok" if not problems else "FAILED: " + "; ".join(problems)
    wall = f"{record['wall_s']:.3f} s" if "wall_s" in record else "-"
    print(f"{workload.name} {label}: wall {wall}, {status}", flush=True)
    if not problems:  # keep logs, results and spans; drop the CLI outputs
        for out in outs:
            shutil.rmtree(out)
    return record


def environment(seed, first_proc) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src", "syklab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                source.update(name.encode() + b"\0" + f.read())
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "node": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **first_proc.get("versions", {}),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace) -> dict:
    """One benchmark run of one workload; returns its full record."""
    start = clock()
    deadline = start + TIME_LIMIT
    shutil.rmtree(os.path.join(RUNS, workload.name), ignore_errors=True)
    iterations = []
    rounds = 0
    while True:
        iterations.append(iteration(workload, seed, f"iter{rounds}", False, deadline))
        if trace and not iterations[-1]["problems"]:
            iterations.append(iteration(workload, seed, f"traced{rounds}", True, deadline))
        rounds += 1
        measured = sum(it.get("wall_s", 0.0) for it in iterations)
        elapsed = clock() - start
        if (any(it["problems"] for it in iterations) or measured >= seconds
                or elapsed * (rounds + 1.5) / rounds > TIME_LIMIT):
            break

    plain = [it for it in iterations if not it["traced"]]
    setups = [p["setup_s"] for it in plain for p in it["procs"] if "setup_s" in p]
    probe_dir = os.path.join(RUNS, workload.name, "probes")
    os.makedirs(probe_dir, exist_ok=True)
    while not trace and len(setups) < SETUP_SAMPLES and clock() < deadline:
        probe = spawn(None, os.path.join(probe_dir, f"probe{len(setups)}.log"), False, "probe", deadline)
        if probe["rc"] != 0:
            break
        setups.append(probe["setup_s"])

    failed = sum(1 for it in iterations if it["problems"])
    good = [it for it in plain if "wall_s" in it]
    walls = [it["wall_s"] for it in good]
    first_proc = next((p for it in iterations for p in it["procs"] if "versions" in p), {})
    record = {
        "workload": workload.name,
        "environment": environment(seed, first_proc),
        "attempted": len(iterations),
        "failed": failed,
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "iterations": iterations,
    }
    if walls:
        record["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups) * len(workload.commands),
            "peak_rss_mb": max(it["peak_rss_mb"] for it in good),
        }
    traced = [it["layers"] for it in iterations if "layers" in it]
    if traced and walls:
        layers = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - record["metrics"]["wall_s"]
        record["layers"] = layers
    return record


def summary_lines(record) -> list[str]:
    name = record["workload"]
    walls = record["wall_s_samples"]
    lines = [f"{name}: failed_ratio = {record['failed'] / record['attempted']:.4g} "
             f"({record['failed']} of {record['attempted']} iterations failed)"]
    if "metrics" not in record:
        return lines
    m = record["metrics"]
    n = len(walls)
    if n > 20:  # the highest percentile with ten samples beyond it
        top = f"p{100 * (n - 10) // n} {sorted(walls)[n - 11]:.4f} s"
    else:
        top = f"max {max(walls):.4f} s; no percentile above the median has ten samples beyond it"
    lines += [
        f"{name}: wall_s = {m['wall_s']:.4f} s (median of {n} iterations; {top})",
        f"{name}: setup_s = {m['setup_s']:.4f} s (median of {len(record['setup_s_samples'])} process "
        f"set-ups x {len(WORKLOADS[name].commands)} processes per iteration)",
        f"{name}: peak_rss_mb = {m['peak_rss_mb']:.1f} MB",
    ]
    if "layers" in record:
        lay = record["layers"]
        lines.append(f"{name}: traced wall {lay['trace.wall_s']:.4f} s, tracing overhead "
                     f"{lay['trace.overhead_s']:+.4f} s over untraced, {lay['trace.spans']:.0f} spans")
    return lines


def layer_table(records) -> list[str]:
    """Markdown table of self time per call (ms) and calls, layer by workload."""
    names = sorted({key[: -len(".self_s")] for r in records for key in r.get("layers", {})
                    if key.endswith(".self_s") and r["layers"][key] > 0})
    lines = ["| layer | " + " | ".join(r["workload"] for r in records) + " |",
             "|---" * (len(records) + 1) + "|"]
    for name in names:
        cells = []
        for r in records:
            lay = r.get("layers", {})
            calls = lay.get(f"{name}.calls", 0)
            cells.append(f"{1e3 * lay[name + '.self_s'] / calls:.3g} ms x {calls:.0f}" if calls else "—")
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "syklab", "cli.py")) or not os.path.isfile(bench_path):
        print(f"error: {ROOT} holds no syklab source tree (src/syklab) or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    with open(bench_path) as f:
        bench = json.load(f)
    wanted, kind = (bench["per_layer"], "layers") if args.trace else (bench["end_to_end"], "metrics")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        records.append(record)
        with open(os.path.join(RUNS, f"{name}-trace{args.trace}.json"), "w") as f:
            json.dump(record, f, indent=1)
        print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
        for line in summary_lines(record):
            print(line)
    if args.trace and len(records) > 1:
        print("\n".join(layer_table(records)))

    metrics, missing = {}, []
    for r in records:
        values = r.get(kind, {})
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        for m in wanted:
            if m["name"] not in values:
                missing.append(prefix + m["name"])
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    if missing:
        print(f"not measured: {', '.join(missing)}")
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
