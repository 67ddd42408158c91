"""Batch command line front end.

Six subcommands drive the library end to end: sample, poissonize,
correlators, decompose, metropolis, gram.  Every run archives its
effective configuration (run.cfg) and a checksum manifest next to the
data files, and re-running with the same configuration reproduces every
output byte for byte.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O error.
"""

import argparse
import os
import sys

import numpy as np
from scipy.stats import ks_2samp

from .correlators import compare_series, cyclic_moment, gram_rank, otoc, tfd_gram, two_point
from .decompose import majorana_coefficients, nonlocal_fraction, size_spectrum, truncate_local
from .ensemble import (
    EnsembleParams,
    build_hamiltonian,
    member_rng,
    sample_couplings,
    trace_h_squared,
)
from .errors import NumericalError
from .exports import (
    read_checkpoint,
    read_coefficients,
    read_config,
    write_checkpoint,
    write_coefficients,
    write_config,
    write_expansion,
    write_gram,
    write_manifest,
    write_pool,
    write_series,
    write_spectrum,
    write_trajectory,
)
from .metropolis import Schedule, run_schedule
from .pauli import majorana_matrix
from .poissonize import build_pool, poissonize
from .spectral import (
    combined_eigenvalues,
    diagonalize,
    gap_ratios,
    min_ratio_statistic,
    reference_ratio_statistic,
)


LARGE_N = 20  # sizes at or above this need --large, the runtime warning gate


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_stages(text: str) -> tuple[tuple[float, int], ...]:
    stages = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        beta, _, steps = tok.partition(":")
        stages.append((float(beta), int(steps)))
    return tuple(stages)


def _setting(args, cfg: dict, name: str, cast, default):
    """Flag wins over config file wins over built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        raw = cfg[name]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _load_cfg(args) -> dict:
    return read_config(args.config) if args.config else {}


def _make_params(n: int, j_scale: float, seed: int, large: bool) -> EnsembleParams:
    try:
        params = EnsembleParams(n=n, j_scale=j_scale, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if n >= LARGE_N and not large:
        raise UsageError(f"n={n} takes hours; pass --large to confirm the runtime")
    if n >= LARGE_N:
        print(f"warning: n={n} runs take hours and sizable memory", file=sys.stderr)
    return params


def _open_out(out: str | None) -> str:
    if not out:
        raise UsageError("--out is required (or set out= in the config file)")
    os.makedirs(out, exist_ok=True)
    return out


def _finish(out: str, settings: dict, files: list[str]) -> int:
    cfg_path = os.path.join(out, "run.cfg")
    write_config(cfg_path, {k: str(v) for k, v in settings.items()})
    paths = [cfg_path] + [os.path.join(out, f) for f in files]
    write_manifest(os.path.join(out, "manifest.json"), {k: str(v) for k, v in settings.items()}, paths)
    print(f"wrote {len(paths)} files + manifest.json to {out}")
    return 0


def _write_stats(path, rows) -> None:
    with open(path, "w") as f:
        f.write("quantity,value\n")
        for name, value in rows:
            f.write(f"{name},{_fmt(value)}\n")


def _ratio_histogram(path, ratios: np.ndarray, bins: int) -> None:
    edges = np.linspace(0.0, 1.0, bins + 1)
    density, _ = np.histogram(ratios, bins=edges, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    with open(path, "w") as f:
        f.write("r,density\n")
        for r, d in zip(centers, density):
            f.write(f"{_fmt(r)},{_fmt(d)}\n")


def _sector_ratio_pool(spectra_or_levels) -> np.ndarray:
    chunks = []
    for item in spectra_or_levels:
        levels = item.eigenvalues if hasattr(item, "eigenvalues") else item
        chunks.append(gap_ratios(levels).ratios)
    return np.concatenate(chunks)


def cmd_sample(args) -> int:
    cfg = _load_cfg(args)
    s = {
        "n": _setting(args, cfg, "n", int, 14),
        "j_scale": _setting(args, cfg, "j_scale", float, 1.0),
        "seed": _setting(args, cfg, "seed", int, 42),
        "member": _setting(args, cfg, "member", int, 0),
        "out": _setting(args, cfg, "out", str, None),
    }
    params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
    out = _open_out(s["out"])
    couplings = sample_couplings(params, member=s["member"])
    spectra = diagonalize(build_hamiltonian(couplings), need_vectors=False)
    write_coefficients(os.path.join(out, "coefficients.csv"), couplings)
    write_spectrum(os.path.join(out, "spectrum.csv"), spectra)
    total = sum(sec.eigenvalues.size for sec in spectra)
    print(f"n={s['n']} member={s['member']}: {couplings.values.size} couplings, {total} eigenvalues")
    return _finish(out, s, ["coefficients.csv", "spectrum.csv"])


def cmd_poissonize(args) -> int:
    cfg = _load_cfg(args)
    s = {
        "n": _setting(args, cfg, "n", int, 22 if args.large else 14),
        "j_scale": _setting(args, cfg, "j_scale", float, 1.0),
        "seed": _setting(args, cfg, "seed", int, 42),
        "samples": _setting(args, cfg, "samples", int, 16 if args.large else 64),
        "pool_members": _setting(args, cfg, "pool_members", int, 256 if args.large else 128),
        "pool_start": _setting(args, cfg, "pool_start", int, 1000),
        "bins": _setting(args, cfg, "bins", int, 24),
        "identity_draw": _setting(args, cfg, "identity_draw", bool, False),
        "no_replace": _setting(args, cfg, "no_replace", bool, False),
        "out": _setting(args, cfg, "out", str, None),
        "jobs": _setting(args, cfg, "jobs", int, 1),
    }
    params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
    out = _open_out(s["out"])
    n = s["n"]
    pool = build_pool(params, members=s["pool_members"], start_member=s["pool_start"], jobs=s["jobs"])
    write_pool(os.path.join(out, "pool.csv"), pool)

    orig, poiss, reloc = [], [], []
    delta_rel, nonlocal_fracs = [], []
    for m in range(s["samples"]):
        h = build_hamiltonian(sample_couplings(params, member=m))
        pair = poissonize(
            h, pool, member_rng(s["seed"] + 1, m),
            replace=not s["no_replace"], identity_draw=s["identity_draw"],
        )
        orig.append(_sector_ratio_pool(pair.spectra))
        poiss.append(_sector_ratio_pool(pair.replaced.values()))
        expansion = majorana_coefficients(pair.poissonized, n)
        local, _ = truncate_local(expansion, k=4, original=pair.poissonized)
        reloc.append(_sector_ratio_pool(diagonalize(local, need_vectors=False)))
        delta = pair.delta()
        h_norm = float(np.linalg.norm(pair.poissonized))
        d_norm = float(np.linalg.norm(delta))
        delta_rel.append(d_norm / h_norm)
        nonlocal_fracs.append(0.0 if d_norm == 0.0 else nonlocal_fraction(pair.poissonized, n))
    orig, poiss, reloc = map(np.concatenate, (orig, poiss, reloc))

    _ratio_histogram(os.path.join(out, "ratio_hist_original.csv"), orig, s["bins"])
    _ratio_histogram(os.path.join(out, "ratio_hist_poissonized.csv"), poiss, s["bins"])
    _ratio_histogram(os.path.join(out, "ratio_hist_relocalized.csv"), reloc, s["bins"])
    # iid levels: min-ratio density 2/(1+r)^2 on [0,1], written on the same grid
    edges = np.linspace(0.0, 1.0, s["bins"] + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    with open(os.path.join(out, "ratio_hist_reference.csv"), "w") as f:
        f.write("r,density\n")
        for r in centers:
            f.write(f"{_fmt(r)},{_fmt(2.0 / (1.0 + r) ** 2)}\n")

    gue = reference_ratio_statistic("gue")
    poisson_ref = reference_ratio_statistic("poisson")
    rows = [
        ("statistic_original", min_ratio_statistic(orig)),
        ("statistic_poissonized", min_ratio_statistic(poiss)),
        ("statistic_relocalized", min_ratio_statistic(reloc)),
        ("reference_gue", gue.mean),
        ("reference_gue_stderr", gue.stderr),
        ("reference_poisson", poisson_ref.mean),
        ("reference_poisson_stderr", poisson_ref.stderr),
        ("mean_delta_rel_norm", float(np.mean(delta_rel))),
        ("mean_nonlocal_fraction", float(np.mean(nonlocal_fracs))),
    ]
    _write_stats(os.path.join(out, "stats.csv"), rows)
    for name, value in rows:
        print(f"{name} = {value:.6g}")
    return _finish(out, s, [
        "pool.csv", "ratio_hist_original.csv", "ratio_hist_poissonized.csv",
        "ratio_hist_relocalized.csv", "ratio_hist_reference.csv", "stats.csv",
    ])


def cmd_correlators(args) -> int:
    cfg = _load_cfg(args)
    s = {
        "n": _setting(args, cfg, "n", int, 14),
        "j_scale": _setting(args, cfg, "j_scale", float, 1.0),
        "seed": _setting(args, cfg, "seed", int, 42),
        "member": _setting(args, cfg, "member", int, 0),
        "betas": _setting(args, cfg, "betas", str, "0,1,2,3"),
        "t_max": _setting(args, cfg, "t_max", float, 10.0),
        "t_points": _setting(args, cfg, "t_points", int, 512),
        "otoc_pair": _setting(args, cfg, "otoc_pair", str, "1,2"),
        "two_point": _setting(args, cfg, "two_point", str, ""),
        "coefficients": _setting(args, cfg, "coefficients", str, ""),
        "draw_stream": _setting(args, cfg, "draw_stream", int, 0),
        "pool_members": _setting(args, cfg, "pool_members", int, 128),
        "pool_start": _setting(args, cfg, "pool_start", int, 1000),
        "out": _setting(args, cfg, "out", str, None),
        "jobs": _setting(args, cfg, "jobs", int, 1),
    }
    params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
    out = _open_out(s["out"])
    n = s["n"]
    betas = _parse_floats(s["betas"])
    a, b = (int(x) for x in s["otoc_pair"].split(","))
    times = np.linspace(0.0, s["t_max"] / s["j_scale"], s["t_points"])

    h0 = build_hamiltonian(sample_couplings(params, member=s["member"]))
    s0 = diagonalize(h0)
    if s["coefficients"]:
        h1 = build_hamiltonian(read_coefficients(s["coefficients"]))
        modified_tag = "modified"
    else:
        pool = build_pool(params, members=s["pool_members"], start_member=s["pool_start"], jobs=s["jobs"])
        pair = poissonize(h0, pool, member_rng(s["seed"] + 1, s["draw_stream"]))
        h1 = pair.poissonized
        modified_tag = "poissonized"
    s1 = diagonalize(h1)

    files = []
    deviations = []
    otoc0 = [otoc(s0, a, b, beta, times) for beta in betas]
    otoc1 = [otoc(s1, a, b, beta, times) for beta in betas]
    write_series(os.path.join(out, "otoc_original.csv"), otoc0)
    write_series(os.path.join(out, f"otoc_{modified_tag}.csv"), otoc1)
    files += ["otoc_original.csv", f"otoc_{modified_tag}.csv"]
    for beta, x, y in zip(betas, otoc0, otoc1):
        deviations.append(("otoc", beta, compare_series(x, y).max_deviation))
    if 0.0 in betas:
        at0 = otoc0[betas.index(0.0)].values[0]
        print(f"otoc(t=0, beta=0) = {at0.real:+.12f}{at0.imag:+.3e}i")

    fermions: tuple[int, ...] = ()
    if s["two_point"] == "all":
        fermions = tuple(range(n))
    elif s["two_point"]:
        fermions = tuple(int(x) for x in s["two_point"].split(","))
    for i in fermions:
        psi = majorana_matrix(i, n)
        g0 = [two_point(s0, psi, beta, times) for beta in betas]
        g1 = [two_point(s1, psi, beta, times) for beta in betas]
        write_series(os.path.join(out, f"two_point_f{i}_original.csv"), g0)
        write_series(os.path.join(out, f"two_point_f{i}_{modified_tag}.csv"), g1)
        files += [f"two_point_f{i}_original.csv", f"two_point_f{i}_{modified_tag}.csv"]
        for beta, x, y in zip(betas, g0, g1):
            deviations.append((f"two_point_f{i}", beta, compare_series(x, y).max_deviation))

    with open(os.path.join(out, "deviation.csv"), "w") as f:
        f.write("series,beta,max_deviation\n")
        for name, beta, dev in deviations:
            f.write(f"{name},{_fmt(beta)},{_fmt(dev)}\n")
    files.append("deviation.csv")
    worst = max(dev for _, _, dev in deviations)
    print(f"worst deviation vs {modified_tag}: {worst:.4f} over {len(deviations)} series")
    return _finish(out, s, files)


def cmd_decompose(args) -> int:
    cfg = _load_cfg(args)
    s = {
        "n": _setting(args, cfg, "n", int, 14),
        "j_scale": _setting(args, cfg, "j_scale", float, 1.0),
        "seed": _setting(args, cfg, "seed", int, 42),
        "member": _setting(args, cfg, "member", int, 0),
        "draw_stream": _setting(args, cfg, "draw_stream", int, 0),
        "pool_members": _setting(args, cfg, "pool_members", int, 128),
        "pool_start": _setting(args, cfg, "pool_start", int, 1000),
        "trend_n": _setting(args, cfg, "trend_n", str, ""),
        "trend_samples": _setting(args, cfg, "trend_samples", int, 16),
        "size_cut": _setting(args, cfg, "size_cut", int, 4),
        "out": _setting(args, cfg, "out", str, None),
        "jobs": _setting(args, cfg, "jobs", int, 1),
    }
    params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
    out = _open_out(s["out"])
    n, k = s["n"], s["size_cut"]

    h = build_hamiltonian(sample_couplings(params, member=s["member"]))
    pool = build_pool(params, members=s["pool_members"], start_member=s["pool_start"], jobs=s["jobs"])
    pair = poissonize(h, pool, member_rng(s["seed"] + 1, s["draw_stream"]))

    files = []
    stats = []
    for tag, op in (("original", h), ("poissonized", pair.poissonized)):
        expansion = majorana_coefficients(op, n)
        parseval = abs(expansion.weight() - float(np.trace(op @ op).real) / op.shape[0])
        rel = parseval / expansion.weight()
        print(f"parseval[{tag}]: relative error {rel:.3e}")
        if not rel <= 1e-8:
            raise FloatingPointError(f"parseval violated for {tag}: {rel:.3e}")
        sizes = size_spectrum(expansion)
        total = float(np.sum(sizes))
        path = os.path.join(out, f"size_spectrum_{tag}.csv")
        with open(path, "w") as f:
            f.write("k,weight,share\n")
            for kk, w in enumerate(sizes):
                f.write(f"{kk},{_fmt(w)},{_fmt(w / total)}\n")
        files.append(os.path.basename(path))
        stats.append((f"nonlocal_fraction_{tag}", nonlocal_fraction(op, n, k)))
    expansion_path = os.path.join(out, "expansion_poissonized.csv")
    write_expansion(expansion_path, majorana_coefficients(pair.poissonized, n))
    files.append("expansion_poissonized.csv")

    if s["trend_n"]:
        sizes_list = tuple(int(x) for x in s["trend_n"].split(","))
        rows = []
        prev = None
        for nn in sizes_list:
            p_nn = _make_params(nn, s["j_scale"], s["seed"], args.large)
            pool_nn = build_pool(p_nn, members=s["pool_members"], start_member=s["pool_start"], jobs=s["jobs"])
            fracs = []
            for m in range(s["trend_samples"]):
                hm = build_hamiltonian(sample_couplings(p_nn, member=m))
                pm = poissonize(hm, pool_nn, member_rng(s["seed"] + 1, m))
                fracs.append(nonlocal_fraction(pm.poissonized, nn, k))
            mean = float(np.mean(fracs))
            rows.append((nn, len(fracs), mean, 0.0 if prev is None else mean / prev, 2.0 ** (-nn / 4.0)))
            prev = mean
        with open(os.path.join(out, "trend.csv"), "w") as f:
            f.write("n,samples,mean_fraction,ratio_to_prev,geometric_ref\n")
            for nn, cnt, mean, ratio, ref in rows:
                f.write(f"{nn},{cnt},{_fmt(mean)},{_fmt(ratio)},{_fmt(ref)}\n")
                print(f"n={nn}: mean nonlocal fraction {mean:.4f} (2^(-n/4) = {ref:.4f})")
        files.append("trend.csv")

    _write_stats(os.path.join(out, "stats.csv"), stats)
    files.append("stats.csv")
    return _finish(out, s, files)


def cmd_metropolis(args) -> int:
    cfg = _load_cfg(args)
    s = {
        "n": _setting(args, cfg, "n", int, 10),
        "j_scale": _setting(args, cfg, "j_scale", float, 1.0),
        "seed": _setting(args, cfg, "seed", int, 42),
        "member": _setting(args, cfg, "member", int, 0),
        "chain_stream": _setting(args, cfg, "chain_stream", int, 10 ** 6),
        "sigma0": _setting(args, cfg, "sigma0", float, 0.001),
        "stages": _setting(args, cfg, "stages", str, "0.5:20000,1.0:20000,1.5:20000,2.0:20000"),
        "window": _setting(args, cfg, "window", int, 100),
        "checkpoint_every": _setting(args, cfg, "checkpoint_every", int, 1000),
        "resume": _setting(args, cfg, "resume", str, ""),
        "per_sector": _setting(args, cfg, "per_sector", bool, False),
        "out": _setting(args, cfg, "out", str, None),
    }
    params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
    out = _open_out(s["out"])
    schedule = Schedule(stages=_parse_stages(s["stages"]), window=s["window"])
    checkpoint_path = os.path.join(out, "checkpoint.json")

    resume_payload = read_checkpoint(s["resume"]) if s["resume"] else None
    result = run_schedule(
        params, schedule, member_rng(s["seed"], s["chain_stream"]),
        checkpoint_sink=lambda payload: write_checkpoint(checkpoint_path, payload),
        member=s["member"], sigma0=s["sigma0"], per_sector=s["per_sector"],
        checkpoint_every=s["checkpoint_every"], resume=resume_payload,
    )

    initial = sample_couplings(params, member=s["member"])
    s0 = diagonalize(build_hamiltonian(initial), need_vectors=False)
    s1 = diagonalize(build_hamiltonian(result.couplings), need_vectors=False)
    write_coefficients(os.path.join(out, "coefficients.csv"), result.couplings)
    write_trajectory(os.path.join(out, "trajectory.csv"), result.trajectory)
    write_spectrum(os.path.join(out, "spectrum_initial.csv"), s0)
    write_spectrum(os.path.join(out, "spectrum_final.csv"), s1)

    stat0 = min_ratio_statistic(np.concatenate([gap_ratios(x.eigenvalues).ratios for x in s0]))
    stat1 = min_ratio_statistic(np.concatenate([gap_ratios(x.eigenvalues).ratios for x in s1]))
    ks = float(ks_2samp(combined_eigenvalues(s0), combined_eigenvalues(s1)).statistic)
    drift = abs(trace_h_squared(result.couplings) - result.target_trace) / result.target_trace
    rows = [
        ("statistic_initial", stat0),
        ("statistic_final", stat1),
        ("ks_distance", ks),
        ("trace_drift", drift),
    ]
    _write_stats(os.path.join(out, "stats.csv"), rows)
    for name, value in rows:
        print(f"{name} = {value:.6g}")
    files = ["coefficients.csv", "trajectory.csv", "spectrum_initial.csv", "spectrum_final.csv", "stats.csv"]
    if os.path.exists(checkpoint_path):
        files.append("checkpoint.json")
    return _finish(out, s, files)


def cmd_gram(args) -> int:
    cfg = _load_cfg(args)
    s = {
        "n": _setting(args, cfg, "n", int, 10),
        "j_scale": _setting(args, cfg, "j_scale", float, 1.0),
        "seed": _setting(args, cfg, "seed", int, 42),
        "member": _setting(args, cfg, "member", int, 0),
        "beta": _setting(args, cfg, "beta", float, 1.0),
        "t1": _setting(args, cfg, "t1", float, 50.0),
        "omega": _setting(args, cfg, "omega", int, 0),
        "threshold": _setting(args, cfg, "threshold", float, 1e-8),
        "draw_stream": _setting(args, cfg, "draw_stream", int, 0),
        "pool_members": _setting(args, cfg, "pool_members", int, 128),
        "pool_start": _setting(args, cfg, "pool_start", int, 1000),
        "moment_draws": _setting(args, cfg, "moment_draws", int, 0),
        "out": _setting(args, cfg, "out", str, None),
        "jobs": _setting(args, cfg, "jobs", int, 1),
    }
    params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
    out = _open_out(s["out"])
    n = s["n"]
    dim = 2 ** (n // 2)
    omega = s["omega"] if s["omega"] > 0 else dim
    beta = s["beta"]

    pool = build_pool(params, members=s["pool_members"], start_member=s["pool_start"], jobs=s["jobs"])
    h = build_hamiltonian(sample_couplings(params, member=s["member"]))
    pair = poissonize(h, pool, member_rng(s["seed"] + 1, s["draw_stream"]))
    spectra = diagonalize(pair.poissonized, need_vectors=False)
    gram = tfd_gram(spectra, beta=beta, t1=s["t1"], omega=omega)
    write_gram(os.path.join(out, "gram.csv"), gram.matrix)

    energies = combined_eigenvalues(spectra)
    shifted = energies - energies.min()
    z1 = float(np.sum(np.exp(-beta * shifted)))
    z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
    rows = [
        ("omega", float(omega)),
        ("dim", float(dim)),
        ("threshold", s["threshold"]),
        ("rank", float(gram_rank(gram, s["threshold"]))),
    ]
    # the cyclic k-moment needs at least k states
    for k in (2, 3):
        if omega >= k:
            rows.append((f"cyclic_moment_{k}", cyclic_moment(gram, k).real))
    rows.append(("z_ratio_2", z2 / z1 ** 2))
    if s["moment_draws"] > 0:
        draws = []
        for k in range(s["moment_draws"]):
            pk = poissonize(h, pool, member_rng(s["seed"] + 2, k))
            sk = diagonalize(pk.poissonized, need_vectors=False)
            gk = tfd_gram(sk, beta=beta, t1=s["t1"], omega=omega)
            draws.append(cyclic_moment(gk, 2).real)
        draws = np.array(draws)
        rows += [
            ("moment2_mc_mean", float(np.mean(draws))),
            ("moment2_mc_stderr", float(np.std(draws) / np.sqrt(draws.size))),
            ("moment2_mc_draws", float(draws.size)),
        ]
    _write_stats(os.path.join(out, "report.csv"), rows)
    for name, value in rows:
        print(f"{name} = {value:.6g}")
    return _finish(out, s, ["gram.csv", "report.csv"])


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, help="number of Majorana fermions (even)")
    sub.add_argument("--j-scale", dest="j_scale", type=float, help="coupling scale")
    sub.add_argument("--seed", type=int, help="ensemble seed")
    sub.add_argument("--out", type=str, help="output directory")
    sub.add_argument("--config", type=str, help="key=value config file; flags override")
    sub.add_argument("--large", action="store_true", help="allow expensive sizes (n >= 20)")


def _add_pool(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pool-members", dest="pool_members", type=int, help="pool size")
    sub.add_argument("--pool-start", dest="pool_start", type=int, help="first pool member index")
    sub.add_argument("--jobs", type=int, help="ensemble-level worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="syklab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="draw one disorder member and export couplings + spectrum")
    _add_common(p)
    p.add_argument("--member", type=int, help="disorder member index")
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("poissonize", help="pool draw comparison: gap-ratio histograms and statistics")
    _add_common(p)
    p.add_argument("--samples", type=int, help="number of base draws")
    _add_pool(p)
    p.add_argument("--bins", type=int, help="histogram bins over [0,1]")
    p.add_argument("--identity-draw", dest="identity_draw", action="store_const", const=True,
                   help="test mode: replacement equals own spectrum")
    p.add_argument("--no-replace", dest="no_replace", action="store_const", const=True,
                   help="draw pool levels without replacement")
    p.set_defaults(func=cmd_poissonize)

    p = subs.add_parser("correlators", help="two-point and OTOC series, original vs modified")
    _add_common(p)
    p.add_argument("--member", type=int, help="disorder member index")
    p.add_argument("--betas", type=str, help="comma list of inverse temperatures")
    p.add_argument("--t-max", dest="t_max", type=float, help="time window in units of 1/J")
    p.add_argument("--t-points", dest="t_points", type=int, help="time grid points")
    p.add_argument("--otoc-pair", dest="otoc_pair", type=str, help="two fermion indices, e.g. 1,2")
    p.add_argument("--two-point", dest="two_point", type=str,
                   help="fermion indices for two-point series, or 'all'")
    p.add_argument("--coefficients", type=str, help="compare against couplings from this file")
    p.add_argument("--draw-stream", dest="draw_stream", type=int, help="poissonization draw stream")
    _add_pool(p)
    p.set_defaults(func=cmd_correlators)

    p = subs.add_parser("decompose", help="fermion size spectrum and nonlocal fraction")
    _add_common(p)
    p.add_argument("--member", type=int, help="disorder member index")
    p.add_argument("--draw-stream", dest="draw_stream", type=int, help="poissonization draw stream")
    _add_pool(p)
    p.add_argument("--trend-n", dest="trend_n", type=str, help="comma list of sizes for the fraction trend")
    p.add_argument("--trend-samples", dest="trend_samples", type=int, help="draws per size in the trend")
    p.add_argument("--size-cut", dest="size_cut", type=int, help="locality cut k")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("metropolis", help="anneal the spectrum away from level repulsion")
    _add_common(p)
    p.add_argument("--member", type=int, help="disorder member index")
    p.add_argument("--chain-stream", dest="chain_stream", type=int, help="proposal RNG stream")
    p.add_argument("--sigma0", type=float, help="initial step scale")
    p.add_argument("--stages", type=str, help="beta_D:steps comma list; empty for no-op")
    p.add_argument("--window", type=int, help="steps per adaptation window")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, help="steps between checkpoints")
    p.add_argument("--resume", type=str, help="checkpoint file to resume from")
    p.add_argument("--per-sector", dest="per_sector", action="store_const", const=True,
                   help="objective sums sector spectra separately")
    p.set_defaults(func=cmd_metropolis)

    p = subs.add_parser("gram", help="thermofield-double Gram matrix, rank and cyclic moments")
    _add_common(p)
    p.add_argument("--member", type=int, help="disorder member index")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--t1", type=float, help="base time spacing of the state family")
    p.add_argument("--omega", type=int, help="number of states (0 means 2^(n/2))")
    p.add_argument("--threshold", type=float, help="singular value cutoff for rank")
    p.add_argument("--draw-stream", dest="draw_stream", type=int, help="poissonization draw stream")
    _add_pool(p)
    p.add_argument("--moment-draws", dest="moment_draws", type=int, help="ensemble draws for the moment average")
    p.set_defaults(func=cmd_gram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
