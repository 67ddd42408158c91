"""Batch command line front end.

Six subcommands drive the library end to end: sample, poissonize,
correlators, decompose, metropolis, gram.  Every run archives its
effective configuration (run.cfg) and a checksum manifest next to the
data files, and re-running with the same configuration reproduces every
output byte for byte.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O error.
"""

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .correlators import compare_series, cyclic_moment, fermion_block, gram_rank, otoc, tfd_gram, two_point
from .decompose import majorana_coefficients, nonlocal_fraction, size_spectrum, truncate_local
from .ensemble import CouplingTensor, EnsembleParams, build_hamiltonian, member_rng, sample_couplings
from .errors import NumericalError
from .exports import (
    coefficients_table,
    expansion_table,
    gram_table,
    numeric_table,
    pool_table,
    read_checkpoint,
    read_coefficients,
    read_config,
    series_table,
    spectrum_table,
    stats_table,
    trajectory_table,
    write_checkpoint,
    write_config,
    write_manifest,
    write_table,
)
from .metropolis import Schedule, parse_stages, restore_chain, run_schedule
from .poissonize import build_pool, poissonize, poissonize_member
from .spectral import (
    REFERENCES,
    combined_eigenvalues,
    diagonalize,
    ks_distance,
    min_ratio_statistic,
    sector_ratios,
)


LARGE_N = 20  # sizes at or above this need --large, the runtime warning gate
PARSEVAL_TOL = 1e-8  # relative error of sum c^2 against tr(H^2)/2^{n/2}


class UsageError(Exception):
    pass


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


# Each option's check, the fourth field of its OPTIONS entry, runs before
# the output directory is made: check(value, settings, --large) returns the
# parsed value or raises ValueError or UsageError.  Commands read the parsed
# values; run.cfg keeps the text as given.


def _at_least(bound):
    def check(value, s: dict, large: bool):
        if not bound <= value < math.inf:
            raise ValueError(f"must be finite and at least {bound:g}")
        return value
    return check


def _above(bound):
    def check(value, s: dict, large: bool):
        if not bound < value < math.inf:
            raise ValueError(f"must be finite and above {bound:g}")
        return value
    return check


def _distinct(values: tuple) -> tuple:
    if len(set(values)) != len(values):
        raise ValueError("lists an entry more than once")
    return values


def _ints(text: str) -> tuple[int, ...]:
    return _distinct(tuple(int(tok) for tok in text.split(",") if tok.strip()))


def _betas(text: str, s: dict, large: bool) -> tuple[float, ...]:
    betas = _distinct(tuple(float(tok) for tok in text.split(",") if tok.strip()))
    if not betas or not all(0.0 <= beta < math.inf for beta in betas):
        raise ValueError("want one or more finite nonnegative inverse temperatures")
    return betas


def _stages(text: str, s: dict, large: bool) -> tuple[tuple[float, int], ...]:
    return parse_stages(text)


def _fermions(text: str, s: dict, large: bool) -> tuple[int, ...]:
    indices = tuple(range(s["n"])) if text == "all" else _ints(text)
    for i in indices:
        if not 0 <= i < s["n"]:
            raise ValueError(f"fermion index {i} is outside 0..{s['n'] - 1}")
    return indices


def _otoc_pair(text: str, s: dict, large: bool) -> tuple[int, ...]:
    pair = _fermions(text, s, large)
    if len(pair) != 2:
        raise ValueError("want two different fermion indices")
    return pair


def _coefficients(text: str, s: dict, large: bool) -> CouplingTensor | None:
    if not text:
        return None
    couplings = read_coefficients(text)
    if couplings.n != s["n"]:
        raise ValueError(f"holds the couplings of n={couplings.n}")
    return couplings


def _resume(text: str, s: dict, large: bool) -> dict | None:
    """The checkpoint payload, once it restores into this run's chain."""
    if not text:
        return None
    payload = read_checkpoint(text)
    schedule = Schedule(parse_stages(s["stages"]), s["window"], s["per_sector"])
    params = EnsembleParams(n=s["n"], j_scale=s["j_scale"], seed=s["seed"])
    restore_chain(payload, params, schedule, s["member"], member_rng(s["seed"], s["chain_stream"]))
    return payload


def _moment_draws(value: int, s: dict, large: bool) -> int:
    value = _at_least(0)(value, s, large)
    if value > 0 and s["omega"] == 1:
        raise ValueError("the 2-moment needs --omega 0 or at least 2 states")
    return value


def _trend(text: str, s: dict, large: bool) -> tuple[EnsembleParams, ...]:
    return tuple(_make_params(nn, s["j_scale"], s["seed"], large) for nn in _ints(text))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parsed(s: dict, large: bool) -> dict:
    """The settings with each option's check applied; a bad value is a usage error."""
    values = dict(s)
    for name, value in s.items():
        check = OPTIONS[name][3]
        try:
            if check is not None:
                values[name] = check(value, s, large)
        except (ValueError, UsageError) as exc:
            raise UsageError(f"{_flag(name)} {value!r}: {exc}") from None
    return values


def _open_out(out: str | None) -> str:
    if not out:
        raise UsageError("--out is required (or set out= in the config file)")
    os.makedirs(out, exist_ok=True)
    return out


def _finish(out: str, settings: dict, tables: dict) -> int:
    """Write the tables, run.cfg and last the manifest, which marks the run complete.

    An earlier run's manifest goes first, so that it never vouches for files
    this run has replaced.  A name mapped to None is a file the command
    wrote itself: the manifest lists it.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out, "manifest.json"))
    for name, table in tables.items():
        if table is not None:
            write_table(os.path.join(out, name), table)
    cfg = {k: str(v) for k, v in settings.items()}
    write_config(os.path.join(out, "run.cfg"), cfg)
    paths = [os.path.join(out, name) for name in ["run.cfg", *tables]]
    write_manifest(os.path.join(out, "manifest.json"), cfg, paths)
    print(f"wrote {len(paths)} files + manifest.json to {out}")
    return 0


def _pool(params: EnsembleParams, s: dict):
    return build_pool(params, members=s["pool_members"], start_member=s["pool_start"])


# Each command below takes its resolved settings `s` (every option's check
# already applied), the ensemble built from them and the output
# directory, and returns its data files as {file name: table}; main writes
# them once the command has returned, so a failed run writes none.


def cmd_sample(s: dict, params: EnsembleParams, out: str) -> dict:
    couplings = sample_couplings(params, member=s["member"])
    spectra = diagonalize(build_hamiltonian(couplings), need_vectors=False)
    total = sum(sec.eigenvalues.size for sec in spectra)
    print(f"n={s['n']} member={s['member']}: {couplings.values.size} couplings, {total} eigenvalues")
    return {"coefficients.csv": coefficients_table(couplings), "spectrum.csv": spectrum_table(spectra)}


def cmd_poissonize(s: dict, params: EnsembleParams, out: str) -> dict:
    n = s["n"]
    pool = _pool(params, s)

    orig, poiss, reloc = [], [], []
    delta_rel, nonlocal_fracs = [], []
    for m in range(s["samples"]):
        pair = poissonize_member(params, pool, m, m)
        orig.append(sector_ratios(pair.spectra))
        poiss.append(sector_ratios(pair.poissonized_spectra))
        expansion = majorana_coefficients(pair.poissonized, n)
        local = truncate_local(expansion, k=4)
        reloc.append(sector_ratios(diagonalize(local, need_vectors=False)))
        delta = pair.delta()
        h_norm = float(np.linalg.norm(pair.poissonized))
        d_norm = float(np.linalg.norm(delta))
        delta_rel.append(d_norm / h_norm)
        nonlocal_fracs.append(0.0 if d_norm == 0.0 else expansion.nonlocal_fraction())
    # r~ = min(r, 1/r) of each pool, the one variable of the statistic and the histograms
    orig, poiss, reloc = (np.minimum(r, 1.0 / r) for r in map(np.concatenate, (orig, poiss, reloc)))

    gue, poisson_ref = REFERENCES["gue"], REFERENCES["poisson"]
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
    for name, value in rows:
        print(f"{name} = {value:.6g}")

    tables = {"pool.csv": pool_table(pool)}
    edges = np.linspace(0.0, 1.0, s["bins"] + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    for tag, ratios in (("original", orig), ("poissonized", poiss), ("relocalized", reloc)):
        density, _ = np.histogram(ratios, bins=edges, density=True)
        tables[f"ratio_hist_{tag}.csv"] = numeric_table("r,density", zip(centers, density))
    # iid levels: min-ratio density 2/(1+r)^2 on [0,1], written on the same grid
    reference = ((r, 2.0 / (1.0 + r) ** 2) for r in centers)
    tables["ratio_hist_reference.csv"] = numeric_table("r,density", reference)
    tables["stats.csv"] = stats_table(rows)
    return tables


def cmd_correlators(s: dict, params: EnsembleParams, out: str) -> dict:
    betas = s["betas"]
    a, b = s["otoc_pair"]
    times = np.linspace(0.0, s["t_max"] / s["j_scale"], s["t_points"])

    # one rotation per eigenbasis serves every beta and every series of a fermion
    fermions = dict.fromkeys((a, b, *s["two_point"]))
    if s["coefficients"] is not None:
        s0 = diagonalize(build_hamiltonian(sample_couplings(params, member=s["member"])))
        s1 = diagonalize(build_hamiltonian(s["coefficients"]))
        blocks0, blocks1 = ({i: fermion_block(side, i) for i in fermions} for side in (s0, s1))
        modified_tag = "modified"
    else:
        pair = poissonize_member(params, _pool(params, s), s["member"], s["draw_stream"])
        s0, s1 = pair.spectra, pair.poissonized_spectra
        # H' = U D' U^dag keeps the eigenvectors of H, so its blocks are those of H
        blocks0 = blocks1 = {i: fermion_block(s0, i) for i in fermions}
        modified_tag = "poissonized"
    sides = ((s0, blocks0), (s1, blocks1))

    tables = {}
    deviations = []
    otoc0, otoc1 = ([otoc(side, blocks[a], blocks[b], beta, times) for beta in betas] for side, blocks in sides)
    tables["otoc_original.csv"] = series_table(otoc0)
    tables[f"otoc_{modified_tag}.csv"] = series_table(otoc1)
    for beta, x, y in zip(betas, otoc0, otoc1):
        deviations.append(("otoc", beta, compare_series(x, y)))
    if 0.0 in betas:
        at0 = otoc0[betas.index(0.0)].values[0]
        print(f"otoc(t=0, beta=0) = {at0.real:+.12f}{at0.imag:+.3e}i")

    for i in s["two_point"]:
        g0, g1 = ([two_point(side, blocks[i], beta, times) for beta in betas] for side, blocks in sides)
        tables[f"two_point_f{i}_original.csv"] = series_table(g0)
        tables[f"two_point_f{i}_{modified_tag}.csv"] = series_table(g1)
        for beta, x, y in zip(betas, g0, g1):
            deviations.append((f"two_point_f{i}", beta, compare_series(x, y)))

    tables["deviation.csv"] = numeric_table("series,beta,max_deviation", deviations)
    worst = max(dev for _, _, dev in deviations)
    print(f"worst deviation vs {modified_tag}: {worst:.4f} over {len(deviations)} series")
    return tables


def cmd_decompose(s: dict, params: EnsembleParams, out: str) -> dict:
    n, k = s["n"], s["size_cut"]
    pair = poissonize_member(params, _pool(params, s), s["member"], s["draw_stream"])

    tables = {}
    stats = []
    for tag, op in (("original", pair.original), ("poissonized", pair.poissonized)):
        expansion = majorana_coefficients(op, n)
        # tr(H^2) = sum |H_ij|^2 for Hermitian H
        parseval = abs(expansion.weight() - float(np.vdot(op, op).real) / op.shape[0])
        rel = parseval / expansion.weight()
        print(f"parseval[{tag}]: relative error {rel:.3e}")
        if not rel <= PARSEVAL_TOL:
            raise NumericalError(f"parseval violated for {tag}: {rel:.3e}")
        sizes = size_spectrum(expansion)
        shares = zip(range(n + 1), sizes, sizes / float(np.sum(sizes)))
        tables[f"size_spectrum_{tag}.csv"] = numeric_table("k,weight,share", shares)
        stats.append((f"nonlocal_fraction_{tag}", nonlocal_fraction(op, n, k)))
    tables["expansion_poissonized.csv"] = expansion_table(majorana_coefficients(pair.poissonized, n))

    if s["trend_n"]:
        rows = []
        prev = None
        for p_nn in s["trend_n"]:
            nn = p_nn.n
            pool_nn = _pool(p_nn, s)
            fracs = [
                nonlocal_fraction(poissonize_member(p_nn, pool_nn, m, m).poissonized, nn, k)
                for m in range(s["trend_samples"])
            ]
            mean = float(np.mean(fracs))
            rows.append((nn, len(fracs), mean, 0.0 if prev is None else mean / prev, 2.0 ** (-nn / 4.0)))
            prev = mean
        for nn, _, mean, _, ref in rows:
            print(f"n={nn}: mean nonlocal fraction {mean:.4f} (2^(-n/4) = {ref:.4f})")
        tables["trend.csv"] = numeric_table("n,samples,mean_fraction,ratio_to_prev,geometric_ref", rows)

    tables["stats.csv"] = stats_table(stats)
    return tables


def cmd_metropolis(s: dict, params: EnsembleParams, out: str) -> dict:
    schedule = Schedule(s["stages"], s["window"], s["per_sector"])
    # the one file written while the command runs: it must outlive a failed chain
    checkpoint_path = os.path.join(out, "checkpoint.json")
    written = []  # one entry per checkpoint this run wrote; an earlier run's file is not listed

    result = run_schedule(
        params, schedule, member_rng(s["seed"], s["chain_stream"]),
        checkpoint_sink=lambda payload: written.append(write_checkpoint(checkpoint_path, payload)),
        member=s["member"], sigma0=s["sigma0"], checkpoint_every=s["checkpoint_every"], resume=s["resume"],
    )

    initial = sample_couplings(params, member=s["member"])
    s0 = diagonalize(build_hamiltonian(initial), need_vectors=False)
    s1 = diagonalize(build_hamiltonian(result.couplings), need_vectors=False)
    stat0 = min_ratio_statistic(sector_ratios(s0))
    stat1 = min_ratio_statistic(sector_ratios(s1))
    ks = ks_distance(combined_eigenvalues(s0), combined_eigenvalues(s1))
    rows = [
        ("statistic_initial", stat0),
        ("statistic_final", stat1),
        ("ks_distance", ks),
        ("trace_drift", result.trace_drift),
    ]
    for name, value in rows:
        print(f"{name} = {value:.6g}")
    tables = {
        "coefficients.csv": coefficients_table(result.couplings),
        "trajectory.csv": trajectory_table(result.trajectory),
        "spectrum_initial.csv": spectrum_table(s0),
        "spectrum_final.csv": spectrum_table(s1),
        "stats.csv": stats_table(rows),
    }
    if written:
        tables["checkpoint.json"] = None
    return tables


def cmd_gram(s: dict, params: EnsembleParams, out: str) -> dict:
    n = s["n"]
    dim = 2 ** (n // 2)
    omega = s["omega"] if s["omega"] > 0 else dim
    beta = s["beta"]

    pool = _pool(params, s)
    pair = poissonize_member(params, pool, s["member"], s["draw_stream"])
    gram = tfd_gram(pair.poissonized_spectra, beta=beta, t1=s["t1"], omega=omega)

    energies = combined_eigenvalues(pair.poissonized_spectra)
    shifted = energies - energies.min()
    z1 = float(np.sum(np.exp(-beta * shifted)))
    # double after the product: -2 beta overflows first for a finite beta near the float maximum
    z2 = float(np.sum(np.exp(-(beta * shifted) * 2.0)))
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
            pk = poissonize(pair.original, pool, member_rng(s["seed"] + 2, k))
            gk = tfd_gram(pk.poissonized_spectra, beta=beta, t1=s["t1"], omega=omega)
            draws.append(cyclic_moment(gk, 2).real)
        draws = np.array(draws)
        rows += [
            ("moment2_mc_mean", float(np.mean(draws))),
            ("moment2_mc_stderr", float(np.std(draws) / np.sqrt(draws.size))),
            ("moment2_mc_draws", float(draws.size)),
        ]
    for name, value in rows:
        print(f"{name} = {value:.6g}")
    return {"gram.csv": gram_table(gram), "report.csv": stats_table(rows)}


# Every option once: name -> (type, default, help, check), check as above or
# None.  Its flag is "--" plus the name with "_" -> "-", and a bool option is
# a flag without a value.  `config` and `large` steer the run: every command
# takes them, and they are neither read from a config file nor written to
# run.cfg.
OPTIONS = {
    "n": (int, 14, "number of Majorana fermions (even)", None),
    "j_scale": (float, 1.0, "coupling scale", None),
    "seed": (int, 42, "ensemble seed", None),
    "out": (str, None, "output directory", None),
    "config": (str, None, "key=value config file; flags override", None),
    "large": (bool, False, "allow expensive sizes (n >= 20)", None),
    "member": (int, 0, "disorder member index", _at_least(0)),
    "samples": (int, 64, "number of base draws", _at_least(1)),
    "pool_members": (int, 128, "pool size", _at_least(1)),
    "pool_start": (int, 1000, "first pool member index", _at_least(0)),
    "bins": (int, 24, "histogram bins over [0,1]", _at_least(1)),
    "betas": (str, "0,1,2,3", "comma list of inverse temperatures", _betas),
    "t_max": (float, 10.0, "time window in units of 1/J", _above(0.0)),
    "t_points": (int, 512, "time grid points", _at_least(1)),
    "otoc_pair": (str, "1,2", "two fermion indices, e.g. 1,2", _otoc_pair),
    "two_point": (str, "", "fermion indices for two-point series, or 'all'", _fermions),
    "coefficients": (str, "", "compare against couplings from this file", _coefficients),
    "draw_stream": (int, 0, "poissonization draw stream", _at_least(0)),
    "trend_n": (str, "", "comma list of sizes for the fraction trend", _trend),
    "trend_samples": (int, 16, "draws per size in the trend", _at_least(1)),
    "size_cut": (int, 4, "locality cut k", _at_least(0)),
    "chain_stream": (int, 10 ** 6, "proposal RNG stream", _at_least(0)),
    "sigma0": (float, 0.001, "initial step scale", _above(0.0)),
    "stages": (str, "0.5:20000,1.0:20000,1.5:20000,2.0:20000", "beta_D:steps comma list; empty for no-op",
               _stages),
    "window": (int, 100, "steps per adaptation window", _at_least(1)),
    "checkpoint_every": (int, 1000, "steps between checkpoints", _at_least(1)),
    "resume": (str, "", "checkpoint file to resume from", _resume),
    "per_sector": (bool, False, "objective sums sector spectra separately", None),
    "beta": (float, 1.0, "inverse temperature", _at_least(0.0)),
    "t1": (float, 50.0, "base time spacing of the state family", _above(0.0)),
    "omega": (int, 0, "number of states (0 means 2^(n/2))", _at_least(0)),
    "threshold": (float, 1e-8, "singular value cutoff for rank", _at_least(0.0)),
    "moment_draws": (int, 0, "ensemble draws for the moment average", _moment_draws),
}
_RUN_OPTIONS = ("config", "large")
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


@dataclass(frozen=True)
class Command:
    """A subcommand: its settings in run.cfg order and its own defaults."""

    run: Callable[[dict, EnsembleParams, str], dict]
    help: str
    options: tuple[str, ...]
    defaults: dict = field(default_factory=dict)
    large_defaults: dict = field(default_factory=dict)  # in force under --large
    # option -> the options it leaves unused once set: giving both is a usage
    # error, and run.cfg leaves the unused ones out
    replaces: dict = field(default_factory=dict)


COMMANDS = {
    "sample": Command(
        cmd_sample, "draw one disorder member and export couplings + spectrum",
        ("n", "j_scale", "seed", "member", "out"),
    ),
    "poissonize": Command(
        cmd_poissonize, "pool draw comparison: gap-ratio histograms and statistics",
        ("n", "j_scale", "seed", "samples", "pool_members", "pool_start", "bins", "out"),
        large_defaults={"n": 22, "samples": 16, "pool_members": 256},
    ),
    "correlators": Command(
        cmd_correlators, "two-point and OTOC series, original vs modified",
        ("n", "j_scale", "seed", "member", "betas", "t_max", "t_points", "otoc_pair", "two_point",
         "coefficients", "draw_stream", "pool_members", "pool_start", "out"),
        replaces={"coefficients": ("draw_stream", "pool_members", "pool_start")},
    ),
    "decompose": Command(
        cmd_decompose, "fermion size spectrum and nonlocal fraction",
        ("n", "j_scale", "seed", "member", "draw_stream", "pool_members", "pool_start",
         "trend_n", "trend_samples", "size_cut", "out"),
    ),
    "metropolis": Command(
        cmd_metropolis, "anneal the spectrum away from level repulsion",
        ("n", "j_scale", "seed", "member", "chain_stream", "sigma0", "stages", "window",
         "checkpoint_every", "resume", "per_sector", "out"),
        defaults={"n": 10},
    ),
    "gram": Command(
        cmd_gram, "thermofield-double Gram matrix, rank and cyclic moments",
        ("n", "j_scale", "seed", "member", "beta", "t1", "omega", "threshold", "draw_stream",
         "pool_members", "pool_start", "moment_draws", "out"),
        defaults={"n": 10},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="syklab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command_name, command in COMMANDS.items():
        sub = subs.add_parser(command_name, help=command.help)
        for name in command.options + _RUN_OPTIONS:
            kind, _, help_text, _ = OPTIONS[name]
            if kind is bool:
                sub.add_argument(_flag(name), dest=name, action="store_const", const=True, help=help_text)
            else:
                sub.add_argument(_flag(name), dest=name, type=kind, help=help_text)
    return parser


def _from_config(name: str, raw: str):
    kind = OPTIONS[name][0]
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise UsageError(f"config key {name}: {raw!r} is not a valid {kind.__name__}") from None


def _settings(args, command: Command) -> dict:
    """The command's settings in run.cfg order: flag, else config file, else default."""
    try:
        raw = read_config(args.config) if args.config else {}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for key in raw:
        if key not in command.options:
            raise UsageError(f"config key {key} is not an option of {args.command}")
    cfg = {key: _from_config(key, value) for key, value in raw.items()}
    defaults = {name: OPTIONS[name][1] for name in command.options}
    defaults.update(command.defaults)
    if args.large:
        defaults.update(command.large_defaults)
    flags = {name: getattr(args, name) for name in command.options if getattr(args, name) is not None}
    settings = {**defaults, **cfg, **flags}
    for name, unused in command.replaces.items():
        if settings[name]:
            for key in unused:
                if key in cfg or key in flags:
                    raise UsageError(f"{_flag(key)} {settings[key]!r}: unused with {_flag(name)}")
                del settings[key]
    return settings


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    command = COMMANDS[args.command]
    try:
        s = _settings(args, command)
        params = _make_params(s["n"], s["j_scale"], s["seed"], args.large)
        values = _parsed(s, args.large)
        out = _open_out(s["out"])
        return _finish(out, s, command.run(values, params, out))
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
