"""Span recorder for the traced benchmark run.

`install` rebinds public functions of the syklab modules, in every
`syklab.*` namespace that holds them, to wrappers that record one span per
call: name, start, end, and the span that was open when the call began.
Spans stay in memory and are written out when the process ends.  A span's
self time is its duration minus the durations of its child spans; the
process is single threaded (every workload runs with --jobs 1), so child
spans nest inside their parent and never overlap each other.

Besides spans, some wrappers count work at the same boundary: pool members,
expansion terms, correlator time points, bytes written, Metropolis
acceptances, and a content digest of every Hamiltonian handed to
`poissonize`, from which the benchmark derives how often an input repeats.
"""

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time

import numpy as np

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux

COUNTERS = (
    "poissonize.build_pool.members",
    "decompose.majorana_coefficients.terms",
    "correlators.otoc.time_points",
    "correlators.otoc.gflop_computed",
    "correlators.two_point.time_points",
    "metropolis.accepted",
    "exports.bytes_written",
)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent span index or -1)
        self._stack = [-1]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.digests: list[str] = []
        self.installed: list[str] = []  # every span name a wrapper can record

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, before=None, after=None):
        """fn with a span around each call.

        name is a string or a function of the bound arguments; before(args)
        and after(args, result) run outside the span, so their cost lands in
        the caller's self time and in the tracing overhead, not in fn's.
        """
        self.installed += [name] if isinstance(name, str) else []
        sig = inspect.signature(fn)
        needs_args = callable(name) or before is not None or after is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            label = name(bound) if callable(name) else name
            if before is not None:
                before(bound)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (self._name_id(label), start, end, parent)
            if after is not None:
                after(bound, result)
            return result

        return traced

    def _arrays(self):
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        return table[:, 0].astype(np.int64), table[:, 1], table[:, 2], table[:, 3].astype(np.int64)

    def summary(self) -> dict:
        """Per span name: calls, self time and inclusive time; plus counters."""
        name, start, end, parent = self._arrays()
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        own = duration - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        total_s = np.bincount(name, weights=duration, minlength=k)
        return {
            "run_id": self.run_id,
            "installed": self.installed,
            "spans": int(name.size),
            "functions": {
                n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
                for i, n in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "digests": self.digests,
        }

    def save(self, path: str) -> None:
        name, start, end, parent = self._arrays()
        np.savez(
            path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
            name=name, start=start, end=end, parent=parent,
        )


def _rebind(original, wrapper) -> None:
    """Replace original by wrapper in every loaded syklab namespace."""
    hits = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "syklab" and not module_name.startswith("syklab."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"{original.__qualname__} is bound in no syklab namespace")


def install(rec: Recorder):
    """Rebind the traced syklab functions; returns the wrapped cli.main.

    Every module must already be imported.  The span names are
    '<module>.<function>', except that diagonalize splits into
    'spectral.diagonalize.vectors' and '.values' by need_vectors.
    """
    # by module path: the package namespace rebinds `syklab.poissonize` to the function
    pauli, ensemble, spectral, poissonize, decompose, correlators, metropolis, exports, cli = (
        importlib.import_module(f"syklab.{name}") for name in (
            "pauli", "ensemble", "spectral", "poissonize", "decompose",
            "correlators", "metropolis", "exports", "cli",
        )
    )

    def add(key, amount):
        rec.counters[key] += amount

    def digest(a):
        data = np.ascontiguousarray(a["h"]).tobytes()
        rec.digests.append(hashlib.blake2b(data, digest_size=16).hexdigest())

    def otoc_work(a):
        points = len(a["times"])
        add("correlators.otoc.time_points", points)
        dim = sum(len(sector.eigenvalues) for sector in a["spectra"])
        add("correlators.otoc.gflop_computed", points * 8.0 * dim**3 / 1e9)

    def accepted(a, result):
        add("metropolis.accepted", result.accept_count - a["state"].accept_count)

    def written(a, result):
        add("exports.bytes_written", os.path.getsize(a["path"]))

    targets = [
        (pauli, "hermitian_monomial", None, None),
        (pauli, "accumulate_string", None, None),
        (pauli, "sector_split", None, None),
        (pauli, "require_hermitian", None, None),
        (pauli, "majorana_matrix", None, None),
        (ensemble, "sample_couplings", None, None),
        (ensemble, "build_hamiltonian", None, None),
        (spectral, "reference_ratio_statistic", None, None),
        (poissonize, "build_pool", lambda a: add("poissonize.build_pool.members", a["members"]), None),
        (poissonize, "poissonize", digest, None),
        (decompose, "majorana_coefficients", None,
         lambda a, r: add("decompose.majorana_coefficients.terms", len(r.coefficients))),
        (decompose, "truncate_local", None, None),
        (decompose, "nonlocal_fraction", None, None),
        (decompose, "size_spectrum", None, None),
        (correlators, "otoc", otoc_work, None),
        (correlators, "two_point", lambda a: add("correlators.two_point.time_points", len(a["times"])), None),
        (correlators, "tfd_gram", None, None),
        (correlators, "cyclic_moment", None, None),
        (correlators, "gram_rank", None, None),
        (metropolis, "run_schedule", None, None),
        (metropolis, "metropolis_step", None, accepted),
        (metropolis, "objective", None, None),
    ]
    targets += [
        (exports, key, None, written)
        for key in sorted(vars(exports))
        if key.startswith("write_") and callable(getattr(exports, key))
    ]
    for module, key, before, after in targets:
        original = getattr(module, key)
        short = module.__name__.split(".", 1)[1]
        _rebind(original, rec.wrap(original, f"{short}.{key}", before, after))

    diagonalize = spectral.diagonalize
    rec.installed += ["spectral.diagonalize.vectors", "spectral.diagonalize.values"]
    _rebind(diagonalize, rec.wrap(
        diagonalize,
        lambda a: "spectral.diagonalize.vectors" if a["need_vectors"] else "spectral.diagonalize.values",
    ))
    builder = ensemble.HamiltonianBuilder
    builder.__init__ = rec.wrap(builder.__init__, "ensemble.HamiltonianBuilder")
    return rec.wrap(cli.main, "cli.main")
