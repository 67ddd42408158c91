"""One benchmark child process: import syklab, call its CLI once, report.

    python3 perfbench/runner.py '<json spec>'

The spec names the repository root, the CLI arguments (none for a set-up
probe, which only imports), whether to trace, and where to write the
result.  The result holds the monotonic clock reading at which `main` is
about to be called (the parent subtracts its spawn time to get set-up), the
time spent in `main`, the exit code, this process's own peak RSS and the
library versions.  A traced call also writes its spans next to the result.
"""

import json
import os
import resource
import sys
import time

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with the parent


def blas_record(np) -> dict:
    """Name, version and thread count of the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                record["threads"] = int(getter())
                return record
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    import scipy.stats  # noqa: F401  (syklab.cli imports it; named so set-up covers it explicitly)

    import syklab
    import syklab.cli

    if not os.path.abspath(syklab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"syklab was imported from {syklab.__file__}, not from {src}")
    recorder = None
    entry = syklab.cli.main
    if spec["trace"]:
        from spans import Recorder, install

        recorder = Recorder(spec["run_id"])
        entry = install(recorder)

    t_main = clock()
    rc = entry(spec["argv"]) if spec["argv"] is not None else 0
    t_end = clock()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux

    result = {
        "t_main": t_main,
        "main_s": t_end - t_main,
        "rc": rc,
        "peak_rss_mb": peak_kb / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_record(np)},
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.save(spec["result"][: -len(".json")] + "-spans.npz")
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
