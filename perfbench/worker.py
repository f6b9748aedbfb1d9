"""One sample in a fresh interpreter: import goafem, set up, run, report.

    python3 perfbench/worker.py --workload NAME [--setup-only] [--spans PATH]

The package is imported from ``src/`` of the checkout this file sits
in.  The last stdout line is one JSON object.  Two ``time.monotonic()``
readings let the parent time the set-up from its spawn: ``t_boot``,
once numpy, scipy.sparse and scipy.sparse.linalg (the libraries goafem
imports) are loaded, and ``t_ready``, once goafem is imported and the
workload's ``BenchmarkSpec`` and ``AdaptiveParams`` are built, just
before ``goafem.run`` is entered (level 0).  With
``--setup-only`` the sample stops there.  With ``--spans`` the run is
traced and the spans are written to PATH as JSON lines; the file name
without its suffixes is the run id the spans carry.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, format_rows

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_info():
    """Version string and thread count of every OpenBLAS mapped into
    this process (numpy and scipy each bundle one)."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"lib": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    threads.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode().strip()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    # the same work for every version of goafem: run.py scales times by it
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    t_boot = time.monotonic()

    sys.path.insert(0, str(SRC))
    import goafem
    from goafem import driver

    if Path(goafem.__file__).resolve().parent != SRC / "goafem":
        raise RuntimeError(f"imported goafem from {goafem.__file__}, not from {SRC}")
    wl = WORKLOADS[args.workload]
    spec = goafem.get_benchmark(wl["problem"])
    params = goafem.AdaptiveParams(**wl["params"])
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "env": environment()}))
        return 0

    tracer = None
    if args.spans:
        tracer = Tracer(Path(args.spans).name.split(".")[0])
        tracer.install(driver)
        root = tracer.open("run", "driver")
    try:
        t0 = time.perf_counter()
        result = goafem.run(spec.problem, params)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from goafem.cli import rate_regression      # after the run: not part of its set-up

    records = result.records
    rows = format_rows(records, spec.exact_goal)
    cum_time = [r.cum_time for r in records]
    table = [{"estimatorProduct": r.est_product, "cumWork": r.cum_cost, "cumTime": r.cum_time}
             for r in records]
    if tracer is not None:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "t_boot": t_boot,
        "t_ready": t_ready,
        "wall_s": wall,
        "peak_rss_kib": peak_rss,
        "rows": rows,
        "cum_time": cum_time,
        "steps_combined": sum(r.steps_combined for r in records),
        "not_traced": tracer.missing if tracer is not None else [],
        "rate_vs_work": rate_regression(table, "estimatorProduct", "cumWork"),
        "rate_vs_time": rate_regression(table, "estimatorProduct", "cumTime"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
