"""One pass of one workload, in a fresh process started by run.py.

    python3 benchmarks/worker.py --workload fig2_k2 --seed 1 \
        --workdir DIR --mode run|trace|setup [--spans FILE]

The pass imports the package, generates its inputs (set-up), runs the timed
region, checks the outputs and writes ``DIR/result.json``.  ``setup`` mode
stops after set-up; ``trace`` mode installs the span wrappers before set-up
and removes them before the checks.  The package is imported from the
``src`` directory next to this one, never from an installed copy.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _blas() -> dict:
    """Name, version and run-time thread count of the BLAS NumPy loaded."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}


def _environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas(),
    }


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    parser.add_argument("--spans", help="write the traced spans here (trace mode)")
    args = parser.parse_args()

    import crossearch

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(crossearch.__file__).startswith(src):
        print(f"error: crossearch imported from {crossearch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer().install() if args.mode == "trace" else None
    inputs = workload.prepare(args.seed, args.workdir)
    result = {"ready": time.monotonic()}
    if args.mode != "setup":
        t_start = time.perf_counter()
        outcome = workload.run(inputs)
        t_end = time.perf_counter()
        result["run_s"] = t_end - t_start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layers(t_start, t_end)
            if args.spans:
                tracer.write_spans(args.spans)
        ops, evaluations = workload.check(inputs, outcome)
        result["ops"] = ops
        result["evaluations"] = evaluations
        result["outputs"] = {
            os.path.basename(path): _digest(path)
            for path in (inputs.get("table"), inputs.get("svg"))
            if path is not None and os.path.exists(path)
        }
        result["env"] = _environment()
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
