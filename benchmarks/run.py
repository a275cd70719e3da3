"""Benchmark of crossearch on three workloads.

    python3 benchmarks/run.py --workload fig2_k2 --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing.  Each pass of a workload runs in a fresh process
(``worker.py``), so set-up time and peak memory are measured from a cold
interpreter.  The run repeats passes, at least two, until ``--seconds`` of
timed work is done, and reports medians over passes.  Passes of one run share
their seed, so their CSV and SVG outputs must be byte-identical.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# The keys of workloads.WORKLOADS, repeated so this process never imports NumPy.
WORKLOADS = ("fig2_k2", "fig3_k2", "exact_k34")

SETUP_PROBES = 6  # set-up-only processes per run, besides the passes
MIN_PASSES = 2
WALL_BUDGET_S = 150.0  # start no pass that would end after this
HARD_LIMIT_S = 175.0  # kill a pass still running at this point

UNITS = {"run_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Pass:
    """Outcome of one worker process."""

    def __init__(self, mode: str, result: dict | None, setup_s: float, error: str | None):
        self.mode = mode
        self.result = result or {}
        self.setup_s = setup_s
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


def _source_identity() -> dict:
    """Commit when the checkout is a git work tree, and a digest of ``src``."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _child_env() -> dict:
    # One BLAS thread: on a shared host a second BLAS thread waits at every
    # call's barrier for a vCPU the host may have given away, which turns
    # scheduler noise into run-time noise.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[name] = "1"
    return env


def _spawn(workload, seed, mode, workdir, deadline, spans=None) -> Pass:
    os.makedirs(workdir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", workdir, "--mode", mode]
    if spans:
        argv += ["--spans", spans]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return Pass(mode, None, 0.0, f"{mode} pass killed after the time limit")
    path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        tail = proc.stderr.strip().splitlines()[-3:]
        return Pass(mode, None, 0.0, f"{mode} pass exited {proc.returncode}: {tail}")
    with open(path) as fh:
        result = json.load(fh)
    return Pass(mode, result, result["ready"] - start, None)


def _run_passes(workload, seed, seconds, trace, workdir) -> tuple[list[float], list[Pass]]:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    counter = itertools.count()

    def spawn(mode, spans=None):
        return _spawn(workload, seed, mode, os.path.join(workdir, str(next(counter))),
                      deadline, spans)

    spawn("setup")  # compiles bytecode and warms the file cache; not counted
    setup = [spawn("setup") for _ in range(SETUP_PROBES)]
    passes: list[Pass] = []
    timed = 0.0
    longest = 0.0
    spans = os.path.join(WORK, f"spans_{workload}.csv")
    # Stop at the pass count that ends nearest to ``seconds`` of timed work.
    while len(passes) < MIN_PASSES or timed + 0.5 * timed / len(passes) < seconds:
        if passes and time.monotonic() - started + 1.5 * longest > WALL_BUDGET_S:
            break
        mode = "trace" if trace and len(passes) % 2 == 1 else "run"
        began = time.monotonic()
        done = spawn(mode, spans if mode == "trace" else None)
        passes.append(done)
        longest = max(longest, time.monotonic() - began)
        if not done.ok:
            break
        timed += done.result["run_s"]
    setup_s = [p.setup_s for p in setup + passes if p.ok and p.mode != "trace"]
    return setup_s, passes + [p for p in setup if not p.ok]


def _operations(passes: list[Pass]) -> list[tuple[str, str | None]]:
    """Every operation of every pass, plus one repeat check per later pass."""
    ops = []
    first = None
    for index, p in enumerate(passes):
        if not p.ok:
            ops.append((f"pass {index}", p.error))
            continue
        ops.extend((f"pass {index} {name}", err) for name, err in p.result["ops"])
        outputs = p.result["outputs"]
        if not outputs:
            continue
        if first is None:
            first = outputs
        else:
            error = None if outputs == first else "differ from the first pass at the same seed"
            ops.append((f"pass {index} outputs", error))
    return ops


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setup_s, passes = _run_passes(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = _operations(passes)
    failed = [(name, err) for name, err in ops if err is not None]
    for name, err in failed:
        print(f"FAILED {workload} {name}: {err}", file=sys.stderr)
    good = [p for p in passes if p.ok]
    plain = [p.result for p in good if p.mode == "run"]
    traced = [p.result for p in good if p.mode == "trace"]
    if not plain or (trace and not traced):
        print(f"error: {workload}: no pass completed", file=sys.stderr)
        return 1
    run_s = statistics.median([r["run_s"] for r in plain])
    if trace:
        metrics = {
            key: statistics.median([r["layers"][key] for r in traced])
            for key in traced[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = statistics.median([r["run_s"] for r in traced]) / run_s
        units = {key: _layer_unit(key) for key in metrics}
    else:
        metrics = {
            "run_s": run_s,
            "evals_per_s": statistics.median([r["evaluations"] / r["run_s"] for r in plain]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
        units = UNITS
    env = {"workload": workload, "seed": seed, **good[0].result["env"], **_source_identity()}
    print(f"{workload}  seed {seed}  {len(plain)} untraced + {len(traced)} traced passes, "
          f"{len(setup_s)} set-up samples")
    print("  run_s of each pass: " + " ".join(
        f"{p.mode}={p.result['run_s']:.4f}" for p in good))
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>16.6g} {units[key]}")
    print(f"  {'fail_ratio':<44} {len(failed) / len(ops):>16.6g} ratio"
          f"  ({len(failed)} failed of {len(ops)} operations)")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="timed work per run, at least two passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "crossearch", "__init__.py")):
        print(f"error: no crossearch sources under {ROOT}/src", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = max(status, run_workload(workload, args.seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
