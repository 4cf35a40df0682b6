"""memlog benchmark: one workload, end-to-end metrics or a traced per-layer run.

  python3 perfbench/run.py --workload {train,detect,ship} --seed N --seconds S \\
      --trace {0,1} --slo-ms MS --ref-rps R --ladder-start R0 --ladder-factor F \\
      --ladder-refine K

Runs against the code in ``src/`` (put on the path here; nothing is
installed).  Prints an ``env`` line, a ``detail`` line with the
workload's own metrics, and as the last line one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload runs untraced, then traced, and the metrics are the
per-layer ones plus the tracing overhead between the two runs.
See ``perfbench/README.md`` for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback

import workloads
from inputs import bench_dir, source_digest
from procs import ROOT, SRC


def environment(args: argparse.Namespace) -> dict:
    import numpy

    from memlog import kernels

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "backend": kernels.BACKEND, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit, "src_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "detect", "ship"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", type=float, required=True, help="detect tail latency limit")
    parser.add_argument("--ref-rps", type=float, required=True, help="detect reference rate")
    parser.add_argument("--ladder-start", type=float, required=True, help="first detect ladder rate")
    parser.add_argument("--ladder-factor", type=float, required=True, help="ratio between ladder rates")
    parser.add_argument("--ladder-refine", type=int, required=True,
                        help="bisection steps after the ladder")
    return parser.parse_args(argv)


def make_context(args, traced: bool, seconds: float) -> workloads.Context:
    workdir = bench_dir() / f"run-{args.workload}-{args.seed}-{os.getpid()}-{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workloads.Context(seed=args.seed, seconds=seconds, traced=traced, workdir=workdir,
                             slo_ms=args.slo_ms, ref_rps=args.ref_rps,
                             ladder_start=args.ladder_start, ladder_factor=args.ladder_factor,
                             ladder_refine=args.ladder_refine)


def run_once(args, traced: bool, seconds: float) -> workloads.Outcome:
    ctx = make_context(args, traced, seconds)
    try:
        return getattr(workloads, args.workload)(ctx)
    finally:
        ctx.stop_all()
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memlog" / "__init__.py").is_file():
        print(f"error: no memlog sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a SIGTERM unwinds through the finally blocks that stop every child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        # a traced run splits its time between an untraced and a traced half
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        plain = run_once(args, traced=False, seconds=seconds)
        runs = [plain]
        if args.trace:
            traced = run_once(args, traced=True, seconds=seconds)
            runs.append(traced)
    except Exception:
        traceback.print_exc()
        return 1

    errors = [e for run in runs for e in run.errors]
    if args.trace:
        # layers a workload never reaches did no work: 0 calls, 0 ms
        values = {name: 0.0 for name in workloads.LAYER_METRICS}
        values.update(traced.layers)
        base, with_spans = plain.e2e.get("latency_ms"), traced.e2e.get("latency_ms")
        if base and with_spans:
            values["trace.overhead_pct"] = 100.0 * (with_spans / base - 1.0)
        units = workloads.LAYER_METRICS
        detail = dict(traced.detail, untraced=plain.e2e, traced=traced.e2e)
    else:
        values, units, detail = plain.e2e, workloads.E2E_METRICS, plain.detail
    missing = sorted(set(units) - set(values))
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    attempted = max(1, sum(run.attempted for run in runs))
    failed = sum(run.failed for run in runs)
    detail["failed_share"] = failed / attempted
    print("detail " + json.dumps(detail, sort_keys=True, default=str), flush=True)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
