"""Run the fvvem benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout: the solver is imported from its
``src`` directory.  One workload runs in this process; ``all`` (the default)
runs every workload in its own process, one at a time.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics instead.  The
exit code is 0 when every correctness check passed, 1 when one failed and
2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Single-threaded BLAS: a plain baseline whose timings do not depend on a
# second core being free.  BLAS reads its thread count once, when it loads,
# so this is set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from fvvem.linalg import DEFAULT_TOL
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "nproc": nproc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "default_tol": DEFAULT_TOL,
            "seed": seed}


def run_one(args) -> int:
    from perfbench import workloads as wlmod

    wl = wlmod.WORKLOADS[args.workload]
    reps, tracer = wlmod.run_reps(wl, args.seed, args.seconds, bool(args.trace))
    passes = [p for r in reps for p in r.passes]
    failures = sorted({f for p in passes for f in p.failures})
    if args.trace:
        values, detail = wlmod.per_layer(reps, tracer), {}
    else:
        values, detail = wlmod.end_to_end(reps)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    checks = passes[-1].checks
    detail.update({
        "workload": wl.name, "case": wl.case, "params": wl.params,
        "env": environment(args.seed),
        "reps": [{"traced": r.traced, "mesh_seed": r.mesh_seed, "setup_s": r.setup_s,
                  "pass_s": [p.seconds for p in r.passes], "kernel_s": r.kernel_s,
                  "steps": [len(p.step_times) for p in r.passes]} for r in reps],
        "checks": checks, "failures": failures,
    })
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, m in metrics.items():
        print(f"{wl.name}  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in checks.items():
        print(f"{wl.name}  {name} = {value:.6g}")
    print(f"{wl.name}  ops_attempted = {attempted}  ops_failed = {failed}")
    for f in failures:
        print(f"{wl.name}  CHECK FAILED: {f}")
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


def run_all(args, names) -> int:
    failed = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd).returncode
        if code != 0:
            failed.append(f"{name} (exit {code})")
    print("all workloads passed" if not failed else f"failed: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fvvem" / "__init__.py").is_file():
        print(f"error: no fvvem sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    pin_blas_threads()
    from perfbench.workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
