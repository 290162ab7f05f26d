"""Run one batch of a workload in this (fresh) process and report it.

    python3 certbench/worker.py --workload NAME --seed N [--trace] [--spans PATH]
    python3 certbench/worker.py --import-only

Times ``import bqdim.cli``, then runs every job of the workload through
``bqdim.cli.main`` one after the other (closed loop, one client), checks
each job's output and prints one JSON line: set-up, wall and CPU time,
peak memory, failures and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def import_cli():
    """Import bqdim.cli from this checkout's src/; returns (module, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    cli = importlib.import_module("bqdim.cli")
    setup_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bqdim was imported from {cli.__file__}, not {src}")
    return cli, setup_s


def run_batch(cli, jobs, tracer=None) -> dict:
    """Run the jobs in order; times cover the jobs only, not the checks."""
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli.main(list(job.argv))
            except Exception:       # a crashing job is a failed job
                rc, err = -1, io.StringIO(traceback.format_exc())
            outputs.append((job, rc, out.getvalue(), err.getvalue()))
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for job, rc, stdout, stderr in outputs:
        bad = workloads.check(job, rc, stdout)
        if bad:
            failures.append({"job": job.job_id, "argv": list(job.argv),
                             "mismatch": bad, "stderr": stderr[-2000:]})
    return {"wall_s": wall_s, "cpu_s": cpu_s, "jobs": len(jobs),
            "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="with --trace, write the spans here (jsonl.gz)")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)

    cli, setup_s = import_cli()
    result = {"setup_s": setup_s,
              "numpy": sys.modules["numpy"].__version__}
    if not args.import_only:
        if args.workload is None:
            ap.error("--workload is required")
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(importlib.import_module("bqdim"))
        jobs = workloads.jobs_for(args.workload, args.seed)
        result.update(run_batch(cli, jobs, tracer))
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans:
                result["spans"] = tracer.write_spans(args.spans)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
