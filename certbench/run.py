"""bqdim certificate benchmark.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout that holds ``src/bqdim``.  Each batch of
the workload's jobs runs in a fresh worker process (``worker.py``), one
after the other, until the time is used; at least one batch always runs.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, medians over the batches.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics of the traced ones (medians) plus ``trace.overhead_s``,
the traced minus the untraced median wall time.  Details of every run,
with the environment, go to ``.certbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".certbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 170
SETUP_SAMPLES = 7       # set-up times per run, counting the batches' own


def worker(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(numpy_version: str) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "commit": commit(),
            "loadavg": os.getloadavg()}


def run_batches(workload: str, seed: int, seconds: float, trace: bool,
                spans_path: Path) -> list[dict]:
    """Closed loop of batches; a new batch starts only while more than half
    a batch of the time is left, so a run ends close to ``seconds``."""
    batches: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(batches) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed)]
        if traced:
            args.append("--trace")
            if not any(b["traced"] for b in batches):
                args += ["--spans", str(spans_path)]
        t0 = time.perf_counter()
        report = worker(*args)
        report["traced"] = traced
        batches.append(report)
        last = time.perf_counter() - t0
        left = seconds - (time.perf_counter() - start)
        if left < last / 2 and len(batches) >= (2 if trace else 1):
            return batches


def median_of(batches: list[dict], key: str) -> float:
    return statistics.median(b[key] for b in batches)


def summarise(batches: list[dict], setups: list[float], trace: bool) -> dict:
    plain = [b for b in batches if not b["traced"]]
    attempted = sum(b["jobs"] for b in batches)
    failed = sum(len(b["failures"]) for b in batches)
    if trace:
        traced = [b for b in batches if b["traced"]]
        names = traced[0]["layers"]
        metrics = {
            name: {"value": statistics.median(b["layers"][name] for b in traced),
                   "unit": "count" if name.endswith(
                       (".calls", ".accepted", ".entries_in", ".entries_out"))
                   else "ratio" if name.endswith("_ratio") else "s"}
            for name in names}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "wall_s") - median_of(plain, "wall_s"),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median_of(plain, "cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"),
                            "unit": "MB"},
            "jobs_ok_frac": {"value": 1.0 - failed / attempted,
                             "unit": "fraction"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bqdim" / "cli.py").is_file():
        print(f"error: no src/bqdim/cli.py under {ROOT}; run the benchmark "
              "from a checkout of bqdim", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_before = os.getloadavg()

    # the first import compiles bytecode, which users pay only once
    warm = worker("--import-only")
    batches = run_batches(args.workload, args.seed, args.seconds,
                          bool(args.trace), OUT / f"{stem}.spans.jsonl.gz")
    setups = [b["setup_s"] for b in batches if not b["traced"]]
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker("--import-only")["setup_s"])
    result = summarise(batches, setups, bool(args.trace))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": {**environment(warm["numpy"]),
                              "loadavg_before": load_before},
              "setup_samples": setups, "batches": batches, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for b in batches:
        for failure in b["failures"]:
            print(f"FAILED {failure['job']}: {'; '.join(failure['mismatch'])}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
