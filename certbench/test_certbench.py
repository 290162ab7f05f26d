"""Tests of the benchmark itself: exact counts, the output check, seeding,
the tracer under threads, and refusal to run without the program.

    python3 -m pytest -q certbench
"""

from __future__ import annotations

import gzip
import importlib
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_SUFFIXES = (".calls", ".accepted", ".entries_in", ".entries_out",
                  "_ratio")


def traced_batch(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = traced_batch(workload, 7), traced_batch(workload, 7)
    assert first["failures"] == [] and second["failures"] == []
    counts = {k: v for k, v in first["layers"].items()
              if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["layers"][k] for k in counts}
    assert first["layers"]["cli.main.calls"] == first["jobs"]


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.jobs_for(name, 3) == workloads.jobs_for(name, 3)
    assert workloads.jobs_for("relations", 3) != workloads.jobs_for("relations", 4)


def _certificate(d, ok=True):
    return json.dumps({"target": 4, "ok": ok, "witness_ok": True,
                       "rows": [{"r": r, "d": v} for r, v in enumerate(d)]})


def test_check_counts_wrong_outputs():
    job = workloads.Job("module:2:1,2,1,2", ())
    d = workloads.REFERENCE[job.job_id]["d"]
    assert workloads.check(job, 0, _certificate(d)) == []
    assert workloads.check(job, 4, _certificate(d))
    assert workloads.check(job, 0, _certificate(d[:-1] + [d[-1] + 1]))
    assert workloads.check(job, 0, _certificate(d, ok=False))
    assert workloads.check(job, 0, "not json")

    braid = workloads.Job("braid:2:1,2,1,2~2,1,2,1", ())
    good = {"orthogonality_ok": True, "orthogonality_deviation": 1e-16,
            "braid_equal": False, "braid_deviation": 1.25}
    assert workloads.check(braid, 0, json.dumps(good)) == []
    for bad in ({"braid_equal": True}, {"braid_deviation": 1e-12},
                {"orthogonality_deviation": 1e-6}):
        assert workloads.check(braid, 0, json.dumps({**good, **bad}))


def test_tracer_keeps_threads_apart(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("bqdim.cli")
    bqdim = sys.modules["bqdim"]
    qo = bqdim.qoperators
    op = bqdim.rep_table(bqdim.RepSpec(2, (1, 2))).entry(1, 1)
    tracer = Tracer(bqdim)
    tracer.install()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [qo.compose(op, op) for _ in range(200)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["qoperators.compose.calls"] == 8 * 200
    assert metrics["qoperators.TensorOperator.canonical.calls"] >= 8 * 200
    assert not hasattr(qo.compose, "__wrapped__")      # uninstalled
    # every span's parent is a span of its own thread
    path = tmp_path / "spans.jsonl.gz"
    tracer.write_spans(path)
    with gzip.open(path, "rt") as fh:
        spans = {s["id"]: s for s in map(json.loads, fh)}
    for span in spans.values():
        if span["name"] == "qoperators.compose":
            assert span["parent"] == 0
        else:
            assert spans[span["parent"]]["thread"] == span["thread"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "relations", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
