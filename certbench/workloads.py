"""Workload definitions, seeded inputs and the output check.

A workload is a fixed list of certificate jobs, each one ``bqdim`` command
line.  The seed only picks the job order and, where the command takes one,
a unit-modulus torus point; the fields the check compares do not depend on
either, so one reference serves every seed.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

TOL = 1e-8          # the CLI's default relation tolerance


@dataclass(frozen=True)
class Job:
    job_id: str
    argv: tuple[str, ...]


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

MODULE_WORDS = ("1", "2", "1,2", "2,1,2", "1,2,1,2")
HOMOGENEOUS_PAIRS = ((1, 1), (2, 2))
# (job id, rank, argv tail without --t)
RELATION_JOBS = (
    ("orth:3:1,2,3,2,1,2", 3, ("--word", "1,2,3,2,1,2")),
    ("braid:2:1,2,1,2~2,1,2,1", 2, ("--word", "1,2,1,2", "--word2", "2,1,2,1")),
    ("frt:3:1,2,3", 3, ("--word", "1,2,3", "--frt")),
)


def torus_arg(rng: random.Random, n: int) -> str:
    """A unit-modulus torus point as one ``--t=`` argument.

    Written with ``=`` because argparse reads ``--t -0.5,...`` as a flag."""
    points = (cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(n))
    return "--t=" + ";".join(f"{z.real!r},{z.imag!r}" for z in points)


def _module_r8(rng: random.Random) -> list[Job]:
    return [Job(f"module:2:{w}",
                ("--threads", "1", "gkdim", "module", "--n", "2", "--word", w,
                 "--rmax", "8", torus_arg(rng, 2)))
            for w in MODULE_WORDS]


def _homogeneous_r3(rng: random.Random) -> list[Job]:
    return [Job(f"homogeneous:{n}:{m}",
                ("--threads", "2", "gkdim", "homogeneous", "--n", str(n),
                 "--m", str(m), "--rmax", "3", "--probe", "3"))
            for n, m in HOMOGENEOUS_PAIRS]


def _relations(rng: random.Random) -> list[Job]:
    return [Job(job_id, ("rep", "verify", "--n", str(n), *tail,
                         "--cutoff", "6", torus_arg(rng, n)))
            for job_id, n, tail in RELATION_JOBS]


WORKLOADS = {
    "module-r8": _module_r8,
    "homogeneous-r3": _homogeneous_r3,
    "relations": _relations,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs with seeded inputs, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# reference and check
# ---------------------------------------------------------------------------

# Mathematically fixed fields of each job's output.  ``lower``, ``upper``
# and ``probe_values`` are left out on purpose: they are certificate bounds
# that a correct change to the certificates may move.
REFERENCE = {
    "module:2:1": {"target": 1, "d": [1, 2, 3, 4, 5, 6, 7, 8, 9]},
    "module:2:2": {"target": 1, "d": [1, 3, 5, 7, 9, 11, 13, 15, 17]},
    "module:2:1,2": {"target": 2, "d": [1, 4, 9, 16, 25, 36, 49, 64, 81]},
    "module:2:2,1,2": {"target": 3,
                       "d": [1, 7, 22, 50, 95, 161, 252, 372, 525]},
    "module:2:1,2,1,2": {"target": 4,
                         "d": [1, 9, 38, 110, 255, 511, 924, 1548, 2445]},
    "homogeneous:1:1": {"target": 3, "d": [1, 10, 35, 84]},
    "homogeneous:2:2": {"target": 7, "d": [1, 21, 211, 1343]},
}


def check(job: Job, rc: int, stdout: str) -> list[str]:
    """Mismatches between one job's output and the reference; [] if none."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    kind = job.job_id.split(":", 1)[0]
    if kind in ("module", "homogeneous"):
        return _check_certificate(out, REFERENCE[job.job_id])
    return _check_relations(kind, out)


def _check_certificate(out: dict, ref: dict) -> list[str]:
    bad = []
    if out.get("target") != ref["target"]:
        bad.append(f"target {out.get('target')} != {ref['target']}")
    d = [row.get("d") for row in out.get("rows", [])]
    if d != ref["d"]:
        bad.append(f"d series {d} != {ref['d']}")
    for key in ("ok", "witness_ok"):
        if out.get(key) is not True:
            bad.append(f"{key} is {out.get(key)!r}")
    return bad


def _check_relations(kind: str, out: dict) -> list[str]:
    bad = []
    dev = out.get("orthogonality_deviation")
    if out.get("orthogonality_ok") is not True:
        bad.append(f"orthogonality_ok is {out.get('orthogonality_ok')!r}")
    if not isinstance(dev, float) or not dev < TOL:
        bad.append(f"orthogonality_deviation {dev!r} is not below {TOL}")
    if kind == "braid":
        # braid-related words give unitarily equivalent but entrywise
        # different tables, so inequality is the correct answer here
        bdev = out.get("braid_deviation")
        if out.get("braid_equal") is not False:
            bad.append(f"braid_equal is {out.get('braid_equal')!r}")
        if not isinstance(bdev, float) or not bdev > TOL:
            bad.append(f"braid_deviation {bdev!r} is not above {TOL}")
    if kind == "frt" and not isinstance(out.get("frt_deviation"), float):
        bad.append("frt report missing")
    return bad
