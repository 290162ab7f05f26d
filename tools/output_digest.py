"""Digest the output of a fixed list of CLI jobs, one line per job.

    python3 tools/output_digest.py [--root CHECKOUT] > digest.txt

Runs every job through ``bqdim.cli.main`` in this one process, importing
``bqdim`` from ``CHECKOUT/src`` (default: the checkout holding this file),
and prints ``<sha256> <job id>`` per job.  The hash covers the exit code,
stdout, stderr and, for the ``--csv`` job, the file written.  Each job's
wall seconds go to stderr as ``<seconds> <job id>``, so stdout stays
comparable between machines.  The jobs are every certbench job at seeds 0
and 1, read from this checkout's ``certbench/workloads.py``, and the edge
jobs below, so two checkouts are compared on one job list: diff their
digests to see which jobs changed output.  A job id ending in
``:interned`` reruns the job without it with every growth kernel
interning its keys, and must print that job's digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (job id, argv); "{csv}" becomes a file in a scratch directory
EDGE_JOBS = (
    ("frt:1:torus", ("rep", "verify", "--n", "1", "--word", "1", "--frt",
                     "--t=0.6,0.8")),
    ("frt:2:torus", ("rep", "verify", "--n", "2", "--word", "1,2", "--frt",
                     "--t=0,1;-0.6,0.8")),
    ("frt:3:torus", ("rep", "verify", "--n", "3", "--word", "1,2,3", "--frt",
                     "--cutoff", "4", "--t=0,1;-1,0;0.6,0.8")),
    ("frt:2:tol", ("rep", "verify", "--n", "2", "--word", "1,2,1,2", "--frt",
                   "--cutoff", "4", "--tol", "1e-3")),
    ("frt:2:q", ("rep", "verify", "--n", "2", "--word", "2,1,2", "--frt",
                 "--cutoff", "4", "--q", "0.3")),
    ("frt:1:empty", ("rep", "verify", "--n", "1", "--word=", "--frt")),
    ("frt:1:empty-torus", ("rep", "verify", "--n", "1", "--word=", "--frt",
                           "--t=0,-1")),
    ("orth:2:q", ("rep", "verify", "--n", "2", "--word", "1,2,1,2",
                  "--q", "0.3")),
    ("braid:3", ("rep", "verify", "--n", "3", "--word", "1,2,1",
                 "--word2", "2,1,2", "--cutoff", "4")),
    ("braid:2", ("rep", "verify", "--n", "2", "--word", "1,2,1,2",
                 "--word2", "2,1,2,1", "--cutoff", "4")),
    ("module:3:12321", ("gkdim", "module", "--n", "3", "--word", "1,2,3,2,1",
                        "--rmax", "5")),
    ("module:3:w0", ("gkdim", "module", "--n", "3",
                     "--word", "3,2,3,2,1,2,3,2,1", "--rmax", "4")),
    ("module:2:121:small-q", ("gkdim", "module", "--n", "2", "--word", "1,2,1",
                              "--rmax", "6", "--q", "0.2")),
    ("module:3:12321:small-q", ("gkdim", "module", "--n", "3",
                                "--word", "1,2,3,2,1", "--rmax", "4",
                                "--q", "0.1")),
    ("module:2:csv", ("gkdim", "module", "--n", "2", "--word", "1",
                      "--rmax", "6", "--csv", "{csv}")),
    ("module:2:budget", ("gkdim", "module", "--n", "2", "--word", "1,2",
                         "--rmax", "6", "--basis-cap", "5")),
    ("module:2:rmax0", ("gkdim", "module", "--n", "2", "--word", "1,2",
                        "--rmax", "0")),
    ("module:1:probe", ("gkdim", "module", "--n", "1", "--word", "1",
                        "--rmax", "2", "--probe", "1")),
    ("homogeneous:1:1:rmax0", ("gkdim", "homogeneous", "--n", "1", "--m", "1",
                               "--rmax", "0")),
    ("homogeneous:2:1", ("gkdim", "homogeneous", "--n", "2", "--m", "1",
                         "--rmax", "2", "--probe", "2")),
    ("homogeneous:1:1:r5", ("gkdim", "homogeneous", "--n", "1", "--m", "1",
                            "--rmax", "5")),
    ("homogeneous:2:2:budget", ("gkdim", "homogeneous", "--n", "2", "--m", "2",
                                "--rmax", "3", "--basis-cap", "30")),
    ("homogeneous:3:3", ("gkdim", "homogeneous", "--n", "3", "--m", "3",
                         "--rmax", "2", "--probe", "2")),
    ("homogeneous:3:3:q0.3", ("gkdim", "homogeneous", "--n", "3", "--m", "3",
                              "--rmax", "2", "--q", "0.3")),
    ("homogeneous:2:2:q0.3", ("gkdim", "homogeneous", "--n", "2", "--m", "2",
                              "--rmax", "3", "--q", "0.3")),
    # 4-term generators at rank 2, r = 3
    ("homogeneous:2:1:r3", ("gkdim", "homogeneous", "--n", "2", "--m", "1",
                            "--rmax", "3", "--probe", "0")),
    # the probe series passes the cap while d(2) = 345 fits under it
    ("homogeneous:2:1:q0.05:cap348", ("gkdim", "homogeneous", "--n", "2",
                                      "--m", "1", "--rmax", "2", "--q", "0.05",
                                      "--basis-cap", "348")),
    ("entry:3:12321", ("rep", "entry", "--n", "3", "--word", "1,2,3,2,1",
                       "--k", "4", "--l", "4")),
    ("entry:2:torus", ("rep", "entry", "--n", "2", "--word", "1,2",
                       "--t=0,1;0.6,-0.8", "--k", "1", "--l", "3")),
    ("entry:1:torus", ("rep", "entry", "--n", "1", "--word", "1",
                       "--t=0,-1", "--k", "1", "--l", "3")),
    ("entry:1:signed-zero-torus", ("rep", "entry", "--n", "1", "--word", "1",
                                   "--t=-0,-1", "--k", "1", "--l", "3")),
    ("dot:3:12321", ("diagram", "dot", "--n", "3", "--word", "1,2,3,2,1")),
    ("paths:3:12321", ("diagram", "paths", "--n", "3", "--word", "1,2,3,2,1",
                       "--from", "1", "--to", "7")),
    ("weyl:3:normal-form", ("weyl", "normal-form", "--n", "3",
                            "--word", "1,2,3,2,1,2,3")),
    ("weyl:3:decompose", ("weyl", "decompose", "--n", "3",
                          "--word", "3,2,3,2,1,2,3,2,1", "--indices", "2,3")),
    ("weyl:3:longest", ("weyl", "longest", "--n", "3")),
    ("weyl:3:longest:indices", ("weyl", "longest", "--n", "3",
                                "--indices", "1,3")),
    ("weyl:3:1:dims", ("weyl", "dims", "--n", "3", "--m", "1")),
    ("weyl:3:3:dims", ("weyl", "dims", "--n", "3", "--m", "3")),
    ("module:2:12:r48", ("gkdim", "module", "--n", "2", "--word", "1,2",
                         "--rmax", "48")),
    # the deepest levels, where most images are closed before their sweep
    ("module:2:1212:r10", ("gkdim", "module", "--n", "2", "--word", "1,2,1,2",
                           "--rmax", "10")),
)
# the one job run with a broken witness list: a certificate failure, exit 4
SHIFTED_WITNESS_JOB = ("homogeneous:1:1:shifted-witness",
                       ("gkdim", "homogeneous", "--n", "1", "--m", "1",
                        "--rmax", "1", "--probe", "1"))
# jobs rerun as "<job id>:interned" with interned kernel keys
INTERNED_JOBS = ("seed0:module:2:1,2,1,2", "seed0:homogeneous:2:2")


def certbench_jobs() -> list[tuple[str, tuple[str, ...]]]:
    sys.path.insert(0, str(ROOT / "certbench"))
    workloads = importlib.import_module("workloads")
    return [(f"seed{seed}:{job.job_id}", job.argv)
            for seed in (0, 1) for name in workloads.WORKLOADS
            for job in workloads.jobs_for(name, seed)]


@contextlib.contextmanager
def shifted_witness(growth):
    """growth.homogeneous_witnesses with its first letter on the next slot."""
    real = growth.homogeneous_witnesses

    def shifted(n, m, w):
        (op, slot, step), *rest = real(n, m, w)
        return [(op, slot + 1, step)] + rest

    growth.homogeneous_witnesses = shifted
    try:
        yield
    finally:
        growth.homogeneous_witnesses = real


@contextlib.contextmanager
def interned_keys(growth):
    """Every growth kernel interning its keys, however few they are."""
    real = growth._DENSE_KEYS
    growth._DENSE_KEYS = 0
    try:
        yield
    finally:
        growth._DENSE_KEYS = real


def digest(cli, argv: tuple[str, ...], scratch: Path) -> str:
    csv = scratch / "series.csv"
    csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([a.replace("{csv}", str(csv)) for a in argv])
        except SystemExit as exc:       # argparse refusals
            rc = exc.code
    h = hashlib.sha256()
    for part in (str(rc), out.getvalue(), err.getvalue()):
        h.update(part.encode() + b"\0")
    if csv.exists():
        h.update(csv.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ provides bqdim")
    args = parser.parse_args(argv)
    src = args.root.resolve() / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("bqdim.cli")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bqdim was imported from {cli.__file__}, not {src}")
    growth = importlib.import_module("bqdim.growth")
    jobs = certbench_jobs() + list(EDGE_JOBS)
    with tempfile.TemporaryDirectory() as tmp:
        for job_id, job_argv in jobs:
            timed(job_id, lambda: digest(cli, job_argv, Path(tmp)))
        job_id, job_argv = SHIFTED_WITNESS_JOB
        with shifted_witness(growth):
            timed(job_id, lambda: digest(cli, job_argv, Path(tmp)))
        with interned_keys(growth):
            for job_id in INTERNED_JOBS:
                job_argv = dict(jobs)[job_id]
                timed(f"{job_id}:interned",
                      lambda: digest(cli, job_argv, Path(tmp)))
    return 0


def timed(job_id: str, run) -> None:
    """Print run()'s digest with the job id, and its wall seconds to
    stderr."""
    start = time.perf_counter()
    print(run(), job_id, flush=True)
    print(f"{time.perf_counter() - start:.2f} {job_id}", file=sys.stderr,
          flush=True)


if __name__ == "__main__":
    sys.exit(main())
