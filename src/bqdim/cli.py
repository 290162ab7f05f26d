"""Command-line front end.

Subcommands cover the Weyl-group computations, representation-table
verification, diagram rendering and path queries, and the growth
certificates.  All machine output is JSON with a top-level schema tag;
growth series can additionally be written as CSV.

Exit codes: 0 success, 1 stdout closed by its reader (a broken pipe, as
in `bqdim ... | head`; the run stops without a traceback), 2 usage error
(an unwritable --csv path included) or a floating-point overflow (q^b past
the float range at tiny q), 3 budget exceeded / partial result, 4
certificate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from dataclasses import dataclass

from . import diagrams, growth, repsoq, weylb

SCHEMA = "bqdim/1"


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Bundle of the numeric run parameters with their validity checks."""

    q: float = 0.5
    cutoff: int = 6
    tol: float = 1e-8
    r_max: int = 8
    probe_cutoff: int = 4
    basis_cap: int = 20000

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise UsageError(f"q must lie in (0,1), got {self.q}")
        if not 0.0 < self.tol < math.inf:
            raise UsageError(f"tol must be positive and finite, got {self.tol}")
        if min(self.cutoff, self.probe_cutoff) < 0 or self.r_max < 0:
            raise UsageError("window sizes must be nonnegative")
        if self.basis_cap <= 0:
            raise UsageError("basis cap must be positive")


def _parse_word(text: str, n: int) -> tuple[int, ...]:
    try:
        letters = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"malformed word {text!r}: {exc}") from None
    for i in letters:
        if not 1 <= i <= n:
            raise UsageError(f"word letter {i} out of range 1..{n}")
    return letters


def _parse_torus(text: str | None, n: int) -> tuple[complex, ...] | None:
    if text is None:
        return None
    entries = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        try:
            re_s, im_s = tok.split(",")
            entries.append(complex(float(re_s), float(im_s)))
        except ValueError as exc:
            raise UsageError(f"malformed torus entry {tok!r}: {exc}") from None
    if len(entries) != n:
        raise UsageError(f"torus point needs {n} entries, got {len(entries)}")
    return tuple(entries)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# weyl subcommand
# ---------------------------------------------------------------------------

def cmd_weyl(args) -> int:
    n = args.n
    if args.weyl_op == "normal-form":
        w = weylb.from_word(_parse_word(args.word, n), n)
        nf = weylb.normal_form(w)
        _emit({"schema": SCHEMA, "command": "weyl.normal-form", "n": n,
               "element": list(w.images), "length": weylb.length(w),
               "parts": [{"eps": eps, "k": k} for eps, k in nf.parts],
               "part_words": [list(pw) for pw in nf.part_words()],
               "word": list(nf.word())})
    elif args.weyl_op == "decompose":
        w = weylb.from_word(_parse_word(args.word, n), n)
        indices = frozenset(int(t) for t in args.indices.split(",") if t.strip())
        R = weylb.ParabolicSubset(n, indices)
        w1, w2 = weylb.parabolic_decompose(w, R)
        _emit({"schema": SCHEMA, "command": "weyl.decompose", "n": n,
               "indices": sorted(indices),
               "parabolic_part": list(w1.images), "quotient_part": list(w2.images),
               "lengths": [weylb.length(w1), weylb.length(w2)]})
    elif args.weyl_op == "longest":
        indices = frozenset(int(t) for t in args.indices.split(",") if t.strip())
        R = weylb.ParabolicSubset(n, indices)
        w = weylb.longest_quotient_element(n, R)
        _emit({"schema": SCHEMA, "command": "weyl.longest", "n": n,
               "indices": sorted(indices), "element": list(w.images),
               "length": weylb.length(w),
               "word": list(weylb.normal_form(w).word())})
    elif args.weyl_op == "dims":
        dims = weylb.classical_dimensions(n, args.m)
        _emit({"schema": SCHEMA, "command": "weyl.dims", "n": n, "m": args.m,
               **dims})
    return 0


# ---------------------------------------------------------------------------
# rep subcommand
# ---------------------------------------------------------------------------

def cmd_rep(args) -> int:
    n = args.n
    word = _parse_word(args.word, n)
    t = _parse_torus(args.t, n)
    spec = repsoq.RepSpec(n, word, t)
    if args.rep_op == "verify":
        cfg = RunConfig(q=args.q, cutoff=args.cutoff, tol=args.tol)
        table = repsoq.rep_table(spec)
        orth = repsoq.verify_orthogonality(table, cfg.cutoff, cfg.q, cfg.tol)
        payload = {"schema": SCHEMA, "command": "rep.verify", "n": n,
                   "word": list(word),
                   "orthogonality_deviation": orth.max_deviation,
                   "orthogonality_ok": orth.ok(cfg.tol)}
        if args.word2:
            word2 = _parse_word(args.word2, n)
            equal, dev = repsoq.verify_braid_independence(
                spec, repsoq.RepSpec(n, word2, t), cfg.cutoff, cfg.q, cfg.tol)
            payload["braid_equal"] = equal
            payload["braid_deviation"] = dev
        if args.frt:
            frt = repsoq.verify_frt(table, cfg.cutoff, cfg.q, cfg.tol)
            payload["frt_deviation"] = frt.max_deviation
            payload["frt_worst_quadruple"] = list(frt.worst) if frt.worst else None
            payload["frt_offenders"] = [
                {"quadruple": list(quad), "deviation": dev}
                for quad, dev in frt.details]
        _emit(payload)
    elif args.rep_op == "entry":
        table = repsoq.rep_table(spec)
        op = table.entry(args.k, args.l)
        _emit({"schema": SCHEMA, "command": "rep.entry", "n": n,
               "word": list(word), "k": args.k, "l": args.l,
               "operator": op.render(), "zero": op.is_zero()})
    return 0


# ---------------------------------------------------------------------------
# diagram subcommand
# ---------------------------------------------------------------------------

def cmd_diagram(args) -> int:
    n = args.n
    word = _parse_word(args.word, n)
    spec = repsoq.RepSpec(n, word)
    diagram = diagrams.diagram_for(spec)
    if args.diagram_op == "dot":
        sys.stdout.write(diagrams.render_dot(diagram))
    elif args.diagram_op == "paths":
        found = diagrams.paths(diagram, args.src, args.dst)
        _emit({"schema": SCHEMA, "command": "diagram.paths", "n": n,
               "word": list(word), "from": args.src, "to": args.dst,
               "count": len(found), "paths": [list(p) for p in found]})
    return 0


# ---------------------------------------------------------------------------
# gkdim subcommand
# ---------------------------------------------------------------------------

def _series_csv(rows: list[dict]) -> str:
    out = ["r,d,lower,upper"]
    for row in rows:
        out.append(f"{row['r']},{row['d']},{row['lower']},{row['upper']}")
    return "\n".join(out) + "\n"


def cmd_gkdim(args) -> int:
    cfg = RunConfig(q=args.q, r_max=args.rmax, basis_cap=args.basis_cap,
                    probe_cutoff=getattr(args, "probe", RunConfig.probe_cutoff))
    try:
        if args.gkdim_mode == "module":
            n = args.n
            word = _parse_word(args.word, n)
            t = _parse_torus(args.t, n)
            spec = repsoq.RepSpec(n, word, t)
            series, cert = growth.module_certificate(
                spec, cfg.r_max, cfg.q, basis_cap=cfg.basis_cap)
        else:
            n, m = args.n, args.m
            series, cert = growth.homogeneous_certificate(
                n, m, cfg.r_max, cfg.q, probe_cutoff=cfg.probe_cutoff,
                basis_cap=cfg.basis_cap)
    except growth.BudgetExceeded as exc:
        payload = {"schema": SCHEMA, "command": f"gkdim.{args.gkdim_mode}",
                   "error": "budget-exceeded", "detail": str(exc),
                   "flags": ["budget-exceeded"]}
        if exc.partial is not None:
            payload["partial_series"] = exc.partial.values
            payload["flags"] += exc.partial.flags
        _emit(payload)
        return 3
    payload = {"schema": SCHEMA, "command": f"gkdim.{args.gkdim_mode}",
               "context": series.context, "target": cert.target,
               "rows": cert.rows, "witness_ok": cert.witness_ok,
               "estimate": cert.estimate, "ok": cert.ok,
               "flags": series.flags}
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                fh.write(_series_csv(cert.rows))
        except OSError as exc:
            raise UsageError(f"cannot write {args.csv}: {exc.strerror}") \
                from None
    _emit(payload)
    if not cert.ok:
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqdim",
        description="odd orthogonal quantum-group modules, diagrams and "
                    "growth certificates")
    parser.add_argument("--threads", type=int, default=None,
                        help="ignored; runs are single-threaded")
    sub = parser.add_subparsers(dest="command", required=True)

    weyl = sub.add_parser("weyl", help="Weyl group computations")
    weyl_sub = weyl.add_subparsers(dest="weyl_op", required=True)
    for name in ("normal-form", "decompose"):
        p = weyl_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--word", required=True,
                       help="comma-separated generator indices")
        if name == "decompose":
            p.add_argument("--indices", required=True,
                           help="comma-separated simple-root indices")
    p = weyl_sub.add_parser("longest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--indices", default="",
                   help="quotient by this subset (default: whole group)")
    p = weyl_sub.add_parser("dims")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    weyl.set_defaults(func=cmd_weyl)

    rep = sub.add_parser("rep", help="representation tables")
    rep_sub = rep.add_subparsers(dest="rep_op", required=True)
    p = rep_sub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--word2", default=None,
                   help="second word for the equality comparison")
    p.add_argument("--t", default=None, help="torus point re,im;re,im;...")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--cutoff", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--frt", action="store_true",
                   help="include the diagnostic exchange-relation report")
    p = rep_sub.add_parser("entry")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--t", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    rep.set_defaults(func=cmd_rep)

    diagram = sub.add_parser("diagram", help="layered diagrams")
    diagram_sub = diagram.add_subparsers(dest="diagram_op", required=True)
    p = diagram_sub.add_parser("dot")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p = diagram_sub.add_parser("paths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    diagram.set_defaults(func=cmd_diagram)

    gkdim = sub.add_parser("gkdim", help="growth certificates")
    gkdim_sub = gkdim.add_subparsers(dest="gkdim_mode", required=True)
    for mode in ("module", "homogeneous"):
        p = gkdim_sub.add_parser(mode)
        p.add_argument("--n", type=int, required=True)
        if mode == "module":
            p.add_argument("--word", required=True)
            p.add_argument("--t", default=None,
                           help="torus point re,im;...: validated, and it "
                                "does not change the certificate")
        else:
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--probe", type=int, default=4)
        p.add_argument("--rmax", type=int, default=8)
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--basis-cap", type=int, default=20000)
        p.add_argument("--csv", default=None, help="write the series as CSV")
    gkdim.set_defaults(func=cmd_gkdim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe shows up at the latest here, inside the try
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError) as exc:  # includes UsageError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        # (the signal module docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
