"""Command-line front end.

Subcommands::

    eval      --upper A,B,C --lower E,F [--tol R]
    identify  --upper ... --lower ... [--conjectures] [--seed S] [--tol R]
    verify    [--entry ID] [--trials K] [--seed S] [--tol R] [--report PATH]
    watson|dixon|whipple --a --b --c --m --n [--tol R]
    cull      [--in PATH] --out PATH
    db        list | show ID | export PATH

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 no match found, 4 numeric error (pole, divergence, singular recursion).
The built-in database is used unless ``--db`` or the ``HYP321_DB``
environment variable points at a serialized database file.  All randomness
is controlled by ``--seed``; identical arguments produce identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import contiguous, matcher
from .database import (DbEntry, get_entry, load_db, save_db, seed_db,
                       verify_entry)
from .errors import (AnchorPole, DivergentSeries, ExceptionalCase, Hyp321Error,
                     InsufficientSamples, LowerPole, NoConvergence,
                     NoConvergentCheck, NonFiniteParameter,
                     NonIntegerSumBound, ParseError, PoleError,
                     SchemaVersionMismatch, SingularRecursionPath)
from .expr import as_real, eval_expr, expr_str
from .parser import parse_linexpr, parse_param_list
from .series import ParamSet, sum_series_numeric

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_MATCH = 3
EXIT_NUMERIC = 4

_USAGE_ERRORS = (ParseError, SchemaVersionMismatch)
_NUMERIC_ERRORS = (PoleError, AnchorPole, DivergentSeries, LowerPole,
                   NoConvergence, NonIntegerSumBound, SingularRecursionPath,
                   InsufficientSamples, ExceptionalCase, NonFiniteParameter)


def _fmt(z: complex) -> str:
    z = as_real(complex(z))
    if isinstance(z, float) or z.imag == 0:
        return f"{complex(z).real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _entries(args) -> list[DbEntry]:
    path = getattr(args, "db", None) or os.environ.get("HYP321_DB")
    if path:
        return load_db(path)
    return seed_db()


def _parse_paramset(upper: str, lower: str) -> ParamSet:
    up = parse_param_list(upper)
    lo = parse_param_list(lower)
    if len(up) != 3 or len(lo) != 2:
        raise ParseError(
            f"expected 3 upper and 2 lower parameters, got {len(up)}/{len(lo)}")
    return ParamSet.make(up, lo)


def _numeric_paramset(p: ParamSet) -> Optional[tuple[list, list]]:
    if all(t.is_constant for t in p.upper + p.lower):
        return p.eval({})
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    p = _parse_paramset(args.upper, args.lower)
    numeric = _numeric_paramset(p)
    if numeric is None:
        raise ParseError("eval requires fully numeric parameters")
    res = sum_series_numeric(numeric[0], numeric[1], rel_tol=args.tol)
    kind = "terminating" if res.terminated else "convergent"
    print(f"value = {_fmt(res.value)}  "
          f"(abs error est {res.abs_error_estimate:.3g}, "
          f"{res.terms_used} terms, {kind})")
    return EXIT_OK


def _cmd_identify(args) -> int:
    entries = _entries(args)
    query = _parse_paramset(args.upper, args.lower)
    hits = matcher.identify(entries, query,
                            include_conjectures=args.conjectures,
                            seed=args.seed, rel_tol=args.tol)
    if not hits:
        print("no match")
        return EXIT_NO_MATCH
    numeric = _numeric_paramset(query)
    for h in hits:
        print(f"{h.entry_id}  variant={h.variant.name}  {h.substitution}")
        print(f"  rhs = {expr_str(h.instantiated_rhs)}")
        for s, d in h.derived:
            print(f"  with {s.name} = {expr_str(d)}")
        if numeric is not None and not h.derived:
            try:
                lhs = sum_series_numeric(numeric[0], numeric[1],
                                         rel_tol=args.tol / 10).value
                rhs = eval_expr(h.instantiated_rhs, {},
                                watson=contiguous.watson_element)
            except Hyp321Error as exc:
                print(f"  check: unavailable ({type(exc).__name__})")
            else:
                err = abs(lhs - rhs) / max(1.0, abs(rhs))
                print(f"  check: series={_fmt(lhs)} closed={_fmt(rhs)} "
                      f"rel_err={err:.3g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    entries = _entries(args)
    if args.entry is not None:
        entries = [get_entry(entries, args.entry)]
    lines = []
    all_pass = True
    for e in sorted(entries, key=lambda e: e.id):
        report = verify_entry(e, trials=args.trials, seed=args.seed,
                              rel_tol=args.tol)
        status = "PASS" if report.passed else "FAIL"
        all_pass = all_pass and report.passed
        lines.append(f"{status} {e.id:<10s} samples={len(report.samples)} "
                     f"max_rel_err={report.max_rel_err:.3g}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def _const_arg(text: str, what: str) -> complex:
    lin = parse_linexpr(text)
    if not lin.is_constant:
        raise ParseError(f"--{what} must be numeric, got {lin}")
    return lin.eval({})


def _cmd_element(args) -> int:
    fn = {"watson": contiguous.watson_element,
          "dixon": contiguous.dixon_element,
          "whipple": contiguous.whipple_element}[args.family]
    a = _const_arg(args.a, "a")
    b = _const_arg(args.b, "b")
    c = _const_arg(args.c, "c")
    try:
        value = fn(a, b, c, args.m, args.n, rel_tol=args.tol)
    except NoConvergentCheck as exc:
        print(f"{args.family}({args.m},{args.n}) = {_fmt(exc.value)}")
        print("cross-check: series not convergent at these parameters")
        return EXIT_OK
    print(f"{args.family}({args.m},{args.n}) = {_fmt(value)}")
    print(f"cross-check: direct series agrees within {args.tol:g}")
    return EXIT_OK


def _cmd_cull(args) -> int:
    if getattr(args, "in_path", None):
        entries = load_db(args.in_path)
    else:
        entries = _entries(args)
    kept = matcher.cull(entries)
    save_db(kept, args.out)
    dropped = [e.id for e in entries if all(k.id != e.id for k in kept)]
    print(f"kept {len(kept)} of {len(entries)} entries -> {args.out}")
    if dropped:
        print("dropped: " + ", ".join(dropped))
    return EXIT_OK


def _cmd_db(args) -> int:
    entries = _entries(args)
    if args.action == "list":
        for e in sorted(entries, key=lambda e: e.id):
            print(f"{e.id:<10s} {e.status:<10s} {e.provenance}")
        return EXIT_OK
    if args.action == "show":
        e = get_entry(entries, args.target)
        upper = ", ".join(str(t) for t in e.lhs.upper)
        lower = ", ".join(str(t) for t in e.lhs.lower)
        print(f"id:         {e.id}")
        print(f"status:     {e.status}")
        print(f"lhs:        3F2({upper}; {lower}; 1)")
        print(f"rhs:        {expr_str(e.rhs)}")
        for s, d in e.derived:
            print(f"derived:    {s.name} = {expr_str(d)}")
        for s, cs in e.int_symbols:
            print(f"integer:    {s.name}  constraints: {', '.join(cs) or '-'}")
        print(f"excess:     {e.excess}")
        print(f"rel_tol:    {e.rel_tol:g}")
        print(f"provenance: {e.provenance}")
        return EXIT_OK
    save_db(entries, args.target)
    print(f"exported {len(entries)} entries -> {args.target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyp321",
        description="evaluate, identify and verify closed-form 3F2(1) sums")
    top.add_argument("--db", help="database file (overrides HYP321_DB)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="sum a 3F2(1) numerically")
    p.add_argument("--upper", required=True)
    p.add_argument("--lower", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("identify", help="match against the database")
    p.add_argument("--upper", required=True)
    p.add_argument("--lower", required=True)
    p.add_argument("--conjectures", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_identify)

    p = sub.add_parser("verify", help="run the numeric database gate")
    p.add_argument("--entry")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_verify)

    for family in ("watson", "dixon", "whipple"):
        p = sub.add_parser(family, help=f"compute a {family} element")
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--c", required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-7)
        p.set_defaults(fn=_cmd_element, family=family)

    p = sub.add_parser("cull", help="drop redundant entries")
    p.add_argument("--in", dest="in_path")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_cull)

    p = sub.add_parser("db", help="database inspection")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("target", nargs="?")
    p.set_defaults(fn=_cmd_db)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "db" and args.action in ("show", "export") \
            and not args.target:
        print("db show/export requires a target", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: no such entry {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Hyp321Error as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
