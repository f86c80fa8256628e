"""Command-line front end.

Exit codes: 0 success, 1 a violation was found or a suite failed,
2 usage or input-format problems.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from ..counts import Count
from ..encoder import DbClassification, assemble, classify_database, extract_valuation
from ..gadgets import (
    alpha_witness,
    beta_witness,
    build_alpha,
    build_beta,
    build_gamma,
    gamma_witness,
)
from ..homcount import count_homomorphisms
from ..polyreduce import normalize_hilbert
from ..qalgebra import blowup, eval_expr, expr_schema, product, strip_inequalities
from ..relcore import Database, Schema, ValidationError
from .formats import (
    FormatError,
    load_expr_file,
    load_query_file,
    load_encoder_output,
    parse_database,
    parse_polynomial,
    save_encoder_output,
    serialize_database,
    serialize_query,
)
from .search import Claim, SearchConfig, search_claim
from .suites import SUITES, run_suite

__all__ = ["main"]

_DECIMAL_BITS = 256


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _show_count(c: Count) -> str:
    try:
        return f"{c} = {c.value(max_bits=_DECIMAL_BITS)}"
    except OverflowError:
        return str(c)


def _widen(d: Database, schema: Schema) -> Database:
    """Extend a file-inferred database schema with the query's relations.

    A .db file cannot declare a relation that has no facts, so relations
    the query mentions but the file never uses would otherwise trip the
    strict schema check.  Arity conflicts still fail, in merge().
    """
    merged = d.schema.merge(schema)
    return Database(merged, d.elements, d.facts, dict(d.const_interp))


def _cmd_eval(args: argparse.Namespace) -> int:
    d = parse_database(_read(args.database))
    if args.query.endswith(".qx"):
        expr = load_expr_file(args.query)
        print(_show_count(eval_expr(expr, _widen(d, expr_schema(expr)))))
    else:
        q = load_query_file(args.query)
        print(count_homomorphisms(q, _widen(d, q.schema)))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    inst = normalize_hilbert(parse_polynomial(_read(args.polynomial)))
    out = assemble(inst)
    save_encoder_output(out, args.output)
    print(f"wrote {args.output}")
    print(f"degree={out.instance.degree} monomials={out.instance.m_count} "
          f"variables={out.instance.n_count}")
    print(f"k={out.k}")
    print(f"c1 = {out.c1}")
    print(f"c = {out.c}")
    return 0


_GADGETS = {
    "beta": (build_beta, beta_witness),
    "gamma": (build_gamma, gamma_witness),
    "alpha": (build_alpha, alpha_witness),
}


def _cmd_gadget(args: argparse.Namespace) -> int:
    build, witness = _GADGETS[args.kind]
    pair = build(args.param)
    os.makedirs(args.output, exist_ok=True)
    _write(os.path.join(args.output, "q_s.cq"), serialize_query(pair.q_s))
    _write(os.path.join(args.output, "q_b.cq"), serialize_query(pair.q_b))
    _write(os.path.join(args.output, "witness.db"), serialize_database(witness(args.param)))
    _write(os.path.join(args.output, "multiplier.txt"), f"{pair.multiplier}\n")
    print(f"wrote {args.output} (multiplier {pair.multiplier})")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    out = load_encoder_output(args.instance)
    d = parse_database(_read(args.database))
    label = classify_database(d, out.instance)
    print(label)
    if label is not DbClassification.NOT_MODEL:
        try:
            v = extract_valuation(d, out.instance)
        except ValidationError:
            return 0
        ordered = " ".join(f"x{i}={v[i]}" for i in sorted(v))
        print(f"valuation: {ordered}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; known: {', '.join(SUITES)}", file=sys.stderr)
            return 2
    failed = False
    for name in names:
        report = run_suite(name, trials=args.trials, seed=args.seed)
        status = "ok" if report.ok else "FAIL"
        vacuity = "" if report.nonvacuous is None else f"nonvacuous={report.nonvacuous}"
        print(f"{name:14s} {status:4s} trials={report.trials:<6d} {vacuity:17s} "
              f"time={report.wall_time:.2f}s", flush=True)
        for f in report.failures[:5]:
            print(f"    seed={f.seed}: {f.message}")
        if len(report.failures) > 5:
            print(f"    ... and {len(report.failures) - 5} more")
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_search(args: argparse.Namespace) -> int:
    out = load_encoder_output(args.instance)
    cfg = SearchConfig(
        max_domain=args.max_domain,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        max_states=args.max_states,
    )
    result = search_claim(Claim(out.phi_s, out.phi_b, num=out.c), cfg)
    verdicts = " ".join(f"{v}={result.verdicts[v]}" for v in ("less", "equal", "greater"))
    print(f"checked {result.checked} databases, {result.nonvacuous} non-vacuous: {verdicts}")
    if result.violator is None:
        print("no violation found")
        return 0
    print("violation found:")
    print(serialize_database(result.violator), end="")
    return 1


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.kind == "strip-neq":
        if not args.query:
            raise FormatError("strip-neq needs -q")
        _write(args.output, serialize_query(strip_inequalities(load_query_file(args.query))))
    elif args.kind == "blowup":
        if not args.database:
            raise FormatError("blowup needs -d")
        d = parse_database(_read(args.database))
        _write(args.output, serialize_database(blowup(d, args.k)))
    else:
        if not (args.database and args.second):
            raise FormatError("product needs -d and -e")
        d1 = parse_database(_read(args.database))
        d2 = parse_database(_read(args.second))
        _write(args.output, serialize_database(product(d1, d2)))
    print(f"wrote {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bagcq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="count homomorphisms of a query or expression")
    sp.add_argument("-q", "--query", required=True, help=".cq query or .qx expression")
    sp.add_argument("-d", "--database", required=True, help=".db database")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("reduce", help="compile a polynomial to a query triple")
    sp.add_argument("-p", "--polynomial", required=True, help=".poly input")
    sp.add_argument("-o", "--output", required=True, help="output directory")
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("gadget", help="emit a multiplication gadget pair")
    sp.add_argument("kind", choices=sorted(_GADGETS))
    sp.add_argument("--param", type=int, required=True,
                    help="cycle length (beta/gamma) or target factor (alpha)")
    sp.add_argument("-o", "--output", required=True, help="output directory")
    sp.set_defaults(fn=_cmd_gadget)

    sp = sub.add_parser("classify", help="classify a database against an instance")
    sp.add_argument("-d", "--database", required=True)
    sp.add_argument("-i", "--instance", required=True, help="directory from `reduce`")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("verify", help="run a property suite")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("search", help="hunt for a violating database")
    sp.add_argument("-i", "--instance", required=True, help="directory from `reduce`")
    sp.add_argument("--max-domain", type=int, default=3)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    sp.add_argument("--max-states", type=int, default=200_000)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("transform", help="apply a query or database transform")
    sp.add_argument("kind", choices=("strip-neq", "blowup", "product"))
    sp.add_argument("-q", "--query")
    sp.add_argument("-d", "--database")
    sp.add_argument("-e", "--second", help="second database (product)")
    sp.add_argument("-k", type=int, default=2, help="copies per element (blowup)")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=_cmd_transform)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, ValidationError, OSError, OverflowError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
