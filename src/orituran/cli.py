"""Command-line front end.

Subcommands wrap the library one-to-one: compress (pattern compressibility),
exo (exact extremal values, optionally checked against closed forms),
construct (named extremal graphs as .og text), embed (the bipartite
regularize-and-zoom pipeline), and check-hypothesis (universal containment
sweeps).  Exit codes: 0 success, 1 negative result, 2 parse error, 3 size
cap, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# The handlers read and check their input first and then import the modules
# they call, so a start loads only what its subcommand runs and bad input loads
# at most patterns: without cached bytecode, each loaded module is compiled at
# every start.
from .graphs import (
    BadParamsError,
    BipartiteDigraph,
    BudgetExceededError,
    OrientedGraph,
    ParseError,
    RegularizeError,
    TooLargeError,
    _natural,
    decode,
    decode_undirected,
    encode,
)

# the names patterns.build_construction accepts, spelt out so that building the
# parser loads no other module; a test checks each against build_construction
_CONSTRUCTIONS = ("turan", "cyclepower", "starpartition", "thm32", "prop26", "prop27")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_BUDGET = 4


def _dump_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 1) from None


def _load_pattern(args):
    """PatternSpec from --pattern token or --pattern-file .og text."""
    from .patterns import PatternSpec

    token = getattr(args, "pattern", None)
    path = getattr(args, "pattern_file", None)
    if (token is None) == (path is None):
        raise BadParamsError("give exactly one of --pattern or --pattern-file")
    if token is not None:
        return PatternSpec.parse(token)
    return PatternSpec.custom(decode(_read_file(path)))


def _bipartite_from_oriented(g: OrientedGraph) -> BipartiteDigraph:
    """Split a one-way oriented pattern into (sources, rest).

    Every vertex must be a pure source or a pure sink; vertices with no arcs
    join the sink side.
    """
    sources = []
    sinks = []
    for v in range(g.n):
        if g.out_degree(v) > 0 and g.in_degree(v) > 0:
            raise BadParamsError(
                f"vertex {v} has both in- and out-arcs; the embedding "
                "pipeline needs every arc to run source side to sink side"
            )
        (sources if g.out_degree(v) > 0 else sinks).append(v)
    if not sources or not sinks:
        raise BadParamsError("pattern needs at least one arc")
    return BipartiteDigraph.from_arcs(sources, sinks, list(g.arcs()))


def _parse_n_range(text: str) -> range:
    lo_s, dots, hi_s = text.partition("..")
    lo = _natural(lo_s)
    hi = _natural(hi_s) if dots else lo
    if lo is None or hi is None:
        raise ValueError(f"--n takes N or A..B, got {text!r}")
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# --- subcommand bodies --------------------------------------------------------


def _cmd_compress(args) -> int:
    g = decode(_read_file(args.pattern_file))
    # imported after decode, so that a bad file loads no search module
    from .homomorphism import compressibility

    res = compressibility(g)
    if args.json:
        obj = {
            "z": res.value,
            "witness": None if res.witness is None else encode(res.witness),
        }
        print(_dump_json(obj))
        return EXIT_OK
    if res.is_infinite:
        print("z = infinite")
    else:
        print(f"z = {res.value}")
        print("witness tournament (admits no homomorphic image):")
        sys.stdout.write(encode(res.witness))
    return EXIT_OK


def _record_row(rec) -> dict:
    return {
        "n": rec.n,
        "value": rec.value,
        "nodes": rec.nodes,
        "witness": encode(rec.witness),
    }


def _cmd_exo(args) -> int:
    spec = _load_pattern(args)
    ns = _parse_n_range(args.n)
    from .extremal import check_order, oracle_exo, verify_against_formula

    # both ends pass only if every order between them does
    check_order(ns[0], args.budget)
    check_order(ns[-1], args.budget)
    if args.verify_formula:
        report = verify_against_formula(spec, ns, budget=args.budget, jobs=args.jobs)
        if args.json:
            print(_dump_json(report.to_json_obj()))
        else:
            print(report.to_text())
        return EXIT_OK
    rows = []
    for n in ns:
        rows.append(_record_row(oracle_exo(n, spec, budget=args.budget, jobs=args.jobs)))
    if args.json:
        print(_dump_json({"pattern": spec.token, "rows": rows}))
    else:
        print(f"pattern {spec.token}")
        print(f"{'n':>3} {'value':>7} {'nodes':>10}")
        for row in rows:
            print(f"{row['n']:>3} {row['value']:>7} {row['nodes']:>10}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    from .patterns import PatternSpec, build_construction

    pattern = PatternSpec.parse(args.pattern) if args.pattern else None
    g = build_construction(
        args.name, args.n, r=args.r, p=args.p, q=args.q, d=args.d, pattern=pattern
    )
    sys.stdout.write(encode(g))
    return EXIT_OK


def _cmd_embed(args) -> int:
    host = decode(_read_file(args.host))
    spec = _load_pattern(args)
    pattern = _bipartite_from_oriented(spec.graph)
    from .regularize import faks_pipeline

    result = faks_pipeline(host, pattern, args.r, args.seed, t_override=args.t_override)
    print(_dump_json(result.to_json_obj()))
    return EXIT_OK if result.embedding is not None else EXIT_NEGATIVE


def _hypothesis_output(holds: bool, counterexample, as_json: bool) -> int:
    if as_json:
        obj = {
            "holds": holds,
            "counterexample": None if counterexample is None else encode(counterexample),
        }
        print(_dump_json(obj))
    elif holds:
        print("true")
    else:
        print("false, counterexample:")
        sys.stdout.write(encode(counterexample))
    return EXIT_OK if holds else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    spec = _load_pattern(args)
    if args.mode == "all-orientations":
        n, edges = decode_undirected(_read_file(args.host))
    from .containment import all_orientations_contain, all_tournaments_contain

    if args.mode == "all-tournaments":
        holds, cx = all_tournaments_contain(args.k, spec.graph)
    else:
        holds, cx = all_orientations_contain(n, edges, spec.graph)
    return _hypothesis_output(holds, cx, args.json)


# --- parser -------------------------------------------------------------------


def _integer(low: Optional[int] = None):
    """argparse type: ASCII digits after an optional '-', no smaller than low
    when low is given (argparse exits 2 otherwise)."""

    def parse(text: str) -> int:
        magnitude = _natural(text.removeprefix("-"))
        if magnitude is None:
            raise ValueError(text)
        value = -magnitude if text.startswith("-") else magnitude
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _add_pattern_args(sub) -> None:
    sub.add_argument("--pattern", help="named pattern token, e.g. dpath4 or star:1,2")
    sub.add_argument("--pattern-file", help="custom pattern as an .og file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orituran",
        description="oriented Turán numbers: compressibility, exact values, "
        "constructions, and bipartite embedding",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compress", help="compressibility of an .og pattern")
    p.add_argument("pattern_file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compress)

    p = subs.add_parser("exo", help="exact extremal arc counts")
    p.add_argument("--n", required=True, help="single order or range a..b")
    _add_pattern_args(p)
    p.add_argument("--verify-formula", action="store_true")
    p.add_argument(
        "--budget", type=_integer(0), default=None, help="node budget per worker"
    )
    p.add_argument("--jobs", type=_integer(1), default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exo)

    p = subs.add_parser("construct", help="named construction as .og text")
    p.add_argument("name", choices=_CONSTRUCTIONS)
    p.add_argument("--n", type=_integer(), required=True)
    p.add_argument("--r", type=_integer())
    p.add_argument("--p", type=_integer())
    p.add_argument("--q", type=_integer())
    p.add_argument("--d", type=_integer())
    p.add_argument("--pattern", help="orient a turan construction against this pattern")
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("embed", help="extract, regularize, and zoom")
    p.add_argument("--host", required=True, help="host .og file")
    _add_pattern_args(p)
    p.add_argument("--r", type=_integer(), required=True, help="pattern out-degree bound")
    p.add_argument("--seed", type=_integer(), required=True)
    p.add_argument("--t-override", type=_integer(1), default=None, dest="t_override")
    p.set_defaults(func=_cmd_embed)

    p = subs.add_parser("check-hypothesis", help="universal containment sweeps")
    p.add_argument("mode", choices=["all-tournaments", "all-orientations"])
    p.add_argument("--k", type=_integer(), help="tournament order (all-tournaments)")
    p.add_argument("--host", help="undirected host .og file (all-orientations)")
    _add_pattern_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    return parser


def _exit_code_for(exc: Exception) -> int:
    return EXIT_CAP if isinstance(exc, TooLargeError) else EXIT_PARSE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    if args.command == "check-hypothesis":
        if args.mode == "all-tournaments" and args.k is None:
            print("error: all-tournaments needs --k", file=sys.stderr)
            return EXIT_PARSE
        if args.mode == "all-orientations" and args.host is None:
            print("error: all-orientations needs --host", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: certified lower bound {exc.lower_bound}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code
    except RegularizeError as exc:
        # a pipeline stage that gave up without reporting it: no embedding
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
