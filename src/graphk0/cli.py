"""Command-line front end.

Subcommands: k0, predicates, member, traces, desing, compare, consistency.
Exit codes: 0 = computed (negative verdicts included), 1 = an Unknown
verdict (a search budget exhausted, or a membership search that closed empty
with no separating functional, reported with ``budget_spent`` 0), 2 = parse
or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .graphs import census_satisfies_condition_k, desingularize, predicates, simple_loop_census
from .ktheory import (
    DEFAULT_BUDGET,
    UnknownComparison,
    UnknownMembership,
    compare_k0,
    compute_k0,
    cone_membership,
    verify_desingularization_consistency,
)
from .reports import (
    comparison_human,
    comparison_to_json,
    consistency_human,
    consistency_to_json,
    element_from_json,
    emit_json,
    graph_to_json,
    k0_human,
    k0_to_json,
    membership_human,
    membership_to_json,
    predicates_human,
    predicates_to_json,
    traces_human,
    traces_to_json,
)
from .textio import ParseError, parse_graph, serialize_graph
from .traces import no_trace, tracial_state_report


class _UsageError(Exception):
    pass


def _load_graph(path: str):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise _UsageError(f"{path}: {err.strerror or err}") from None
    try:
        return parse_graph(data, source_name=path).graph
    except ParseError as err:
        raise _UsageError(f"{path}:{err.line}:{err.column}: {err.message}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``run`` call, built on the first one.

    It keeps no state between calls: each ``parse_args`` makes a fresh
    namespace, and help text is laid out for the terminal width when it is
    printed.  It is not built at import, so importing the module stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="graphk0",
        description="Ordered K0-groups of graph algebras, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        return p

    p = add("k0", "compute the ordered K0 presentation")
    p.add_argument("path")

    p = add("predicates", "structural predicates, loop census, Condition (K)")
    p.add_argument("path")

    p = add("member", "decide cone membership of an element")
    p.add_argument("path")
    p.add_argument("--element", required=True, help='JSON, e.g. \'{"free":[-1]}\'')
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("traces", "norm-one graph traces and the tracial-state report")
    p.add_argument("path")
    p.add_argument("--extremes", action="store_true", help="enumerate extreme traces")

    p = add("desing", "append truncated tails to singular vertices")
    p.add_argument("path")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--sinks", action="store_true", help="only tail sinks")
    p.add_argument("--emitters", action="store_true", help="only tail infinite emitters")

    p = add("compare", "compare two ordered K0 presentations")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--unit", action="store_true", help="require the order unit to match")
    p.add_argument("--budget", type=int, default=2000)

    p = add("consistency", "cross-check the direct and tail-extended presentations")
    p.add_argument("path")
    p.add_argument("--depth", type=int, required=True)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        return _dispatch(args)
    except _UsageError as err:
        print(f"graphk0: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "k0":
        g = _load_graph(args.path)
        k = compute_k0(g)
        print(emit_json(k0_to_json(k)) if args.json else k0_human(k))
        return 0

    if args.command == "predicates":
        g = _load_graph(args.path)
        p = predicates(g)
        census = simple_loop_census(g)
        cond_k = census_satisfies_condition_k(census)
        if args.json:
            print(emit_json(predicates_to_json(p, census, cond_k)))
        else:
            print(predicates_human(p, census, cond_k))
        return 0

    if args.command == "member":
        if args.budget < 1:
            raise _UsageError("--budget must be positive")
        k = compute_k0(_load_graph(args.path))
        try:
            data = json.loads(args.element)
            if not isinstance(data, dict):
                raise ValueError("element must be a JSON object")
            x = element_from_json(data, k.coker.torsion_moduli, k.coker.free_rank)
        except (ValueError, TypeError, RecursionError) as err:
            raise _UsageError(f"bad --element: {err}") from None
        verdict = cone_membership(k, x, budget=args.budget)
        print(emit_json(membership_to_json(verdict)) if args.json else membership_human(verdict))
        return 1 if isinstance(verdict, UnknownMembership) else 0

    if args.command == "traces":
        g = _load_graph(args.path)
        report = tracial_state_report(g)
        extremes = report.extremes if args.extremes else None
        if extremes:
            result = None
        else:
            result = report.extremes[0] if report.extremes else no_trace(g)
        if args.json:
            print(emit_json(traces_to_json(result, extremes, report)))
        else:
            print(traces_human(result, extremes, report))
        return 0

    if args.command == "desing":
        if args.depth < 1:
            raise _UsageError("--depth must be positive")
        g = _load_graph(args.path)
        sinks = args.sinks or not args.emitters
        emitters = args.emitters or not args.sinks
        out = desingularize(g, args.depth, sinks=sinks, infinite_emitters=emitters)
        print(emit_json(graph_to_json(out)) if args.json else serialize_graph(out), end="")
        if args.json:
            print()
        return 0

    if args.command == "compare":
        if args.budget < 1:
            raise _UsageError("--budget must be positive")
        ka = compute_k0(_load_graph(args.path_a))
        kb = compute_k0(_load_graph(args.path_b))
        verdict = compare_k0(ka, kb, use_order_unit=args.unit, budget=args.budget)
        print(emit_json(comparison_to_json(verdict)) if args.json else comparison_human(verdict))
        return 1 if isinstance(verdict, UnknownComparison) else 0

    if args.command == "consistency":
        if args.depth < 1:
            raise _UsageError("--depth must be positive")
        g = _load_graph(args.path)
        report = verify_desingularization_consistency(g, args.depth)
        print(emit_json(consistency_to_json(report)) if args.json else consistency_human(report))
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
