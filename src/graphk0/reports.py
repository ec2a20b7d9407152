"""Rendering of computation results as human-readable text or JSON.

The JSON schema is versioned through a top-level "schema_version" field and
documented in docs/report-schema.md.  Integers outside the 53-bit safe range
are emitted as decimal strings so generic JSON parsers round-trip them
without loss; rationals are always "p/q" strings.  The k0 report writes
each vertex's ``torsion`` and ``free`` lists straight from the sparse
classes of the presentation, so it builds no dense element per vertex.

Every JSON text, the output of each ``--json`` subcommand included, comes
from ``emit_json``.  Its text is byte for byte ``json.dumps(payload,
indent=2)``; tests/test_reports.py checks that on every payload kind built
here and on random payloads, and tests/test_cli.py on every subcommand.  It
walks the containers itself because, given an indent, CPython's ``json``
runs its pure-Python encoder.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .graphs import Graph, GraphPredicates, INF
from .ktheory import (
    ConsistencyReport,
    IsomorphicCandidate,
    K0Presentation,
    Member,
    NotIsomorphic,
    NotMember,
    UnknownComparison,
    UnknownMembership,
)
from .linalg import Element
from .traces import GraphTrace, NoTrace, TraceReport

SCHEMA_VERSION = 2

_SAFE_INT = 2**53 - 1
_INT_RE = re.compile(r"-?[0-9]+\Z")

HUMAN = "human"
JSON = "json"


def _num(n: int):
    return n if -_SAFE_INT <= n <= _SAFE_INT else str(n)


def _nums(ns) -> list:
    """``[_num(n) for n in ns]`` in one comprehension."""
    return [n if -_SAFE_INT <= n <= _SAFE_INT else str(n) for n in ns]


def _rat(q) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _mult(m):
    return "inf" if m is INF else _num(m)


def _element_json(entries, t: int, zeros: list[int]) -> dict:
    """The ``torsion`` and ``free`` lists of the element with these
    ``(coordinate, value)`` entries over ``zeros``, by ``_num``'s rule."""
    coords = zeros.copy()
    for q, x in entries:
        coords[q] = x if -_SAFE_INT <= x <= _SAFE_INT else str(x)
    return {"torsion": coords[:t], "free": coords[t:]}


def element_from_json(data: dict, torsion_moduli: tuple[int, ...], free_len: int) -> Element:
    """Read back an element as the k0 report writes it: each entry a JSON integer
    or a decimal-integer string, and no key but ``torsion`` and ``free``;
    anything else raises ValueError.  Torsion entries are read modulo their
    moduli."""

    def ints(values):
        if not isinstance(values, list):
            raise ValueError(f"{values!r} is not a list")
        out = []
        for v in values:
            if type(v) is int or (type(v) is str and _INT_RE.match(v)):
                out.append(int(v))
            else:
                raise ValueError(f"entry {v!r} is not an integer")
        return tuple(out)

    unknown = sorted(set(data) - {"torsion", "free"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    torsion_len = len(torsion_moduli)
    torsion = ints(data.get("torsion", [0] * torsion_len))
    free = ints(data.get("free", [0] * free_len))
    if len(torsion) != torsion_len or len(free) != free_len:
        raise ValueError(
            f"element shape ({len(torsion)} torsion, {len(free)} free) does not "
            f"match the presentation ({torsion_len} torsion, {free_len} free)"
        )
    torsion = tuple(r % d for r, d in zip(torsion, torsion_moduli))
    return Element(torsion=torsion, free=free)


def graph_to_json(g: Graph) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "graph",
        "vertices": list(g.vertices),
        "edges": [
            {"source": s, "target": d, "multiplicity": _mult(m)} for s, d, m in g.edges()
        ],
    }


def k0_to_json(k: K0Presentation) -> dict:
    coker, unit = k.coker, k.order_unit
    t = len(coker.torsion_moduli)
    zeros = [0] * (t + coker.free_rank)
    classes, at = coker.classes, k.ambient_index
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "k0",
        "free_rank": coker.free_rank,
        "torsion": _nums(coker.torsion_moduli),
        "delta": {v: _element_json(classes[at(v)].items(), t, zeros) for v in k.graph.vertices},
        "order_unit": _element_json(enumerate((*unit.torsion, *unit.free)), t, zeros),
        "cone": {
            "families": [
                {
                    "emitter": fam.emitter,
                    "targets": [
                        {"vertex": w, "capacity": "inf" if cap is None else _num(cap)}
                        for w, cap in fam.targets
                    ],
                }
                for fam in k.cone.families
            ],
        },
        "row_finite_orthant": k.row_finite_orthant,
    }


def predicates_to_json(p: GraphPredicates, census: dict[str, int], condition_k: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "predicates",
        "row_finite": p.row_finite,
        "has_loop": p.has_loop,
        "is_AF": p.is_af,
        "unital": p.unital,
        "singular_vertices": list(p.singular_vertices),
        "simple_loop_census": {v: (c if c < 2 else ">=2") for v, c in census.items()},
        "condition_K": condition_k,
    }


def membership_to_json(verdict) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "kind": "membership"}
    if isinstance(verdict, Member):
        out["verdict"] = "member"
        out["witness"] = {
            "base": {v: _num(c) for v, c in verdict.witness.base_counts},
            "families": [
                {
                    "emitter": use.emitter,
                    "count": _num(use.count),
                    "targets": {w: _num(c) for w, c in use.target_counts},
                }
                for use in verdict.witness.family_uses
            ],
        }
    elif isinstance(verdict, NotMember):
        out["verdict"] = "not_member"
        out["functional"] = [_rat(q) for q in verdict.functional]
    elif isinstance(verdict, UnknownMembership):
        out["verdict"] = "unknown"
        out["budget"] = _num(verdict.budget_spent)
    else:
        raise TypeError(f"not a membership verdict: {type(verdict).__name__}")
    return out


def trace_to_json(t: GraphTrace) -> dict:
    return {v: _rat(q) for v, q in t.values}


def _traces_payload(result, extremes) -> dict:
    """A traces report without its tracial-state part: the extreme traces
    when given, else ``result``, and the certificate of a ``NoTrace``."""
    if extremes is not None:
        traces = [trace_to_json(t) for t in extremes]
    else:
        traces = [] if isinstance(result, NoTrace) else [trace_to_json(result)]
    out = {"schema_version": SCHEMA_VERSION, "kind": "traces", "traces": traces}
    if isinstance(result, NoTrace):
        out["no_trace_certificate"] = [_rat(q) for q in result.certificate.multipliers]
    return out


def traces_to_json(result, extremes, report: TraceReport) -> dict:
    out = _traces_payload(result, extremes)
    if report.trace_count is None:
        count = None
    elif report.trace_count is INF:
        count = "inf"
    else:
        count = _num(report.trace_count)
    out["tracial_state_report"] = {
        "condition_K": report.condition_k,
        "identification": report.trace_state_identification,
        "trace_count": count,
    }
    return out


def comparison_to_json(verdict) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "kind": "comparison"}
    if isinstance(verdict, NotIsomorphic):
        out["verdict"] = "not_isomorphic"
        out["reason"] = verdict.reason
    elif isinstance(verdict, IsomorphicCandidate):
        out["verdict"] = "isomorphic_candidate"
        out["free_map"] = [_nums(row) for row in verdict.iso.free_map]
        out["torsion_map"] = [_nums(row) for row in verdict.iso.torsion_map]
        out["mixed_map"] = [_nums(row) for row in verdict.iso.mixed_map]
        out["verified_bound"] = verdict.verified_bound
    elif isinstance(verdict, UnknownComparison):
        out["verdict"] = "unknown"
        out["budget"] = _num(verdict.budget_spent)
    else:
        raise TypeError(f"not a comparison verdict: {type(verdict).__name__}")
    return out


def consistency_to_json(report: ConsistencyReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "consistency",
        "groups_match": report.groups_match,
        "generator_correspondence_ok": report.generator_correspondence_ok,
        "cone_prefix_ok": report.cone_prefix_ok,
    }


# ---------------------------------------------------------------------------
# human rendering


def _element_human(e: Element) -> str:
    parts = []
    if e.torsion:
        parts.append("torsion " + str(list(e.torsion)))
    if e.free:
        parts.append("free " + str(list(e.free)))
    return ", ".join(parts) if parts else "0"


def _group_human(free_rank: int, torsion) -> str:
    parts = [f"Z/{d}" for d in torsion]
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    return " + ".join(parts) if parts else "0"


def k0_human(k: K0Presentation) -> str:
    lines = [
        f"K0 group: {_group_human(k.coker.free_rank, k.coker.torsion_moduli)}",
        f"free rank: {k.coker.free_rank}",
        f"torsion moduli: {list(k.coker.torsion_moduli)}",
    ]
    for v in k.graph.vertices:
        lines.append(f"[{v}] = {_element_human(k.delta[v])}")
    lines.append(f"order unit: {_element_human(k.order_unit)}")
    if k.cone.families:
        for fam in k.cone.families:
            caps = ", ".join(
                f"{w} (cap {'inf' if cap is None else cap})" for w, cap in fam.targets
            )
            lines.append(f"cone family at {fam.emitter}: targets {caps}")
    else:
        lines.append("cone: image of the nonnegative orthant (no families)")
    return "\n".join(lines)


def predicates_human(p: GraphPredicates, census, condition_k: bool) -> str:
    lines = [
        f"row-finite: {p.row_finite}",
        f"has loop: {p.has_loop}",
        f"AF: {p.is_af}",
        f"unital: {p.unital}",
        f"singular vertices: {', '.join(p.singular_vertices) or '(none)'}",
        "simple loop census: "
        + ", ".join(f"{v}: {c if c < 2 else '>=2'}" for v, c in census.items()),
        f"Condition (K): {condition_k}",
    ]
    return "\n".join(lines)


def membership_human(verdict) -> str:
    if isinstance(verdict, Member):
        w = verdict.witness
        if not w.base_counts and not w.family_uses:
            return "member (zero element, empty witness)"
        parts = [f"{c} x [{v}]" for v, c in w.base_counts]
        for use in w.family_uses:
            sub = " - ".join(f"{c} x [{t}]" for t, c in use.target_counts) or "0"
            parts.append(f"{use.count} x [{use.emitter}] - ({sub})")
        return "member: " + " + ".join(parts)
    if isinstance(verdict, NotMember):
        return "not a member; separating functional " + str(
            [_rat(q) for q in verdict.functional]
        )
    return f"unknown (budget spent: {verdict.budget_spent})"


def traces_human(result, extremes, report: TraceReport) -> str:
    lines = []
    if isinstance(result, NoTrace):
        lines.append("no graph trace of norm 1")
    elif extremes is not None:
        lines.append(f"extreme traces ({len(extremes)}):")
        for t in extremes:
            lines.append("  " + ", ".join(f"{v}={_rat(q)}" for v, q in t.values))
    else:
        lines.append("graph trace: " + ", ".join(f"{v}={_rat(q)}" for v, q in result.values))
    if report.trace_count is None:
        count = "none"
    elif report.trace_count is INF:
        count = "infinitely many"
    else:
        count = str(report.trace_count)
    lines.append(f"Condition (K): {report.condition_k}")
    lines.append(f"trace/state identification: {report.trace_state_identification}")
    lines.append(f"norm-one traces: {count}")
    return "\n".join(lines)


def comparison_human(verdict) -> str:
    if isinstance(verdict, NotIsomorphic):
        return f"not isomorphic: {verdict.reason}"
    if isinstance(verdict, IsomorphicCandidate):
        return (
            "isomorphic candidate: free map "
            + str([list(r) for r in verdict.iso.free_map])
            + ", torsion map "
            + str([list(r) for r in verdict.iso.torsion_map])
            + f" (cone preservation verified up to parameter {verdict.verified_bound})"
        )
    return f"unknown (candidates tried: {verdict.budget_spent})"


def consistency_human(report: ConsistencyReport) -> str:
    return "\n".join(
        [
            f"groups match: {report.groups_match}",
            f"generator correspondence: {report.generator_correspondence_ok}",
            f"cone prefix checks: {report.cone_prefix_ok}",
        ]
    )


def emit_json(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=2)``.

    Dicts with ``str`` keys, lists and tuples are walked here, strings go to
    json's C string encoder and exact ints to ``int.__repr__``; anything
    else (a float, a dict with a non-``str`` key, an int or str subclass, an
    unknown type) is handed to ``json.dumps``, so its text or its
    ``TypeError`` is json's own.  A container that holds itself raises
    ``RecursionError`` here where ``json.dumps`` raises ``ValueError``.
    """
    return _encode(payload, "\n")


_INT_ONLY = {int}


def _encode(o, newline: str) -> str:
    """``o`` as JSON, its nested lines starting with ``newline``."""
    t = type(o)
    if t is str:
        return _json_str(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        parts = []
        for k, v in o.items():
            if type(k) is not str:
                return _json_fallback(o, newline)
            t = type(v)
            if t is str:
                parts.append(_json_str(k) + ": " + _json_str(v))
            elif t is int:
                parts.append(_json_str(k) + ": " + int.__repr__(v))
            else:
                parts.append(_json_str(k) + ": " + _encode(v, inner))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + "  "
        # exact ints only: int.__repr__(True) is "1", where JSON wants "true"
        if set(map(type, o)) == _INT_ONLY:
            items = map(int.__repr__, o)
        else:
            items = [_encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    return _json_fallback(o, newline)


def _json_fallback(o, newline: str) -> str:
    # a JSON string holds no raw newline, so every "\n" starts a nested line
    return json.dumps(o, indent=2).replace("\n", newline)


def emit_report(result, format: str = HUMAN) -> str:
    """Render a computation result in the requested format.

    Accepts graphs, K0 presentations, membership and comparison verdicts,
    consistency reports, and graph traces (or NoTrace); any other type
    raises ``TypeError``.
    """
    if format not in (HUMAN, JSON):
        raise ValueError(f"unknown format {format!r}")
    as_json = format == JSON

    if isinstance(result, Graph):
        from .textio import serialize_graph

        return emit_json(graph_to_json(result)) if as_json else serialize_graph(result)
    if isinstance(result, K0Presentation):
        return emit_json(k0_to_json(result)) if as_json else k0_human(result)
    if isinstance(result, (Member, NotMember, UnknownMembership)):
        return emit_json(membership_to_json(result)) if as_json else membership_human(result)
    if isinstance(result, (NotIsomorphic, IsomorphicCandidate, UnknownComparison)):
        return emit_json(comparison_to_json(result)) if as_json else comparison_human(result)
    if isinstance(result, ConsistencyReport):
        return emit_json(consistency_to_json(result)) if as_json else consistency_human(result)
    if isinstance(result, (GraphTrace, NoTrace)):
        if as_json:
            return emit_json(_traces_payload(result, None))
        if isinstance(result, NoTrace):
            return "no graph trace of norm 1"
        return "graph trace: " + ", ".join(f"{v}={_rat(q)}" for v, q in result.values)
    raise TypeError(f"no report rendering for {type(result).__name__}")
