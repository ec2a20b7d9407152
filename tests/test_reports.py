import enum
import json
import random
from fractions import Fraction

import pytest

from graphk0.graphs import (
    INF,
    Graph,
    census_satisfies_condition_k,
    desingularize,
    predicates,
    simple_loop_census,
)
from graphk0.ktheory import (
    UnknownComparison,
    UnknownMembership,
    compare_k0,
    compute_k0,
    cone_membership,
    verify_desingularization_consistency,
)
from graphk0.linalg import Element
from graphk0.reports import (
    JSON,
    comparison_to_json,
    consistency_to_json,
    element_from_json,
    emit_json,
    emit_report,
    graph_to_json,
    k0_to_json,
    membership_to_json,
    predicates_to_json,
    traces_to_json,
)
from graphk0.textio import parse_graph
from graphk0.traces import find_graph_trace, no_trace, tracial_state_report


def toeplitz():
    return Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})


class TestEmitReport:
    def test_unknown_membership_schema(self):
        payload = json.loads(emit_report(UnknownMembership(budget_spent=1000000), JSON))
        assert payload["verdict"] == "unknown"
        assert payload["budget"] == 1000000

    def test_k0_o3(self):
        k = compute_k0(Graph(["v"], {("v", "v"): 3}))
        payload = json.loads(emit_report(k, JSON))
        assert payload["free_rank"] == 0
        assert payload["torsion"] == [2]

    def test_empty_trace_set(self):
        result = find_graph_trace(Graph(["v"], {("v", "v"): 2}))
        payload = json.loads(emit_report(result, JSON))
        assert payload["traces"] == []

    def test_graph_human_is_canonical_text(self):
        g = Graph(["v"], {("v", "v"): INF})
        text = emit_report(g)
        assert parse_graph(text).graph == g

    def test_membership_round_trip(self):
        k = compute_k0(toeplitz())
        verdict = cone_membership(k, Element(torsion=(), free=(-1,)))
        payload = json.loads(emit_report(verdict, JSON))
        assert payload["verdict"] == "not_member"
        assert payload["functional"] == ["1/1", "0/1"]

    def test_comparison(self):
        o2 = compute_k0(Graph(["v"], {("v", "v"): 2}))
        o3 = compute_k0(Graph(["v"], {("v", "v"): 3}))
        payload = json.loads(emit_report(compare_k0(o2, o3), JSON))
        assert payload["verdict"] == "not_isomorphic"

    def test_consistency(self):
        report = verify_desingularization_consistency(Graph(["v"], {("v", "v"): INF}), 2)
        text = emit_report(report)
        assert "groups match: True" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(UnknownMembership(budget_spent=1), "yaml")

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            emit_report(object())


class TestElementFromJson:
    def test_defaults(self):
        e = element_from_json({}, (3,), 2)
        assert e == Element(torsion=(0,), free=(0, 0))

    def test_strings_accepted(self):
        e = element_from_json({"free": ["9007199254740993"]}, (), 1)
        assert e.free == (9007199254740993,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            element_from_json({"free": [1, 2]}, (), 1)

    def test_torsion_read_modulo_moduli(self):
        for torsion, reduced in (([-1, 7], (1, 1)), ([3, -6], (1, 0)), (["-3", "12"], (1, 0))):
            e = element_from_json({"torsion": torsion}, (2, 6), 0)
            assert e == Element(torsion=reduced, free=()), torsion


def report_payloads():
    """(name, payload) for every kind of payload the reports build."""
    o2 = Graph(["v"], {("v", "v"): 2})
    o3 = Graph(["v"], {("v", "v"): 3})
    oinf = Graph(["v"], {("v", "v"): INF})
    two_sinks = Graph(["a", "b"], {})
    m2 = Graph(["a", "b"], {("a", "b"): 1})
    m3 = Graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1})
    obig = Graph(["v"], {("v", "v"): 2**60})
    big = Graph(["v", "w"], {("v", "v"): 2**60, ("v", "w"): INF, ("w", "v"): 1})
    out = []
    graphs = (("o3", o3), ("toeplitz", toeplitz()), ("oinf", oinf), ("obig", obig), ("big", big))
    for name, g in graphs:
        out.append((f"k0 {name}", k0_to_json(compute_k0(g))))
        out.append((f"graph {name}", graph_to_json(g)))
        census = simple_loop_census(g)
        condition_k = census_satisfies_condition_k(census)
        out.append((f"predicates {name}", predicates_to_json(predicates(g), census, condition_k)))
    out.append(("graph desingularized", graph_to_json(desingularize(oinf, 2))))
    for name, g in (("m2", m2), ("two sinks", two_sinks), ("o2", o2), ("toeplitz", toeplitz())):
        report = tracial_state_report(g)
        result = report.extremes[0] if report.extremes else no_trace(g)
        out.append((f"traces {name}", traces_to_json(result, None, report)))
        if report.extremes:
            out.append((f"traces --extremes {name}", traces_to_json(None, report.extremes, report)))
    for name, g, x in (
        ("toeplitz member", toeplitz(), Element((), (1,))),
        ("toeplitz not member", toeplitz(), Element((), (-1,))),
        ("oinf member", oinf, Element((), (-5,))),
    ):
        out.append((name, membership_to_json(cone_membership(compute_k0(g), x))))
    out.append(("unknown membership", membership_to_json(UnknownMembership(budget_spent=2**60))))
    for name, a, b in (("o2 o3", o2, o3), ("m2 m3", m2, m3)):
        verdict = compare_k0(compute_k0(a), compute_k0(b))
        out.append((f"compare {name}", comparison_to_json(verdict)))
    out.append(("unknown comparison", comparison_to_json(UnknownComparison(budget_spent=7))))
    out.append(("consistency", consistency_to_json(verify_desingularization_consistency(oinf, 2))))
    return out


class Small(enum.IntEnum):
    ONE = 1


class Tag(str):
    pass


def random_payload(rng: random.Random, depth: int = 0):
    """A container of the values json.dumps takes, nested up to depth 4."""
    chars = "ab\"\\/\n\t\x00\x1f\x7fé€😀"
    leaves = (
        lambda: rng.randint(-5, 5),
        lambda: rng.choice((1, -1)) * rng.randint(2**53 - 2, 2**70),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((0.0, -1.5, 1e300, float("inf"), float("nan"), rng.random())),
        lambda: "".join(rng.choice(chars) for _ in range(rng.randint(0, 6))),
        lambda: rng.choice((Small.ONE, Tag("tag"))),
    )
    kind = rng.randrange(6, 9) if depth == 0 else rng.randrange(9 if depth < 4 else 6)
    if kind < 6:
        return leaves[kind]()
    n = rng.randrange(5)
    if kind == 6:  # an int list, sometimes with a bool in it
        items = [rng.randint(-(2**60), 2**60) for _ in range(n)]
        if items and rng.random() < 0.3:
            items[rng.randrange(n)] = rng.choice((True, False))
        return items if rng.random() < 0.8 else tuple(items)
    items = [random_payload(rng, depth + 1) for _ in range(n)]
    if kind == 7:
        return items if rng.random() < 0.8 else tuple(items)
    keys = [rng.choice(("a", "b", "é", "\n", "", "key")) + str(i) for i in range(n)]
    if keys and rng.random() < 0.1:  # a key json.dumps coerces
        keys[0] = rng.choice((1, 2.5, True, None))
    return dict(zip(keys, items))


class TestEmitJson:
    # emit_json must give exactly the text of json.dumps(payload, indent=2)

    def test_report_payloads(self):
        for name, payload in report_payloads():
            assert emit_json(payload) == json.dumps(payload, indent=2), name

    def test_payload_kinds_covered(self):
        payloads = dict(report_payloads())
        assert payloads["k0 oinf"]["cone"]["families"]
        assert not payloads["k0 toeplitz"]["cone"]["families"]
        assert payloads["k0 obig"]["torsion"] == [str(2**60 - 1)]
        assert payloads["graph big"]["edges"][0]["multiplicity"] == str(2**60)
        no_trace_payload = payloads["traces o2"]
        assert no_trace_payload["traces"] == []
        assert no_trace_payload["tracial_state_report"]["trace_count"] is None
        assert len(payloads["traces --extremes two sinks"]["traces"]) == 2
        verdicts = {(p["kind"], p.get("verdict")) for p in payloads.values()}
        assert verdicts == {
            ("k0", None),
            ("graph", None),
            ("predicates", None),
            ("traces", None),
            ("membership", "member"),
            ("membership", "not_member"),
            ("membership", "unknown"),
            ("comparison", "not_isomorphic"),
            ("comparison", "isomorphic_candidate"),
            ("comparison", "unknown"),
            ("consistency", None),
        }

    def test_emit_report_traces_is_traces_to_json_without_report(self):
        # one builder for both shapes: only traces_to_json adds the
        # tracial-state report
        graphs = (
            Graph(["v"], {("v", "v"): 2}),
            Graph(["v"], {("v", "v"): 3}),
            toeplitz(),
            Graph(["v"], {("v", "v"): INF}),
            Graph(["a", "b"], {("a", "b"): 1}),
            Graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}),
            Graph(["a", "b"], {}),
        )
        kinds = set()
        for g in graphs:
            result = find_graph_trace(g)
            payload = traces_to_json(result, None, tracial_state_report(g))
            del payload["tracial_state_report"]
            assert emit_report(result, JSON) == emit_json(payload), g
            kinds.add(type(result).__name__)
        assert kinds == {"GraphTrace", "NoTrace"}

    def test_emit_report_payloads(self):
        for result in (no_trace(Graph(["v"], {("v", "v"): 2})), find_graph_trace(toeplitz())):
            text = emit_report(result, JSON)
            assert text == json.dumps(json.loads(text), indent=2)

    def test_random_payloads(self):
        rng = random.Random(19)
        for _ in range(2000):
            payload = random_payload(rng)
            assert emit_json(payload) == json.dumps(payload, indent=2), payload

    @pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, object(), {(1, 2): 3}])
    def test_type_errors_are_json_s(self, bad):
        for payload in (bad, [1, bad], {"a": {"b": ["x", bad]}}):
            with pytest.raises(TypeError) as theirs:
                json.dumps(payload, indent=2)
            with pytest.raises(TypeError) as ours:
                emit_json(payload)
            assert str(ours.value) == str(theirs.value)
