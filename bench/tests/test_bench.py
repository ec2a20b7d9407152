"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import refkernel  # noqa: E402
from graphk0 import compute_k0, cone_membership, parse_graph  # noqa: E402
from graphk0.graphs import predicates, satisfies_condition_k, simple_loop_census  # noqa: E402
from graphk0.reports import (  # noqa: E402
    k0_to_json,
    membership_to_json,
    predicates_to_json,
    traces_to_json,
)
from graphk0.traces import extreme_traces, find_graph_trace, tracial_state_report  # noqa: E402

# ---------------------------------------------------------------------------
# reference kernel


def test_reference_kernel_is_frozen():
    """Changing the kernel or its nominal time changes every reported time;
    doing so must be a deliberate edit of these recorded values."""
    source = inspect.getsource(refkernel.kernel)
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == "2c72a259bb4a9e3c"
    assert refkernel.kernel() == refkernel.CHECKSUM == 117493839
    assert refkernel.NOMINAL_S == 0.003


def test_refclock_scales_by_kernel_time():
    clock = refkernel.RefClock()
    result, raw, index = clock.time(sum, range(1000))
    clock.kernels[:] = [2 * refkernel.NOMINAL_S] * len(clock.kernels)
    assert result == 499500 and raw > 0
    assert clock.reference(index, raw) == raw / 2


# ---------------------------------------------------------------------------
# generator


def _texts(inputs):
    out = []
    for item in inputs:
        spec = getattr(item, "spec", item)
        out.append(spec.text)
        out.append(repr(getattr(item, "queries", ())))
    return out


@pytest.mark.parametrize(
    "make", [gen.k0_scale_inputs, gen.membership_inputs, gen.structure_inputs]
)
def test_generator_is_deterministic(make):
    assert _texts(make(3)) == _texts(make(3))
    assert _texts(make(3)) != _texts(make(4))


def test_generated_text_matches_the_kept_table():
    for spec in gen.k0_scale_inputs(1)[:3] + gen.structure_inputs(1):
        g = parse_graph(spec.text).graph
        table = {(s, d): ("inf" if repr(m) == "inf" else m) for s, d, m in g.edges()}
        assert table == spec.mult


def test_session_functional_is_positive_on_the_cone():
    for session in gen.membership_inputs(2)[:8]:
        spec, phi = session.spec, session.functional
        order = spec.ambient_order()
        values = [Fraction(phi[v]) for v in order]
        for q in session.queries:
            query = dict(zip(spec.vertices, q.vector))
            problems = oracle.check_functional(spec, values, query)
            if q.kind == "outside":
                assert problems == []
            else:
                assert problems == ["functional is not negative on the query"]


# ---------------------------------------------------------------------------
# checks reject corrupted outputs


def _k0_report(spec):
    return json.loads(json.dumps(k0_to_json(compute_k0(parse_graph(spec.text).graph))))


def test_k0_check_rejects_a_changed_class():
    spec = gen.k0_scale_inputs(5)[0]
    report = _k0_report(spec)
    assert oracle.check_k0(spec, report) == []
    for v in spec.vertices[:10]:
        bad = json.loads(json.dumps(report))
        free = bad["delta"][v]["free"]
        free[0] = int(free[0]) + 1
        assert oracle.check_k0(spec, bad), v
    bad = json.loads(json.dumps(report))
    bad["free_rank"] += 1
    assert oracle.check_k0(spec, bad)


def _membership_reports(session):
    spec = session.spec
    k = compute_k0(parse_graph(spec.text).graph)
    group = oracle.Group(json.loads(json.dumps(k0_to_json(k))))
    pos = {v: i for i, v in enumerate(spec.vertices)}
    out = []
    for q in session.queries:
        x = k.coker.project([q.vector[pos[v]] for v in k.ambient_order])
        report = json.loads(json.dumps(membership_to_json(cone_membership(k, x, gen.MEMBER_BUDGET))))
        out.append((q, report))
    return group, out


def test_membership_check_rejects_flipped_verdicts_and_perturbed_functionals():
    session = next(s for s in gen.membership_inputs(1) if s.queries[1].kind == "member")
    spec, phi = session.spec, session.functional
    group, reports = _membership_reports(session)
    member = not_member = None
    for q, report in reports:
        decided, problems = oracle.check_membership(spec, group, phi, q.kind, q.vector, report)
        assert decided and problems == [], (q, report)
        if report["verdict"] == "member" and member is None:
            member = (q, report)
        if report["verdict"] == "not_member" and not_member is None:
            not_member = (q, report)
    assert member and not_member

    q, report = member
    flipped = dict(report, verdict="not_member", functional=["0/1"] * len(spec.vertices))
    assert oracle.check_membership(spec, group, phi, q.kind, q.vector, flipped)[1]
    shifted = json.loads(json.dumps(report))
    v = next(iter(shifted["witness"]["base"]))
    shifted["witness"]["base"][v] = int(shifted["witness"]["base"][v]) + 1
    assert oracle.check_membership(spec, group, phi, q.kind, q.vector, shifted)[1]

    q, report = not_member
    flipped = dict(report, verdict="member", witness={"base": {}, "families": []})
    assert oracle.check_membership(spec, group, phi, q.kind, q.vector, flipped)[1]
    order = spec.ambient_order()
    regular = [v for v in order if spec.kind(v) == "regular"]
    for v in order:
        bad = json.loads(json.dumps(report))
        i = order.index(v)
        val = oracle._rat(bad["functional"][i]) + 1
        bad["functional"][i] = f"{val.numerator}/{val.denominator}"
        in_relation = any(col[i] for col in spec.relation_columns())
        if in_relation or not regular:
            assert oracle.check_membership(spec, group, phi, q.kind, q.vector, bad)[1], v
    bad = json.loads(json.dumps(report))
    bad["functional"][0] = "-1/1"
    assert oracle.check_membership(spec, group, phi, q.kind, q.vector, bad)[1]


def test_unknown_is_undecided_not_wrong():
    spec = gen.NAMED_FAULT_GRAPH
    decided, problems = oracle.check_membership(
        spec, None, {}, "unseparable", gen.NAMED_FAULT_QUERY.vector, {"verdict": "unknown", "budget": 0}
    )
    assert (decided, problems) == (False, [])


def _structure_reports(spec):
    g = parse_graph(spec.text).graph
    pred = predicates_to_json(predicates(g), simple_loop_census(g), satisfies_condition_k(g))
    traces = traces_to_json(find_graph_trace(g), extreme_traces(g), tracial_state_report(g))
    return json.loads(json.dumps(pred)), json.loads(json.dumps(traces))


def test_structure_checks_reject_non_traces_and_bad_predicates():
    seen_trace = seen_cert = False
    for spec in gen.structure_inputs(7)[:8]:
        pred, traces = _structure_reports(spec)
        assert oracle.check_predicates(spec, pred) == []
        assert oracle.check_traces(spec, traces) == []
        for key in ("condition_K", "is_AF", "row_finite"):
            assert oracle.check_predicates(spec, dict(pred, **{key: not pred[key]})), key
        if traces["traces"]:
            seen_trace = True
            bad = json.loads(json.dumps(traces))
            v = spec.vertices[0]
            val = oracle._rat(bad["traces"][0][v]) + Fraction(1, 7)
            bad["traces"][0][v] = f"{val.numerator}/{val.denominator}"
            assert oracle.check_traces(spec, bad)
        else:
            seen_cert = True
            bad = json.loads(json.dumps(traces))
            bad["no_trace_certificate"] = ["0/1"] * len(bad["no_trace_certificate"])
            assert oracle.check_traces(spec, bad)
    assert seen_trace


def test_farkas_check_rejects_a_perturbed_certificate():
    # a -> b twice, b -> a once: t(a) = 2 t(b) and t(b) = t(a) force t = 0,
    # so there is no norm-one trace and the report carries a certificate
    spec = gen.spec_from_edges("c", ["a", "b"], [("a", "b", 2), ("b", "a", 1)])
    _pred, traces = _structure_reports(spec)
    assert not traces["traces"] and oracle.check_traces(spec, traces) == []
    bad = json.loads(json.dumps(traces))
    bad["no_trace_certificate"][-1] = "1/1"
    assert oracle.check_traces(spec, bad)


def test_extreme_check_rejects_a_non_vertex():
    # two sinks: the extreme traces are the two unit points; their midpoint
    # is a trace but not extreme
    spec = gen.spec_from_edges("p", ["a", "b"], [])
    assert oracle.check_trace(spec, {"a": "1/1", "b": "0/1"}) == []
    assert oracle.check_trace(spec, {"a": "1/2", "b": "1/2"})


def test_census_check_accepts_both_readings_where_they_differ():
    # v -> w, w -> v, v -> v: w lies on one vertex-simple cycle but has many
    # return paths; the check must accept both census readings of w
    spec = gen.spec_from_edges("k", ["v", "w"], [("v", "w", 1), ("w", "v", 1), ("v", "v", 1)])
    base = {
        "row_finite": True, "has_loop": True, "is_AF": False, "unital": True,
        "singular_vertices": [],
    }
    for census_w, cond_k in ((1, False), (">=2", True)):
        report = dict(base, simple_loop_census={"v": ">=2", "w": census_w}, condition_K=cond_k)
        assert oracle.check_predicates(spec, report) == []
    wrong = dict(base, simple_loop_census={"v": ">=2", "w": 0}, condition_K=True)
    assert oracle.check_predicates(spec, wrong)


# ---------------------------------------------------------------------------
# the command


def test_run_fails_without_the_program():
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as tmp:
        shutil.copytree(BENCH, os.path.join(tmp, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "membership", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and proc.stdout == ""


def test_rank_mod_p_matches_a_known_matrix():
    rng = random.Random(0)
    cols = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    cols.append([a + b for a, b in zip(cols[0], cols[1])])
    assert oracle.rank_mod_p(cols, oracle.LARGE_PRIME) == 4
    assert oracle.rank_mod_p([[2, 4], [4, 8]], 2) == 0


def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    import tracing
    from workloads import WORKLOADS

    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
