"""Per-layer spans recorded from outside graphk0.

The tracer wraps public functions of each graphk0 module.  The package binds
names at import (``from .lp import solve_lp``), so a wrapper is installed in
every graphk0 module whose globals hold the original function, not only in
the defining module.  Spans are kept in memory as (name, start, end, parent)
and summarised when the run ends; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name) -- the layer boundaries that are traced
TRACED = (
    ("textio", "parse_graph", "textio.parse"),
    ("graphs", "simple_loop_census", "graphs.census"),
    ("linalg", "smith_normal_form", "linalg.snf"),
    ("ktheory", "compute_k0", "ktheory.k0"),
    ("ktheory", "cone_membership", "ktheory.membership"),
    ("lp", "solve_lp", "lp.solve"),
    ("intfeas", "integer_feasibility", "intfeas.bnb"),
    ("dd", "polytope_vertices", "dd.enum"),
    ("traces", "tracial_state_report", "traces"),
    ("traces", "find_graph_trace", "traces"),
    ("traces", "extreme_traces", "traces"),
    ("reports", "k0_to_json", "reports.emit"),
    ("reports", "membership_to_json", "reports.emit"),
    ("reports", "predicates_to_json", "reports.emit"),
    ("reports", "traces_to_json", "reports.emit"),
    ("reports", "emit_json", "reports.emit"),
)

PER_LAYER = (
    ("textio.parse_s", "s"),
    ("textio.parse_calls", "count"),
    ("graphs.build_s", "s"),
    ("graphs.census_s", "s"),
    ("graphs.census_calls", "count"),
    ("linalg.snf_s", "s"),
    ("linalg.snf_calls", "count"),
    ("linalg.snf_max_bits", "bits"),
    ("ktheory.k0_self_s", "s"),
    ("ktheory.delta_max_bits", "bits"),
    ("ktheory.membership_self_s", "s"),
    ("ktheory.lp_free_queries", "count"),
    ("lp.solve_s", "s"),
    ("lp.calls", "count"),
    ("lp.max_constraints", "count"),
    ("intfeas.bnb_s", "s"),
    ("intfeas.calls", "count"),
    ("intfeas.nodes", "count"),
    ("dd.enum_s", "s"),
    ("dd.calls", "count"),
    ("dd.vertices", "count"),
    ("traces.self_s", "s"),
    ("reports.emit_s", "s"),
    ("reports.bytes", "bytes"),
    ("trace.overhead_pct", "%"),
)


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters = {
            "linalg.snf_max_bits": 0,
            "ktheory.delta_max_bits": 0,
            "lp.max_constraints": 0,
            "dd.vertices": 0,
            "reports.bytes": 0,
        }

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                # hook time is a child span of the caller, so it never counts
                # as the caller's self time
                t0 = time.perf_counter()
                after(tracer, args, result)
                tracer.spans.append(["trace.hook", t0, time.perf_counter(), parent])
            return result

        return wrapper

    def install(self, api) -> None:
        """Patch every graphk0 module that bound a traced function."""
        modules = [m for n, m in sys.modules.items() if n == "graphk0" or n.startswith("graphk0.")]
        for mod_name, fn_name, span in TRACED:
            original = getattr(getattr(api, mod_name), fn_name)
            wrapper = self.wrap(span, original, _AFTER.get(fn_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        # Graph(...) inside the parser: rebuilding the graph from parsed data
        api.textio.Graph = self.wrap("graphs.build", api.graphs.Graph)

    def summary(self, time_scale: float) -> dict[str, float]:
        """Layer metrics of everything traced; times are scaled to reference
        seconds by ``time_scale``."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        calls: dict[str, int] = {}
        lp_under_bnb = 0
        membership_lp_free = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_key = name + "#self"
            total[self_key] = total.get(self_key, 0.0) + dur - child.get(i, 0.0)
            if name == "lp.solve" and self._has_ancestor(i, "intfeas.bnb"):
                lp_under_bnb += 1
        for i, (name, _s, _e, parent) in enumerate(self.spans):
            if name == "ktheory.membership" and not self._has_ancestor(i, "ktheory.membership"):
                if not self._has_descendant_lp(i):
                    membership_lp_free += 1

        def t(key: str) -> float:
            return total.get(key, 0.0) * time_scale

        def c(key: str) -> float:
            return calls.get(key, 0)

        out = {
            "textio.parse_s": t("textio.parse#self"),
            "textio.parse_calls": c("textio.parse"),
            "graphs.build_s": t("graphs.build"),
            "graphs.census_s": t("graphs.census"),
            "graphs.census_calls": c("graphs.census"),
            "linalg.snf_s": t("linalg.snf"),
            "linalg.snf_calls": c("linalg.snf"),
            "linalg.snf_max_bits": self.counters["linalg.snf_max_bits"],
            "ktheory.k0_self_s": t("ktheory.k0#self"),
            "ktheory.delta_max_bits": self.counters["ktheory.delta_max_bits"],
            "ktheory.membership_self_s": t("ktheory.membership#self"),
            "ktheory.lp_free_queries": membership_lp_free,
            "lp.solve_s": t("lp.solve"),
            "lp.calls": c("lp.solve"),
            "lp.max_constraints": self.counters["lp.max_constraints"],
            "intfeas.bnb_s": t("intfeas.bnb"),
            "intfeas.calls": c("intfeas.bnb"),
            "intfeas.nodes": lp_under_bnb,
            "dd.enum_s": t("dd.enum"),
            "dd.calls": c("dd.enum"),
            "dd.vertices": self.counters["dd.vertices"],
            "traces.self_s": t("traces#self"),
            "reports.emit_s": t("reports.emit"),
            "reports.bytes": self.counters["reports.bytes"],
        }
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _has_descendant_lp(self, i: int) -> bool:
        # spans are appended in call order, so descendants of i follow it and
        # start before it ends
        end = self.spans[i][2]
        for j in range(i + 1, len(self.spans)):
            name, start, _e, _p = self.spans[j]
            if start > end:
                break
            if name == "lp.solve":
                return True
        return False


def _after_snf(tracer, args, result):
    bits = max(_max_bits(result.u), _max_bits(result.u_inv), _max_bits(result.v))
    tracer.counters["linalg.snf_max_bits"] = max(tracer.counters["linalg.snf_max_bits"], bits)


def _after_k0(tracer, args, result):
    bits = _max_bits([e.free + e.torsion for e in result.delta.values()])
    tracer.counters["ktheory.delta_max_bits"] = max(tracer.counters["ktheory.delta_max_bits"], bits)


def _after_lp(tracer, args, result):
    n = len(args[1])
    tracer.counters["lp.max_constraints"] = max(tracer.counters["lp.max_constraints"], n)


def _after_dd(tracer, args, result):
    tracer.counters["dd.vertices"] += len(result)


def _after_emit(tracer, args, result):
    tracer.counters["reports.bytes"] += len(result.encode())


_AFTER = {
    "smith_normal_form": _after_snf,
    "compute_k0": _after_k0,
    "solve_lp": _after_lp,
    "polytope_vertices": _after_dd,
    "emit_json": _after_emit,
}
