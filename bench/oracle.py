"""Independent checks of graphk0's JSON reports.

Nothing here imports graphk0.  Every check recomputes what it needs from the
benchmark's own copy of the graph (:class:`gen.GraphSpec`) with its own
integer and ``Fraction`` arithmetic, or tests a property the method must
have; none compares against stored output.  Each check returns a list of
problems, empty when the report passes.
"""

from __future__ import annotations

from fractions import Fraction

from gen import INF, GraphSpec, tarjan_scc

LARGE_PRIME = 2**61 - 1
PRIMES = (2, 3, 5, 7, LARGE_PRIME)


def _int(x) -> int:
    """Report integers outside the 53-bit range are decimal strings."""
    return int(x)


def _rat(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def rank_mod_p(columns: list[list[int]], p: int) -> int:
    """Rank over GF(p) by sparse Gaussian elimination."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        row = {i: v % p for i, v in enumerate(col) if v % p}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {i: v * inv % p for i, v in row.items()}
                rank += 1
                break
            f = row[lead]
            for i, v in prow.items():
                nv = (row.get(i, 0) - f * v) % p
                if nv:
                    row[i] = nv
                else:
                    row.pop(i, None)
    return rank


def rank_q(rows: list[list[Fraction]]) -> int:
    """Exact rank over the rationals."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                q = f / p[c]
                rows[i] = [a - q * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# k0


class Group:
    """The group read from a k0 report: torsion moduli and free rank, with
    the vertex classes as (torsion, free) tuples."""

    def __init__(self, report: dict):
        self.moduli = tuple(_int(d) for d in report["torsion"])
        self.free_rank = report["free_rank"]
        self.delta = {
            v: (tuple(_int(x) for x in e["torsion"]), tuple(_int(x) for x in e["free"]))
            for v, e in report["delta"].items()
        }
        unit = report["order_unit"]
        self.unit = (tuple(_int(x) for x in unit["torsion"]), tuple(_int(x) for x in unit["free"]))

    def combine(self, coeffs: dict[str, int]):
        """Sum of c * [v] over the vertex classes, reduced."""
        tor = [0] * len(self.moduli)
        free = [0] * self.free_rank
        for v, c in coeffs.items():
            if not c:
                continue
            t, f = self.delta[v]
            for i, x in enumerate(t):
                tor[i] += c * x
            for i, x in enumerate(f):
                free[i] += c * x
        return tuple(x % d for x, d in zip(tor, self.moduli)), tuple(free)

    def is_zero(self, elem) -> bool:
        return not any(elem[0]) and not any(elem[1])


def check_k0(spec: GraphSpec, report: dict) -> list[str]:
    problems = []
    try:
        group = Group(report)
    except (KeyError, TypeError, ValueError) as err:
        return [f"{spec.name}: malformed k0 report: {err!r}"]
    n = len(spec.vertices)
    if set(group.delta) != set(spec.vertices):
        return [f"{spec.name}: delta does not list every vertex"]
    if any(d < 2 for d in group.moduli) or any(b % a for a, b in zip(group.moduli, group.moduli[1:])):
        problems.append(f"{spec.name}: torsion moduli {group.moduli} are not a divisor chain")
    cols = spec.relation_columns()
    for p in PRIMES:
        expect = n - group.free_rank - sum(1 for d in group.moduli if d % p == 0)
        got = rank_mod_p(cols, p)
        if got != expect:
            problems.append(f"{spec.name}: rank mod {p} is {got}, the report implies {expect}")
    for v in spec.vertices:
        if spec.kind(v) != "regular":
            continue
        coeffs = {w: m for w, m in spec.out(v)}
        coeffs[v] = coeffs.get(v, 0) - 1
        if not group.is_zero(group.combine(coeffs)):
            problems.append(f"{spec.name}: [{v}] != sum A({v}, w)[w]")
            break
    if group.combine({v: 1 for v in spec.vertices}) != group.unit:
        problems.append(f"{spec.name}: order unit is not the sum of the vertex classes")
    families = [
        (e, [(w, "inf" if m == INF else m) for w, m in spec.out(e)])
        for e in spec.vertices
        if spec.kind(e) == "emitter"
    ]
    reported = [
        (f["emitter"], [(t["vertex"], t["capacity"]) for t in f["targets"]])
        for f in report["cone"]["families"]
    ]
    if reported != families:
        problems.append(f"{spec.name}: cone families disagree with the emitters")
    if report["row_finite_orthant"] != (not families):
        problems.append(f"{spec.name}: row_finite_orthant disagrees with the emitters")
    return problems


# ---------------------------------------------------------------------------
# membership


def _reorder(spec: GraphSpec, vector) -> dict[str, int]:
    return dict(zip(spec.vertices, vector))


def check_functional(spec: GraphSpec, values: list[Fraction], query: dict[str, int]) -> list[str]:
    """A NotMember functional over the ambient order: nonnegative on every
    vertex, zero on every relation column, zero on infinite targets, the
    emitter bound, and negative on the kept ambient vector."""
    order = spec.ambient_order()
    if len(values) != len(order):
        return ["functional has the wrong length"]
    psi = dict(zip(order, values))
    if any(x < 0 for x in values):
        return ["functional is negative on a vertex class"]
    for col in spec.relation_columns():
        if sum((a * b for a, b in zip(col, values)), Fraction(0)):
            return ["functional does not vanish on a relation column"]
    for e in spec.vertices:
        if spec.kind(e) != "emitter":
            continue
        bound = psi[e]
        for w, m in spec.out(e):
            if m == INF:
                if psi[w] > 0:
                    return [f"functional is positive on infinite target {w} of {e}"]
            else:
                bound -= m * psi[w]
        if bound < 0:
            return [f"functional breaks the emitter bound at {e}"]
    if sum((psi[v] * c for v, c in query.items()), Fraction(0)) >= 0:
        return ["functional is not negative on the query"]
    return []


def check_witness(
    spec: GraphSpec, group: Group, phi: dict[str, int], witness: dict, query: dict[str, int]
) -> list[str]:
    """Counts nonnegative and within capacity, and the witness re-evaluates
    to the query: equal classes, equal session functional, and the
    difference lies in the span of the relations mod a large prime."""
    amb = {v: 0 for v in spec.vertices}
    for v, c in witness["base"].items():
        c = _int(c)
        if c < 0 or v not in amb:
            return [f"bad base count {v}: {c}"]
        amb[v] += c
    for use in witness["families"]:
        e, t = use["emitter"], _int(use["count"])
        if e not in amb or spec.kind(e) != "emitter" or t < 0:
            return [f"bad family use at {e}"]
        amb[e] += t
        caps = dict(spec.out(e))
        for w, c in use["targets"].items():
            c = _int(c)
            if w not in caps or c < 0 or (caps[w] != INF and c > t * caps[w]) or (c and not t):
                return [f"family use at {e} exceeds the capacity of {w}"]
            amb[w] -= c
    diff = {v: amb[v] - query[v] for v in spec.vertices}
    if not group.is_zero(group.combine(diff)):
        return ["witness does not re-evaluate to the query"]
    if sum(phi.get(v, 0) * d for v, d in diff.items()):
        return ["witness and query differ on the session functional"]
    order = spec.ambient_order()
    cols = spec.relation_columns()
    if rank_mod_p(cols + [[diff[v] for v in order]], LARGE_PRIME) != rank_mod_p(cols, LARGE_PRIME):
        return ["witness minus query is not in the span of the relations"]
    return []


def check_membership(spec, group, phi, kind: str, vector, report: dict) -> tuple[bool, list[str]]:
    """Returns (decided, problems); an Unknown verdict is undecided, not wrong."""
    query = _reorder(spec, vector)
    verdict = report.get("verdict")
    if verdict == "unknown":
        return False, []
    if verdict == "member":
        if kind in ("outside", "unseparable"):
            return True, [f"member verdict on a query known to lie outside the cone ({kind})"]
        return True, check_witness(spec, group, phi, report["witness"], query)
    if verdict == "not_member":
        if kind not in ("outside", "unseparable"):
            return True, [f"not_member verdict on a constructed {kind}"]
        return True, check_functional(spec, [_rat(s) for s in report["functional"]], query)
    return True, [f"unknown verdict tag {verdict!r}"]


# ---------------------------------------------------------------------------
# structure


def scc_reading(spec: GraphSpec) -> dict[str, int]:
    """Return-path census saturated at 2: 0 off cycles, 1 on a component that
    is a single cycle of multiplicity-one edges, else 2."""
    succ = {v: [w for w, _ in spec.out(v)] for v in spec.vertices}
    out = {}
    for comp in tarjan_scc(spec.vertices, succ):
        members = set(comp)
        inner = [(v, w, m) for v in comp for w, m in spec.out(v) if w in members]
        if not inner:
            reading = 0
        elif len(inner) == len(comp) and all(m == 1 for _, _, m in inner) and all(
            sum(1 for a, _, _ in inner if a == v) == 1 for v in comp
        ):
            reading = 1
        else:
            reading = 2
        for v in comp:
            out[v] = reading
    return out


def check_predicates(spec: GraphSpec, report: dict) -> list[str]:
    problems = []
    reading = scc_reading(spec)
    acyclic = all(r == 0 for r in reading.values())
    emitters = [v for v in spec.vertices if spec.kind(v) == "emitter"]
    singular = [v for v in spec.vertices if spec.kind(v) != "regular"]
    if report["row_finite"] != (not emitters):
        problems.append("row_finite disagrees with the edge table")
    if report["is_AF"] != acyclic or report["has_loop"] == acyclic:
        problems.append("is_AF/has_loop disagree with the SCC pass")
    if report["singular_vertices"] != singular:
        problems.append("singular_vertices disagree with the edge table")
    census = {v: (2 if c == ">=2" else c) for v, c in report["simple_loop_census"].items()}
    if set(census) != set(spec.vertices):
        return problems + ["census does not list every vertex"]
    for v, r in reading.items():
        # where the component is acyclic or a single cycle, the vertex-simple
        # and return-path readings agree; elsewhere they may differ (0 is
        # still wrong there)
        if (r < 2 and census[v] != r) or (r == 2 and census[v] == 0):
            problems.append(f"census at {v} is {census[v]}, the SCC pass gives {r}")
            break
    if report["condition_K"] != all(c != 1 for c in census.values()):
        problems.append("condition_K disagrees with the census")
    if any(r == 1 for r in reading.values()) and report["condition_K"]:
        problems.append("condition_K holds although a component is a single cycle")
    return problems


def trace_system(spec: GraphSpec):
    """(equalities, inequalities) of the norm-one trace polytope in the
    report's construction order, over the vertices: each a (row, rhs)."""
    vs = spec.vertices
    idx = {v: i for i, v in enumerate(vs)}
    eqs, ineqs, forced = [], [], set()
    for v in vs:
        kind = spec.kind(v)
        row = [0] * len(vs)
        if kind == "regular":
            row[idx[v]] += 1
            for w, m in spec.out(v):
                row[idx[w]] -= m
            eqs.append((row, 0))
        elif kind == "emitter":
            row[idx[v]] -= 1
            for w, m in spec.out(v):
                if m == INF:
                    forced.add(w)
                else:
                    row[idx[w]] += m
            ineqs.append((row, 0))
    for w in sorted(forced, key=idx.get):
        row = [0] * len(vs)
        row[idx[w]] = 1
        eqs.append((row, 0))
    eqs.append(([1] * len(vs), 1))
    return eqs, ineqs


def check_trace(spec: GraphSpec, trace: dict) -> list[str]:
    """An extreme norm-one trace, checked exactly."""
    vs = spec.vertices
    if set(trace) != set(vs):
        return ["trace does not assign every vertex"]
    t = [_rat(trace[v]) for v in vs]
    if any(x < 0 for x in t):
        return ["trace is negative somewhere"]
    eqs, ineqs = trace_system(spec)
    for row, rhs in eqs:
        if sum(a * x for a, x in zip(row, t)) != rhs:
            return ["trace breaks a trace equation, a forced zero or norm one"]
    tight = [list(map(Fraction, row)) for row, _ in eqs]
    for row, rhs in ineqs:
        val = sum(a * x for a, x in zip(row, t))
        if val > rhs:
            return ["trace breaks an emitter inequality"]
        if val == rhs:
            tight.append(list(map(Fraction, row)))
    for i, x in enumerate(t):
        if x == 0:
            tight.append([Fraction(int(j == i)) for j in range(len(vs))])
    if rank_q(tight) != len(vs):
        return ["extreme trace: tight constraints do not have full rank"]
    return []


def check_farkas(spec: GraphSpec, multipliers: list[Fraction]) -> list[str]:
    eqs, ineqs = trace_system(spec)
    cons = eqs + ineqs
    if len(multipliers) != len(cons):
        return ["certificate has the wrong length"]
    if any(lam < 0 for lam in multipliers[len(eqs):]):
        return ["certificate is negative on an inequality"]
    for j in range(len(spec.vertices)):
        if sum((lam * row[j] for lam, (row, _) in zip(multipliers, cons)), Fraction(0)) < 0:
            return ["certificate combination is negative on a variable"]
    if sum((lam * rhs for lam, (_, rhs) in zip(multipliers, cons)), Fraction(0)) >= 0:
        return ["certificate right-hand side is not negative"]
    return []


def check_traces(spec: GraphSpec, report: dict) -> list[str]:
    traces = report["traces"]
    cert = report.get("no_trace_certificate")
    if not traces:
        if cert is None:
            return ["no traces and no certificate"]
        problems = check_farkas(spec, [_rat(s) for s in cert])
    else:
        if cert is not None:
            return ["traces reported together with a no-trace certificate"]
        problems = []
        for t in traces:
            problems += check_trace(spec, t)
        if len({tuple(sorted(t.items())) for t in traces}) != len(traces):
            problems.append("extreme traces repeat")
    rep = report["tracial_state_report"]
    count = None if not traces else (1 if len(traces) == 1 else "inf")
    if rep["trace_count"] != count:
        problems.append("trace_count disagrees with the extreme traces")
    if rep["identification"] != ("canonical" if rep["condition_K"] else "states-only"):
        problems.append("identification disagrees with condition_K")
    if any(r == 1 for r in scc_reading(spec).values()) and rep["condition_K"]:
        problems.append("condition_K holds although a component is a single cycle")
    return problems
