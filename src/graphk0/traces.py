"""Graph traces and their identification with states on the K0 group.

A graph trace assigns a nonnegative rational to each vertex so that regular
vertices split their value over their targets (counted with multiplicity)
and infinite emitters dominate every finite batch of theirs.  These
conditions are written once, by ``ktheory.trace_cone``, as sparse rows read
off the graph's edges; here they gain the norm row, and a point given by a
caller is checked by ``lp.check_point`` in one pass over those rows' nonzero
entries.  Norm-one traces form a rational polytope whose vertices are
the extreme rays of the trace cone, ``ktheory.trace_rays``, each divided by
its norm; those rays are certified where they are found.  When there is
none, ``no_trace`` proves it with a Farkas certificate built from the same
walks along the edges, so no LP is solved here.  A
norm-one trace is the same data as a state on the K0 presentation (a
positive normalized functional), and both directions of that dictionary are
implemented with full re-verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .graphs import Graph, INF, satisfies_condition_k
from .ktheory import K0Presentation, TracePolytope, _component_rays, _cone_rays, _walks
from .ktheory import nonnegative_on_cone, trace_cone
from .linalg import CertificateError, Element
from .lp import FarkasCertificate, check_point, verify_farkas

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GraphTrace:
    values: tuple[tuple[str, Fraction], ...]

    @property
    def norm(self) -> Fraction:
        return sum((v for _, v in self.values), _ZERO)

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)


@dataclass(frozen=True)
class NoTrace:
    certificate: FarkasCertificate


def trace_constraints(g: Graph) -> TracePolytope:
    """The norm-one graph traces: ``trace_cone`` plus the norm row."""
    cone = trace_cone(g)
    norm = (tuple((j, 1) for j in range(len(cone.variables))), 1)
    return replace(cone, equalities=cone.equalities + (norm,))


def verify_graph_trace(g: Graph, t: GraphTrace) -> bool:
    """Exact check of the defining conditions plus nonnegativity."""
    values = t.as_dict()
    if set(values) != set(g.vertices):
        return False
    cone = trace_cone(g)
    n = len(cone.variables)
    return check_point(n, cone.constraints(), [True] * n, [values[v] for v in cone.variables])


def find_graph_trace(g: Graph) -> GraphTrace | NoTrace:
    """The first extreme norm-one graph trace, or a NoTrace with a Farkas
    certificate."""
    extremes = extreme_traces(g)
    return extremes[0] if extremes else no_trace(g)


def no_trace(g: Graph) -> NoTrace:
    """The Farkas certificate that ``g`` has no norm-one graph trace, or
    ``CertificateError`` when it has one.  With no ray every vertex outside
    Z is regular on no cycle, so ``ktheory._walks`` meets a demand of 1 at
    every vertex, and -1 on the norm row makes that 0 >= 1."""
    poly = trace_constraints(g)
    coefficients, zero, _ = _component_rays(g, poly)
    if coefficients:
        raise CertificateError("a norm-one graph trace exists")
    n = len(poly.variables)
    lam = _walks(g, poly, zero, [1] * n)
    lam[len(poly.equalities) - 1] = -1  # the norm row, the last equality
    certificate = FarkasCertificate(tuple(map(Fraction, lam)))
    if not verify_farkas(n, poly.constraints(), [True] * n, certificate):
        raise CertificateError("the walk certificate does not rule out a norm-one trace")
    return NoTrace(certificate=certificate)


def extreme_traces(g: Graph) -> list[GraphTrace]:
    """All extreme points of the norm-one trace polytope, sorted canonically:
    the extreme rays of the trace cone, each divided by its norm.

    ``trace_rays`` has certified every ray as a point of the cone, whose
    rows are homogeneous, so each ray divided by its norm is one too, and
    the norm row holds exactly; the points are not checked again.

    The points are sorted as integer tuples: each ray times
    ``lcm(norms) // norm`` is its point times ``lcm(norms)``, which keeps
    their order, and each ``Fraction`` is built once, for the output."""
    cone, rays = _cone_rays(g)
    norms = [sum(h) for h in rays]
    common = lcm(*norms)
    scaled = [tuple(c * (common // norm) for c in h) for h, norm in zip(rays, norms)]
    traces = []
    for i in sorted(range(len(rays)), key=scaled.__getitem__):
        norm = norms[i]
        point = (Fraction(c, norm) if c else _ZERO for c in rays[i])
        traces.append(GraphTrace(values=tuple(zip(cone.variables, point))))
    return traces


@dataclass(frozen=True)
class StateOnK0:
    """A positive normalized functional on a K0 presentation, recorded by its
    values on the vertex classes."""

    values_on_delta: tuple[tuple[str, Fraction], ...]
    presentation: K0Presentation

    def evaluate(self, e: Element) -> Fraction:
        k = self.presentation
        values = dict(self.values_on_delta)
        phi = [values[v] for v in k.ambient_order]
        lift = k.coker.lift(e)
        return sum((p * c for p, c in zip(phi, lift)), _ZERO)


def verify_state(s: StateOnK0) -> bool:
    """Well defined on the quotient, nonnegative on the cone, one on the unit."""
    k = s.presentation
    values = dict(s.values_on_delta)
    if set(values) != set(k.graph.vertices):
        return False
    phi = tuple(values[v] for v in k.ambient_order)
    return nonnegative_on_cone(k, phi) and s.evaluate(k.order_unit) == 1


def trace_to_state(g: Graph, k: K0Presentation, t: GraphTrace) -> StateOnK0:
    """Send a norm-one trace to the state with f([v]) = t(v)."""
    if not verify_graph_trace(g, t):
        raise ValueError("not a graph trace")
    if t.norm != 1:
        raise ValueError(f"trace has norm {t.norm}, expected 1")
    state = StateOnK0(values_on_delta=t.values, presentation=k)
    if not verify_state(state):
        raise CertificateError("the trace's values do not form a state on K0")
    return state


def state_to_trace(g: Graph, k: K0Presentation, s: StateOnK0) -> GraphTrace:
    """Read a state back as the trace v -> f([v])."""
    if not verify_state(s):
        raise ValueError("not a state on this presentation")
    values = dict(s.values_on_delta)
    poly = trace_constraints(g)
    n = len(poly.variables)
    point = [values[v] for v in poly.variables]
    if not check_point(n, poly.constraints(), [True] * n, point):
        raise CertificateError("the state's values are not a norm-one graph trace")
    return GraphTrace(values=tuple(zip(poly.variables, point)))


@dataclass(frozen=True)
class TraceReport:
    condition_k: bool
    trace_state_identification: str  # "canonical" | "states-only"
    extremes: tuple[GraphTrace, ...]

    @property
    def trace_count(self) -> object:
        """None (no traces), 1, or INF: the size of the norm-one trace set."""
        if not self.extremes:
            return None
        return 1 if len(self.extremes) == 1 else INF


def tracial_state_report(g: Graph) -> TraceReport:
    """Condition (K) status plus the extreme norm-one traces, whose number
    gives the size of the trace set.

    Under Condition (K) the tracial states of the algebra are canonically the
    norm-one graph traces; otherwise the computed set still matches the
    states on K0, and the report says so.
    """
    condition_k = satisfies_condition_k(g)
    return TraceReport(
        condition_k=condition_k,
        trace_state_identification="canonical" if condition_k else "states-only",
        extremes=tuple(extreme_traces(g)),
    )
