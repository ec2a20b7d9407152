"""Ordered K0-groups of graph C*-algebras from finitely presented directed
graphs, in exact arithmetic."""

from .dd import polytope_vertices  # the reference vertex enumerator
from .graphs import (
    INF,
    Graph,
    VertexClass,
    block_decomposition,
    classify_vertex,
    desingularize,
    emitter_edge_listing,
    predicates,
    satisfies_condition_k,
    simple_loop_census,
)
from .intfeas import (
    IntInfeasible,
    IntUnknown,
    IntWitness,
    integer_feasibility,
)
from .ktheory import (
    ConeSpec,
    Family,
    IsomorphicCandidate,
    K0Presentation,
    Member,
    MembershipWitness,
    NotIsomorphic,
    NotMember,
    UnknownComparison,
    UnknownMembership,
    compare_k0,
    compute_k0,
    compute_k0_row_finite,
    cone_membership,
    order_properties,
    verify_desingularization_consistency,
)
from .linalg import (
    CertificateError,
    CokerPresentation,
    Element,
    SmithForm,
    cokernel,
    smith_normal_form,
    solve_diophantine,
)
from .lp import (
    Constraint,
    FarkasCertificate,
    Feasible,
    Infeasible,
    constraint,
    solve_lp,
    verify_farkas,
)
from .reports import emit_report
from .textio import GraphDocument, ParseError, parse_graph, serialize_graph
from .traces import (
    GraphTrace,
    NoTrace,
    StateOnK0,
    extreme_traces,
    find_graph_trace,
    state_to_trace,
    trace_constraints,
    trace_to_state,
    tracial_state_report,
)

__version__ = "0.1.0"
