"""Sparing numbers of graphs under weak integer additive set-indexers.

Exact solvers for the sparing number (the minimum number of singleton-
labeled edges a weak set-indexer must keep), the edge-corona product with
provenance, constructive witness labelings, and an audit harness that
checks a registry of closed-form candidates against the exact optimum.
"""

from .graphs import (
    CoronaProvenance,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_corona,
    generate,
    gnp_random_graph,
    intersection,
    is_bipartite,
    path_graph,
    regularity,
    shift_vertices,
    union,
)
from .graph_io import EdgeListParseError, read_edge_list, to_dot, write_edge_list
from .labeler import (
    LabelingConstructionError,
    SidonSequence,
    construct_optimal,
    construct_weak_iasi,
    sidon,
)
from .setlabels import (
    IASIVerdict,
    MissingLabelError,
    SetLabel,
    VertexLabeling,
    count_mono_elements,
    induced_edge_labels,
    sumset,
    verify,
)
from .solver import (
    InvalidPatternError,
    MonoPattern,
    ResourceLimitError,
    SolverTimeout,
    SparingResult,
    max_independent_set,
    min_mono_vertices,
    odd_cycle_parity_check,
    pattern_is_valid,
    pattern_mono_edges,
    sparing_bruteforce,
    sparing_exact,
)
from .theorems import (
    THEOREM_IDS,
    FormulaDomainError,
    FormulaIntegralityError,
    TheoremReport,
    TheoremRow,
    UnknownTheoremError,
    check_theorem,
    default_corona_instances,
    formula_eval,
)

__version__ = "0.1.0"
