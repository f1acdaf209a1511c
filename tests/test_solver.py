import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakiasi import (
    CapExceededError,
    Graph,
    InvalidPatternError,
    MonoPattern,
    SolverTimeout,
    cli,
    complete_graph,
    cycle_graph,
    edge_corona,
    gnp_random_graph,
    is_bipartite,
    max_independent_set,
    min_mono_vertices,
    odd_cycle_parity_check,
    path_graph,
    pattern_is_valid,
    pattern_mono_edges,
    sparing_bruteforce,
    sparing_exact,
)
from weakiasi.graph_io import write_edge_list
from weakiasi.solver import _MaxWeightEngine, _independent_sets

from helpers import graphs, seeded_graphs


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def test_empty_pattern_always_valid():
    assert pattern_is_valid(complete_graph(5), MonoPattern(frozenset()))


def test_adjacent_non_mono_invalid():
    assert not pattern_is_valid(path_graph(2), MonoPattern(frozenset({0, 1})))


def test_c4_opposite_pair_valid():
    assert pattern_is_valid(cycle_graph(4), MonoPattern(frozenset({0, 2})))


def test_pattern_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        pattern_is_valid(path_graph(2), MonoPattern(frozenset({5})))


def test_mono_edges_empty_pattern_counts_all():
    g = cycle_graph(5)
    assert pattern_mono_edges(g, MonoPattern(frozenset())) == 5


def test_mono_edges_c4():
    assert pattern_mono_edges(cycle_graph(4), MonoPattern(frozenset({0, 2}))) == 0


def test_mono_edges_c5():
    assert pattern_mono_edges(cycle_graph(5), MonoPattern(frozenset({0, 2}))) == 1


def test_mono_edges_rejects_invalid_pattern():
    with pytest.raises(InvalidPatternError):
        pattern_mono_edges(path_graph(2), MonoPattern(frozenset({0, 1})))


@settings(max_examples=80)
@given(graphs(max_vertices=9))
def test_mono_edges_equal_degree_sum_complement(g):
    # for an independent pattern, covered edges = sum of member degrees
    _size, witness = max_independent_set(g)
    pattern = MonoPattern(frozenset(witness))
    degrees = g.degrees()
    assert pattern_mono_edges(g, pattern) == g.edge_count - sum(
        degrees[v] for v in witness
    )


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def test_enumeration_is_lexicographic():
    adj = path_graph(3).adjacency_masks()
    order = [mask for mask, _ in _independent_sets(adj, [0, 0, 0])]
    # {}, {0}, {0,2}, {1}, {2} as bitmasks
    assert order == [0b000, 0b001, 0b101, 0b010, 0b100]


def test_bruteforce_k4():
    result = sparing_bruteforce(complete_graph(4))
    assert result.value == 3
    assert result.witness.sorted_ids() == (0,)
    assert result.explored == 5
    assert result.method == "bruteforce"


def test_bruteforce_even_cycle_is_zero():
    assert sparing_bruteforce(cycle_graph(4)).value == 0


def test_bruteforce_c5():
    result = sparing_bruteforce(cycle_graph(5))
    assert result.value == 1
    assert result.witness.sorted_ids() == (0, 2)


def test_bruteforce_cap():
    with pytest.raises(CapExceededError):
        sparing_bruteforce(Graph(25))
    assert sparing_bruteforce(Graph(25), cap=25).value == 0


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

def test_exact_path_is_zero_via_shortcut():
    result = sparing_exact(path_graph(10))
    assert result.value == 0
    assert result.method == "bipartite_shortcut"


def test_exact_k4_corona():
    product, _ = edge_corona(path_graph(2), path_graph(2))
    result = sparing_exact(product)
    assert result.value == 3
    assert result.method == "branch_and_bound"


def test_exact_p3_corona_p2():
    # 7-vertex, 12-edge instance; exhaustive enumeration gives 6
    product, _ = edge_corona(path_graph(3), path_graph(2))
    assert product.vertex_count == 7 and product.edge_count == 12
    assert sparing_bruteforce(product).value == 6
    assert sparing_exact(product).value == 6


def test_exact_empty_graph():
    result = sparing_exact(Graph(0))
    assert result.value == 0
    assert result.witness.sorted_ids() == ()


def test_witness_determinism():
    g, _ = edge_corona(cycle_graph(4), path_graph(2))
    first = sparing_exact(g)
    second = sparing_exact(g)
    assert first.value == second.value
    assert first.witness == second.witness
    assert first.explored == second.explored


@settings(max_examples=120, deadline=None)
@given(graphs(max_vertices=10))
def test_exact_matches_bruteforce(g):
    brute = sparing_bruteforce(g)
    exact = sparing_exact(g)
    assert exact.value == brute.value
    assert exact.witness == brute.witness


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=10))
def test_zero_iff_bipartite(g):
    bipartite, _ = is_bipartite(g)
    value = sparing_exact(g).value
    assert (value == 0) == bipartite


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=9), graphs(max_vertices=9))
def test_subgraph_monotonicity(g, other):
    # restrict an optimal witness of g to a spanning subgraph h
    h = Graph(g.vertex_count, tuple(set(g.edges) & set(other.edges)))
    witness = sparing_exact(g).witness
    restricted = MonoPattern(frozenset(v for v in witness.non_mono))
    assert pattern_is_valid(h, restricted)
    assert sparing_exact(h).value <= pattern_mono_edges(h, restricted)


def test_timeout_is_reported():
    g, _ = edge_corona(cycle_graph(5), cycle_graph(5))
    with pytest.raises(SolverTimeout):
        sparing_exact(g, timeout_secs=0.0)


def test_timeout_message_reports_progress():
    g, _ = edge_corona(cycle_graph(5), cycle_graph(5))
    with pytest.raises(SolverTimeout, match=r"budget after \d+ nodes with \d+ memoized states$"):
        sparing_exact(g, timeout_secs=0.0)


def test_solver_equivalence_on_seeded_suite():
    for g in seeded_graphs(25, max_vertices=12, seed=99):
        brute = sparing_bruteforce(g)
        exact = sparing_exact(g)
        assert exact.value == brute.value
        assert exact.witness == brute.witness


def naive_sparing(g):
    """Third, independent route: scan all vertex subsets with itertools."""
    import itertools

    best_value, best_witness = g.edge_count + 1, None
    for k in range(g.vertex_count + 1):
        for subset in itertools.combinations(range(g.vertex_count), k):
            chosen = set(subset)
            if any(u in chosen and v in chosen for u, v in g.edges):
                continue
            mono = sum(
                1 for u, v in g.edges if u not in chosen and v not in chosen
            )
            key = (mono, subset)
            if key < (best_value, best_witness):
                best_value, best_witness = mono, subset
    return best_value, best_witness


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=7))
def test_reduction_soundness_against_naive_scan(g):
    value, witness = naive_sparing(g)
    brute = sparing_bruteforce(g)
    exact = sparing_exact(g)
    assert brute.value == value
    assert exact.value == value
    assert brute.witness.sorted_ids() == witness
    assert exact.witness.sorted_ids() == witness


def test_lex_witness_includes_small_isolated_vertices():
    # vertex 0 is isolated; {0, 1} sorts before {1}, so the lex-min optimal
    # witness picks it up even though it covers nothing
    g = Graph(3, ((1, 2),))
    assert sparing_bruteforce(g).witness.sorted_ids() == (0, 1)
    assert sparing_exact(g).witness.sorted_ids() == (0, 1)


# ---------------------------------------------------------------------------
# Component search and its cost
# ---------------------------------------------------------------------------

def disjoint_triangles(k):
    return Graph(
        3 * k,
        tuple((3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))),
    )


def test_many_components_solve_without_recursion(tmp_path, capsys):
    g = disjoint_triangles(1100)
    expected = tuple(range(0, 3300, 3))
    result = sparing_exact(g)
    assert result.value == 1100
    assert result.witness.sorted_ids() == expected

    path = tmp_path / "triangles.txt"
    path.write_text(write_edge_list(g))
    assert cli.main(["sparing", "--graph", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 1100
    assert data["witness"]["non_mono"] == list(expected)


def rescanning_component(adj, avail):
    """Reference BFS: rescan the whole grown component until it stops growing."""
    component = avail & -avail
    while True:
        reach = 0
        for v in range(len(adj)):
            if component >> v & 1:
                reach |= adj[v]
        grown = component | (reach & avail)
        if grown == component:
            return component
        component = grown


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=14), st.integers(min_value=1, max_value=(1 << 14) - 1))
def test_component_matches_rescanning_reference(g, mask):
    avail = mask & ((1 << g.vertex_count) - 1)
    if not avail:
        return
    engine = _MaxWeightEngine(g.adjacency_masks(), g.degrees(), None)
    assert engine._component(avail) == rescanning_component(g.adjacency_masks(), avail)


@pytest.mark.parametrize(
    "g, value, explored",
    [
        (path_graph(334), 0, 989),
        (cycle_graph(223), 1, 1097),
        (disjoint_triangles(304), 304, 1215),
        (gnp_random_graph(60, 0.15, 1), 112, 44137),
    ],
    ids=["path334", "cycle223", "triangles304", "gnp60"],
)
def test_explored_node_counts_are_pinned(g, value, explored):
    # recorded with the whole-rescan, recursive component split: how
    # components are found must not change the search tree or the memo
    result = sparing_exact(g, timeout_secs=None)
    assert (result.value, result.explored) == (value, explored)


# ---------------------------------------------------------------------------
# Independent sets and parity
# ---------------------------------------------------------------------------

def test_max_independent_set_examples():
    assert max_independent_set(complete_graph(6)) == (1, (0,))
    assert max_independent_set(cycle_graph(6)) == (3, (0, 2, 4))
    assert max_independent_set(path_graph(5)) == (3, (0, 2, 4))


def test_min_mono_vertices_examples():
    assert min_mono_vertices(complete_graph(4)) == 3
    assert min_mono_vertices(cycle_graph(4)) == 2
    assert min_mono_vertices(cycle_graph(5)) == 3


@pytest.mark.parametrize("n", range(3, 13))
def test_odd_cycle_parity(n):
    assert odd_cycle_parity_check(n)


def test_odd_cycle_parity_preconditions():
    with pytest.raises(ValueError):
        odd_cycle_parity_check(2)
    with pytest.raises(CapExceededError):
        odd_cycle_parity_check(30)


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------

def test_result_json_shape():
    result = sparing_exact(complete_graph(4))
    data = result.to_json_dict()
    assert data["value"] == 3
    assert data["witness"] == {"non_mono": [0]}
    assert data["method"] == "branch_and_bound"
    assert isinstance(data["explored"], int)
    assert isinstance(data["elapsed_secs"], float)
