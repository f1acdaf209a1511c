import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakiasi import (
    Graph,
    InvalidPatternError,
    MonoPattern,
    SolverTimeout,
    THEOREM_IDS,
    check_theorem,
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
from weakiasi import solver
from weakiasi.graph_io import write_edge_list
from weakiasi.solver import _MaxWeightEngine, _independent_sets, _TopTable

from helpers import bipartite_graphs, graphs, path_square, seeded_graphs


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


def _recursive_independent_sets(adj, weights):
    """The enumeration as first written, one generator frame per member."""

    def walk(allowed, mask, weight):
        yield mask, weight
        rest = allowed
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            yield from walk(rest & ~adj[v], mask | bit, weight + weights[v])

    yield from walk((1 << len(adj)) - 1, 0, 0)


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=12), st.booleans())
def test_enumeration_matches_recursive_reference(g, unit_weights):
    adj = g.adjacency_masks()
    weights = [1] * g.vertex_count if unit_weights else g.degrees()
    assert list(_independent_sets(adj, weights)) == list(
        _recursive_independent_sets(adj, weights)
    )


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=12))
@example(Graph(1))
@example(Graph(2, ((0, 1),)))
# 12,294 sets: the hubs 13 and 14 win only after the first chunk of 4,096
@example(Graph(16, tuple((v, h) for v in range(13) for h in (13, 14)) + ((0, 1),)))
# the table holds vertices 4-7: isolated 0, 4 and 6 lie on both sides of the
# split, and 0 and 4 join the witness below its top vertex 5
@example(Graph(8, ((1, 2), (2, 3), (5, 7))))
# the optimum {4, 5, 6, 7} comes from the table alone
@example(Graph(8, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
               + tuple((v, t) for v in range(4) for t in range(4, 8))))
# 58,425 sets on 28 vertices: 14 walked vertices below a 14-vertex table
@example(path_square(28))
def test_bruteforce_folds_the_reference_enumeration(g):
    # the first strict maximum over the reference order, every set counted
    best_mask, best_weight, explored = 0, -1, 0
    for mask, weight in _independent_sets(g.adjacency_masks(), g.degrees()):
        explored += 1
        if weight > best_weight:
            best_mask, best_weight = mask, weight
    result = sparing_bruteforce(g)
    assert result.value == g.edge_count - best_weight
    assert result.witness == MonoPattern(frozenset(solver._mask_to_ids(best_mask)))
    assert result.explored == explored


def eager_top_table(adj, weights, shift):
    """Brute force's top table as first built: all 2**(n - shift) entries,
    those whose lowest vertex is v filled from the highest v down."""
    size = 1 << (len(adj) - shift)
    table = [(0, 0, 0)] * size
    for v in reversed(range(shift, len(adj))):
        bit = 1 << v - shift
        weight, keep, member = weights[v], ~adj[v] >> shift, 1 << v
        for without in range(0, size, bit << 1):
            sets, gain, first = table[without]
            inner_sets, inner_gain, inner_first = table[without & keep]
            inner_gain += weight
            if inner_gain > 0 and inner_gain >= gain:
                gain, first = inner_gain, inner_first | member
            table[without | bit] = (1 + sets + inner_sets, gain, first)
    return table


@settings(max_examples=150, deadline=None)
@given(
    graphs(max_vertices=12),
    st.lists(st.integers(0, 2), min_size=12, max_size=12),
    st.integers(0, 12),
    st.lists(st.integers(0, 4095), max_size=8),
)
# the whole set read first: one nested fill builds all it depends on
@example(path_square(12), [2] * 12, 0, [4095])
# zero-weight top vertices: ties go to the sets holding the lowest vertex
@example(Graph(6, ((0, 5), (2, 3))), [0, 1, 0, 0, 2, 0] + [0] * 6, 2, [15, 5])
def test_lazy_top_table_matches_the_eager_recurrence(g, weights, shift, keys):
    # weights 0-2, so zero-weight vertices and ties occur; the drawn keys are
    # read first, into a table still empty, then every entry in order; the
    # lazy table is keyed by the unshifted mask of the vertices from shift up
    n = g.vertex_count
    weights, shift = weights[:n], min(shift, n)
    adj = g.adjacency_masks()
    eager = eager_top_table(adj, weights, shift)
    table = _TopTable([None] + [(w, ~a) for w, a in zip(weights, adj)])
    for key in [key % len(eager) for key in keys] + list(range(len(eager))):
        assert table[key << shift] == eager[key]
    assert len(table) == len(eager)


def recorded_top_tables(monkeypatch):
    """Every top table brute force makes from now on, in call order."""
    tables = []

    class Recording(_TopTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(solver, "_TopTable", Recording)
    return tables


@pytest.mark.parametrize(
    ("g", "filled"),
    [
        # 28 vertices: of 16,384 entries a 14-vertex table could hold, the
        # walk reads the sets left beside its last low vertices
        pytest.param(path_square(28), 15, id="P28^2"),
        # 55 vertices, 60,699,456 sets: 41 walked below a 14-vertex table
        pytest.param(edge_corona(complete_graph(5), complete_graph(5))[0], 24, id="K5<>K5"),
    ],
)
def test_bruteforce_fills_only_the_table_entries_it_reads(monkeypatch, g, filled):
    tables = recorded_top_tables(monkeypatch)
    sparing_bruteforce(g)
    assert [len(table) for table in tables] == [filled]


def test_no_call_fills_more_than_the_table_cap(monkeypatch):
    # every brute-force cross-check of the default audit, and 14 edges
    # i-(i + 14), whose walk reads every entry of a full 14-vertex table
    tables = recorded_top_tables(monkeypatch)
    for theorem_id in THEOREM_IDS:
        check_theorem(theorem_id)
    sparing_bruteforce(Graph(28, tuple((i, i + 14) for i in range(14))))
    assert len(tables) > 100
    assert max(len(table) for table in tables) == 1 << solver._TOP_BITS


@pytest.mark.parametrize(
    ("g", "deepest"),
    [
        # the full 14-vertex table of the edges i-(i + 14), read in walk order
        pytest.param(Graph(28, tuple((i, i + 14) for i in range(14))), 1, id="i-(i+14)"),
        pytest.param(edge_corona(complete_graph(5), complete_graph(5))[0], 10, id="K5<>K5"),
        # one lookup of all 14 vertices, each built from the one without its lowest
        pytest.param(Graph(14), 14, id="edgeless14"),
    ],
)
def test_a_table_fill_recurses_no_deeper_than_the_top_vertices(monkeypatch, g, deepest):
    depths = []

    class Counting(_TopTable):
        depth = 0

        def __missing__(self, key):
            self.depth += 1
            depths.append(self.depth)
            try:
                return super().__missing__(key)
            finally:
                self.depth -= 1

    monkeypatch.setattr(solver, "_TopTable", Counting)
    sparing_bruteforce(g)
    assert max(depths) == deepest <= solver._TOP_BITS


def test_bruteforce_k4():
    result = sparing_bruteforce(complete_graph(4))
    assert result.value == 3
    assert result.witness.sorted_ids() == (0,)
    assert result.explored == 5
    assert result.method == "bruteforce"


@pytest.mark.parametrize(
    ("family", "n", "sets"),
    [
        # 2^n on the edgeless graph
        ("edgeless", 0, 1), ("edgeless", 1, 2), ("edgeless", 9, 512), ("edgeless", 16, 65_536),
        # the Fibonacci number F(n + 2) on the path P_n
        ("path", 1, 2), ("path", 2, 3), ("path", 7, 34), ("path", 20, 17_711),
        # the Lucas number L(n) on the cycle C_n
        ("cycle", 3, 4), ("cycle", 4, 7), ("cycle", 11, 199), ("cycle", 20, 15_127),
        # n + 1 on K_n
        ("complete", 1, 2), ("complete", 5, 6), ("complete", 20, 21),
        # 24 vertices, 10 walked below a table of the top 14
        ("path", 24, 121_393), ("cycle", 24, 103_682), ("complete", 24, 25),
    ],
)
def test_bruteforce_counts_every_independent_set_once(family, n, sets):
    g = {"edgeless": Graph, "path": path_graph, "cycle": cycle_graph, "complete": complete_graph}[family](n)
    assert sparing_bruteforce(g).explored == sets
    assert len(set(_independent_sets(g.adjacency_masks(), [1] * n))) == sets


def test_bruteforce_on_triangles_past_the_table_limit():
    # 30 vertices: a table of the top 14 (four triangles and two vertices of
    # a fifth), 16 walked below
    result = sparing_bruteforce(disjoint_triangles(10))
    assert result.value == 10
    assert result.witness.sorted_ids() == tuple(range(0, 30, 3))
    assert result.explored == 4 ** 10


@pytest.mark.parametrize(
    ("g", "sets"),
    [
        pytest.param(gnp_random_graph(30, 0.3, 1), 10_606, id="G(30,.3,1)"),
        pytest.param(cycle_graph(31), 3_010_349, id="C31"),
        pytest.param(gnp_random_graph(40, 0.1, 1), 30_702_768, id="G(40,.1,1)"),
        pytest.param(edge_corona(complete_graph(5), complete_graph(5))[0], 60_699_456, id="K5<>K5"),
    ],
)
def test_bruteforce_matches_exact_past_24_vertices(g, sets):
    # no vertex cap: each finishes well inside the default budget
    brute, exact = sparing_bruteforce(g), sparing_exact(g)
    assert (brute.value, brute.witness) == (exact.value, exact.witness)
    assert brute.explored == sets


def test_bruteforce_even_cycle_is_zero():
    assert sparing_bruteforce(cycle_graph(4)).value == 0


def test_bruteforce_c5():
    result = sparing_bruteforce(cycle_graph(5))
    assert result.value == 1
    assert result.witness.sorted_ids() == (0, 2)


def test_bruteforce_cap():
    # no vertex cap: 2**25 sets on 25 isolated vertices, in the default budget
    result = sparing_bruteforce(Graph(25))
    assert (result.value, result.explored) == (0, 33_554_432)


def test_bruteforce_reads_the_clock_every_4096_sets():
    # the empty set, {0}, then a table lookup of the 16,383 non-empty subsets
    # of the top 14 vertices, which passes 4,096 at 16,385
    with pytest.raises(SolverTimeout, match=r"^enumeration exceeded its time budget after 16385 sets$"):
        sparing_bruteforce(Graph(15), timeout_secs=0.0)
    # at most 14 vertices are one lookup, which ends before the first clock
    # read: 16,384 sets on Graph(14), 377 on P12
    assert sparing_bruteforce(Graph(14), timeout_secs=0.0).explored == 16_384
    assert sparing_bruteforce(path_graph(12), timeout_secs=0.0).value == 0


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


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=14))
@example(Graph(0))
@example(Graph(14))
@example(complete_graph(1))
@example(complete_graph(14))
# a triangle on 1, 2, 3: isolated 0 joins the witness, isolated 4 does not
@example(Graph(5, ((1, 2), (1, 3), (2, 3))))
# triangles 0-2-3 and 3-5-6 tie five optima; the lex-min {0, 5} takes the
# isolated 1 and 4 between its vertices and leaves 7 out
@example(Graph(8, ((0, 2), (2, 3), (0, 3), (3, 5), (5, 6), (6, 3))))
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


def test_spent_budget_times_out_before_the_peel():
    # the triangles would all be peeled without a node
    with pytest.raises(SolverTimeout, match=r"budget after 0 nodes with 0 memoized states$"):
        sparing_exact(disjoint_triangles(5), timeout_secs=0.0)
    # every engine search, unit weights too, even where the peel alone answers
    with pytest.raises(SolverTimeout, match=r"after 0 nodes"):
        max_independent_set(path_graph(10), timeout_secs=0.0)
    with pytest.raises(SolverTimeout, match=r"after 0 nodes"):
        min_mono_vertices(path_graph(10), timeout_secs=0.0)
    assert max_independent_set(path_graph(10), timeout_secs=None) == (5, (0, 2, 4, 6, 8))


def test_timeout_message_reports_progress():
    g, _ = edge_corona(cycle_graph(5), cycle_graph(5))
    with pytest.raises(SolverTimeout, match=r"budget after \d+ nodes with \d+ memoized states$"):
        sparing_exact(g, timeout_secs=0.0)


def test_nan_time_budget_is_rejected():
    # a NaN deadline is never passed, so it would silently disable the timeout
    for g in (cycle_graph(5), path_graph(4)):
        with pytest.raises(ValueError, match="nan"):
            sparing_exact(g, timeout_secs=float("nan"))


def test_negative_time_budget_is_rejected():
    # a negative budget has run out before the start: malformed, not a timeout
    for g in (cycle_graph(5), path_graph(4)):
        with pytest.raises(ValueError, match="non-negative"):
            sparing_exact(g, timeout_secs=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        max_independent_set(cycle_graph(5), timeout_secs=-1.0)
    assert sparing_exact(path_graph(4), timeout_secs=0.0).value == 0


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


def test_exact_matches_bruteforce_where_the_bound_prunes(monkeypatch):
    # denser graphs of 18-22 vertices, where masks fail low, unlike in the
    # small graphs above; the top-level search is exact, so a search that
    # returns no members is a nested one that failed low
    failed_low = []
    search = _MaxWeightEngine.solve

    def recording(self, *args):
        value, members = search(self, *args)
        failed_low.append(members is None)
        return value, members

    monkeypatch.setattr(_MaxWeightEngine, "solve", recording)
    pruned = 0
    for g in seeded_graphs(24, max_vertices=22, seed=7, min_vertices=18, p_choices=(0.3, 0.4, 0.5)):
        brute = sparing_bruteforce(g)
        failed_low.clear()
        exact = sparing_exact(g)
        pruned += any(failed_low)
        assert (exact.value, exact.witness) == (brute.value, brute.witness)
        size, members = masked_optimum(g, [1] * g.vertex_count, (1 << g.vertex_count) - 1)
        assert max_independent_set(g) == (size, solver._mask_to_ids(members))
    assert pruned >= 20


@pytest.mark.parametrize("n", range(3, 23))
def test_path_square_matches_bruteforce(n):
    g = path_square(n)
    brute = sparing_bruteforce(g)
    exact = sparing_exact(g)
    assert (exact.value, exact.witness) == (brute.value, brute.witness)


# ---------------------------------------------------------------------------
# Maximal independent sets: every optimum is one
# ---------------------------------------------------------------------------

def heaviest_maximal_set(adj, weights):
    """(weight, mask) of the first heaviest set, in the reference walk's
    order, among the independent sets of the positive-weight vertices that
    no positive-weight vertex extends.

    Every optimum is such a set (a vertex that extends it adds weight), so
    this is the lexicographically smallest optimum over positive vertices.
    """
    positive = sum(1 << v for v, w in enumerate(weights) if w > 0)
    best_weight, best_mask = -1, 0
    for mask, weight in _independent_sets(adj, weights):
        if (
            weight > best_weight
            and not mask & ~positive
            and all(adj[u] & mask for u in solver._mask_to_ids(positive & ~mask))
        ):
            best_weight, best_mask = weight, mask
    return best_weight, best_mask


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=14))
@example(Graph(0))
@example(Graph(14))
@example(complete_graph(1))
@example(complete_graph(14))
# a triangle on 1, 2, 3: isolated 0 lies below the witness and joins it,
# isolated 4 lies above it and does not
@example(Graph(5, ((1, 2), (1, 3), (2, 3))))
# triangles 0-2-3 and 3-5-6 tie five optima; the lex-min {0, 5} takes the
# isolated 1 and 4 between its vertices and leaves 7 out
@example(Graph(8, ((0, 2), (2, 3), (0, 3), (3, 5), (5, 6), (6, 3))))
def test_maximal_sets_match_bruteforce(g):
    degrees = g.degrees()
    weight, mask = heaviest_maximal_set(g.adjacency_masks(), degrees)
    brute = sparing_bruteforce(g)
    assert (g.edge_count - weight, solver._lex_min_witness(mask, degrees)) == (brute.value, brute.witness)


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=10), st.lists(st.integers(0, 2), min_size=10, max_size=10))
@example(Graph(0), [1] * 10)
@example(Graph(4), [0, 1, 0, 2] + [0] * 6)
@example(complete_graph(5), [2, 0, 2, 1, 0] + [0] * 5)
def test_maximal_sets_are_the_unextendable_independent_sets(g, weights):
    # zero weights also on vertices with neighbours: the search leaves those
    # out, so its optimum is the heaviest unextendable set of the rest
    weights = weights[: g.vertex_count]
    best, members, _explored = solver._solve_max_weight(g, weights, None)
    assert (best, members) == heaviest_maximal_set(g.adjacency_masks(), weights)


def test_maximal_sets_are_the_unextendable_independent_sets_on_a_seeded_suite():
    # sparse graphs of 6-10 vertices, many maximal sets each, unit weights
    for g in seeded_graphs(300, max_vertices=10, seed=3, min_vertices=6, p_choices=(0.2, 0.3, 0.4)):
        size, members = heaviest_maximal_set(g.adjacency_masks(), [1] * g.vertex_count)
        assert max_independent_set(g) == (size, solver._mask_to_ids(members))


def disjoint_cliques(k, size):
    """k disjoint copies of K_size, the i-th on vertices size*i .. size*i + size - 1."""
    return Graph(
        k * size,
        tuple((size * i + a, size * i + b) for i in range(k) for a in range(size) for b in range(a + 1, size)),
    )


def disjoint_triangles(k):
    return disjoint_cliques(k, 3)


def disjoint_cycles(k, size):
    return Graph(
        k * size,
        tuple((size * i + a, size * i + (a + 1) % size) for i in range(k) for a in range(size)),
    )


def pendant_heavy_graphs(count, seed):
    """Sparse G(n, p <= .2), and random trees hung on an odd cycle under a
    random relabelling, so forced vertices meet both sides of the v < u tie."""
    suite = seeded_graphs(
        count, max_vertices=18, seed=seed, min_vertices=6, p_choices=(0.1, 0.15, 0.2)
    )
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice((3, 5, 7))
        n = rng.randint(k + 3, 18)
        label = rng.sample(range(n), n)
        edges = [(i, (i + 1) % k) for i in range(k)] + [(rng.randrange(v), v) for v in range(k, n)]
        suite.append(Graph(n, tuple((label[u], label[v]) for u, v in edges)))
    return suite


def test_forced_vertices_keep_value_and_witness():
    for g in pendant_heavy_graphs(160, seed=11):
        brute = sparing_bruteforce(g)
        exact = sparing_exact(g)
        assert (exact.value, exact.witness) == (brute.value, brute.witness)
        # unit weights tie every pendant with its neighbour
        size, members = masked_optimum(g, [1] * g.vertex_count, (1 << g.vertex_count) - 1)
        assert max_independent_set(g) == (size, solver._mask_to_ids(members))


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


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs())
def test_bipartite_witness_matches_bruteforce_without_search(g):
    brute = sparing_bruteforce(g)
    exact = sparing_exact(g)
    assert (exact.value, exact.witness) == (brute.value, brute.witness)
    assert (exact.explored, exact.method) == (0, "bipartite_shortcut")


def test_bipartite_witness_keeps_isolated_vertices_below_the_last_covered():
    # 2 lies between the covered vertices 0 and 3 and joins the witness;
    # 5 lies above them and would only lengthen it
    g = Graph(6, ((0, 1), (3, 4)))
    assert sparing_bruteforce(g).witness.sorted_ids() == (0, 2, 3)
    result = sparing_exact(g)
    assert (result.value, result.witness.sorted_ids()) == (0, (0, 2, 3))
    assert result.explored == 0


def test_bipartite_inputs_build_no_engine(monkeypatch):
    class NoEngine:
        def __init__(self, *_args):
            raise AssertionError("engine built")

    monkeypatch.setattr(solver, "_MaxWeightEngine", NoEngine)
    result = sparing_exact(path_graph(50), timeout_secs=0.0)
    assert (result.value, result.witness.sorted_ids()) == (0, tuple(range(0, 50, 2)))
    with pytest.raises(AssertionError, match="engine built"):
        sparing_exact(cycle_graph(5))


# ---------------------------------------------------------------------------
# Component search and its cost
# ---------------------------------------------------------------------------

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
# the BFS meets degree-2 vertex 4 before the tied, smaller vertex 1
@example(Graph(6, ((0, 4), (4, 5), (1, 5), (1, 2))), (1 << 6) - 1)
def test_component_matches_rescanning_reference(g, mask):
    avail = mask & ((1 << g.vertex_count) - 1)
    if not avail:
        return
    adj = g.adjacency_masks()
    engine = _MaxWeightEngine(g, g.degrees(), None)
    component, pivot = engine._component(avail)
    assert component == rescanning_component(adj, avail)
    # naive pivot: most neighbours in avail, smallest id on ties
    members = [v for v in range(g.vertex_count) if component >> v & 1]
    naive = min(members, key=lambda v: (-(adj[v] & avail).bit_count(), v))
    assert pivot == naive


class CountingDict(dict):
    """A memo that counts its stores."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize(
    ("g", "explored", "rewalks"),
    # the triangles are all peeled and walk nothing; each 5-cycle branches
    # once; on gnp60, 21 walks (18 distinct masks) repeat a mask that
    # failed low at another cut-off
    [
        (gnp_random_graph(60, 0.15, 1), 696, 21),
        (disjoint_triangles(304), 0, 0),
        (disjoint_cycles(300, 5), 300, 0),
    ],
    ids=["gnp60", "triangles304", "pentagons300"],
)
def test_no_component_is_walked_twice(g, explored, rewalks, monkeypatch):
    # each component is branched where the search finds it, never handed
    # to a nested search that would walk it again; only a mask that failed
    # low, and so was stored nowhere, is walked again when met again
    returned = set()
    walked_again = []
    memoized_when_walked = []
    component_search = _MaxWeightEngine._component

    def recording(self, avail):
        if avail in returned:
            walked_again.append(avail)
        if avail in self.memo:
            memoized_when_walked.append(avail)
        component, pivot = component_search(self, avail)
        returned.add(component)
        return component, pivot

    monkeypatch.setattr(_MaxWeightEngine, "_component", recording)
    engine = _MaxWeightEngine(g, g.degrees(), None)
    engine.memo = CountingDict()
    engine.solve((1 << g.vertex_count) - 1)
    assert engine.explored == explored
    assert len(walked_again) == rewalks
    # an exact component is stored once, after its branching node, and is
    # never searched again
    assert not memoized_when_walked
    assert engine.memo.stores == len(engine.memo) <= engine.explored


@pytest.mark.parametrize(
    "g, value, explored",
    [
        (path_graph(334), 0, 0),  # bipartite: answered without a search
        (cycle_graph(223), 1, 1),
        (disjoint_triangles(304), 304, 0),
        (gnp_random_graph(60, 0.15, 1), 112, 696),
        (gnp_random_graph(80, 0.15, 1), 247, 2909),
    ],
    ids=["path334", "cycle223", "triangles304", "gnp60", "gnp80"],
)
def test_explored_node_counts_are_pinned(g, value, explored):
    # one node per branched connected component, found in a single search
    # pass that carries each component's lex-min optimal set; simplicial
    # vertices are taken without a node, so a cycle branches once and
    # both paths left are peeled, and a triangle is peeled whole
    result = sparing_exact(g, timeout_secs=None)
    assert (result.value, result.explored) == (value, explored)


@pytest.mark.parametrize(("k", "size"), [(300, 3), (50, 4), (40, 5), (30, 6)])
def test_clique_unions_are_peeled_without_a_node(k, size):
    # each clique's lowest vertex beats its as heavy, higher neighbours
    result = sparing_exact(disjoint_cliques(k, size), timeout_secs=None)
    assert result.explored == 0
    assert result.value == k * (size - 1) * (size - 2) // 2
    assert result.witness.sorted_ids() == tuple(range(0, k * size, size))


@settings(max_examples=200, deadline=None)
@given(graphs(max_vertices=12), st.integers(min_value=0, max_value=(1 << 12) - 1), st.booleans())
# vertex 0 is simplicial in its triangle but lighter than vertex 1
@example(Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3))), 0b1111, False)
def test_peel_takes_only_lex_min_optimum_vertices(g, mask, unit_weights):
    weights = engine_weights(g, unit_weights)
    mask &= sum(1 << v for v, w in enumerate(weights) if w > 0)
    engine = _MaxWeightEngine(g, weights, None)
    rest, taken_weight, taken = engine._peel(mask, mask)
    optimum, lex_min = masked_optimum(g, weights, mask)
    assert not taken & ~lex_min
    assert taken_weight == sum(weights[v] for v in solver._mask_to_ids(taken))
    assert taken_weight + masked_optimum(g, weights, rest)[0] == optimum
    # taking v removes exactly N[v]
    adj = g.adjacency_masks()
    closed = taken
    for v in solver._mask_to_ids(taken):
        closed |= adj[v]
    assert rest == mask & ~closed


# ---------------------------------------------------------------------------
# The clique-cover bound and the fail-soft contract
# ---------------------------------------------------------------------------

def masked_optimum(g, weights, mask):
    """(weight, lex-min members mask) of a maximum independent set inside mask."""
    best_mask, best_weight = 0, 0
    for members, weight in _independent_sets(g.adjacency_masks(), weights):
        if weight > best_weight and not members & ~mask:
            best_mask, best_weight = members, weight
    return best_weight, best_mask


def engine_weights(g, unit_weights):
    return [1] * g.vertex_count if unit_weights else g.degrees()


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=14), st.integers(min_value=0, max_value=(1 << 14) - 1), st.booleans())
def test_cover_bounds_the_optimum(g, mask, unit_weights):
    mask &= (1 << g.vertex_count) - 1
    weights = engine_weights(g, unit_weights)
    engine = _MaxWeightEngine(g, weights, None)
    cover = engine._cover(mask)
    assert cover >= masked_optimum(g, weights, mask)[0]
    # a cover stopped at a limit says only whether the full cover fits
    for limit in range(-1, cover + 2):
        partial = engine._cover(mask, limit)
        assert (partial <= limit) == (cover <= limit)
        assert partial == cover or partial > limit


def disjoint_greedy_cover(adj, mask):
    """Reference: the number of cliques a disjoint greedy cover of mask opens,
    each at its lowest uncovered vertex and grown by the lowest common neighbour."""
    cliques = 0
    while mask:
        v = (mask & -mask).bit_length() - 1
        clique = 1 << v
        for u in range(v + 1, len(adj)):
            if mask >> u & 1 and not clique & ~adj[u]:  # u meets every member
                clique |= 1 << u
        mask &= ~clique
        cliques += 1
    return cliques


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=14), st.integers(min_value=0, max_value=(1 << 14) - 1))
def test_unit_weight_cover_is_a_disjoint_greedy_cover(g, mask):
    # with unit weights every member is paid in full by its first clique
    mask &= (1 << g.vertex_count) - 1
    engine = _MaxWeightEngine(g, [1] * g.vertex_count, None)
    assert engine._cover(mask) == disjoint_greedy_cover(g.adjacency_masks(), mask)


def test_split_cover_is_tighter_than_the_heaviest_member():
    # P3 weighted 1, 2, 1: clique {0, 1} costs 1 and leaves vertex 1 with 1,
    # which clique {1, 2} pays; charging each clique its heaviest member
    # would give 2 + 1
    engine = _MaxWeightEngine(path_graph(3), [1, 2, 1], None)
    assert engine._cover(0b111) == 2


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=14), st.integers(min_value=0, max_value=(1 << 14) - 1), st.booleans())
# exclude fails low at include's value and may still tie it with a lex-smaller
# set: the pair must fail low, not return include as exact
@example(
    Graph(10, ((0, 1), (0, 2), (0, 8), (0, 9), (1, 2), (1, 3), (1, 4), (1, 7), (1, 9), (2, 7),
               (2, 8), (2, 9), (3, 5), (3, 6), (3, 7), (3, 8), (4, 6), (5, 7), (6, 9), (8, 9))),
    959,
    True,
)
def test_solve_keeps_the_fail_soft_contract(g, mask, unit_weights):
    assert_fail_soft(g, engine_weights(g, unit_weights), mask)


def test_solve_keeps_the_fail_soft_contract_on_a_seeded_suite():
    # denser graphs than the strategy above tends to draw
    for g in seeded_graphs(40, max_vertices=14, seed=5, min_vertices=8, p_choices=(0.3, 0.4, 0.5, 0.6)):
        for unit_weights in (False, True):
            assert_fail_soft(g, engine_weights(g, unit_weights), (1 << g.vertex_count) - 1)


def assert_fail_soft(g, weights, mask):
    # the engine searches only vertices of positive weight
    mask &= sum(1 << v for v, w in enumerate(weights) if w > 0)
    optimum = masked_optimum(g, weights, mask)
    # a fresh engine per cut-off, and one whose memo stays warm from
    # cut-offs met before, both ending exact at -1
    warm = _MaxWeightEngine(g, weights, None)
    for alpha in [*range(optimum[0] + 2, -2, -1), *range(optimum[0] + 3)]:
        for engine in (_MaxWeightEngine(g, weights, None), warm):
            value, members = engine.solve(mask, alpha)
            if members is None:
                assert optimum[0] <= value <= alpha
            else:
                assert (value, members) == optimum
    assert warm.solve(mask) == optimum
    # a fail-low bound never lands in the memo: every entry is exact, and
    # each was stored after a branching node of its own
    for key, entry in warm.memo.items():
        assert entry == masked_optimum(g, weights, key)
    assert len(warm.memo) <= warm.explored


# ---------------------------------------------------------------------------
# Independent sets and parity
# ---------------------------------------------------------------------------

def test_max_independent_set_examples():
    assert max_independent_set(complete_graph(6)) == (1, (0,))
    assert max_independent_set(cycle_graph(6)) == (3, (0, 2, 4))
    assert max_independent_set(path_graph(5)) == (3, (0, 2, 4))


@settings(max_examples=120, deadline=None)
@given(graphs(max_vertices=10))
def test_max_independent_set_matches_enumeration(g):
    # unit weights: isolated vertices count, and the first maximum in
    # enumeration order is the lex-min one
    best_mask, best_size = 0, 0
    for mask, size in _independent_sets(g.adjacency_masks(), [1] * g.vertex_count):
        if size > best_size:
            best_mask, best_size = mask, size
    members = tuple(v for v in range(g.vertex_count) if best_mask >> v & 1)
    assert max_independent_set(g) == (best_size, members)


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
    with pytest.raises(ValueError):
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
