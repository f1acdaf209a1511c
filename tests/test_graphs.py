import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakiasi import (
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

from helpers import graphs


# ---------------------------------------------------------------------------
# Graph type
# ---------------------------------------------------------------------------

def test_edges_are_canonicalized():
    g = Graph(3, ((2, 1), (1, 2), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, ((1, 1),))


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2),))


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        Graph(-1)


def test_equality_is_structural():
    assert Graph(3, ((0, 1), (1, 2))) == path_graph(3)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_path_counts():
    g = path_graph(5)
    assert g.vertex_count == 5 and g.edge_count == 4


def test_cycle_counts():
    g = cycle_graph(5)
    assert g.vertex_count == 5 and g.edge_count == 5


def test_complete_counts():
    assert complete_graph(4).edge_count == 6


def test_complete_bipartite_counts():
    g = complete_bipartite_graph(2, 3)
    assert g.vertex_count == 5 and g.edge_count == 6


@pytest.mark.parametrize(
    "family,params",
    [("path", (0,)), ("cycle", (2,)), ("complete", (0,)), ("complete_bipartite", (0, 1))],
)
def test_family_preconditions(family, params):
    with pytest.raises(ValueError):
        generate(family, params)


def test_generate_dispatch():
    assert generate("cycle", (4,)) == cycle_graph(4)
    assert generate("complete-bipartite", (2, 2)) == complete_bipartite_graph(2, 2)
    with pytest.raises(ValueError, match="unknown family"):
        generate("tree", (3,))


def test_gnp_is_deterministic():
    assert gnp_random_graph(12, 0.3, seed=7) == gnp_random_graph(12, 0.3, seed=7)
    assert gnp_random_graph(12, 0.3, seed=7) != gnp_random_graph(12, 0.3, seed=8)


# ---------------------------------------------------------------------------
# Edge corona
# ---------------------------------------------------------------------------

def test_corona_c5_c3_counts():
    product, prov = edge_corona(cycle_graph(5), cycle_graph(3))
    assert product.vertex_count == 20
    assert product.edge_count == 50
    assert len(prov.copies) == 5


def test_corona_p2_p2_is_k4():
    product, _ = edge_corona(path_graph(2), path_graph(2))
    assert product == complete_graph(4)


def test_corona_with_edgeless_first_factor():
    g1 = Graph(3)
    product, prov = edge_corona(g1, cycle_graph(3))
    assert product == g1
    assert prov.copies == ()


def test_corona_with_empty_second_factor():
    g1 = path_graph(3)
    product, prov = edge_corona(g1, Graph(0))
    assert product == g1
    assert prov.copies == ((), ())


def test_corona_needs_nonempty_first_factor():
    with pytest.raises(ValueError):
        edge_corona(Graph(0), path_graph(2))


def test_corona_is_deterministic():
    a = edge_corona(cycle_graph(4), path_graph(3))
    b = edge_corona(cycle_graph(4), path_graph(3))
    assert a == b


@settings(max_examples=60)
@given(graphs(max_vertices=5), graphs(max_vertices=4))
def test_corona_size_formulas(g1, g2):
    if g1.vertex_count == 0:
        return
    n1, m1 = g1.vertex_count, g1.edge_count
    n2, m2 = g2.vertex_count, g2.edge_count
    product, prov = edge_corona(g1, g2)
    assert product.vertex_count == n1 + m1 * n2
    assert product.edge_count == m1 + m1 * m2 + 2 * m1 * n2
    ids = list(prov.base) + [v for copy in prov.copies for v in copy]
    assert sorted(ids) == list(range(product.vertex_count))


@settings(max_examples=40)
@given(graphs(max_vertices=5), graphs(max_vertices=4))
def test_corona_copies_induce_second_factor(g1, g2):
    if g1.vertex_count == 0:
        return
    product, prov = edge_corona(g1, g2)
    degrees = product.degrees()
    g2_degrees = g2.degrees()
    edge_set = set(product.edges)
    for j, copy in enumerate(prov.copies):
        members = set(copy)
        induced = {(u, v) for u, v in product.edges if u in members and v in members}
        mapped = {
            (min(copy[u], copy[v]), max(copy[u], copy[v])) for u, v in g2.edges
        }
        assert induced == mapped
        for k, w in enumerate(copy):
            assert degrees[w] == g2_degrees[k] + 2
        r, s = g1.edges[j]
        for w in copy:
            assert (min(r, w), max(r, w)) in edge_set
            assert (min(s, w), max(s, w)) in edge_set


# ---------------------------------------------------------------------------
# Union / intersection
# ---------------------------------------------------------------------------

def test_union_idempotent():
    g = cycle_graph(5)
    assert union(g, g) == g


def test_one_point_union_of_two_k4():
    g1 = complete_graph(4)
    g2 = shift_vertices(complete_graph(4), 3)
    merged = union(g1, g2)
    assert merged.vertex_count == 7
    assert merged.edge_count == 12
    assert intersection(g1, g2).edge_count == 0


def test_intersection_of_edge_disjoint_graphs_is_edgeless():
    g1 = path_graph(4)
    g2 = Graph(4, ((0, 2), (1, 3)))
    assert intersection(g1, g2).edge_count == 0


@settings(max_examples=60)
@given(graphs(max_vertices=7), graphs(max_vertices=7))
def test_union_intersection_edge_counts(g1, g2):
    assert (
        union(g1, g2).edge_count + intersection(g1, g2).edge_count
        == g1.edge_count + g2.edge_count
    )


# ---------------------------------------------------------------------------
# Bipartiteness and regularity
# ---------------------------------------------------------------------------

def test_even_cycle_is_bipartite():
    ok, coloring = is_bipartite(cycle_graph(4))
    assert ok
    for u, v in cycle_graph(4).edges:
        assert coloring[u] != coloring[v]


def test_odd_cycle_certificate():
    ok, certificate = is_bipartite(cycle_graph(5))
    assert not ok
    assert certificate == []


def test_complete_graph_not_bipartite():
    ok, _ = is_bipartite(complete_graph(4))
    assert not ok


@settings(max_examples=80)
@given(graphs(max_vertices=9))
def test_bipartite_certificates_are_genuine(g):
    ok, certificate = is_bipartite(g)
    if ok:
        assert len(certificate) == g.vertex_count
        for u, v in g.edges:
            assert certificate[u] != certificate[v]
    else:
        assert certificate == []
        assert not any(
            all((bits >> u & 1) != (bits >> v & 1) for u, v in g.edges)
            for bits in range(1 << g.vertex_count)
        )


def test_regularity():
    assert regularity(cycle_graph(6)) == 2
    assert regularity(path_graph(3)) is None
    assert regularity(complete_graph(5)) == 4
    assert regularity(Graph(3)) == 0
    assert regularity(Graph(0)) is None


def test_shift_vertices():
    g = shift_vertices(path_graph(3), 2)
    assert g.vertex_count == 5
    assert g.edges == ((2, 3), (3, 4))
