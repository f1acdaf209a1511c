import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakiasi import (
    Graph,
    IASIVerdict,
    MissingLabelError,
    SetLabel,
    VertexLabeling,
    count_mono_elements,
    cycle_graph,
    induced_edge_labels,
    path_graph,
    sumset,
    verify,
)
from weakiasi import setlabels

from helpers import graphs, set_labels


def labeling(*labels):
    return VertexLabeling({v: SetLabel(tuple(xs)) for v, xs in enumerate(labels)})


# ---------------------------------------------------------------------------
# SetLabel and sumsets
# ---------------------------------------------------------------------------

def test_set_label_canonicalizes():
    assert SetLabel((3, 1, 3)).elements == (1, 3)


def test_set_label_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        SetLabel(())
    with pytest.raises(ValueError):
        SetLabel((-1, 2))


def test_sumset_identity():
    assert sumset(SetLabel((0,)), SetLabel((0,))).elements == (0,)


def test_sumset_singleton_translate():
    assert sumset(SetLabel((1, 2)), SetLabel((3,))).elements == (4, 5)


def test_sumset_with_collision():
    assert sumset(SetLabel((1, 3)), SetLabel((2, 4))).elements == (3, 5, 7)


@settings(max_examples=150)
@given(set_labels(), set_labels())
def test_sumset_commutative_and_bounded(a, b):
    ab = sumset(a, b)
    assert ab == sumset(b, a)
    assert max(len(a), len(b)) <= len(ab) <= len(a) * len(b)


@settings(max_examples=200)
@given(set_labels(), set_labels())
def test_cardinality_law(a, b):
    # |A+B| stays at max(|A|,|B|) exactly when one side is a singleton.
    assert (len(sumset(a, b)) == max(len(a), len(b))) == (min(len(a), len(b)) == 1)


@settings(max_examples=100)
@given(set_labels(), st.integers(min_value=0, max_value=50))
def test_singleton_translation_preserves_size(a, c):
    assert len(sumset(a, SetLabel((c,)))) == len(a)


# ---------------------------------------------------------------------------
# Induced edge labels
# ---------------------------------------------------------------------------

def test_induced_labels_k2():
    labels = induced_edge_labels(path_graph(2), labeling([0], [1]))
    assert labels[(0, 1)].elements == (1,)


def test_induced_labels_p3():
    labels = induced_edge_labels(path_graph(3), labeling([1], [2], [3]))
    assert labels[(0, 1)].elements == (3,)
    assert labels[(1, 2)].elements == (5,)


def test_induced_labels_p3_translates():
    # singleton neighbours translate: {0,1}+{2}={2,3}, {2}+{4,5}={6,7}
    labels = induced_edge_labels(path_graph(3), labeling([0, 1], [2], [4, 5]))
    assert labels[(0, 1)].elements == (2, 3)
    assert labels[(1, 2)].elements == (6, 7)
    singleton = induced_edge_labels(path_graph(2), labeling([2], [4]))
    assert singleton[(0, 1)].elements == (6,)


def test_missing_label_names_vertex():
    with pytest.raises(MissingLabelError, match="vertex 2") as info:
        induced_edge_labels(path_graph(3), labeling([1], [2]))
    assert info.value.vertex == 2


def test_label_for_absent_vertex_names_it():
    f = VertexLabeling({0: SetLabel((1,)), 7: SetLabel((2,)), 1: SetLabel((3,))})
    with pytest.raises(ValueError, match="vertex 7") as info:
        induced_edge_labels(path_graph(2), f)
    assert not isinstance(info.value, MissingLabelError)
    with pytest.raises(ValueError, match="vertex 7"):
        verify(path_graph(2), f)


# ---------------------------------------------------------------------------
# verify / count_mono_elements
# ---------------------------------------------------------------------------

def test_verify_c3_all_singletons():
    verdict = verify(cycle_graph(3), labeling([1], [2], [3]))
    assert verdict.is_weak_iasi
    assert verdict.vertex_injective and verdict.edge_injective
    assert verdict.weak_condition
    assert verdict.mono_edge_count == 3
    assert verdict.mono_vertex_count == 3
    assert verdict.first_violation is None


def test_verify_duplicate_vertex_labels():
    verdict = verify(path_graph(2), labeling([1], [1]))
    assert not verdict.vertex_injective
    assert not verdict.is_weak_iasi
    assert "share label" in verdict.first_violation


def test_verify_weak_p3_example():
    verdict = verify(path_graph(3), labeling([0, 1], [2], [0, 3]))
    assert verdict.weak_condition
    assert verdict.is_weak_iasi
    assert verdict.mono_edge_count == 0


def test_verify_detects_weak_condition_failure():
    # adjacent 2-element labels force a sumset strictly bigger than 2
    verdict = verify(path_graph(2), labeling([0, 1], [0, 2]))
    assert not verdict.weak_condition
    assert "expected 2" in verdict.first_violation


def test_verify_detects_edge_collision():
    # edges (0,1) and (1,2) both get sumset {3}
    g = path_graph(3)
    verdict = verify(g, labeling([1], [2], [1]))
    assert not verdict.vertex_injective  # labels {1} reused as well
    verdict2 = verify(Graph(4, ((0, 1), (2, 3))), labeling([1], [2], [0], [3]))
    assert not verdict2.edge_injective


def test_count_mono_all_singletons():
    g = cycle_graph(4)
    f = labeling([1], [2], [3], [4])
    assert count_mono_elements(g, f) == (4, 4)


def test_count_mono_k2_mixed():
    assert count_mono_elements(path_graph(2), labeling([1], [2, 3])) == (1, 0)


def test_count_mono_c4_alternating():
    f = labeling([1], [2, 3], [4], [5, 6])
    assert count_mono_elements(cycle_graph(4), f) == (2, 0)


@settings(max_examples=80)
@given(graphs(max_vertices=6), st.data())
def test_weak_labelings_have_independent_non_mono(g, data):
    sizes = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=2),
            min_size=g.vertex_count,
            max_size=g.vertex_count,
        )
    )
    f = VertexLabeling(
        {
            v: SetLabel(tuple(range(3 * v + 1, 3 * v + 1 + sizes[v])))
            for v in range(g.vertex_count)
        }
    )
    verdict = verify(g, f)
    if verdict.weak_condition:
        non_mono = {v for v in range(g.vertex_count) if len(f.labels[v]) > 1}
        for u, v in g.edges:
            assert not (u in non_mono and v in non_mono)
    # shortcut equivalence: mono edges are exactly the edges with two
    # singleton endpoints
    expected = sum(
        1
        for u, v in g.edges
        if f.labels[u].is_singleton and f.labels[v].is_singleton
    )
    assert verdict.mono_edge_count == expected
    assert verdict.mono_edge_count <= g.edge_count
    assert verdict.mono_vertex_count <= g.vertex_count


# ---------------------------------------------------------------------------
# One-pass verify against the two-pass reference
# ---------------------------------------------------------------------------

def reference_verify(g, f):
    """Two-pass verifier: every sumset from ``induced_edge_labels``, and again
    inside the two-argument ``count_mono_elements``."""

    def first_repeat(labeled, message):
        seen = {}
        for item, label in labeled:
            earlier = seen.setdefault(label.elements, item)
            if earlier != item:
                return message.format(earlier, item, label)
        return None

    edge_labels = induced_edge_labels(g, f)
    vertex_repeat = first_repeat(
        ((v, f.labels[v]) for v in range(g.vertex_count)), "vertices {} and {} share label {}"
    )
    wrong_size = None
    for (u, v), label in edge_labels.items():
        expected = max(len(f.labels[u]), len(f.labels[v]))
        if len(label) != expected:
            wrong_size = (
                f"edge ({u}, {v}) sumset {label} has size {len(label)}, expected {expected}"
            )
            break
    edge_repeat = first_repeat(edge_labels.items(), "edges {} and {} share sumset {}")
    mono_vertices, mono_edges = count_mono_elements(g, f)
    return IASIVerdict(
        vertex_injective=vertex_repeat is None,
        edge_injective=edge_repeat is None,
        weak_condition=wrong_size is None,
        mono_vertex_count=mono_vertices,
        mono_edge_count=mono_edges,
        first_violation=vertex_repeat or wrong_size or edge_repeat,
    )


# The first violation each kind of drawn labeling must produce.
VIOLATION_PREFIX = {
    "valid": None,
    "vertex": "vertices ",
    "size": "edge (",
    "edge": "edges ",
}

# The least graph each kind needs: two vertices, an edge, two disjoint edges.
LEAST_GRAPH = {
    "valid": Graph(0),
    "vertex": Graph(2),
    "size": Graph(2, ((0, 1),)),
    "edge": Graph(4, ((0, 1), (2, 3))),
    "mixed": Graph(0),
}


@st.composite
def graphs_for(draw, kind):
    """A small graph that contains the least graph ``kind`` needs."""
    g = draw(graphs(max_vertices=7))
    least = LEAST_GRAPH[kind]
    return Graph(max(g.vertex_count, least.vertex_count), g.edges + least.edges)


@st.composite
def labelings_of_kind(draw, g, kind):
    """A labeling of ``g`` whose first violation is of ``kind``, or one of
    small arbitrary sets when ``kind`` is "mixed"; ``g`` holds
    ``LEAST_GRAPH[kind]``.

    The valid base gives v the singleton {4 * 8**v}, or {4 * 8**v, 4 * 8**v + 1}
    for v in an independent set: the minimum of an edge's sumset names the
    edge, so labels and sumsets are distinct and every sumset has the size
    of its bigger endpoint label.
    """
    n = g.vertex_count
    if kind == "mixed":
        return VertexLabeling({
            v: SetLabel(tuple(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))))
            for v in range(n)
        })
    adj = g.adjacency()
    doubled: set[int] = set()
    for v in draw(st.permutations(range(n))):
        if draw(st.booleans()) and not adj[v] & doubled:
            doubled.add(v)
    base = {v: 4 * 8**v for v in range(n)}
    labels = {v: (base[v], base[v] + 1) if v in doubled else (base[v],) for v in range(n)}
    if kind == "vertex":
        u, v = sorted(draw(st.sets(st.sampled_from(range(n)), min_size=2, max_size=2)))
        labels[v] = labels[u]
    elif kind == "size":
        u, v = draw(st.sampled_from(g.edges))
        labels[u] = (base[u], base[u] + 1)
        labels[v] = (base[v], base[v] + 2)
    elif kind == "edge":
        matched = [(e, d) for e in g.edges for d in g.edges if not set(e) & set(d)]
        (a, b), (c, d) = draw(st.sampled_from(matched))
        labels = {v: (base[v],) for v in range(n)}
        # base values are multiples of 4, so these two stay distinct from all
        labels[c] = (base[a] + 1,)
        labels[d] = (base[b] - 1,)
    return VertexLabeling({v: SetLabel(xs) for v, xs in labels.items()})


@pytest.mark.parametrize("kind", list(LEAST_GRAPH))
@settings(max_examples=60)
@given(data=st.data())
def test_verify_matches_two_pass_reference(kind, data):
    g = data.draw(graphs_for(kind))
    f = data.draw(labelings_of_kind(g, kind))
    expected = reference_verify(g, f)
    assert verify(g, f) == expected
    if kind != "mixed":
        prefix = VIOLATION_PREFIX[kind]
        if prefix is None:
            assert expected.first_violation is None and expected.is_weak_iasi
        else:
            assert expected.first_violation.startswith(prefix)


def test_verify_computes_each_sumset_once(monkeypatch):
    g = cycle_graph(7)
    f = labeling([1], [2, 9], [4], [8, 30], [16], [32, 70], [64])
    calls = []
    compute = setlabels._sums

    def counting(a, b):
        calls.append((a, b))
        return compute(a, b)

    monkeypatch.setattr(setlabels, "_sums", counting)
    verdict = verify(g, f)
    assert sorted(calls) == sorted(
        (f.labels[u].elements, f.labels[v].elements) for u, v in g.edges
    )
    assert verdict == reference_verify(g, f)


@settings(max_examples=80)
@given(graphs(max_vertices=7), st.data())
def test_count_mono_with_and_without_precomputed_sums(g, data):
    f = data.draw(labelings_of_kind(g, "mixed"))
    sums = [sumset(f.labels[u], f.labels[v]).elements for u, v in g.edges]
    assert count_mono_elements(g, f, sums) == count_mono_elements(g, f)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_labeling_json_round_trip():
    f = labeling([3], [1, 4])
    data = f.to_json_dict()
    assert data == {"vertex_labels": {"0": [3], "1": [1, 4]}}
    assert VertexLabeling.from_json_dict(data) == f


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"vertex_labels": []},
        {"vertex_labels": {"x": [1]}},
        {"vertex_labels": {"-1": [1]}},
        {"vertex_labels": {"0": "nope"}},
        {"vertex_labels": {"0": [1.5]}},
        {"vertex_labels": {"0": []}},
        {"vertex_labels": {"0": [1], "1": [2], "01": [1, 5]}},
        {"vertex_labels": {"1_0": [1]}},
    ],
)
def test_labeling_json_rejects_malformed(payload):
    with pytest.raises(ValueError):
        VertexLabeling.from_json_dict(payload)
