import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakiasi import (
    Graph,
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
