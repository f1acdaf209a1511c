import hashlib

import pytest
from hypothesis import given, settings

from weakiasi import (
    IASIVerdict,
    InvalidPatternError,
    LabelingConstructionError,
    MonoPattern,
    SidonSequence,
    SolverTimeout,
    complete_graph,
    construct_optimal,
    construct_weak_iasi,
    count_mono_elements,
    cycle_graph,
    induced_edge_labels,
    labeler,
    max_independent_set,
    path_graph,
    pattern_mono_edges,
    sidon,
    verify,
)

from helpers import graphs, seeded_graphs


# ---------------------------------------------------------------------------
# Sidon sequences
# ---------------------------------------------------------------------------

def test_sidon_first_term():
    assert sidon(1).terms == (1,)


def test_sidon_greedy_skips_four():
    # 4 would collide: 1 + 4 = 2 + 3
    assert sidon(4).terms == (1, 2, 3, 5)


def test_sidon_six_terms_all_sums_distinct():
    terms = sidon(6).terms
    assert terms == (1, 2, 3, 5, 8, 13)
    sums = [
        terms[i] + terms[j]
        for i in range(len(terms))
        for j in range(i + 1, len(terms))
    ]
    assert len(sums) == len(set(sums)) == 15


def test_sidon_needs_positive_k():
    with pytest.raises(ValueError):
        sidon(0)


def test_sidon_sequence_validates():
    with pytest.raises(ValueError):
        SidonSequence((1, 2, 3, 4))  # 1+4 == 2+3
    with pytest.raises(ValueError):
        SidonSequence((2, 1))
    with pytest.raises(ValueError):
        SidonSequence((0, 1))


def reference_sidon(k):
    """The greedy definition: try every integer against the pairwise-sum set."""
    terms = []
    sums = set()
    candidate = 1
    while len(terms) < k:
        new_sums = {t + candidate for t in terms}
        if not new_sums & sums:
            sums |= new_sums
            terms.append(candidate)
        candidate += 1
    return tuple(terms)


def test_sidon_matches_the_greedy_definition():
    reference = reference_sidon(120)
    for k in range(1, 121):
        assert sidon(k).terms == reference[:k]


def test_sidon_long_prefixes_are_pinned():
    assert sidon(154).terms[-1] == 85236
    terms = sidon(250).terms
    assert terms[-1] == 319430
    digest = hashlib.sha256(",".join(map(str, terms)).encode()).hexdigest()
    assert digest == "02178d8123d5f0433c8c879536648c34b4368728a06df9b175f88a5afe890348"


# ---------------------------------------------------------------------------
# Witness labelings
# ---------------------------------------------------------------------------

def test_sidon_runs_under_a_time_budget():
    assert sidon(250, timeout_secs=60.0).terms == sidon(250).terms
    with pytest.raises(SolverTimeout, match=r"^labeling exceeded its time budget at Sidon term \d+$"):
        sidon(2000, timeout_secs=0.05)


def test_all_mono_k2():
    g = path_graph(2)
    f = construct_weak_iasi(g, MonoPattern(frozenset()))
    assert f.labels[0].elements == (1,)
    assert f.labels[1].elements == (2,)
    verdict = verify(g, f)
    assert verdict.is_weak_iasi
    assert verdict.mono_edge_count == 1


def test_c4_opposite_pattern_no_mono_edges():
    g = cycle_graph(4)
    f = construct_weak_iasi(g, MonoPattern(frozenset({0, 2})))
    verdict = verify(g, f)
    assert verdict.is_weak_iasi
    assert verdict.mono_edge_count == 0


def test_k4_single_non_mono():
    g = complete_graph(4)
    f = construct_weak_iasi(g, MonoPattern(frozenset({0})))
    verdict = verify(g, f)
    assert verdict.is_weak_iasi
    assert verdict.mono_edge_count == 3


def test_invalid_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        construct_weak_iasi(path_graph(2), MonoPattern(frozenset({0, 1})))


def test_construction_is_deterministic():
    g = cycle_graph(5)
    p = MonoPattern(frozenset({0, 2}))
    assert construct_weak_iasi(g, p) == construct_weak_iasi(g, p)


def test_mono_mono_edge_sums_use_sidon():
    # all-mono labeling of K5: the ten edge sums must be pairwise distinct
    g = complete_graph(5)
    f = construct_weak_iasi(g, MonoPattern(frozenset()))
    labels = induced_edge_labels(g, f)
    singletons = [label.elements for label in labels.values()]
    assert all(len(x) == 1 for x in singletons)
    assert len(set(singletons)) == g.edge_count


# ---------------------------------------------------------------------------
# construct_optimal
# ---------------------------------------------------------------------------

def test_optimal_c4():
    result, f = construct_optimal(cycle_graph(4))
    assert result.value == 0
    assert sum(1 for label in f.labels.values() if not label.is_singleton) == 2


def test_optimal_c5():
    result, _f = construct_optimal(cycle_graph(5))
    assert result.value == 1


def test_optimal_k5():
    result, f = construct_optimal(complete_graph(5))
    assert result.value == 6
    assert count_mono_elements(complete_graph(5), f)[1] == 6


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=9))
def test_optimal_labeling_realizes_solver_value(g):
    result, f = construct_optimal(g)
    verdict = verify(g, f)
    assert verdict.is_weak_iasi
    assert verdict.mono_edge_count == result.value


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=8))
def test_maximal_independent_patterns_are_realizable(g):
    _size, witness = max_independent_set(g)
    pattern = MonoPattern(frozenset(witness))
    f = construct_weak_iasi(g, pattern)
    verdict = verify(g, f)
    assert verdict.is_weak_iasi
    assert verdict.mono_edge_count == pattern_mono_edges(g, pattern)


def test_seeded_sweep():
    for g in seeded_graphs(40, max_vertices=10, seed=7):
        result, f = construct_optimal(g)
        verdict = verify(g, f)
        assert verdict.is_weak_iasi
        assert verdict.mono_edge_count == result.value


def test_failed_certification_raises_after_one_verify(monkeypatch):
    calls = []

    def failing_verify(g, f):
        calls.append(g)
        return IASIVerdict(
            vertex_injective=True,
            edge_injective=False,
            weak_condition=True,
            mono_vertex_count=g.vertex_count,
            mono_edge_count=g.edge_count,
            first_violation="edges 0 and 1 share a sumset",
        )

    monkeypatch.setattr(labeler, "verify", failing_verify)
    with pytest.raises(LabelingConstructionError, match="edges 0 and 1 share a sumset"):
        construct_weak_iasi(cycle_graph(5), MonoPattern(frozenset({0})))
    assert len(calls) == 1
