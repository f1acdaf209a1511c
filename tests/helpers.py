"""Shared test utilities: seeded graph suites and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from weakiasi import Graph


def seeded_graphs(
    count: int,
    max_vertices: int,
    seed: int,
    min_vertices: int = 2,
    p_choices: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5),
) -> list[Graph]:
    """A reproducible suite of G(n, p) graphs with mixed sizes and densities."""
    rng = random.Random(seed)
    suite = []
    for _ in range(count):
        n = rng.randint(min_vertices, max_vertices)
        p = rng.choice(p_choices)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        )
        suite.append(Graph(n, edges))
    return suite


def path_square(n: int) -> Graph:
    """The square of the n-vertex path: edges i-i+1 and i-i+2."""
    return Graph(n, tuple((i, j) for i in range(n) for j in (i + 1, i + 2) if j < n))


@st.composite
def graphs(draw, max_vertices: int = 10) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, tuple(chosen))


@st.composite
def bipartite_graphs(draw, max_vertices: int = 14) -> Graph:
    """Random edges between two random sides; a third role stays isolated."""
    sides = draw(st.lists(st.integers(min_value=0, max_value=2), max_size=max_vertices))
    n = len(sides)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if {sides[u], sides[v]} == {0, 1}
    ]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, tuple(chosen))


@st.composite
def set_labels(draw, max_size: int = 8, max_element: int = 99):
    from weakiasi import SetLabel

    elements = draw(
        st.sets(
            st.integers(min_value=0, max_value=max_element),
            min_size=1,
            max_size=max_size,
        )
    )
    return SetLabel(tuple(elements))
