"""Immutable simple graphs, standard families, and the edge-corona product.

Vertices are the integers 0..vertex_count-1.  Edges are unordered pairs
stored canonically: each pair as (u, v) with u < v, the tuple sorted and
deduplicated, so two graphs compare equal iff they are the same graph.
Isolated vertices are permitted; operations that cannot handle them check
explicitly.
"""

from __future__ import annotations

import inspect
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph with canonical edge storage."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        canon: set[tuple[int, int]] = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not 0 <= u < v < self.vertex_count:
                raise ValueError(
                    f"edge ({edge[0]}, {edge[1]}) out of range for "
                    f"{self.vertex_count} vertices"
                )
            canon.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_masks(self) -> list[int]:
        """Neighbour sets as bitmasks, the solver's working representation."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


@dataclass(frozen=True)
class CoronaProvenance:
    """Where every vertex of an edge-corona product came from.

    ``base[i]`` is the product vertex carrying vertex i of the first factor;
    ``copies[j][k]`` is the product vertex carrying vertex k of the copy of
    the second factor attached to edge j (edges in canonical order).
    """

    base: tuple[int, ...]
    copies: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def path_graph(m: int) -> Graph:
    """Path on m >= 1 vertices (m - 1 edges)."""
    if m < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(m, tuple((i, i + 1) for i in range(m - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs nonempty parts")
    return Graph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


# the named families of the command-line tool, each with its constructor
FAMILIES: dict[str, Callable[..., Graph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite_graph,
}


def generate(family: str, params: Sequence[int]) -> Graph:
    """Build a named family member; used by the command-line tool."""
    name = family.replace("-", "_")
    make = FAMILIES.get(name)
    if make is None:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    arity = len(inspect.signature(make).parameters)
    if len(params) != arity:
        plural = "" if arity == 1 else "s"
        raise ValueError(f"{name} takes {arity} parameter{plural}, got {len(params)}")
    return make(*params)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed; deterministic edge order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Graph operations
# ---------------------------------------------------------------------------

def shift_vertices(g: Graph, offset: int) -> Graph:
    """Relabel g onto ids offset..offset+n-1, padding 0..offset-1 as isolated."""
    if offset < 0:
        raise ValueError("offset must be non-negative")
    return Graph(
        g.vertex_count + offset,
        tuple((u + offset, v + offset) for u, v in g.edges),
    )


def union(g1: Graph, g2: Graph) -> Graph:
    """Union over a shared vertex-id universe (vertex count is the max)."""
    return Graph(
        max(g1.vertex_count, g2.vertex_count),
        tuple(set(g1.edges) | set(g2.edges)),
    )


def intersection(g1: Graph, g2: Graph) -> Graph:
    """Common edges on the shared id prefix (vertex count is the min)."""
    return Graph(
        min(g1.vertex_count, g2.vertex_count),
        tuple(set(g1.edges) & set(g2.edges)),
    )


def edge_corona(g1: Graph, g2: Graph) -> tuple[Graph, CoronaProvenance]:
    """Edge corona: one copy of g2 per edge of g1, both end vertices of the
    j-th edge joined to every vertex of the j-th copy.

    Vertex numbering is deterministic: base vertices first in g1 order, then
    copy blocks in g1 edge order (canonical, i.e. lexicographic on pairs),
    each block in g2 vertex order.  The result has n1 + m1*n2 vertices and
    m1 + m1*m2 + 2*m1*n2 edges.
    """
    if g1.vertex_count < 1:
        raise ValueError("edge corona needs a nonempty first factor")
    n1, n2 = g1.vertex_count, g2.vertex_count
    m1 = g1.edge_count

    edges: list[tuple[int, int]] = list(g1.edges)
    copies: list[tuple[int, ...]] = []
    for j, (r, s) in enumerate(g1.edges):
        block = tuple(n1 + j * n2 + k for k in range(n2))
        copies.append(block)
        edges.extend((block[u], block[v]) for u, v in g2.edges)
        for w in block:
            edges.append((r, w))
            edges.append((s, w))

    product = Graph(n1 + m1 * n2, tuple(edges))
    provenance = CoronaProvenance(tuple(range(n1)), tuple(copies))
    return product, provenance


def is_bipartite(g: Graph) -> tuple[bool, list[int]]:
    """2-colorability check.

    Returns (True, coloring) where coloring[v] is 0 or 1, or (False, [])
    when g has an odd cycle.  Components are colored by BFS from their
    smallest vertex, which gets color 0; isolated vertices get color 0.
    """
    adj = g.adjacency()
    color = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False, []
    return True, color


def regularity(g: Graph) -> int | None:
    """The common degree when g is regular, otherwise None."""
    if g.vertex_count == 0:
        return None
    deg = g.degrees()
    r = deg[0]
    return r if all(d == r for d in deg) else None
