"""Edge-list text format and DOT export.

Edge-list format: the first non-comment line is the vertex count n, each
following non-comment line is "u v" with 0 <= u < v < n.  Lines starting
with '#' are comments; blank lines are ignored.  Duplicate or reversed
pairs are rejected, and every error carries its 1-based line number.
"""

from __future__ import annotations

from .graphs import Graph
from .setlabels import VertexLabeling, _require_total


class EdgeListParseError(ValueError):
    """Malformed edge-list input; knows which line is at fault."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_edge_list(text: str) -> Graph:
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertex_count is None:
            try:
                vertex_count = int(line)
            except ValueError:
                raise EdgeListParseError(lineno, f"expected vertex count, got {line!r}")
            if vertex_count < 0:
                raise EdgeListParseError(lineno, "vertex count must be non-negative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer endpoint in {line!r}")
        if u == v:
            raise EdgeListParseError(lineno, f"self-loop at vertex {u}")
        if u > v:
            raise EdgeListParseError(lineno, f"reversed pair {u} {v} (need u < v)")
        if not 0 <= u < v < vertex_count:
            raise EdgeListParseError(
                lineno, f"edge {u} {v} out of range for {vertex_count} vertices"
            )
        if (u, v) in seen:
            raise EdgeListParseError(lineno, f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    if vertex_count is None:
        raise EdgeListParseError(1, "empty input: vertex count line missing")
    return Graph(vertex_count, tuple(edges))


def write_edge_list(g: Graph) -> str:
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, labeling: VertexLabeling | None = None) -> str:
    """DOT text for an undirected graph.

    With a labeling of exactly its vertices, each vertex shows its label
    set and mono-indexed vertices (singleton labels) are drawn filled.
    """
    if labeling is not None:
        _require_total(g, labeling)
    lines = ["graph G {"]
    for v in range(g.vertex_count):
        attrs = [f'label="{v}"']
        if labeling is not None:
            label = labeling.labels[v]
            attrs = [f'label="{v}: {label}"']
            if label.is_singleton:
                attrs.append("style=filled")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
