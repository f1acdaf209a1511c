"""Edge-list text format and DOT export.

Edge-list format: the first non-comment line is the vertex count n, each
following non-comment line is "u v" with 0 <= u < v < n.  Integers are
plain ASCII decimals: an optional '-' and the digits 0-9, nothing else.
Lines starting with '#' are comments; blank lines are ignored.  Duplicate
or reversed pairs are rejected, and every error carries its 1-based line
number.
"""

from __future__ import annotations

import re

from .graphs import Graph
from .setlabels import VertexLabeling, _require_total


_DECIMAL = re.compile(r"-?[0-9]+")


class EdgeListParseError(ValueError):
    """Malformed edge-list input; knows which line is at fault."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_edge_list(text: str) -> Graph:
    vertex_count: int | None = None
    edges: dict[tuple[int, int], None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        # Most lines are two ASCII naturals; any other line takes the checks below.
        natural_pair = (
            len(parts) == 2 and vertex_count is not None
            and raw.isascii() and parts[0].isdigit() and parts[1].isdigit()
        )
        if not natural_pair:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if vertex_count is None:
                if _DECIMAL.fullmatch(line) is None:
                    raise EdgeListParseError(lineno, f"expected vertex count, got {line!r}")
                vertex_count = int(line)
                if vertex_count < 0:
                    raise EdgeListParseError(lineno, "vertex count must be non-negative")
                continue
            if len(parts) != 2:
                raise EdgeListParseError(lineno, f"expected 'u v', got {line!r}")
            if not (_DECIMAL.fullmatch(parts[0]) and _DECIMAL.fullmatch(parts[1])):
                raise EdgeListParseError(lineno, f"non-integer endpoint in {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not 0 <= u < v < vertex_count:
            if u == v:
                raise EdgeListParseError(lineno, f"self-loop at vertex {u}")
            if u > v:
                raise EdgeListParseError(lineno, f"reversed pair {u} {v} (need u < v)")
            raise EdgeListParseError(
                lineno, f"edge {u} {v} out of range for {vertex_count} vertices"
            )
        if (u, v) in edges:
            raise EdgeListParseError(lineno, f"duplicate edge {u} {v}")
        edges[u, v] = None
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
