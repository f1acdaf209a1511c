"""Integer set labels, sumsets, and weak-IASI verification.

A vertex labeling assigns each vertex a nonempty finite set of non-negative
integers.  The induced edge label is the sumset of the endpoint labels.  A
labeling is a weak IASI when vertex labels are pairwise distinct, induced
edge labels are pairwise distinct, and every edge's sumset is exactly as
large as its bigger endpoint label.  Verification always computes the real
sumsets, each edge's exactly once per call, as sorted element tuples from
the same helper as ``sumset``; the endpoint-cardinality shortcut is a
theorem under test here, never the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graphs import Graph


class MissingLabelError(ValueError):
    """A labeling left some vertex of the graph unlabeled."""

    def __init__(self, vertex: int):
        super().__init__(f"no label for vertex {vertex}")
        self.vertex = vertex


@dataclass(frozen=True)
class SetLabel:
    """Nonempty finite set of non-negative integers, stored sorted."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.elements)))
        if not canon:
            raise ValueError("set label must be nonempty")
        if canon[0] < 0:
            raise ValueError("set label elements must be non-negative")
        object.__setattr__(self, "elements", canon)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def is_singleton(self) -> bool:
        return len(self.elements) == 1

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"


def _sums(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The distinct pairwise sums x + y, x in a, y in b, sorted."""
    return tuple(sorted({x + y for x in a for y in b}))


def sumset(a: SetLabel, b: SetLabel) -> SetLabel:
    """All pairwise sums {x + y : x in a, y in b}."""
    return SetLabel(_sums(a.elements, b.elements))


@dataclass(frozen=True)
class VertexLabeling:
    """Map from vertex id to set label; totality is checked at use time."""

    labels: dict[int, SetLabel] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "vertex_labels": {
                str(v): list(label.elements) for v, label in self.labels.items()
            }
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "VertexLabeling":
        if not isinstance(data, Mapping) or "vertex_labels" not in data:
            raise ValueError('labeling JSON must be an object with "vertex_labels"')
        raw = data["vertex_labels"]
        if not isinstance(raw, Mapping):
            raise ValueError('"vertex_labels" must map vertex ids to integer arrays')
        labels: dict[int, SetLabel] = {}
        for key, value in raw.items():
            try:
                vertex = int(key)
                canonical = key == str(vertex)
            except (TypeError, ValueError):
                canonical = False
            if not canonical:
                raise ValueError(f"vertex id {key!r} is not a decimal string")
            if vertex < 0:
                raise ValueError(f"vertex id {key!r} is negative")
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in value
            ):
                raise ValueError(f"label for vertex {key} must be an integer array")
            labels[vertex] = SetLabel(tuple(value))
        return cls(labels)


@dataclass(frozen=True)
class IASIVerdict:
    """Outcome of checking a labeling against the weak-IASI conditions."""

    vertex_injective: bool
    edge_injective: bool
    weak_condition: bool
    mono_vertex_count: int
    mono_edge_count: int
    first_violation: str | None = None

    @property
    def is_weak_iasi(self) -> bool:
        return self.vertex_injective and self.edge_injective and self.weak_condition

    def to_json_dict(self) -> dict:
        return {**vars(self), "is_weak_iasi": self.is_weak_iasi}


def _require_total(g: Graph, f: VertexLabeling) -> None:
    """Require a label for exactly the vertices 0..n-1 of ``g``."""
    n = g.vertex_count
    for v in range(n):
        if v not in f.labels:
            raise MissingLabelError(v)
    if len(f.labels) > n:
        extra = min(v for v in f.labels if not 0 <= v < n)
        raise ValueError(f"label for vertex {extra}, which the {n}-vertex graph lacks")


def induced_edge_labels(g: Graph, f: VertexLabeling) -> dict[tuple[int, int], SetLabel]:
    """Sumset label for every edge, keyed by canonical edge pair."""
    _require_total(g, f)
    return {(u, v): sumset(f.labels[u], f.labels[v]) for u, v in g.edges}


def count_mono_elements(
    g: Graph, f: VertexLabeling, edge_sums: Sequence[tuple[int, ...]] | None = None
) -> tuple[int, int]:
    """(mono vertices, mono edges): elements whose label is a singleton.

    Edge counts come from the actual induced sumsets: ``edge_sums`` when
    given (one sorted element tuple per edge of ``g``, as ``verify`` builds
    them for a total labeling), else computed here from ``f``.
    """
    if edge_sums is None:
        edge_sums = [label.elements for label in induced_edge_labels(g, f).values()]
    mono_vertices = sum(
        1 for v in range(g.vertex_count) if f.labels[v].is_singleton
    )
    mono_edges = sum(1 for sums in edge_sums if len(sums) == 1)
    return mono_vertices, mono_edges


def _first_repeat(
    labeled: Iterable[tuple[object, tuple[int, ...]]], message: str
) -> str | None:
    """``message`` filled with (earlier item, item, label) for the first
    element tuple seen twice, or None when all differ."""
    seen: dict[tuple[int, ...], object] = {}
    for item, elements in labeled:
        earlier = seen.setdefault(elements, item)
        if earlier != item:
            return message.format(earlier, item, SetLabel(elements))
    return None


def verify(g: Graph, f: VertexLabeling) -> IASIVerdict:
    """Check vertex injectivity, edge injectivity, and the weak condition.

    All three are decided from the labels and their real sumsets, each
    edge's computed once and shared with ``count_mono_elements``.  The first
    violation is reported for diagnosis: a repeated vertex label (in id
    order), else a sumset of the wrong size, else a repeated sumset (both in
    canonical edge order).
    """
    _require_total(g, f)
    labels = [f.labels[v].elements for v in range(g.vertex_count)]
    edge_sums = [_sums(labels[u], labels[v]) for u, v in g.edges]
    vertex_repeat = _first_repeat(enumerate(labels), "vertices {} and {} share label {}")
    wrong_size = None
    for (u, v), sums in zip(g.edges, edge_sums):
        expected = max(len(labels[u]), len(labels[v]))
        if len(sums) != expected:
            wrong_size = (
                f"edge ({u}, {v}) sumset {SetLabel(sums)} has size {len(sums)}, "
                f"expected {expected}"
            )
            break
    edge_repeat = _first_repeat(zip(g.edges, edge_sums), "edges {} and {} share sumset {}")

    mono_vertices, mono_edges = count_mono_elements(g, f, edge_sums)
    return IASIVerdict(
        vertex_injective=vertex_repeat is None,
        edge_injective=edge_repeat is None,
        weak_condition=wrong_size is None,
        mono_vertex_count=mono_vertices,
        mono_edge_count=mono_edges,
        first_violation=vertex_repeat or wrong_size or edge_repeat,
    )
