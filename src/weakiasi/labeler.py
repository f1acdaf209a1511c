"""Construct explicit set-labelings that realize a mono pattern.

Mono vertices receive distinct singletons drawn from a greedy Sidon
sequence, so sums along mono-mono edges are automatically pairwise
distinct.  Non-mono vertices receive 2-element sets with pairwise distinct
gaps: edges at different non-mono vertices then get sumsets with different
gaps, and edges at the same non-mono vertex get translates by distinct
singletons.  The labeling is therefore a weak IASI by construction; it is
built once and certified by the verifier before it is returned, and a
failed certification raises, since it is a defect, not a condition the
caller handles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import Graph
from .setlabels import SetLabel, VertexLabeling, verify
from .solver import (
    DEFAULT_TIMEOUT_SECS,
    MonoPattern,
    SolverTimeout,
    SparingResult,
    _deadline,
    pattern_mono_edges,
    sparing_exact,
)


class LabelingConstructionError(RuntimeError):
    """A constructed labeling failed certification: a defect, not bad input."""


@dataclass(frozen=True)
class SidonSequence:
    """Strictly increasing positive integers with all pairwise sums distinct."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        terms = self.terms
        if any(t <= 0 for t in terms):
            raise ValueError("Sidon terms must be positive")
        if any(a >= b for a, b in zip(terms, terms[1:])):
            raise ValueError("Sidon terms must be strictly increasing")
        sums = [terms[i] + terms[j] for i in range(len(terms)) for j in range(i + 1, len(terms))]
        if len(sums) != len(set(sums)):
            raise ValueError("pairwise sums of a Sidon sequence must be distinct")

    def __len__(self) -> int:
        return len(self.terms)


def sidon(k: int, timeout_secs: float | None = None) -> SidonSequence:
    """First k terms of the greedy Sidon sequence 1, 2, 3, 5, 8, 13, ...

    A candidate d above every term collides only if d + t = a + b for terms
    t < a < b, that is d = b + (a - t).  So each accepted term b blocks
    ``gaps << b``, where ``gaps`` holds bit a - t for each pair of earlier
    terms, and the next term is the lowest clear bit of ``blocked`` above b.
    That costs about k times the last term, so each accepted term reads the
    clock, and SolverTimeout is raised once ``timeout_secs`` have passed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    deadline = _deadline(timeout_secs)
    terms: list[int] = []
    gaps = blocked = 0
    candidate = 1
    while True:
        free = ~blocked >> candidate
        candidate += (free & -free).bit_length() - 1
        terms.append(candidate)
        if len(terms) == k:
            return SidonSequence(tuple(terms))
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout(f"labeling exceeded its time budget at Sidon term {len(terms)}")
        blocked |= gaps << candidate
        new_gaps = bytearray(candidate // 8 + 1)
        for t in terms[:-1]:
            d = candidate - t
            new_gaps[d >> 3] |= 1 << (d & 7)
        gaps |= int.from_bytes(new_gaps, "little")
        candidate += 1


def _build(g: Graph, p: MonoPattern, timeout_secs: float | None) -> VertexLabeling:
    mono = [v for v in range(g.vertex_count) if v not in p.non_mono]
    labels: dict[int, SetLabel] = {}
    base = 0
    if mono:
        terms = sidon(len(mono), timeout_secs).terms
        for v, term in zip(mono, terms):
            labels[v] = SetLabel((term,))
        base = terms[-1] + 1
    for j, v in enumerate(sorted(p.non_mono)):
        labels[v] = SetLabel((base + j, base + j + j + 1))
    return VertexLabeling(labels)


def construct_weak_iasi(
    g: Graph, p: MonoPattern, timeout_secs: float | None = None
) -> VertexLabeling:
    """A verified weak IASI whose mono edges are exactly the pattern's.

    Deterministic for fixed input.  The labeling is built within
    ``timeout_secs`` (see ``sidon``) and certified once; if certification
    fails, LabelingConstructionError names the verifier's first violation.
    """
    expected_mono_edges = pattern_mono_edges(g, p)
    labeling = _build(g, p, timeout_secs)
    verdict = verify(g, labeling)
    if verdict.is_weak_iasi and verdict.mono_edge_count == expected_mono_edges:
        return labeling
    violation = verdict.first_violation or (
        f"{verdict.mono_edge_count} mono edges, pattern has {expected_mono_edges}"
    )
    raise LabelingConstructionError(
        f"constructed labeling failed certification (graph with "
        f"{g.vertex_count} vertices, pattern {sorted(p.non_mono)}): {violation}"
    )


def construct_optimal(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> tuple[SparingResult, VertexLabeling]:
    """Solve for the sparing number and realize its witness, in one budget."""
    deadline = _deadline(timeout_secs)
    result = sparing_exact(g, timeout_secs)
    remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
    labeling = construct_weak_iasi(g, result.witness, remaining)
    return result, labeling
