"""Exact sparing-number computation via the independent-set reduction.

A weak IASI exists for a choice of non-singleton-labeled ("non-mono")
vertices iff that set is independent: every edge must keep at least one
mono-indexed end.  An independent set S covers exactly sum(deg(v), v in S)
edges, so the number of mono edges forced by S is |E| - that sum, and the
sparing number is |E| minus a degree-weighted maximum independent set.

Two exact methods are provided and must agree (value and witness):

* ``sparing_bruteforce`` enumerates every independent set, in lexicographic
  order of the sorted vertex sequence, and keeps the first optimum - which
  is therefore the lexicographically smallest optimal witness.

* ``sparing_exact`` runs a branch-and-bound: include/exclude branching on a
  highest-degree available vertex, connected-component decomposition, and
  memoization on the available-vertex bitmask.  Components are found by a
  breadth-first search that expands only each layer's new frontier, and
  are peeled off the low end of the available mask in a loop, so many
  components cost neither rescans nor recursion depth.  A search deeper
  than the interpreter's recursion limit (a path of a few thousand
  vertices) raises ResourceLimitError.  The witness is then rebuilt
  id by id: vertex v joins the witness iff the optimum is still reachable
  with v forced in, which reproduces the brute-force lexicographic
  tie-break.  Bipartite inputs skip the value search (the sparing number of
  a bipartite graph is 0) and go straight to witness reconstruction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, is_bipartite

DEFAULT_BRUTE_CAP = 24
DEFAULT_TIMEOUT_SECS = 30.0

METHOD_BRUTEFORCE = "bruteforce"
METHOD_BRANCH_AND_BOUND = "branch_and_bound"
METHOD_BIPARTITE_SHORTCUT = "bipartite_shortcut"


class ResourceLimitError(RuntimeError):
    """A solver gave up because a configured limit was hit."""


class SolverTimeout(ResourceLimitError, TimeoutError):
    """The exact solver exceeded its time budget."""


class CapExceededError(ResourceLimitError):
    """The instance is larger than the enumeration cap allows."""


class InvalidPatternError(ValueError):
    """The designated non-mono vertices are not an independent set."""


@dataclass(frozen=True)
class MonoPattern:
    """The set of vertices designated to carry non-singleton labels."""

    non_mono: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "non_mono", frozenset(self.non_mono))

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.non_mono))

    def to_json_dict(self) -> dict:
        return {"non_mono": list(self.sorted_ids())}


@dataclass(frozen=True)
class SparingResult:
    """Optimal mono-edge count, its witness pattern, and diagnostics."""

    value: int
    witness: MonoPattern
    method: str
    explored: int
    elapsed_secs: float

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.to_json_dict(),
            "method": self.method,
            "explored": self.explored,
            "elapsed_secs": self.elapsed_secs,
        }


def pattern_is_valid(g: Graph, p: MonoPattern) -> bool:
    """True iff no edge has both endpoints designated non-mono."""
    for v in p.non_mono:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range")
    return not any(u in p.non_mono and v in p.non_mono for u, v in g.edges)


def pattern_mono_edges(g: Graph, p: MonoPattern) -> int:
    """Number of edges with both endpoints mono under a valid pattern."""
    if not pattern_is_valid(g, p):
        raise InvalidPatternError(
            f"non-mono set {sorted(p.non_mono)} is not independent"
        )
    return sum(
        1 for u, v in g.edges if u not in p.non_mono and v not in p.non_mono
    )


# ---------------------------------------------------------------------------
# Brute force: literal enumeration of independent sets
# ---------------------------------------------------------------------------

def _independent_sets(adj: list[int], weights: list[int]) -> Iterator[tuple[int, int]]:
    """Yield (members_mask, covered_weight) for every independent set.

    Emission order is lexicographic on the sorted vertex sequence: the empty
    set first, then every set starting with 0, and so on.  covered_weight is
    the sum of member weights, which for weights = degrees is exactly the
    number of edges covered by the set.
    """
    n = len(adj)

    def walk(allowed: int, mask: int, weight: int) -> Iterator[tuple[int, int]]:
        yield mask, weight
        rest = allowed
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            yield from walk(rest & ~adj[v], mask | bit, weight + weights[v])

    yield from walk((1 << n) - 1, 0, 0)


def _mask_to_ids(mask: int) -> tuple[int, ...]:
    ids = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        ids.append(bit.bit_length() - 1)
    return tuple(ids)


def sparing_bruteforce(g: Graph, cap: int = DEFAULT_BRUTE_CAP) -> SparingResult:
    """Defining minimization, executed literally over all valid patterns.

    Keeps the lexicographically smallest optimal non-mono set (strict
    improvement over a lex-ordered enumeration).  Refuses graphs larger
    than ``cap`` vertices.
    """
    if g.vertex_count > cap:
        raise CapExceededError(
            f"{g.vertex_count} vertices exceed the brute-force cap of {cap}"
        )
    start = time.monotonic()
    adj = g.adjacency_masks()
    degrees = g.degrees()
    total = g.edge_count

    best_mask, best_weight = 0, 0
    explored = 0
    for mask, weight in _independent_sets(adj, degrees):
        explored += 1
        if weight > best_weight:
            best_mask, best_weight = mask, weight
    return SparingResult(
        value=total - best_weight,
        witness=MonoPattern(frozenset(_mask_to_ids(best_mask))),
        method=METHOD_BRUTEFORCE,
        explored=explored,
        elapsed_secs=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# Exact solver: branch and bound with memoization
# ---------------------------------------------------------------------------

class _MaxWeightEngine:
    """Maximum-weight independent set over bitmask states.

    Branches include/exclude on a highest-degree available vertex; splits
    available vertices into connected components first (their optima add);
    memoizes on the availability mask, which also makes the witness
    reconstruction queries cheap.  Raises RecursionError when the search
    is deeper than the interpreter allows.
    """

    def __init__(self, adj: list[int], weights: list[int], deadline: float | None):
        self.adj = adj
        self.weights = weights
        self.deadline = deadline
        self.memo: dict[int, int] = {}
        self.explored = 0

    def progress(self) -> str:
        return f"after {self.explored} nodes with {len(self.memo)} memoized states"

    def _check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout(f"solver exceeded its time budget {self.progress()}")

    def solve(self, avail: int) -> int:
        """Maximum weight of an independent set inside ``avail``.

        Peels connected components off the low end of ``avail`` in a loop
        (their optima add), so the number of components does not deepen
        the recursion; every residual mask is memoized with the sum of its
        components' optima.  A connected mask branches include/exclude on
        its pivot in this same frame, so each branching level costs one
        stack frame.
        """
        residuals: list[int] = []
        parts: list[int] = []
        total = 0
        while avail:
            cached = self.memo.get(avail)
            if cached is not None:
                total = cached
                break
            self.explored += 1
            self._check_time()
            component = self._component(avail)
            if component != avail:
                residuals.append(avail)
                parts.append(self.solve(component))
                avail ^= component
                continue
            pivot, pivot_degree = self._pivot(avail)
            if pivot_degree == 0:
                total = self.weights[pivot]
            else:
                bit = 1 << pivot
                include = self.weights[pivot] + self.solve(avail & ~(self.adj[pivot] | bit))
                total = max(include, self.solve(avail ^ bit))
            self.memo[avail] = total
            break
        for residual, part in zip(reversed(residuals), reversed(parts)):
            total += part
            self.memo[residual] = total
        return total

    def _component(self, avail: int) -> int:
        """Connected component of the lowest available vertex.

        Each BFS layer expands only the vertices it newly reached, so one
        call costs O(size of the component) mask operations.
        """
        component = frontier = avail & -avail
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reach |= self.adj[bit.bit_length() - 1]
            frontier = reach & avail & ~component
            component |= frontier
        return component

    def _pivot(self, avail: int) -> tuple[int, int]:
        """Available vertex with most available neighbours, smallest id wins ties."""
        best_v, best_d = -1, -1
        rest = avail
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            d = (self.adj[v] & avail).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        return best_v, best_d

    def lex_min_witness(self, target: int) -> tuple[int, ...]:
        """Lexicographically smallest independent set of weight ``target``.

        Scans ids in increasing order; v is taken iff the target stays
        reachable with v forced in.  Once the running weight hits the
        target the current set is the answer: any further vertex would only
        make the sorted sequence lexicographically larger.
        """
        n = len(self.adj)
        full = (1 << n) - 1
        chosen: list[int] = []
        avail = full
        weight = 0
        for v in range(n):
            if weight == target:
                break
            bit = 1 << v
            if not avail & bit:
                continue
            beyond = avail & ~(self.adj[v] | bit) & (full << (v + 1))
            if weight + self.weights[v] + self.solve(beyond) == target:
                chosen.append(v)
                weight += self.weights[v]
                avail &= ~(self.adj[v] | bit)
        if weight != target:
            raise RuntimeError("witness reconstruction failed to reach the optimum")
        return tuple(chosen)


def _solve_max_weight(
    g: Graph,
    weights: list[int],
    timeout_secs: float | None,
    known_target: int | None = None,
) -> tuple[int, tuple[int, ...], int]:
    """(optimal weight, lex-min witness, nodes explored)."""
    deadline = None if timeout_secs is None else time.monotonic() + timeout_secs
    engine = _MaxWeightEngine(g.adjacency_masks(), weights, deadline)
    n = g.vertex_count
    try:
        if known_target is None:
            known_target = engine.solve((1 << n) - 1)
        witness = engine.lex_min_witness(known_target)
    except RecursionError:
        raise ResourceLimitError(
            f"search exceeded the interpreter's recursion limit {engine.progress()}"
        ) from None
    return known_target, witness, engine.explored


def sparing_exact(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> SparingResult:
    """Exact sparing number with the same witness tie-break as brute force.

    Bipartite graphs short-circuit to value 0 (one side of the bipartition
    covers every edge); the witness is still the lexicographically smallest
    optimal non-mono set.  Raises SolverTimeout when the budget runs out and
    ResourceLimitError when the search is too deep for the interpreter.
    """
    start = time.monotonic()
    degrees = g.degrees()
    total = g.edge_count

    bipartite, _certificate = is_bipartite(g)
    if bipartite:
        best, witness, explored = _solve_max_weight(
            g, degrees, timeout_secs, known_target=total
        )
        method = METHOD_BIPARTITE_SHORTCUT
    else:
        best, witness, explored = _solve_max_weight(g, degrees, timeout_secs)
        method = METHOD_BRANCH_AND_BOUND
    return SparingResult(
        value=total - best,
        witness=MonoPattern(frozenset(witness)),
        method=method,
        explored=explored,
        elapsed_secs=time.monotonic() - start,
    )


def max_independent_set(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with the lex-min witness."""
    size, witness, _explored = _solve_max_weight(g, [1] * g.vertex_count, timeout_secs)
    return size, witness


def min_mono_vertices(
    g: Graph, timeout_secs: float | None = DEFAULT_TIMEOUT_SECS
) -> int:
    """Minimum number of mono-indexed vertices: |V| minus the independence number."""
    size, _witness = max_independent_set(g, timeout_secs)
    return g.vertex_count - size


def odd_cycle_parity_check(n: int, cap: int = DEFAULT_BRUTE_CAP) -> bool:
    """Every valid pattern on the n-cycle leaves a mono-edge count == n mod 2.

    Checked by full enumeration of the cycle's independent sets.
    """
    from .graphs import cycle_graph

    if n < 3:
        raise ValueError("cycles need at least three vertices")
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the enumeration cap of {cap}")
    g = cycle_graph(n)
    adj = g.adjacency_masks()
    for mask, _weight in _independent_sets(adj, [0] * n):
        members = set(_mask_to_ids(mask))
        mono = sum(1 for u, v in g.edges if u not in members and v not in members)
        if mono % 2 != n % 2:
            return False
    return True
