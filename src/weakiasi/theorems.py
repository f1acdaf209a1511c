"""Closed-form registry for sparing numbers and the oracle audit.

Each registry entry is a closed-form candidate for the sparing number of a
graph family (edge coronas of paths, cycles, regular and complete graphs;
complete graphs; unions; and the mono-edge count of the standard corona
labeling).  ``check_theorem`` sets each closed-form value beside the exact
optimum of the actual graph, one row per audit case; parameters a case does
not know are solved by name, and a solve that times out leaves the row
unresolved.  Oracle values are authoritative: a row where the closed form
and the oracle differ is a finding, not a failure, and is never suppressed.
Verdicts are read off a row's values, parameter names off the signature.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence

from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_corona,
    intersection,
    path_graph,
    regularity,
    shift_vertices,
    union,
)
from .labeler import construct_weak_iasi
from .solver import (
    DEFAULT_TIMEOUT_SECS,
    MonoPattern,
    SolverTimeout,
    min_mono_vertices,
    pattern_mono_edges,
    sparing_bruteforce,
    sparing_exact,
)

DEFAULT_AUDIT_VERTEX_CAP = 34


class FormulaDomainError(ValueError):
    """A parameter lies outside the closed form's stated domain."""


class FormulaIntegralityError(ValueError):
    """A closed form produced a non-integer; this is an error, not a rounding."""


class UnknownTheoremError(ValueError):
    def __init__(self, theorem_id: str):
        super().__init__(
            f"unknown theorem id {theorem_id!r}; valid ids: {', '.join(THEOREM_IDS)}"
        )
        self.theorem_id = theorem_id


def _exact_div(numerator: int, divisor: int, context: str) -> int:
    if numerator % divisor:
        raise FormulaIntegralityError(
            f"{context}: {numerator}/{divisor} is not an integer"
        )
    return numerator // divisor


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FormulaDomainError(message)


# ---------------------------------------------------------------------------
# The closed forms, evaluated verbatim with exact integer arithmetic
# ---------------------------------------------------------------------------

def _ec_pp(m: int, n: int) -> int:
    _require(m > 1 and n > 1, "EC_PP needs m, n > 1")
    if n % 2 == 0:
        return _exact_div(m * (n + 2), 2, "EC_PP") - 1
    return _exact_div(m * (n + 1), 2, "EC_PP") - 1


def _ec_pc(m: int, n: int) -> int:
    _require(m > 1, "EC_PC needs m > 1")
    _require(n >= 3, "EC_PC needs a cycle length n >= 3")
    if n % 2 == 0:
        return _exact_div(m * (n + 2), 2, "EC_PC") - 1
    return _exact_div(m * (n + 5), 2, "EC_PC") - 2


def _ec_cp(m: int, n: int) -> int:
    _require(m >= 3, "EC_CP needs a cycle length m >= 3")
    _require(n > 1, "EC_CP needs n > 1")
    if n % 2 == 0:
        return _exact_div(m * (n + 2), 2, "EC_CP")
    return _exact_div(m * (n + 1), 2, "EC_CP")


def _ec_cc(m: int, n: int) -> int:
    _require(m >= 3 and n >= 3, "EC_CC needs cycle lengths m, n >= 3")
    if n % 2 == 0:
        return _exact_div(m * (n + 2), 2, "EC_CC")
    return _exact_div(m * (n + 5), 2, "EC_CC")


def _ec_regular_pair(m: int, r: int, n_prime: int, phi2: int) -> int:
    # EC_RR and EC_RS share this statement form.  Two competing closed forms
    # circulate for EC_RS; the audit reports ec_rs_variant alongside.
    _require(m > 1, "EC_RR/EC_RS needs m > 1")
    _require(r >= 1, "EC_RR/EC_RS needs degree r >= 1")
    _require(
        n_prime >= 0 and phi2 >= 0, "EC_RR/EC_RS needs non-negative n_prime, phi2"
    )
    return m * (n_prime + r * (1 + phi2))


def ec_rs_variant(m: int, r: int, n_prime: int, phi2: int) -> int:
    """The alternative EC_RS value m*(n_prime + r + phi2)."""
    return m * (n_prime + r + phi2)


def _ec_pk(m: int, n: int) -> int:
    _require(m >= 2, "EC_PK needs a path with at least one edge (m >= 2)")
    _require(n >= 1, "EC_PK needs n >= 1")
    return _exact_div(n * (n + 1) * (m - 1), 2, "EC_PK")


def _ec_ck(m: int, n: int) -> int:
    _require(m >= 3, "EC_CK needs a cycle length m >= 3")
    _require(n >= 1, "EC_CK needs n >= 1")
    return _exact_div(m * n * (n + 1), 2, "EC_CK")


def _ec_rk(r: int, m: int, n: int) -> int:
    _require(r >= 1, "EC_RK needs degree r >= 1")
    _require(m > r, "EC_RK needs more vertices than the degree")
    _require(n >= 1, "EC_RK needs n >= 1")
    _require(r <= n - 1, "EC_RK needs r <= n - 1")
    return _exact_div(r * m * n * (n + 1), 4, "EC_RK")


def _complete(n: int) -> int:
    _require(n >= 1, "COMPLETE needs n >= 1")
    return _exact_div((n - 1) * (n - 2), 2, "COMPLETE")


def _union_formula(phi1: int, phi2: int, phi_intersection: int) -> int:
    _require(
        phi1 >= 0 and phi2 >= 0 and phi_intersection >= 0,
        "UNION needs non-negative sparing numbers",
    )
    return phi1 + phi2 - phi_intersection


def _mono_count(
    m1: int, m1_mono: int, n2: int, m2: int, n2_mono: int, m2_mono: int
) -> int:
    _require(0 <= m1_mono <= m1, "MONO_COUNT needs 0 <= m1_mono <= m1")
    _require(0 <= m2_mono <= m2, "MONO_COUNT needs 0 <= m2_mono <= m2")
    _require(0 <= n2_mono <= n2, "MONO_COUNT needs 0 <= n2_mono <= n2")
    return m1_mono * (1 + m2_mono + 2 * n2_mono) + (m1 - m1_mono) * (m2 + n2)


@dataclass(frozen=True)
class TheoremEntry:
    theorem_id: str
    description: str
    evaluate: Callable[..., int]
    notes: tuple[str, ...] = ()
    variant: Callable[..., int] | None = None  # a competing closed form: variant_value
    params: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        # the closed form's signature is the one list of its parameter names
        names = tuple(inspect.signature(self.evaluate).parameters)
        object.__setattr__(self, "params", names)


REGISTRY: dict[str, TheoremEntry] = {
    entry.theorem_id: entry
    for entry in (
        TheoremEntry("EC_PP", "path (m) corona path (n)", _ec_pp),
        TheoremEntry("EC_PC", "path (m) corona cycle (n)", _ec_pc),
        TheoremEntry("EC_CP", "cycle (m) corona path (n)", _ec_cp),
        TheoremEntry("EC_CC", "cycle (m) corona cycle (n)", _ec_cc),
        TheoremEntry(
            "EC_RR",
            "r-regular corona r-regular (second factor stats n_prime, phi2)",
            _ec_regular_pair,
        ),
        TheoremEntry(
            "EC_RS",
            "r-regular corona s-regular, r <= s (statement form)",
            _ec_regular_pair,
            (
                "variant_value carries the alternative closed form "
                "m*(n_prime + r + phi2); the registry evaluates the statement "
                "form m*(n_prime + r*(1 + phi2)).",
                "n_prime and phi2 are computed independently; no claim that one "
                "labeling attains both simultaneously.",
            ),
            ec_rs_variant,
        ),
        TheoremEntry("EC_PK", "path (m) corona complete (n)", _ec_pk),
        TheoremEntry("EC_CK", "cycle (m) corona complete (n)", _ec_ck),
        TheoremEntry("EC_RK", "r-regular (m) corona complete (n)", _ec_rk),
        TheoremEntry("COMPLETE", "complete graph on n vertices", _complete),
        TheoremEntry(
            "UNION",
            "sparing number of a union from the parts and the intersection",
            _union_formula,
        ),
        TheoremEntry(
            "MONO_COUNT",
            "mono edges of the corona labeling induced by factor labelings",
            _mono_count,
            (
                "oracle counts mono edges of the constructed corona labeling; "
                "bruteforce_value recounts them by pattern arithmetic.",
            ),
        ),
    )
}

THEOREM_IDS: tuple[str, ...] = tuple(REGISTRY)


def formula_eval(theorem_id: str, **params: int) -> int:
    """Evaluate a registered closed form; exact integers only."""
    entry = REGISTRY.get(theorem_id)
    if entry is None:
        raise UnknownTheoremError(theorem_id)
    expected = set(entry.params)
    given = set(params)
    if expected != given:
        raise FormulaDomainError(
            f"{theorem_id} takes parameters {sorted(expected)}, got {sorted(given)}"
        )
    return entry.evaluate(**params)


# ---------------------------------------------------------------------------
# Audit rows and reports
# ---------------------------------------------------------------------------

@dataclass
class TheoremRow:
    """One audit point; a row without an oracle value is unresolved."""

    params: dict
    formula_value: int | None
    oracle_value: int | None = None
    oracle_witness: tuple[int, ...] | None = None
    bruteforce_value: int | None = None
    variant_value: int | None = None

    @property
    def unresolved(self) -> bool:
        return self.oracle_value is None

    @property
    def agree(self) -> bool:
        return not self.unresolved and self.formula_value == self.oracle_value

    def to_json_dict(self) -> dict:
        return {**asdict(self), "agree": self.agree, "unresolved": self.unresolved}


@dataclass
class TheoremReport:
    theorem_id: str
    description: str
    rows: list[TheoremRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def agree_count(self) -> int:
        return sum(1 for row in self.rows if row.agree)

    @property
    def disagree_count(self) -> int:
        return sum(1 for row in self.rows if not row.agree and not row.unresolved)

    @property
    def unresolved_count(self) -> int:
        return sum(1 for row in self.rows if row.unresolved)

    @property
    def all_resolved(self) -> bool:
        return self.unresolved_count == 0

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "description": self.description,
            "rows": [row.to_json_dict() for row in self.rows],
            "summary": {
                "rows": len(self.rows),
                "agree": self.agree_count,
                "disagree": self.disagree_count,
                "unresolved": self.unresolved_count,
            },
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        def fmt(value: int | None) -> str:
            return "-" if value is None else str(value)

        header = f"{self.theorem_id}: {self.description}"
        lines = [header, "=" * len(header)]
        param_strs = [
            " ".join(f"{k}={v}" for k, v in row.params.items()) for row in self.rows
        ]
        width = max((len(s) for s in param_strs), default=6)
        lines.append(
            f"{'params'.ljust(width)}  {'formula':>8}  {'oracle':>7}  "
            f"{'brute':>6}  verdict"
        )
        for row, pstr in zip(self.rows, param_strs):
            verdict = (
                "UNRESOLVED" if row.unresolved else "AGREE" if row.agree else "DIFFER"
            )
            lines.append(
                f"{pstr.ljust(width)}  {fmt(row.formula_value):>8}  "
                f"{fmt(row.oracle_value):>7}  {fmt(row.bruteforce_value):>6}  {verdict}"
            )
        lines.append(
            f"summary: {len(self.rows)} rows, {self.agree_count} agree, "
            f"{self.disagree_count} differ, {self.unresolved_count} unresolved"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Audit cases
# ---------------------------------------------------------------------------

# r-regular building blocks for the regular-pair theorems.
_REGULAR_CATALOG: tuple[tuple[str, Graph], ...] = (
    ("C3", cycle_graph(3)),
    ("C4", cycle_graph(4)),
    ("C5", cycle_graph(5)),
    ("K2,2", complete_bipartite_graph(2, 2)),
    ("K4", complete_graph(4)),
    ("K3,3", complete_bipartite_graph(3, 3)),
    ("K5", complete_graph(5)),
)


def _corona_of(g1: Graph, g2: Graph) -> Graph:
    return edge_corona(g1, g2)[0]


def _grid_corona(make1: Callable, make2: Callable) -> Callable[[int, int], Graph]:
    return lambda m, n: _corona_of(make1(m), make2(n))


# The ids that take m/n ranges: (graph at a grid point, default ranges).
_GRIDS: dict[str, tuple[Callable[..., Graph], dict[str, Sequence[int]]]] = {
    "EC_PP": (_grid_corona(path_graph, path_graph), {"m": range(2, 6), "n": range(2, 6)}),
    "EC_PC": (_grid_corona(path_graph, cycle_graph), {"m": range(2, 6), "n": range(3, 6)}),
    "EC_CP": (_grid_corona(cycle_graph, path_graph), {"m": range(3, 6), "n": range(2, 6)}),
    "EC_CC": (_grid_corona(cycle_graph, cycle_graph), {"m": range(3, 6), "n": range(3, 6)}),
    "EC_PK": (_grid_corona(path_graph, complete_graph), {"m": range(2, 5), "n": range(1, 5)}),
    "EC_CK": (_grid_corona(cycle_graph, complete_graph), {"m": range(3, 6), "n": range(1, 5)}),
    "COMPLETE": (complete_graph, {"n": range(1, 9)}),
}

_CORONA_IDS = ("EC_PP", "EC_PC", "EC_CP", "EC_CC", "EC_PK", "EC_CK", "EC_RR", "EC_RS", "EC_RK")


def _cases(
    theorem_id: str, ranges: dict[str, Sequence[int] | None], max_vertices: int
) -> Iterator[tuple[dict, tuple[Graph, Graph] | None, Callable[[], Graph]]]:
    """(params known up front, the two parts or None, the oracle graph's
    builder) for every audit point of a sparing-row id, in report order.

    A given range replaces a grid default; ``max_vertices`` bounds only the
    EC_RR, EC_RS and EC_RK products.
    """
    if theorem_id in _GRIDS:
        build, defaults = _GRIDS[theorem_id]
        axes = [defaults[k] if ranges.get(k) is None else ranges[k] for k in defaults]
        for point in itertools.product(*axes):
            params = dict(zip(defaults, point))
            yield params, None, functools.partial(build, **params)
        return
    if theorem_id == "UNION":
        shapes = [
            ("one_point", a, b, a - 1) for a in range(2, 6) for b in range(2, 6)
        ] + [("disjoint", a, b, a) for a in range(2, 5) for b in range(2, 5)]
        for overlap, a, b, offset in shapes:
            parts = complete_graph(a), shift_vertices(complete_graph(b), offset)
            yield {"overlap": overlap, "a": a, "b": b}, parts, functools.partial(union, *parts)
        return
    for name1, g1 in _REGULAR_CATALOG:
        r = regularity(g1)
        if theorem_id == "EC_RK":
            second_factors = [
                ({"g1": name1, "r": r, "m": g1.vertex_count, "n": n}, complete_graph(n))
                for n in range(r + 1, 5)
            ]
        else:
            second_factors = [
                ({"g1": name1, "g2": name2, "r": r}, g2)
                for name2, g2 in _REGULAR_CATALOG
                if (r == regularity(g2) if theorem_id == "EC_RR" else r < regularity(g2))
            ]
        for params, g2 in second_factors:
            if g1.vertex_count + g1.edge_count * g2.vertex_count <= max_vertices:
                yield params, (g1, g2), functools.partial(_corona_of, g1, g2)


def default_corona_instances() -> Iterator[tuple[str, dict, Graph]]:
    """Every corona graph the default audit touches, with the params its
    case knows before any solving (EC_RR and EC_RS: g1, g2 and r).

    For sweeps that want exactly the audited instances, such as labeling
    each one.  The default vertex cap bounds only the EC_RR, EC_RS and
    EC_RK products, not the six simple families' default m/n grids.
    """
    for theorem_id in _CORONA_IDS:
        for params, _parts, build in _cases(theorem_id, {}, DEFAULT_AUDIT_VERTEX_CAP):
            yield theorem_id, params, build()


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

# How a closed-form parameter that a case does not know is found from the
# case's two parts.  Lambdas, so each call looks the solver up afresh.
_SOLVED_PARAMS: dict[str, Callable[[Graph, Graph, float | None], int]] = {
    "m": lambda g1, g2, t: g1.vertex_count,
    "n_prime": lambda g1, g2, t: min_mono_vertices(g2, t),
    "phi1": lambda g1, g2, t: sparing_exact(g1, t).value,
    "phi2": lambda g1, g2, t: sparing_exact(g2, t).value,
    "phi_intersection": lambda g1, g2, t: sparing_exact(intersection(g1, g2), t).value,
}


def _sparing_row(
    entry: TheoremEntry, known: dict, parts: tuple[Graph, Graph] | None,
    build: Callable[[], Graph], timeout_secs: float | None,
) -> TheoremRow:
    """One audit case's closed form against the exact sparing number.

    Closed-form parameters missing from ``known`` are solved from ``parts``
    in signature order; a timeout there yields a row of ``known`` alone.
    The closed form is evaluated before ``build`` runs, so a parameter
    outside its domain raises the closed form's message, not the builder's.
    A graph within the audit cap is solved again, unbudgeted, by brute
    force; that value is ``bruteforce_value``, and a value or witness unlike
    the exact solver's raises RuntimeError (a solver defect).
    """
    try:
        args = {
            name: known[name] if name in known else _SOLVED_PARAMS[name](*parts, timeout_secs)
            for name in entry.params
        }
    except SolverTimeout:
        return TheoremRow(known, None)
    params = {k: v for k, v in known.items() if k not in args} | args
    formula_value = entry.evaluate(**args)
    variant = None if entry.variant is None else entry.variant(**args)
    graph = build()
    try:
        result = sparing_exact(graph, timeout_secs)
    except SolverTimeout:
        return TheoremRow(params, formula_value, variant_value=variant)
    bruteforce_value = None
    if graph.vertex_count <= DEFAULT_AUDIT_VERTEX_CAP:
        # no budget: bipartite rows get here even at timeout 0, as the all-timeout digests pin
        brute = sparing_bruteforce(graph, timeout_secs=None)
        bruteforce_value = brute.value
        if brute.value != result.value or brute.witness != result.witness:
            raise RuntimeError(
                f"solver defect: brute force ({brute.value}, "
                f"{brute.witness.sorted_ids()}) != exact ({result.value}, "
                f"{result.witness.sorted_ids()}) on params {params}"
            )
    return TheoremRow(
        params=params,
        formula_value=formula_value,
        oracle_value=result.value,
        oracle_witness=result.witness.sorted_ids(),
        bruteforce_value=bruteforce_value,
        variant_value=variant,
    )


def _mono_count_rows(timeout_secs: float | None) -> Iterator[TheoremRow]:
    factors1 = [("P3", path_graph(3)), ("C4", cycle_graph(4))]
    factors2 = [("P2", path_graph(2)), ("P3", path_graph(3))]

    def pattern_for(g: Graph, kind: str) -> MonoPattern:
        if kind == "all_mono":
            return MonoPattern(frozenset())
        return sparing_exact(g, timeout_secs).witness

    kinds = ("all_mono", "optimal")
    for (name1, g1), pat1_name, (name2, g2), pat2_name in itertools.product(
        factors1, kinds, factors2, kinds
    ):
        names = {"g1": name1, "pattern1": pat1_name, "g2": name2, "pattern2": pat2_name}
        try:
            pat1 = pattern_for(g1, pat1_name)
            pat2 = pattern_for(g2, pat2_name)
        except SolverTimeout:
            yield TheoremRow(names, None)
            continue
        corona, prov = edge_corona(g1, g2)
        combined = set(pat1.non_mono)
        for j, (u, v) in enumerate(g1.edges):
            if u not in pat1.non_mono and v not in pat1.non_mono:
                # mono base edge: its copy keeps the factor pattern
                combined.update(prov.copies[j][k] for k in pat2.non_mono)
        combined_pattern = MonoPattern(frozenset(combined))
        stats = {
            "m1": g1.edge_count,
            "m1_mono": pattern_mono_edges(g1, pat1),
            "n2": g2.vertex_count,
            "m2": g2.edge_count,
            "n2_mono": g2.vertex_count - len(pat2.non_mono),
            "m2_mono": pattern_mono_edges(g2, pat2),
        }
        # the construction certifies that its labeling has exactly the
        # pattern's mono edges, so that count is the labeled one
        construct_weak_iasi(corona, combined_pattern)
        mono_edges = pattern_mono_edges(corona, combined_pattern)
        yield TheoremRow(
            params={**names, **stats},
            formula_value=_mono_count(**stats),
            oracle_value=mono_edges,
            oracle_witness=combined_pattern.sorted_ids(),
            bruteforce_value=mono_edges,
        )


def check_theorem(
    theorem_id: str,
    m_values: Sequence[int] | None = None,
    n_values: Sequence[int] | None = None,
    *,
    timeout_secs: float | None = DEFAULT_TIMEOUT_SECS,
    max_vertices: int = DEFAULT_AUDIT_VERTEX_CAP,
) -> TheoremReport:
    """Audit one registry entry over its default (or given) parameter points.

    Every row holds the closed-form value and the exact optimum; instances
    within the audit cap are recomputed by brute force, and a disagreement
    between the two exact methods raises (a solver defect, not a finding).
    ``m_values``/``n_values`` replace the default ranges of the grid ids (m
    and n of the six simple corona families, n of COMPLETE); any other range
    raises ValueError, and an out-of-domain point the closed form's
    FormulaDomainError.
    ``max_vertices`` bounds only the EC_RR, EC_RS and EC_RK products.
    """
    entry = REGISTRY.get(theorem_id)
    if entry is None:
        raise UnknownTheoremError(theorem_id)
    ranges = {"m": m_values, "n": n_values}
    grid = _GRIDS.get(theorem_id, (None, {}))[1]
    for name, values in ranges.items():
        if values is not None and name not in grid:
            raise ValueError(f"{theorem_id} takes no {name} range")
    if theorem_id == "MONO_COUNT":
        rows = _mono_count_rows(timeout_secs)
    else:
        cases = _cases(theorem_id, ranges, max_vertices)
        rows = (_sparing_row(entry, *case, timeout_secs) for case in cases)
    return TheoremReport(theorem_id, entry.description, list(rows), list(entry.notes))
