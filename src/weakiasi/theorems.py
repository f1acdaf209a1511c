"""Closed-form registry for sparing numbers and the oracle audit.

Each registry entry is a closed-form candidate for the sparing number of a
graph family (edge coronas of paths, cycles, regular and complete graphs;
complete graphs; unions; and the mono-edge count of the standard corona
labeling).  ``check_theorem`` instantiates the actual graphs, computes the
exact optimum, and records agreement row by row.  Oracle values are
authoritative: a row where the closed form and the oracle differ is a
finding, not a failure, and is never suppressed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_corona,
    intersection,
    path_graph,
    shift_vertices,
    union,
)
from .labeler import construct_weak_iasi
from .setlabels import count_mono_elements
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
    params: tuple[str, ...]
    description: str
    evaluate: Callable[..., int]


REGISTRY: dict[str, TheoremEntry] = {
    entry.theorem_id: entry
    for entry in (
        TheoremEntry("EC_PP", ("m", "n"), "path (m) corona path (n)", _ec_pp),
        TheoremEntry("EC_PC", ("m", "n"), "path (m) corona cycle (n)", _ec_pc),
        TheoremEntry("EC_CP", ("m", "n"), "cycle (m) corona path (n)", _ec_cp),
        TheoremEntry("EC_CC", ("m", "n"), "cycle (m) corona cycle (n)", _ec_cc),
        TheoremEntry(
            "EC_RR",
            ("m", "r", "n_prime", "phi2"),
            "r-regular corona r-regular (second factor stats n_prime, phi2)",
            _ec_regular_pair,
        ),
        TheoremEntry(
            "EC_RS",
            ("m", "r", "n_prime", "phi2"),
            "r-regular corona s-regular, r <= s (statement form)",
            _ec_regular_pair,
        ),
        TheoremEntry("EC_PK", ("m", "n"), "path (m) corona complete (n)", _ec_pk),
        TheoremEntry("EC_CK", ("m", "n"), "cycle (m) corona complete (n)", _ec_ck),
        TheoremEntry(
            "EC_RK", ("r", "m", "n"), "r-regular (m) corona complete (n)", _ec_rk
        ),
        TheoremEntry("COMPLETE", ("n",), "complete graph on n vertices", _complete),
        TheoremEntry(
            "UNION",
            ("phi1", "phi2", "phi_intersection"),
            "sparing number of a union from the parts and the intersection",
            _union_formula,
        ),
        TheoremEntry(
            "MONO_COUNT",
            ("m1", "m1_mono", "n2", "m2", "n2_mono", "m2_mono"),
            "mono edges of the corona labeling induced by factor labelings",
            _mono_count,
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
    params: dict
    formula_value: int | None
    oracle_value: int | None
    oracle_witness: tuple[int, ...] | None
    bruteforce_value: int | None
    agree: bool
    unresolved: bool
    variant_value: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "formula_value": self.formula_value,
            "oracle_value": self.oracle_value,
            "oracle_witness": (
                None if self.oracle_witness is None else list(self.oracle_witness)
            ),
            "bruteforce_value": self.bruteforce_value,
            "agree": self.agree,
            "unresolved": self.unresolved,
            "variant_value": self.variant_value,
        }


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
# Default instances
# ---------------------------------------------------------------------------

# r-regular building blocks for the regular-pair theorems.
_REGULAR_CATALOG: tuple[tuple[str, Callable[[], Graph], int], ...] = (
    ("C3", lambda: cycle_graph(3), 2),
    ("C4", lambda: cycle_graph(4), 2),
    ("C5", lambda: cycle_graph(5), 2),
    ("K2,2", lambda: complete_bipartite_graph(2, 2), 2),
    ("K4", lambda: complete_graph(4), 3),
    ("K3,3", lambda: complete_bipartite_graph(3, 3), 3),
    ("K5", lambda: complete_graph(5), 4),
)

_SIMPLE_CORONA_FAMILIES: dict[str, tuple[Callable[[int], Graph], Callable[[int], Graph], Sequence[int], Sequence[int]]] = {
    "EC_PP": (path_graph, path_graph, range(2, 6), range(2, 6)),
    "EC_PC": (path_graph, cycle_graph, range(2, 6), range(3, 6)),
    "EC_CP": (cycle_graph, path_graph, range(3, 6), range(2, 6)),
    "EC_CC": (cycle_graph, cycle_graph, range(3, 6), range(3, 6)),
    "EC_PK": (path_graph, complete_graph, range(2, 5), range(1, 5)),
    "EC_CK": (cycle_graph, complete_graph, range(3, 6), range(1, 5)),
}

_CORONA_IDS = (*_SIMPLE_CORONA_FAMILIES, "EC_RR", "EC_RS", "EC_RK")

_NOTES: dict[str, tuple[str, ...]] = {
    "EC_RS": (
        "variant_value carries the alternative closed form "
        "m*(n_prime + r + phi2); the registry evaluates the statement "
        "form m*(n_prime + r*(1 + phi2)).",
        "n_prime and phi2 are computed independently; no claim that one "
        "labeling attains both simultaneously.",
    ),
    "MONO_COUNT": (
        "oracle counts mono edges of the constructed corona labeling; "
        "bruteforce_value recounts them by pattern arithmetic.",
    ),
}


def _corona_size(g1: Graph, g2: Graph) -> int:
    return g1.vertex_count + g1.edge_count * g2.vertex_count


def _corona_cases(
    theorem_id: str,
    m_values: Sequence[int] | None,
    n_values: Sequence[int] | None,
    max_vertices: int,
) -> Iterator[tuple[dict, Graph, Graph]]:
    """(row params, g1, g2) for every edge corona the audit of an id builds.

    The m/n ranges apply to the simple families, which ignore the vertex
    cap; the regular-pair params omit the solver-derived factor stats.
    """
    if theorem_id in _SIMPLE_CORONA_FAMILIES:
        make1, make2, default_ms, default_ns = _SIMPLE_CORONA_FAMILIES[theorem_id]
        for m in default_ms if m_values is None else m_values:
            for n in default_ns if n_values is None else n_values:
                yield {"m": m, "n": n}, make1(m), make2(n)
        return
    for name1, make1, r in _REGULAR_CATALOG:
        if theorem_id == "EC_RK":
            g1 = make1()
            for n in range(r + 1, 5):
                g2 = complete_graph(n)
                if _corona_size(g1, g2) <= max_vertices:
                    yield {"g1": name1, "r": r, "m": g1.vertex_count, "n": n}, g1, g2
            continue
        for name2, make2, r2 in _REGULAR_CATALOG:
            if (r == r2) if theorem_id == "EC_RR" else (r < r2):
                g1, g2 = make1(), make2()
                if _corona_size(g1, g2) <= max_vertices:
                    yield {"g1": name1, "g2": name2, "r": r}, g1, g2


def default_corona_instances(
    max_vertices: int = DEFAULT_AUDIT_VERTEX_CAP,
) -> Iterator[tuple[str, dict, Graph]]:
    """Every corona graph the default audit touches, with its row params.

    Useful for sweeps that want exactly the audited instances (for example,
    labeling every one of them).  ``max_vertices`` bounds only the EC_RR,
    EC_RS and EC_RK products; the six simple families (EC_PP ... EC_CK)
    yield their default m/n grids whatever the cap.
    """
    for theorem_id in _CORONA_IDS:
        for params, g1, g2 in _corona_cases(theorem_id, None, None, max_vertices):
            product, _prov = edge_corona(g1, g2)
            yield theorem_id, params, product


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

def _unresolved_row(
    params: dict, formula_value: int | None = None, variant_value: int | None = None
) -> TheoremRow:
    return TheoremRow(
        params=params,
        formula_value=formula_value,
        oracle_value=None,
        oracle_witness=None,
        bruteforce_value=None,
        agree=False,
        unresolved=True,
        variant_value=variant_value,
    )


def _audit_sparing_row(
    params: dict,
    graph: Graph,
    formula_value: int,
    variant_value: int | None,
    timeout_secs: float | None,
) -> TheoremRow:
    try:
        result = sparing_exact(graph, timeout_secs)
    except SolverTimeout:
        return _unresolved_row(params, formula_value, variant_value)
    bruteforce_value = None
    if graph.vertex_count <= DEFAULT_AUDIT_VERTEX_CAP:
        brute = sparing_bruteforce(graph, cap=DEFAULT_AUDIT_VERTEX_CAP)
        if brute.value != result.value or brute.witness != result.witness:
            raise RuntimeError(
                f"solver defect: bruteforce ({brute.value}, "
                f"{brute.witness.sorted_ids()}) != exact ({result.value}, "
                f"{result.witness.sorted_ids()}) on params {params}"
            )
        bruteforce_value = brute.value
    return TheoremRow(
        params=params,
        formula_value=formula_value,
        oracle_value=result.value,
        oracle_witness=result.witness.sorted_ids(),
        bruteforce_value=bruteforce_value,
        agree=formula_value == result.value,
        unresolved=False,
        variant_value=variant_value,
    )


def _audit_cases(
    theorem_id: str,
    m_values: Sequence[int] | None,
    n_values: Sequence[int] | None,
    max_vertices: int,
    timeout_secs: float | None,
) -> Iterator[tuple[dict, Graph | None]]:
    """(row params, graph to solve) per audit row; None if a factor timed out."""
    if theorem_id == "COMPLETE":
        for n in range(1, 9) if n_values is None else n_values:
            yield {"n": n}, complete_graph(n)
        return
    if theorem_id == "UNION":
        cases = [
            ("one_point", a, b, a - 1) for a in range(2, 6) for b in range(2, 6)
        ] + [("disjoint", a, b, a) for a in range(2, 5) for b in range(2, 5)]
        for overlap, a, b, offset in cases:
            g1 = complete_graph(a)
            g2 = shift_vertices(complete_graph(b), offset)
            names = {"overlap": overlap, "a": a, "b": b}
            try:
                phi1, phi2, phi_common = (
                    sparing_exact(part, timeout_secs).value
                    for part in (g1, g2, intersection(g1, g2))
                )
            except SolverTimeout:
                yield names, None
                continue
            params = {**names, "phi1": phi1, "phi2": phi2, "phi_intersection": phi_common}
            yield params, union(g1, g2)
        return
    factor_stats: dict[str, tuple[int, int]] = {}
    for params, g1, g2 in _corona_cases(theorem_id, m_values, n_values, max_vertices):
        if theorem_id in ("EC_RR", "EC_RS"):
            name2 = params["g2"]
            try:
                if name2 not in factor_stats:
                    factor_stats[name2] = (
                        min_mono_vertices(g2, timeout_secs),
                        sparing_exact(g2, timeout_secs).value,
                    )
            except SolverTimeout:
                yield params, None
                continue
            n_prime, phi2 = factor_stats[name2]
            params = {
                "g1": params["g1"],
                "g2": name2,
                "m": g1.vertex_count,
                "r": params["r"],
                "n_prime": n_prime,
                "phi2": phi2,
            }
        product, _prov = edge_corona(g1, g2)
        yield params, product


def _check_mono_count(report: TheoremReport, timeout_secs: float | None) -> None:
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
            report.rows.append(_unresolved_row(names))
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
        labeling = construct_weak_iasi(corona, combined_pattern)
        _verts, labeled_mono_edges = count_mono_elements(corona, labeling)
        pattern_count = pattern_mono_edges(corona, combined_pattern)
        if pattern_count != labeled_mono_edges:
            raise RuntimeError(
                "labeling/pattern mono-edge mismatch on "
                f"{name1}/{pat1_name} corona {name2}/{pat2_name}"
            )
        formula_value = formula_eval("MONO_COUNT", **stats)
        report.rows.append(
            TheoremRow(
                params={**names, **stats},
                formula_value=formula_value,
                oracle_value=labeled_mono_edges,
                oracle_witness=combined_pattern.sorted_ids(),
                bruteforce_value=pattern_count,
                agree=formula_value == labeled_mono_edges,
                unresolved=False,
            )
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
    small enough for the enumeration cap are recomputed by brute force, and
    any disagreement between the two exact methods raises, since that would
    be a solver defect rather than a finding.  ``max_vertices`` bounds only
    the EC_RR, EC_RS and EC_RK products; the six simple corona families
    audit every m/n point whatever the cap.
    """
    entry = REGISTRY.get(theorem_id)
    if entry is None:
        raise UnknownTheoremError(theorem_id)
    if theorem_id == "COMPLETE" and m_values is not None:
        raise ValueError("COMPLETE only takes an n range")
    if theorem_id not in (*_SIMPLE_CORONA_FAMILIES, "COMPLETE") and (
        m_values is not None or n_values is not None
    ):
        raise ValueError(f"{theorem_id} does not take m/n range overrides")
    report = TheoremReport(theorem_id=theorem_id, description=entry.description)
    if theorem_id == "MONO_COUNT":
        _check_mono_count(report, timeout_secs)
    else:
        cases = _audit_cases(
            theorem_id, m_values, n_values, max_vertices, timeout_secs
        )
        for params, graph in cases:
            if graph is None:
                report.rows.append(_unresolved_row(params))
                continue
            args = {k: params[k] for k in entry.params}
            variant = ec_rs_variant(**args) if theorem_id == "EC_RS" else None
            report.rows.append(
                _audit_sparing_row(
                    params, graph, entry.evaluate(**args), variant, timeout_secs
                )
            )
    report.notes.extend(_NOTES.get(theorem_id, ()))
    return report
