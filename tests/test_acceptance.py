"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import ast
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import weakiasi
from weakiasi import (
    SetLabel,
    check_theorem,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    default_corona_instances,
    edge_corona,
    intersection,
    is_bipartite,
    odd_cycle_parity_check,
    path_graph,
    shift_vertices,
    sparing_bruteforce,
    sparing_exact,
    sumset,
    construct_optimal,
    union,
    verify,
)

from helpers import seeded_graphs


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_complete_graphs():
    for n in range(1, 9):
        start = time.perf_counter()
        result = sparing_exact(complete_graph(n))
        elapsed = time.perf_counter() - start
        assert result.value == (n - 1) * (n - 2) // 2, f"K_{n}"
        assert elapsed < 1.0, f"K_{n} took {elapsed:.3f}s"
    _passed(1, "complete graphs match (n-1)(n-2)/2, each under 1s")


def test_criterion_2_bipartite_zero():
    for m in range(1, 11):
        assert sparing_exact(path_graph(m)).value == 0
    for k in range(2, 7):
        assert sparing_exact(cycle_graph(2 * k)).value == 0
    for a in range(1, 5):
        for b in range(1, 5):
            assert sparing_exact(complete_bipartite_graph(a, b)).value == 0
    suite = seeded_graphs(100, max_vertices=14, seed=20260809)
    assert len(suite) == 100
    non_bipartite = 0
    for g in suite:
        bipartite, _ = is_bipartite(g)
        value = sparing_exact(g).value
        if bipartite:
            assert value == 0
        else:
            non_bipartite += 1
            assert value >= 1
    assert non_bipartite > 0
    _passed(2, f"bipartite zero; {non_bipartite}/100 non-bipartite all >= 1")


def test_criterion_3_cycle_parity():
    for n in range(3, 13):
        assert odd_cycle_parity_check(n)
    _passed(3, "cycle mono-edge parity by full enumeration, n in [3, 12]")


def test_criterion_4_solver_equivalence():
    start = time.perf_counter()
    suite = seeded_graphs(100, max_vertices=18, seed=424242)
    for g in suite:
        brute = sparing_bruteforce(g)
        exact = sparing_exact(g)
        assert exact.value == brute.value, g
        assert exact.witness == brute.witness, g
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    _passed(4, f"100-graph brute/exact equivalence in {elapsed:.1f}s")


def test_criterion_5_corona_structure():
    factors = (
        [path_graph(m) for m in (2, 3, 4)]
        + [cycle_graph(n) for n in (3, 4, 5)]
        + [complete_graph(n) for n in (2, 3, 4)]
    )
    for g1 in factors:
        for g2 in factors:
            n1, m1 = g1.vertex_count, g1.edge_count
            n2, m2 = g2.vertex_count, g2.edge_count
            product, prov = edge_corona(g1, g2)
            assert product.vertex_count == n1 + m1 * n2
            assert product.edge_count == m1 + m1 * m2 + 2 * m1 * n2
            for copy in prov.copies:
                members = set(copy)
                induced = {
                    (u, v)
                    for u, v in product.edges
                    if u in members and v in members
                }
                mapped = {
                    (min(copy[u], copy[v]), max(copy[u], copy[v]))
                    for u, v in g2.edges
                }
                assert induced == mapped
    _passed(5, "corona size formulas and copy isomorphism on 81 pairs")


def test_criterion_6_union_formula():
    # two K4s sharing one vertex
    g1 = complete_graph(4)
    g2 = shift_vertices(complete_graph(4), 3)
    merged = union(g1, g2)
    assert intersection(g1, g2).edge_count == 0
    assert sparing_exact(merged).value == 6 == 3 + 3 - 0
    assert sparing_bruteforce(merged).value == 6

    # chain of three K4s, each sharing one vertex with the previous
    g3 = shift_vertices(complete_graph(4), 6)
    chain = union(merged, g3)
    assert intersection(merged, g3).edge_count == 0
    assert sparing_exact(chain).value == 9 == (3 + 3 - 0) + 3 - 0
    assert sparing_bruteforce(chain).value == 9

    # one-point-union closed forms for small path/cycle corona with cliques
    for tid, m_values in (("EC_PK", [2, 3, 4]), ("EC_CK", [3, 4])):
        report = check_theorem(tid, m_values=m_values, n_values=[1, 2, 3])
        assert report.all_resolved
        assert report.disagree_count == 0, report.render_text()
    _passed(6, "union formula on one-point unions; EC_PK/EC_CK rows agree")


def test_criterion_7_theorem_audit_coverage():
    from weakiasi import THEOREM_IDS

    reports = {tid: check_theorem(tid) for tid in THEOREM_IDS}
    for tid, report in reports.items():
        assert report.rows, tid
        assert report.all_resolved, f"{tid} left unresolved rows"
        for row in report.rows:
            assert row.oracle_value is not None
            assert row.formula_value is not None
            # two independent exact routes agree on every row
            assert row.bruteforce_value == row.oracle_value, (tid, row.params)
    pp_rows = {
        (row.params["m"], row.params["n"]): row for row in reports["EC_PP"].rows
    }
    assert pp_rows[(2, 2)].agree and pp_rows[(2, 2)].oracle_value == 3
    assert pp_rows[(3, 2)].formula_value == 5
    assert pp_rows[(3, 2)].oracle_value == 6
    findings = sum(report.disagree_count for report in reports.values())
    _passed(7, f"audit complete over {len(reports)} ids; {findings} recorded deltas")


def test_criterion_8_labeler_soundness():
    instances = seeded_graphs(
        200, max_vertices=12, seed=1112, p_choices=(0.3,)
    ) + [graph for _tid, _params, graph in default_corona_instances()]
    for g in instances:
        result, labeling = construct_optimal(g)
        verdict = verify(g, labeling)
        assert verdict.vertex_injective
        assert verdict.edge_injective
        assert verdict.weak_condition
        assert verdict.mono_edge_count == result.value
    _passed(8, f"labeler sound on {len(instances)} instances (200 random + coronas)")


def test_criterion_9_sumset_law():
    rng = random.Random(90125)
    for _ in range(1000):
        a = SetLabel(
            tuple(rng.sample(range(100), rng.randint(1, 8)))
        )
        b = SetLabel(
            tuple(rng.sample(range(100), rng.randint(1, 8)))
        )
        ab = sumset(a, b)
        assert max(len(a), len(b)) <= len(ab) <= len(a) * len(b)
        assert (len(ab) == max(len(a), len(b))) == (min(len(a), len(b)) == 1)
    _passed(9, "sumset cardinality law over 1000 seeded pairs")


def test_criterion_10_cli_determinism(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "weakiasi", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    graph_path = tmp_path / "k4.txt"
    cli_out = cli("gen", "complete", "4", "--out", str(graph_path))
    assert cli_out == ""

    def deterministic_section(raw: str) -> str:
        data = json.loads(raw)
        data.pop("elapsed_secs", None)
        return json.dumps(data, indent=2, sort_keys=True)

    runs = [cli("sparing", "--graph", str(graph_path)) for _ in range(2)]
    assert deterministic_section(runs[0]) == deterministic_section(runs[1])

    runs = [
        cli("check-theorems", "--id", "COMPLETE", "--n", "1..4") for _ in range(2)
    ]
    assert deterministic_section(runs[0]) == deterministic_section(runs[1])

    runs = [cli("label", "--graph", str(graph_path)) for _ in range(2)]
    assert runs[0] == runs[1]

    seeded = [
        cli("gen", "random", "12", "--p", "0.3", "--seed", "77") for _ in range(2)
    ]
    assert seeded[0] == seeded[1]
    _passed(10, "byte-identical deterministic JSON across repeated CLI runs")


def test_criterion_11_stdlib_only():
    # pyproject.toml declares no dependencies: every absolute import of the
    # package names a standard-library module
    sources = sorted(Path(weakiasi.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{source.name}: {name}"
    _passed(11, "the package imports only the standard library")
