import hashlib
import importlib.util
import inspect
import json
import os
import sys
import time
from pathlib import Path

import pytest

from weakiasi import (
    LabelingConstructionError,
    VertexLabeling,
    cli,
    count_mono_elements,
    read_edge_list,
)
from weakiasi.cli import main
from weakiasi.graph_io import write_edge_list

from helpers import path_square


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, *argv_tail):
    path = tmp_path / name
    assert main(["gen", *argv_tail, "--out", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_path_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "path", "3")
    assert code == 0
    assert out == "3\n0 1\n1 2\n"


def test_gen_random_is_seeded(capsys):
    code1, out1, _ = run(capsys, "gen", "random", "10", "--p", "0.4", "--seed", "5")
    code2, out2, _ = run(capsys, "gen", "random", "10", "--p", "0.4", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_bad_family_params(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["complete_bipartite", "3"], "complete_bipartite takes 2 parameters, got 1"),
        (["path", "3", "4"], "path takes 1 parameter, got 2"),
    ],
    ids=["too-few", "too-many"],
)
def test_gen_wrong_parameter_count_exits_2(argv, message, capsys):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# sparing
# ---------------------------------------------------------------------------

def test_sparing_k4(tmp_path, capsys):
    graph = write_graph(tmp_path, "k4.txt", "complete", "4")
    code, out, _ = run(capsys, "sparing", "--graph", graph)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3
    assert data["witness"] == {"non_mono": [0]}
    assert data["method"] == "branch_and_bound"


def test_sparing_bipartite_zero(tmp_path, capsys):
    graph = write_graph(tmp_path, "c4.txt", "cycle", "4")
    code, out, _ = run(capsys, "sparing", "--graph", graph)
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_sparing_bruteforce_method(tmp_path, capsys):
    graph = write_graph(tmp_path, "c5.txt", "cycle", "5")
    code, out, _ = run(capsys, "sparing", "--graph", graph, "--method", "bruteforce")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1
    assert data["method"] == "bruteforce"


def test_sparing_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n")
    code, _, err = run(capsys, "sparing", "--graph", str(bad))
    assert code == 2
    assert "line 2" in err


def test_sparing_non_ascii_decimal_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1_0\n0 1\n2 +3\n4 \u0665\n", encoding="utf-8")
    code, out, err = run(capsys, "sparing", "--graph", str(bad))
    assert (code, out) == (2, "")
    assert "line 1: expected vertex count" in err


def test_sparing_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "sparing", "--graph", "/nonexistent/g.txt")
    assert code == 2
    assert "not found" in err


def test_sparing_reads_a_pipe(capsys):
    r, w = os.pipe()
    try:
        os.write(w, b"5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        os.close(w)
        code, out, err = run(capsys, "sparing", "--graph", f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 1


def test_sparing_directory_input_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "sparing", "--graph", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_usage_error_is_one_line(tmp_path, capsys):
    g = write_graph(tmp_path, "c3.txt", "cycle", "3")
    code, out, err = run(capsys, "corona", "--g1", g, "--g2", g, "--out", "x")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_option_prefix_is_rejected(tmp_path, capsys):
    g = write_graph(tmp_path, "c3.txt", "cycle", "3")
    code, out, err = run(capsys, "sparing", "--graph", g, "--time", "5")
    assert (code, out) == (2, "")
    assert err == "error: weakiasi: unrecognized arguments: --time 5\n"


def test_subcommand_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sparing", "--help"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 0
    assert captured.out.startswith("usage: weakiasi sparing ")
    assert captured.err == ""


def test_sparing_bruteforce_past_24_vertices_answers(tmp_path, capsys):
    # brute force has no vertex cap: G(30, .3, 1) gets the exact route's answer
    graph = write_graph(tmp_path, "big.txt", "random", "30", "--seed", "1")
    code, out, err = run(capsys, "sparing", "--graph", graph, "--method", "bruteforce")
    assert (code, err) == (0, "")
    code, exact_out, _ = run(capsys, "sparing", "--graph", graph)
    assert code == 0
    brute, exact = json.loads(out), json.loads(exact_out)
    assert (brute["value"], brute["witness"]) == (exact["value"], exact["witness"])


def test_sparing_timeout_exits_3(tmp_path, capsys):
    g1 = write_graph(tmp_path, "c5.txt", "cycle", "5")
    out_graph = tmp_path / "cc.txt"
    assert (
        main(
            [
                "corona",
                "--g1", g1,
                "--g2", g1,
                "--out-graph", str(out_graph),
                "--out-provenance", str(tmp_path / "prov.json"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, _, err = run(
        capsys, "sparing", "--graph", str(out_graph), "--timeout-secs", "0.0"
    )
    assert code == 3
    assert "budget" in err


@pytest.fixture
def shallow_stack():
    """Leave about 150 frames of stack: too few for the search of the square
    of a 600-vertex path, enough for that of a 400-vertex one."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    yield
    sys.setrecursionlimit(limit)


def test_sparing_too_deep_exits_3(tmp_path, capsys, shallow_stack):
    graph = tmp_path / "p600sq.txt"
    graph.write_text(write_edge_list(path_square(600)))
    code, out, err = run(capsys, "sparing", "--graph", str(graph))
    assert code == 3
    assert out == ""
    assert err.startswith("error: search exceeded the interpreter's recursion limit after ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_sparing_long_odd_cycle_solves(tmp_path, capsys):
    # one branch leaves two paths, which forced vertices peel without a node
    graph = write_graph(tmp_path, "c3001.txt", "cycle", "3001")
    code, out, err = run(capsys, "sparing", "--graph", graph)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["value"], result["explored"]) == (1, 1)
    assert result["witness"]["non_mono"] == list(range(0, 2999, 2))


def test_bruteforce_timeout_exits_3(tmp_path, capsys):
    # 2**300 independent sets: only the time budget ends the enumeration
    graph = tmp_path / "e300.txt"
    graph.write_text("300\n")
    code, out, err = run(
        capsys, "sparing", "--graph", str(graph), "--method", "bruteforce",
        "--timeout-secs", "0.5",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: enumeration exceeded its time budget after ")
    assert err.endswith(" sets\n")
    assert err.count("\n") == 1
    # the clock is read each time the count passes the next multiple of
    # 4,096; the walk of the 286 vertices below the table cannot finish
    sets = int(err.removeprefix("error: enumeration exceeded its time budget after ").split()[0])
    assert sets >= 4096


def test_sparing_nan_timeout_exits_2(tmp_path, capsys):
    c5 = write_graph(tmp_path, "c5.txt", "cycle", "5")
    p4 = write_graph(tmp_path, "p4.txt", "path", "4")
    for argv in (
        *(["sparing", "--graph", g, "--method", m] for g in (c5, p4) for m in ("exact", "bruteforce")),
        ["label", "--graph", p4],
    ):
        code, out, err = run(capsys, *argv, "--timeout-secs", "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_negative_timeout_exits_2(tmp_path, capsys):
    # a budget that has run out before the start is malformed input, not a
    # timeout, whether or not the input needs a search; 0 stays a budget
    c5 = write_graph(tmp_path, "c5.txt", "cycle", "5")
    p3 = write_graph(tmp_path, "p3.txt", "path", "3")
    pattern = tmp_path / "empty.json"
    pattern.write_text('{"non_mono": []}')
    for argv in (
        ["sparing", "--graph", c5, "--timeout-secs", "-5"],
        ["sparing", "--graph", p3, "--timeout-secs", "-5"],
        ["label", "--graph", c5, "--timeout-secs", "-1"],
        ["label", "--graph", c5, "--pattern", str(pattern), "--timeout-secs", "-1"],
        ["check-theorems", "--id", "EC_CC", "--m", "3", "--n", "3", "--timeout-secs", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: time budget must be non-negative seconds, got " + argv[-1] + ".0\n"
    code, _out, err = run(capsys, "sparing", "--graph", p3, "--timeout-secs", "0")
    assert (code, err) == (0, "")


def test_label_timeout_covers_the_sidon_terms(tmp_path, capsys):
    # a 4,000-vertex path solves at once, but its 2,000 mono vertices need
    # Sidon terms that take about a minute without a budget
    graph = write_graph(tmp_path, "p4000.txt", "path", "4000")
    pattern = tmp_path / "odd.json"
    pattern.write_text(json.dumps({"non_mono": list(range(1, 4000, 2))}))
    for extra in ([], ["--pattern", str(pattern)]):
        start = time.monotonic()
        code, out, err = run(capsys, "label", "--graph", graph, "--timeout-secs", "0.5", *extra)
        assert time.monotonic() - start < 10
        assert (code, out) == (3, "")
        assert err.startswith("error: labeling exceeded its time budget at Sidon term ")
        assert err.count("\n") == 1


def test_sparing_long_path_needs_no_search(tmp_path, capsys):
    graph = write_graph(tmp_path, "p3000.txt", "path", "3000")
    code, out, err = run(capsys, "sparing", "--graph", graph)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["value"] == 0
    assert data["witness"] == {"non_mono": list(range(0, 3000, 2))}
    assert data["explored"] == 0


# ---------------------------------------------------------------------------
# corona
# ---------------------------------------------------------------------------

def test_corona_outputs(tmp_path, capsys):
    g1 = write_graph(tmp_path, "c5.txt", "cycle", "5")
    g2 = write_graph(tmp_path, "c3.txt", "cycle", "3")
    out_graph = tmp_path / "product.txt"
    out_prov = tmp_path / "prov.json"
    code, _, _ = run(
        capsys,
        "corona",
        "--g1", g1,
        "--g2", g2,
        "--out-graph", str(out_graph),
        "--out-provenance", str(out_prov),
    )
    assert code == 0
    lines = out_graph.read_text().splitlines()
    assert lines[0] == "20"
    assert len(lines) == 51
    prov = json.loads(out_prov.read_text())
    assert prov["base"] == [0, 1, 2, 3, 4]
    assert len(prov["copies"]) == 5
    assert all(len(copy) == 3 for copy in prov["copies"])


def test_corona_and_sparing_verbose_lines(tmp_path, capsys):
    g1 = write_graph(tmp_path, "c5.txt", "cycle", "5")
    g2 = write_graph(tmp_path, "c3.txt", "cycle", "3")
    out_graph = tmp_path / "product.txt"
    code, _, err = run(
        capsys,
        "corona",
        "--g1", g1,
        "--g2", g2,
        "--out-graph", str(out_graph),
        "--out-provenance", str(tmp_path / "prov.json"),
        "--verbose",
    )
    assert (code, err) == (0, "corona: 20 vertices, 50 edges\n")
    code, out, err = run(capsys, "sparing", "--graph", str(out_graph), "--verbose")
    explored = json.loads(out)["explored"]
    assert (code, err) == (0, f"sparing number 30 via branch_and_bound, {explored} nodes\n")
    # brute force counts independent sets, not search nodes
    code, out, err = run(
        capsys, "sparing", "--graph", str(out_graph), "--method", "bruteforce", "--verbose"
    )
    explored = json.loads(out)["explored"]
    assert (code, err) == (0, f"sparing number 30 via bruteforce, {explored} sets\n")


# ---------------------------------------------------------------------------
# label / verify-labeling
# ---------------------------------------------------------------------------

def test_label_then_verify_round_trip(tmp_path, capsys):
    graph = write_graph(tmp_path, "c4.txt", "cycle", "4")
    labeling_path = tmp_path / "labeling.json"
    code, _, _ = run(capsys, "label", "--graph", graph, "--out", str(labeling_path))
    assert code == 0
    code, out, _ = run(
        capsys, "verify-labeling", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["is_weak_iasi"] is True
    assert verdict["mono_edge_count"] == 0


def test_label_long_path_finishes(tmp_path, capsys):
    graph = write_graph(tmp_path, "p1200.txt", "path", "1200")
    labeling_path = tmp_path / "labeling.json"
    code, _, err = run(capsys, "label", "--graph", graph, "--out", str(labeling_path))
    assert (code, err) == (0, "")
    code, out, _ = run(
        capsys, "verify-labeling", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["is_weak_iasi"] is True
    assert (verdict["mono_vertex_count"], verdict["mono_edge_count"]) == (600, 0)


def test_label_with_supplied_pattern(tmp_path, capsys):
    graph = write_graph(tmp_path, "k4.txt", "complete", "4")
    pattern_path = tmp_path / "pattern.json"
    pattern_path.write_text('{"non_mono": [0]}')
    code, out, _ = run(
        capsys, "label", "--graph", graph, "--pattern", str(pattern_path)
    )
    assert code == 0
    labels = json.loads(out)["vertex_labels"]
    assert len(labels["0"]) == 2
    assert all(len(labels[str(v)]) == 1 for v in (1, 2, 3))


def test_label_invalid_pattern_exits_2(tmp_path, capsys):
    graph = write_graph(tmp_path, "k2.txt", "complete", "2")
    pattern_path = tmp_path / "pattern.json"
    pattern_path.write_text('{"non_mono": [0, 1]}')
    code, _, err = run(
        capsys, "label", "--graph", graph, "--pattern", str(pattern_path)
    )
    assert code == 2
    assert "independent" in err


def test_label_pattern_with_repeated_key_exits_2(tmp_path, capsys):
    graph = write_graph(tmp_path, "k2.txt", "complete", "2")
    pattern_path = tmp_path / "pattern.json"
    pattern_path.write_text('{"non_mono": [0], "non_mono": [1]}')
    code, out, err = run(
        capsys, "label", "--graph", graph, "--pattern", str(pattern_path)
    )
    assert code == 2
    assert out == ""
    assert err == "error: duplicate JSON key 'non_mono'\n"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("[0]", 'pattern JSON must be an object with "non_mono"'),
        ('{"non_mono": [true]}', '"non_mono" must be an array of vertex ids'),
    ],
)
def test_label_malformed_pattern_exits_2(text, message, tmp_path, capsys):
    graph = write_graph(tmp_path, "k2.txt", "complete", "2")
    pattern_path = tmp_path / "pattern.json"
    pattern_path.write_text(text)
    code, out, err = run(
        capsys, "label", "--graph", graph, "--pattern", str(pattern_path)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000 + "]" * 100_000, id="arrays"),
        pytest.param('{"a": ' * 100_000 + "1" + "}" * 100_000, id="objects"),
    ],
)
def test_deeply_nested_json_exits_2(text, tmp_path, capsys):
    graph = write_graph(tmp_path, "k2.txt", "complete", "2")
    nested = tmp_path / "nested.json"
    nested.write_text(text)
    for argv in (
        ["verify-labeling", "--graph", graph, "--labeling", str(nested)],
        ["label", "--graph", graph, "--pattern", str(nested)],
        ["export-dot", "--graph", graph, "--labeling", str(nested)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {nested}: JSON nested too deeply\n"


def test_verify_labeling_repeated_vertex_exits_2(tmp_path, capsys):
    graph = tmp_path / "k2.txt"
    graph.write_text("2\n0 1\n")
    labeling_path = tmp_path / "repeated.json"
    labeling_path.write_text('{"vertex_labels": {"0": [1], "1": [2], "1": [1, 5]}}')
    code, out, err = run(
        capsys, "verify-labeling", "--graph", str(graph), "--labeling", str(labeling_path)
    )
    assert code == 2
    assert out == ""
    assert err == "error: duplicate JSON key '1'\n"


def test_verify_labeling_reports_duplicates(tmp_path, capsys):
    graph = write_graph(tmp_path, "k2.txt", "complete", "2")
    labeling_path = tmp_path / "dup.json"
    labeling_path.write_text('{"vertex_labels": {"0": [1], "1": [1]}}')
    code, out, _ = run(
        capsys, "verify-labeling", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["vertex_injective"] is False
    assert "share label" in verdict["first_violation"]


def test_verify_labeling_missing_vertex_exits_2(tmp_path, capsys):
    graph = write_graph(tmp_path, "p3.txt", "path", "3")
    labeling_path = tmp_path / "partial.json"
    labeling_path.write_text('{"vertex_labels": {"0": [1], "1": [2]}}')
    code, _, err = run(
        capsys, "verify-labeling", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 2
    assert "vertex 2" in err


def test_verify_labeling_extra_vertex_exits_2(tmp_path, capsys):
    graph = tmp_path / "k1.txt"
    graph.write_text("1\n")
    labeling_path = tmp_path / "extra.json"
    labeling_path.write_text('{"vertex_labels": {"0": [1], "7": [2]}}')
    code, out, err = run(
        capsys, "verify-labeling", "--graph", str(graph), "--labeling", str(labeling_path)
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "vertex 7" in err


def test_internal_labeling_failure_exits_4(tmp_path, capsys, monkeypatch):
    graph = write_graph(tmp_path, "c4.txt", "cycle", "4")

    def broken(*_args, **_kwargs):
        raise LabelingConstructionError("injected defect")

    monkeypatch.setattr(cli, "construct_optimal", broken)
    code, _, err = run(capsys, "label", "--graph", graph)
    assert code == 4
    assert "injected defect" in err


def test_unexpected_exception_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    graph = write_graph(tmp_path, "c4.txt", "cycle", "4")

    def broken(*_args, **_kwargs):
        raise RuntimeError("solver defect")

    monkeypatch.setattr(cli, "sparing_exact", broken)
    code, out, err = run(capsys, "sparing", "--graph", graph)
    assert code == 4
    assert out == ""
    assert err == "error: RuntimeError: solver defect\n"


@pytest.mark.parametrize("method", ["exact", "bruteforce"])
def test_sparing_calls_the_solver_bound_when_it_runs(tmp_path, capsys, monkeypatch, method):
    # a tracer wraps a solver by rebinding its name in this module after import
    graph = write_graph(tmp_path, "c5.txt", "cycle", "5")
    called = []
    for name in ("sparing_exact", "sparing_bruteforce"):
        def recording(g, secs, _name=name, _solve=getattr(cli, name)):
            called.append(_name)
            return _solve(g, secs)

        monkeypatch.setattr(cli, name, recording)
    code, out, _ = run(capsys, "sparing", "--graph", graph, "--method", method)
    assert code == 0
    assert json.loads(out)["value"] == 1
    assert called == [f"sparing_{method}"]


@pytest.mark.parametrize("method", ["exact", "bruteforce"])
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, method):
    # the 12-byte edge list "99999999999" names a vertex count whose lists no
    # memory holds; the reader is stubbed instead of made to allocate them
    graph = tmp_path / "huge.txt"
    graph.write_text("99999999999\n")

    def exhausted(_text):
        raise MemoryError

    monkeypatch.setattr(cli, "read_edge_list", exhausted)
    code, out, err = run(capsys, "sparing", "--graph", str(graph), "--method", method)
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_directory_as_out_exits_2(tmp_path, capsys):
    graph = write_graph(tmp_path, "p3.txt", "path", "3")
    for argv in (["label", "--graph", graph], ["gen", "path", "3"]):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check-theorems
# ---------------------------------------------------------------------------

def test_check_theorems_complete(tmp_path, capsys):
    code, out, err = run(
        capsys, "check-theorems", "--id", "COMPLETE", "--n", "1..4", "--verbose"
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"rows": 4, "agree": 4, "disagree": 0, "unresolved": 0}
    assert "AGREE" in err


def test_check_theorems_ec_pp_contains_3_2_row(capsys):
    code, out, _ = run(
        capsys, "check-theorems", "--id", "EC_PP", "--m", "2..3", "--n", "2..3"
    )
    assert code == 0
    report = json.loads(out)
    rows = {(r["params"]["m"], r["params"]["n"]): r for r in report["rows"]}
    assert rows[(3, 2)]["formula_value"] == 5
    assert rows[(3, 2)]["oracle_value"] == 6


def test_check_theorems_out_of_domain_range_reports_the_closed_form(capsys):
    code, out, err = run(capsys, "check-theorems", "--id", "COMPLETE", "--n", "0..2")
    assert code == 2
    assert out == ""
    assert err == "error: COMPLETE needs n >= 1\n"


def test_check_theorems_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "check-theorems", "--id", "NOPE")
    assert code == 2
    assert "EC_PP" in err


def test_check_theorems_timeout_exits_3(capsys):
    code, out, _ = run(
        capsys,
        "check-theorems", "--id", "COMPLETE", "--n", "5..6", "--timeout-secs", "0.0",
    )
    assert code == 3
    report = json.loads(out)
    assert report["summary"]["unresolved"] == 2


# ---------------------------------------------------------------------------
# export-dot
# ---------------------------------------------------------------------------

def test_export_dot(tmp_path, capsys):
    graph = write_graph(tmp_path, "p2.txt", "path", "2")
    code, out, _ = run(capsys, "export-dot", "--graph", graph)
    assert code == 0
    assert "graph G {" in out
    assert "0 -- 1;" in out


def test_export_dot_with_labeling(tmp_path, capsys):
    graph = write_graph(tmp_path, "c4.txt", "cycle", "4")
    labeling_path = tmp_path / "labeling.json"
    assert main(["label", "--graph", graph, "--out", str(labeling_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "export-dot", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 0
    assert "style=filled" in out


@pytest.mark.parametrize(
    ("labels", "message"),
    [
        ('{"0": [1], "1": [2], "2": [4], "7": [8]}', "label for vertex 7, which"),
        ('{"0": [1], "7": [2]}', "no label for vertex 1"),
    ],
)
def test_export_dot_labeling_must_fit_the_graph(labels, message, tmp_path, capsys):
    graph = write_graph(tmp_path, "p3.txt", "path", "3")
    labeling_path = tmp_path / "labeling.json"
    labeling_path.write_text(f'{{"vertex_labels": {labels}}}')
    code, out, err = run(
        capsys, "export-dot", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------------------
# round trip across commands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,params",
    [
        ("path", ["4"]),
        ("cycle", ["5"]),
        ("complete", ["4"]),
        ("complete_bipartite", ["2", "3"]),
    ],
)
def test_gen_sparing_label_verify_round_trip(tmp_path, capsys, family, params):
    graph = write_graph(tmp_path, "g.txt", family, *params)
    code, out, _ = run(capsys, "sparing", "--graph", graph)
    assert code == 0
    value = json.loads(out)["value"]
    labeling_path = tmp_path / "labeling.json"
    assert main(["label", "--graph", graph, "--out", str(labeling_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "verify-labeling", "--graph", graph, "--labeling", str(labeling_path)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["is_weak_iasi"] is True
    assert verdict["mono_edge_count"] == value


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_identical_after_dropping_timing(tmp_path, capsys):
    graph = write_graph(tmp_path, "k4.txt", "complete", "4")

    def deterministic_section(raw):
        data = json.loads(raw)
        data.pop("elapsed_secs", None)
        return json.dumps(data, indent=2, sort_keys=True)

    _, out1, _ = run(capsys, "sparing", "--graph", graph)
    _, out2, _ = run(capsys, "sparing", "--graph", graph)
    assert deterministic_section(out1) == deterministic_section(out2)

    _, out1, _ = run(capsys, "check-theorems", "--id", "COMPLETE", "--n", "1..3")
    _, out2, _ = run(capsys, "check-theorems", "--id", "COMPLETE", "--n", "1..3")
    assert deterministic_section(out1) == deterministic_section(out2)

    _, out1, _ = run(capsys, "label", "--graph", graph)
    _, out2, _ = run(capsys, "label", "--graph", graph)
    assert out1 == out2


# ---------------------------------------------------------------------------
# scripts/audit_theorems.py
# ---------------------------------------------------------------------------

def script_main(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def audit_script_main():
    return script_main("audit_theorems")


def test_audit_script_usage_error_is_one_line(capsys):
    # --id is a prefix of --ids, which the shared parser rejects
    code = audit_script_main()(["--id", "EC_PP"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["--timeout-secs", "nan"], ["--json-dir", "/dev/null/x"]],
    ids=["nan-timeout", "json-dir-not-a-directory"],
)
def test_audit_script_failure_is_one_error_line(argv, capsys):
    code = audit_script_main()(["--ids", "EC_PP", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# SHA-256 of the script's stdout without its "audited ... in Xs" timing line.
AUDIT_SCRIPT_DIGESTS = {
    "EC_PP": "30f4918a5894cff522580da887dfdce6366bdda55a0b0ae3ea476f49b3dc0798",
    "COMPLETE": "6f8f369e6b4384b12fe79fcc0340a3780f7a62bd62c92468154f8bb831b64d22",
}


@pytest.mark.parametrize("theorem_id", list(AUDIT_SCRIPT_DIGESTS))
def test_audit_script_output_is_pinned(theorem_id, capsys):
    code = audit_script_main()(["--ids", theorem_id])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    lines = captured.out.splitlines(keepends=True)
    timing = [line for line in lines if line.startswith("audited ")]
    assert len(timing) == 1
    text = "".join(line for line in lines if line not in timing)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_SCRIPT_DIGESTS[theorem_id]
    findings = "rows where the closed form and the oracle differ:" in text
    assert findings == (theorem_id == "EC_PP")
    assert ("no deltas" in text) == (not findings)


# ---------------------------------------------------------------------------
# scripts/corona_labeling_demo.py
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [["--family1", "complete_bipartite"], ["--family1", "nope"], ["--out-dir", "/dev/null/x"]],
    ids=["wrong-parameter-count", "unknown-family", "out-dir-not-a-directory"],
)
def test_demo_script_failure_is_one_error_line(argv, capsys):
    code = script_main("corona_labeling_demo")(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_demo_script_checks_out_dir_before_solving(capsys):
    code = script_main("corona_labeling_demo")(["--out-dir", "/dev/null/x"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_demo_script_writes_a_certified_optimal_labeling(tmp_path, capsys):
    code = script_main("corona_labeling_demo")(["--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "corona.dot", "corona.txt", "labeling.json", "provenance.json", "result.json",
    ]
    graph = read_edge_list((tmp_path / "corona.txt").read_text())
    labeling = VertexLabeling.from_json_dict(
        json.loads((tmp_path / "labeling.json").read_text())
    )
    _mono_vertices, mono_edges = count_mono_elements(graph, labeling)
    assert mono_edges == json.loads((tmp_path / "result.json").read_text())["value"] == 30
