import inspect
import json
import sys

import pytest

from weakiasi import LabelingConstructionError, cli
from weakiasi.cli import main


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


def test_sparing_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "sparing", "--graph", "/nonexistent/g.txt")
    assert code == 2
    assert "not found" in err


def test_sparing_cap_exceeded_exits_3(tmp_path, capsys):
    graph = write_graph(tmp_path, "big.txt", "random", "30", "--seed", "1")
    code, _, err = run(
        capsys, "sparing", "--graph", graph, "--method", "bruteforce", "--cap", "24"
    )
    assert code == 3
    assert "cap" in err


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
    """Leave about 150 frames of stack, so a path of 1,000 vertices is too deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    yield
    sys.setrecursionlimit(limit)


def test_sparing_too_deep_exits_3(tmp_path, capsys, shallow_stack):
    graph = write_graph(tmp_path, "p1000.txt", "path", "1000")
    code, out, err = run(capsys, "sparing", "--graph", graph)
    assert code == 3
    assert out == ""
    assert err.startswith("error: search exceeded the interpreter's recursion limit after ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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


def test_internal_labeling_failure_exits_4(tmp_path, capsys, monkeypatch):
    graph = write_graph(tmp_path, "c4.txt", "cycle", "4")

    def broken(*_args, **_kwargs):
        raise LabelingConstructionError("injected defect")

    monkeypatch.setattr(cli, "construct_optimal", broken)
    code, _, err = run(capsys, "label", "--graph", graph)
    assert code == 4
    assert "injected defect" in err


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
