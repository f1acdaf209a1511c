"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
from pathlib import Path

import pytest

import gate
import run
import spans
import workloads
from weakiasi import Graph, cli, labeler
from weakiasi.graphs import cycle_graph
from weakiasi.solver import MonoPattern, sparing_exact

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _inputs(workload, seed):
    return [(op.name, op.calls, op.files, repr(op.expect)) for op in workloads.build_ops(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = _inputs(workload, 3)
    assert first == _inputs(workload, 3)
    # not only the order: the inputs themselves differ
    assert sorted(map(repr, first)) != sorted(map(repr, _inputs(workload, 4)))


@pytest.mark.parametrize("family,size", [("path", 7), ("path", 8), ("cycle", 9), ("triangles", 4)])
def test_sparse_closed_forms_match_the_solver(family, size):
    n, edges = workloads.family_edges(family, size)
    result = sparing_exact(Graph(n, edges))
    assert (result.value, list(result.witness.sorted_ids())) == workloads.sparse_expected(family, size)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count,expected", [
    (19, (50.0, 9)), (39, (50.0, 19)), (40, (75.0, 10)), (99, (75.0, 24)),
    (100, (90.0, 10)), (199, (90.0, 19)), (200, (95.0, 10)), (1000, (99.0, 10)),
])
def test_tail_percentile_keeps_ten_ops_beyond(count, expected):
    assert run.tail_percentile(count) == expected


def test_beta_cdf_known_values():
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248)  # 6x^2 - 8x^3 + 3x^4
    assert run.beta_cdf(0.5, 0.5, 0.5) == pytest.approx(0.5)
    assert run.beta_cdf(1, 1, 0.3) == pytest.approx(0.3)


def test_harrell_davis_weights_all_order_statistics():
    assert run.harrell_davis([4.0], 75.0) == 4.0
    assert run.harrell_davis([5.0, 1.0, 3.0, 2.0, 4.0], 50.0) == pytest.approx(3.0)
    # two values: the weights are I_0.5(a, b) and its complement
    a, b = 0.75 * 3, 0.25 * 3
    assert run.harrell_davis([0.0, 1.0], 75.0) == pytest.approx(1 - run.beta_cdf(a, b, 0.5))


def test_speed_scales_by_the_reference_chunks_near_a_step():
    speed = run.Speed()
    speed.ends = [1.0, 2.0, 10.0]
    speed.chunks = [2 * run.REF_SECONDS, 2 * run.REF_SECONDS, 4 * run.REF_SECONDS]
    # chunks ending at 1.0 and 2.0 are within REF_WINDOW of a step over [1.5, 1.6]
    assert speed.scaled(1.5, 0.1) == pytest.approx(0.05)
    assert speed.scaled(9.5, 0.1) == pytest.approx(0.025)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    s = [
        spans.Span(0, "a", None, "0:0", 0.0, 10.0),
        spans.Span(1, "b", 0, "0:0", 1.0, 3.0),
        spans.Span(2, "b", 0, "0:0", 4.0, 8.0),
        spans.Span(3, "c", 2, "0:0", 5.0, 6.0),
    ]
    assert spans.self_times(s) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_install_wraps_every_binding_and_restores():
    original = labeler.verify
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert labeler.verify is not original and cli.verify is labeler.verify
        tracer.enabled = True
        labeler.construct_weak_iasi(cycle_graph(5), MonoPattern(frozenset({0})))
    finally:
        restore()
    assert labeler.verify is original and cli.verify is original
    names = {s.id: s.name for s in tracer.spans}
    parents = {s.name: names.get(s.parent) for s in tracer.spans}
    assert parents["labeler.sidon"] == "labeler.construct_weak_iasi"
    assert parents["setlabels.verify"] == "labeler.construct_weak_iasi"
    assert parents["setlabels.count_mono_elements"] == "setlabels.verify"
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["labeler.sidon.terms"] == 4
    assert metrics["labeler.construct_weak_iasi.verify_calls"] == 1
    assert metrics["labeler.construct_weak_iasi.useful_per_attempt"] == 1.0
    assert metrics["setlabels.verify.edges"] == 5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u, _b in spans.LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# Correctness gate and failure accounting
# ---------------------------------------------------------------------------

def _prepared(tmp_path, op):
    return run._materialize([op], tmp_path)


def test_wrong_output_counts_as_failed_op(tmp_path):
    n, edges = workloads.family_edges("cycle", 5)
    op = workloads._sparing_op("c5 tampered", n, edges, 2, [0, 2])  # true value is 1
    result = run.Run()
    run.run_pass(cli, _prepared(tmp_path, op), result, None, 0)
    assert (result.attempted, result.failed, result.wrong) == (1, 1, 1)


def test_right_output_passes_the_gate(tmp_path):
    n, edges = workloads.family_edges("cycle", 5)
    op = workloads._sparing_op("c5", n, edges, *workloads.sparse_expected("cycle", 5))
    result = run.Run()
    run.run_pass(cli, _prepared(tmp_path, op), result, None, 0)
    assert (result.attempted, result.failed, result.wrong) == (1, 0, 0)


class _Raising:
    @staticmethod
    def main(argv):
        raise RecursionError("maximum recursion depth exceeded")


def test_exception_is_a_failed_op_not_a_wrong_output(tmp_path):
    n, edges = workloads.family_edges("path", 4)
    op = workloads._sparing_op("p4", n, edges, *workloads.sparse_expected("path", 4))
    result = run.Run()
    run.run_pass(_Raising, _prepared(tmp_path, op), result, None, 0)
    assert (result.attempted, result.failed, result.wrong) == (1, 1, 0)
    assert list(result.failures) == ["p4: sparing raised RecursionError"]


def test_gate_rejects_dependent_witness_and_bad_labeling():
    n, edges = workloads.family_edges("path", 3)
    assert gate.witness_problem(n, edges, 0, [1]) is None
    assert "not independent" in gate.witness_problem(n, edges, 0, [0, 1])
    assert "value" in gate.witness_problem(n, edges, 1, [1])
    labels = {0: [1], 1: [1], 2: [3]}
    assert "distinct" in gate.labeling_problem(n, edges, labels, 2)


def test_audit_rows_compare_values_not_timings():
    rows = [[{"n": 3}, 1, [0], True]]
    out = {"rows": [{"params": {"n": 3}, "oracle_value": 1, "oracle_witness": [0],
                     "agree": True, "elapsed_secs": 9.9}], "elapsed_secs": 1.0}
    assert gate.check_op("audit", {"rows": rows}, json.dumps(out), {}) is None
    out["rows"][0]["oracle_value"] = 2
    assert gate.check_op("audit", {"rows": rows}, json.dumps(out), {}) is not None
