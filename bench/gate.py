"""Correctness gate: every op's output against recorded and recomputed truth.

Each check returns ``None`` when the output is right and a one-line reason
otherwise.  Only values are pinned: ``explored``, ``method`` and
``elapsed_secs`` are free to change, so a pruning change stays valid.
"""

from __future__ import annotations

import json
from pathlib import Path


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return int(lines[0][0]), [(int(u), int(v)) for u, v in lines[1:]]


def witness_problem(n: int, edges, value: int, witness: list[int]) -> str | None:
    """Independent check: the witness is an independent set and value = |E| - sum deg."""
    members = set(witness)
    if len(members) != len(witness) or not all(0 <= v < n for v in members):
        return f"witness {witness} has repeated or out-of-range ids"
    covered = 0
    for u, v in edges:
        if u in members and v in members:
            return f"witness is not independent: edge {u} {v}"
        covered += u in members or v in members
    if len(edges) - covered != value:
        return f"value {value} != |E| - covered = {len(edges) - covered}"
    return None


def labeling_problem(n: int, edges, labels: dict[int, list[int]], mono_edges: int) -> str | None:
    """Independent weak-IASI check of a labeling, recomputing every sumset."""
    sets = {}
    for v in range(n):
        label = labels.get(v)
        if not label or min(label) < 0:
            return f"vertex {v} has no valid label"
        sets[v] = frozenset(label)
    if len(set(sets.values())) != n:
        return "vertex labels are not pairwise distinct"
    sums = set()
    singletons = 0
    for u, v in edges:
        s = frozenset(a + b for a in sets[u] for b in sets[v])
        if len(s) != max(len(sets[u]), len(sets[v])):
            return f"edge {u} {v} breaks the weak condition"
        if s in sums:
            return f"edge {u} {v} repeats a sumset"
        sums.add(s)
        singletons += len(s) == 1
    if singletons != mono_edges:
        return f"labeling has {singletons} mono edges, expected {mono_edges}"
    return None


def _check_sparing(expect: dict, out: dict) -> str | None:
    if out["value"] != expect["value"] or out["witness"]["non_mono"] != expect["witness"]:
        return (
            f"got value {out['value']} witness {out['witness']['non_mono']}, expected "
            f"{expect['value']} {expect['witness']}"
        )
    return witness_problem(expect["n"], expect["edges"], out["value"], out["witness"]["non_mono"])


def _check_pipeline(expect: dict, verdict: dict, files: dict[str, Path]) -> str | None:
    n, edges = parse_edge_list(files["prod.txt"].read_text())
    if (n, len(edges)) != (expect["vertices"], expect["edge_count"]):
        return f"product has {n} vertices and {len(edges)} edges, expected " \
               f"{expect['vertices']} and {expect['edge_count']}"
    if not verdict["is_weak_iasi"] or verdict["mono_edge_count"] != expect["value"]:
        return f"verify-labeling says {verdict}, expected a weak IASI with {expect['value']} mono edges"
    raw = json.loads(files["lab.json"].read_text())["vertex_labels"]
    return labeling_problem(n, edges, {int(k): v for k, v in raw.items()}, expect["value"])


def _check_audit(expect: dict, report: dict) -> str | None:
    rows = [[r["params"], r["oracle_value"], r["oracle_witness"], r["agree"]] for r in report["rows"]]
    if len(rows) != len(expect["rows"]):
        return f"{len(rows)} audit rows, expected {len(expect['rows'])}"
    for got, want in zip(rows, expect["rows"]):
        if got != want:
            return f"audit row {got} != expected {want}"
    return None


def check_op(kind: str, expect: dict, stdout: str, files: dict[str, Path]) -> str | None:
    """Gate one op whose calls all exited 0; ``stdout`` is the last call's."""
    try:
        out = json.loads(stdout)
        if kind == "sparing":
            return _check_sparing(expect, out)
        if kind == "pipeline":
            return _check_pipeline(expect, out, files)
        return _check_audit(expect, out)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
