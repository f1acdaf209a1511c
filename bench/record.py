"""Regenerate ``expected.json``: candidate pools, slots and expected outputs.

Run from the repository root:

    python3 bench/record.py

Expected values come from the library at the commit this runs on.  Every
witness is also checked independently (an independent set whose degree sum
is |E| - value), and every brute-force candidate is cross-checked against
the exact solver.  Candidates are grouped into slots of near-equal cost so
that any seed's choice costs about the same; see ``workloads.py``.
Re-record only in a change that edits the benchmark, never in one that
claims a gain.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from gate import witness_problem  # noqa: E402
from weakiasi import (  # noqa: E402
    Graph,
    SolverTimeout,
    check_theorem,
    edge_corona,
    generate,
    sparing_bruteforce,
    sparing_exact,
)
from weakiasi.theorems import THEOREM_IDS  # noqa: E402

SLOT_SIZE = 4
# (n, p, slots): the lighter classes get two slots so no single op dominates;
# 15 ops put the median and the 75th percentile inside one op's samples.
GNP_CLASSES = [
    (45, 0.10, 1), (45, 0.15, 2), (50, 0.10, 2), (50, 0.15, 2), (55, 0.10, 2),
    (55, 0.15, 2), (60, 0.10, 1), (60, 0.15, 1), (65, 0.10, 1), (65, 0.15, 1),
]
BRUTE_CLASSES = [(n, p, 1) for n in (20, 22, 24) for p in (0.06, 0.08, 0.12)]
CORONA_MONO_TARGETS = (20, 30, 40, 45, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 155)
AUDIT_RANGE_TARGET_SECS = (0.2, 0.3, 0.45, 0.55)


def _gen_seed(n: int, p: float, i: int) -> int:
    return 10_000 * n + 100 * round(100 * p) + i


def _checked(n: int, edges, result) -> dict:
    witness = list(result.witness.sorted_ids())
    problem = witness_problem(n, edges, result.value, witness)
    if problem:
        raise RuntimeError(f"recorded witness fails the gate: {problem}")
    return {"value": result.value, "witness": witness}


def _memo_bucket(nodes: int) -> int:
    """Capacity class of the solver's memo dict, which holds one entry per
    node: peak RSS steps up when the dict resizes, so one slot stays in one
    class."""
    return (3 * nodes // 2).bit_length()


def _spread(group: tuple[dict, ...], keys: tuple[str, ...]) -> float:
    if len({_memo_bucket(c["nodes"]) for c in group}) > 1:
        return float("inf")
    return max(max(c[k] for c in group) / min(c[k] for c in group) for k in keys)


def _tight_slots(cands: list[dict], keys: tuple[str, ...], count: int) -> list[list[dict]]:
    """``count`` disjoint groups of SLOT_SIZE candidates, each the group with the
    least relative spread in every key among the candidates left."""
    slots = []
    left = list(cands)
    for _ in range(count):
        best = min(itertools.combinations(left, SLOT_SIZE), key=lambda g: _spread(g, keys))
        slots.append(sorted(best, key=lambda c: c["gen_seed"]))
        left = [c for c in left if c not in best]
    return slots


def _min_cpu_secs(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def _nearest_slots(pool: list[dict], key: str, targets) -> list[list[dict]]:
    """For each target, the SLOT_SIZE unused candidates whose cost is nearest."""
    slots = []
    used: set[int] = set()
    for target in targets:
        ranked = sorted(
            (i for i in range(len(pool)) if i not in used),
            key=lambda i: (abs(pool[i][key] - target), pool[i].get("vertices", 0)),
        )[:SLOT_SIZE]
        used.update(ranked)
        slots.append([pool[i] for i in ranked])
        print(f"{key} {target}: {[pool[i][key] for i in ranked]}", file=sys.stderr)
    return slots


def record_gnp(classes, per_class: int, brute: bool) -> list[list[dict]]:
    """Slots of G(n, p) candidates matched in node (or set) count and CPU time."""
    slots = []
    for n, p, count in classes:
        cands = []
        i = 0
        while len(cands) < per_class:
            gen_seed = _gen_seed(n, p, i)
            i += 1
            edges = workloads.gnp_edges(n, p, gen_seed)
            g = Graph(n, edges)
            exact = sparing_exact(g, timeout_secs=None)
            if exact.method != "branch_and_bound" and not brute:
                continue  # gnp_search wants non-bipartite inputs only
            cand = {"n": n, "p": p, "gen_seed": gen_seed, **_checked(n, edges, exact)}
            if brute:
                result = sparing_bruteforce(g)
                if (result.value, result.witness) != (exact.value, exact.witness):
                    raise RuntimeError(f"brute force and exact disagree on {cand}")
                cand["nodes"] = result.explored
                cand["cpu_s"] = _min_cpu_secs(lambda: sparing_bruteforce(g))
            else:
                cand["nodes"] = exact.explored
                cand["cpu_s"] = _min_cpu_secs(lambda: sparing_exact(g, timeout_secs=None))
            cands.append(cand)
        for slot in _tight_slots(cands, ("nodes", "cpu_s"), count):
            print(f"{n} {p}: nodes {[c['nodes'] for c in slot]} "
                  f"cpu_s {[round(c['cpu_s'], 4) for c in slot]}", file=sys.stderr)
            slots.append(slot)
    return slots


def _corona_pool():
    firsts = (
        [("path", m) for m in range(3, 61)]
        + [("cycle", m) for m in range(3, 61)]
        + [("complete", m) for m in range(3, 10)]
        + [("complete_bipartite", a, b) for a in range(2, 6) for b in range(a, 6)]
    )
    seconds = (
        [("path", m) for m in range(2, 7)]
        + [("cycle", m) for m in range(3, 7)]
        + [("complete", m) for m in range(1, 6)]
        + [("complete_bipartite", a, b) for a in range(1, 4) for b in range(a, 4)]
    )
    for g1 in firsts:
        n1, e1 = workloads.family_edges(*g1)
        for g2 in seconds:
            n2, _e2 = workloads.family_edges(*g2)
            if 50 <= n1 + len(e1) * n2 <= 300:
                yield g1, g2


def record_corona() -> list[list[dict]]:
    pool = []
    for g1, g2 in _corona_pool():
        product, _prov = edge_corona(generate(g1[0], g1[1:]), generate(g2[0], g2[1:]))
        try:
            result = sparing_exact(product, timeout_secs=1.0)
        except SolverTimeout:
            continue
        pool.append({
            "g1": list(g1),
            "g2": list(g2),
            "value": result.value,
            "mono_vertices": product.vertex_count - len(result.witness.non_mono),
            "vertices": product.vertex_count,
        })
    return _nearest_slots(pool, "mono_vertices", CORONA_MONO_TARGETS)


def _rows(report) -> list:
    return [
        [row["params"], row["oracle_value"], row["oracle_witness"], row["agree"]]
        for row in report.to_json_dict()["rows"]
    ]


def _audit_range_candidates():
    bounds = {
        "EC_PP": (2, 8, 2, 7), "EC_PC": (2, 8, 3, 7), "EC_CP": (3, 8, 2, 7),
        "EC_CC": (3, 7, 3, 6), "EC_PK": (2, 8, 1, 6), "EC_CK": (3, 8, 1, 6),
    }
    for tid, (m_lo, m_hi, n_lo, n_hi) in bounds.items():
        for m in range(m_lo, m_hi):
            for n in range(n_lo, n_hi - 1):
                yield tid, [m, m + 1], [n, n + 1, n + 2]
    for n in range(1, 15):
        yield "COMPLETE", None, list(range(n, n + 5))


def record_audit() -> tuple[dict, list[list[dict]]]:
    defaults = {tid: _rows(check_theorem(tid)) for tid in THEOREM_IDS}
    cands = []
    for tid, ms, ns in _audit_range_candidates():
        report = check_theorem(tid, m_values=ms, n_values=ns)
        cost = _min_cpu_secs(lambda: check_theorem(tid, m_values=ms, n_values=ns))
        if not report.all_resolved:
            continue
        cand = {"id": tid, "n": f"{ns[0]}..{ns[-1]}", "rows": _rows(report), "cost": round(cost, 4)}
        if ms is not None:
            cand["m"] = f"{ms[0]}..{ms[-1]}"
        cands.append(cand)
    return defaults, _nearest_slots(cands, "cost", AUDIT_RANGE_TARGET_SECS)


def main() -> None:
    expected = {"gnp_search": record_gnp(GNP_CLASSES, 20, brute=False)}
    expected["corona_label"] = record_corona()
    expected["audit_defaults"], expected["audit_ranges"] = record_audit()
    expected["audit_bruteforce"] = record_gnp(BRUTE_CLASSES, 12, brute=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
