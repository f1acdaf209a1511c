"""Seeded inputs and op lists for the four benchmark workloads.

Every input is produced here, by this module's own generators and RNG, from
the workload name and the ``--seed`` argument; the program under test only
ever sees the files written from these specs.  A workload is a fixed list
of *slots*.  Each slot holds a few candidate inputs of near-equal cost that
``record.py`` measured and stored, with their expected outputs, in
``expected.json``; the seed picks one candidate per slot and the order of
the ops.  Different seeds therefore give different inputs of the same total
cost, so seed-to-seed spread stays small.

Workload notes (why each exists, what it is predicted to move):

* ``gnp_search``: ``sparing`` on non-bipartite G(n, p), n in 45..65,
  p in {0.10, 0.15}.  Branch-and-bound node count is almost all of the
  time; a bound or a reduction in the solver shows here, while the labeler
  and brute force stay idle.
* ``sparse_long``: ``sparing`` on long paths (120..337 vertices), long odd
  cycles (101..227 vertices) and disjoint unions of 50..307 and of 1,100
  triangles.  Node counts stay tiny, so per-node cost (the O(n * diameter)
  component scan), recursion depth and witness reconstruction dominate;
  pruning is predicted to change nothing.
  The 1,100-triangle union is kept on purpose: it raises RecursionError
  today and is counted as a failed op.  ``path_graph(1200)`` (about 86 s)
  and G(100, 0.1) (a 60 s timeout) are left out only because of run cost;
  the O(n * diameter) defect still shows on the 300+ vertex paths.
* ``corona_label``: the paper's pipeline ``corona`` -> ``label`` ->
  ``verify-labeling`` on factor pairs drawn from path, cycle, complete and
  complete-bipartite graphs, products of about 50..300 vertices.  The
  write side: ``labeler.sidon``, ``edge_corona``, ``graph_io`` and
  ``setlabels.verify`` do the work and the solver almost none.  Sidon cost
  grows steeply with the number of mono vertices, so slots are formed by
  mono-vertex count.
* ``audit``: ``check-theorems`` for all 12 registry ids, seeded wider
  ``--m/--n`` family ranges, and ``sparing --method bruteforce`` on graphs
  of at most 24 vertices.  The only user of ``sparing_bruteforce`` and
  ``theorems``.

All four run as a closed loop with one client: the next op starts when the
previous one has finished, in a single thread.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("gnp_search", "sparse_long", "corona_label", "audit")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# sparse_long slots: (family, base size); the seed adds a small offset.
_SPARSE_SLOTS = (
    ("path", 120), ("path", 150), ("path", 200), ("path", 260), ("path", 330),
    ("cycle", 101), ("cycle", 131), ("cycle", 161), ("cycle", 191), ("cycle", 221),
    ("triangles", 50), ("triangles", 100), ("triangles", 200), ("triangles", 300),
    ("triangles", 1100),
)

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Op:
    """One user action: one or more CLI invocations and what they must produce.

    ``files`` maps a file name to the text written before the first op;
    in ``calls``, an argument ``@name`` stands for that file's path in the
    work directory.  ``expect`` is what the correctness gate checks.
    """

    name: str
    kind: str  # "sparing", "pipeline" or "audit"
    calls: tuple[tuple[str, ...], ...]
    files: dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The benchmark's own graph generators and edge-list writer
# ---------------------------------------------------------------------------

def gnp_edges(n: int, p: float, gen_seed: int) -> Edges:
    rng = random.Random(gen_seed)
    return tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )


def family_edges(family: str, *params: int) -> tuple[int, Edges]:
    """(vertex count, canonical edges) of a named family member."""
    if family == "path":
        (m,) = params
        return m, tuple((i, i + 1) for i in range(m - 1))
    if family == "cycle":
        (m,) = params
        return m, tuple(sorted([(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]))
    if family == "complete":
        (m,) = params
        return m, tuple((u, v) for u in range(m) for v in range(u + 1, m))
    if family == "complete_bipartite":
        a, b = params
        return a + b, tuple((u, a + v) for u in range(a) for v in range(b))
    if family == "triangles":
        (k,) = params
        return 3 * k, tuple(
            e for i in range(k)
            for e in ((3 * i, 3 * i + 1), (3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 2))
        )
    raise ValueError(f"unknown family {family!r}")


def edge_list_text(n: int, edges: Edges) -> str:
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def sparse_expected(family: str, size: int) -> tuple[int, list[int]]:
    """Sparing value and lex-min witness, known in closed form.

    A path is bipartite (value 0) and its only edge-covering independent
    sets are its two colour classes; the even class is lex-smaller.  An odd
    cycle needs one mono edge and {0, 2, ..., n-3} is the lex-first maximum
    independent set.  Each triangle keeps one mono edge and contributes its
    smallest vertex.
    """
    if family == "path":
        return 0, list(range(0, size, 2))
    if family == "cycle":
        return 1, list(range(0, size - 1, 2))
    if family == "triangles":
        return size, list(range(0, 3 * size, 3))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------

def _sparing_op(name: str, n: int, edges: Edges, value: int, witness: list[int],
                method: str | None = None) -> Op:
    call = ("sparing", "--graph", "@g.txt")
    if method is not None:
        call += ("--method", method)
    return Op(
        name=name,
        kind="sparing",
        calls=(call,),
        files={"g.txt": edge_list_text(n, edges)},
        expect={"n": n, "edges": edges, "value": value, "witness": witness},
    )


def _gnp_op(cand: dict, method: str | None = None) -> Op:
    n, p, gen_seed = cand["n"], cand["p"], cand["gen_seed"]
    return _sparing_op(
        f"gnp n={n} p={p} gen={gen_seed}", n, gnp_edges(n, p, gen_seed),
        cand["value"], cand["witness"], method,
    )


def _corona_op(cand: dict) -> Op:
    (f1, *p1), (f2, *p2) = cand["g1"], cand["g2"]
    n1, e1 = family_edges(f1, *p1)
    n2, e2 = family_edges(f2, *p2)
    m1 = len(e1)
    return Op(
        name=f"corona {f1}{p1} x {f2}{p2}",
        kind="pipeline",
        calls=(
            ("corona", "--g1", "@g1.txt", "--g2", "@g2.txt",
             "--out-graph", "@prod.txt", "--out-provenance", "@prov.json"),
            ("label", "--graph", "@prod.txt", "--out", "@lab.json"),
            ("verify-labeling", "--graph", "@prod.txt", "--labeling", "@lab.json"),
        ),
        files={"g1.txt": edge_list_text(n1, e1), "g2.txt": edge_list_text(n2, e2)},
        expect={
            "vertices": n1 + m1 * n2,
            "edge_count": m1 + m1 * len(e2) + 2 * m1 * n2,
            "value": cand["value"],
            "mono_vertices": cand["mono_vertices"],
        },
    )


def _audit_op(theorem_id: str, rows: list, m: str | None = None, n: str | None = None) -> Op:
    call = ("check-theorems", "--id", theorem_id)
    if m is not None:
        call += ("--m", m)
    if n is not None:
        call += ("--n", n)
    return Op(
        name=" ".join(call[1:]),
        kind="audit",
        calls=(call,),
        expect={"rows": rows},
    )


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass, fully determined by (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    expected = json.loads(EXPECTED_PATH.read_text())
    if workload == "gnp_search":
        ops = [_gnp_op(rng.choice(slot)) for slot in expected["gnp_search"]]
    elif workload == "sparse_long":
        ops = []
        for family, base in _SPARSE_SLOTS:
            if family == "triangles" and base == 1100:
                size = base  # the known RecursionError input, kept as is
            elif family == "cycle":
                size = base + 2 * rng.randrange(4)
            else:
                size = base + rng.randrange(8)
            n, edges = family_edges(family, size)
            value, witness = sparse_expected(family, size)
            ops.append(_sparing_op(f"{family} {size}", n, edges, value, witness))
    elif workload == "corona_label":
        ops = [_corona_op(rng.choice(slot)) for slot in expected["corona_label"]]
    else:
        ops = [_audit_op(tid, rows) for tid, rows in expected["audit_defaults"].items()]
        for slot in expected["audit_ranges"]:
            cand = rng.choice(slot)
            ops.append(_audit_op(cand["id"], cand["rows"], cand.get("m"), cand.get("n")))
        for slot in expected["audit_bruteforce"]:
            ops.append(_gnp_op(rng.choice(slot), method="bruteforce"))
    rng.shuffle(ops)
    return ops
