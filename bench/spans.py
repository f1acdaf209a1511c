"""Per-layer tracing from outside the program.

The layers are the ``weakiasi`` modules.  ``install`` wraps each target
function at every ``weakiasi.*`` module attribute that binds it (so
``labeler.verify`` and ``cli.verify`` are both traced) and returns a
function that restores the originals.  A wrapper records a span - name,
start, end, parent span, op id - and a few counts read from the call's
arguments and result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# probe(attrs, args, kwargs, result) adds counts to a span.
Probe = Callable[[dict, tuple, dict, object], None]


def _count(key: str, measure: Callable) -> Probe:
    def probe(attrs, args, kwargs, result):
        attrs[key] = attrs.get(key, 0) + measure(args, kwargs, result)
    return probe


def _sparing_exact(attrs, args, kwargs, result):
    attrs["nodes"] = result.explored
    attrs["shortcut"] = int(result.method == "bipartite_shortcut")


def _sidon(attrs, args, kwargs, result):
    attrs["terms"] = len(result.terms)
    attrs["max_term"] = result.terms[-1]


def _check_theorem(attrs, args, kwargs, result):
    attrs["rows"] = len(result.rows)
    attrs["findings"] = result.disagree_count
    attrs["unresolved"] = result.unresolved_count


# layer -> {function name: probe or None}
TARGETS: dict[str, dict[str, Probe | None]] = {
    "cli": {"main": _count("exit_nonzero", lambda a, k, r: int(r != 0))},
    "graph_io": {
        "read_edge_list": _count("bytes", lambda a, k, r: len(a[0])),
        "write_edge_list": None,
    },
    "graphs": {
        "edge_corona": _count("vertices_out", lambda a, k, r: r[0].vertex_count),
        "is_bipartite": None,
    },
    "solver": {
        "sparing_exact": _sparing_exact,
        "sparing_bruteforce": _count("sets", lambda a, k, r: r.explored),
        "min_mono_vertices": None,
    },
    "labeler": {"sidon": _sidon, "construct_weak_iasi": None, "construct_optimal": None},
    "setlabels": {
        "verify": _count("edges", lambda a, k, r: a[0].edge_count),
        "count_mono_elements": None,
    },
    "theorems": {"check_theorem": _check_theorem},
}

# (metric, unit, better) for every per-layer metric the traced run reports.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.exit_nonzero", "count", "lower"),
    ("graph_io.read_edge_list.self_s", "s", "lower"),
    ("graph_io.read_edge_list.calls", "count", "lower"),
    ("graph_io.read_edge_list.bytes", "B", "lower"),
    ("graph_io.write_edge_list.self_s", "s", "lower"),
    ("graph_io.write_edge_list.calls", "count", "lower"),
    ("graphs.edge_corona.self_s", "s", "lower"),
    ("graphs.edge_corona.calls", "count", "lower"),
    ("graphs.edge_corona.vertices_out", "count", "lower"),
    ("graphs.is_bipartite.self_s", "s", "lower"),
    ("graphs.is_bipartite.calls", "count", "lower"),
    ("solver.sparing_exact.self_s", "s", "lower"),
    ("solver.sparing_exact.calls", "count", "lower"),
    ("solver.sparing_exact.nodes", "count", "lower"),
    ("solver.sparing_exact.nodes_per_s", "1/s", "higher"),
    ("solver.sparing_exact.shortcut_share", "ratio", "higher"),
    ("solver.sparing_exact.timeouts", "count", "lower"),
    ("solver.sparing_bruteforce.self_s", "s", "lower"),
    ("solver.sparing_bruteforce.calls", "count", "lower"),
    ("solver.sparing_bruteforce.sets", "count", "lower"),
    ("solver.min_mono_vertices.self_s", "s", "lower"),
    ("solver.min_mono_vertices.calls", "count", "lower"),
    ("labeler.sidon.self_s", "s", "lower"),
    ("labeler.sidon.calls", "count", "lower"),
    ("labeler.sidon.terms", "count", "lower"),
    ("labeler.sidon.max_term", "count", "lower"),
    ("labeler.construct_weak_iasi.self_s", "s", "lower"),
    ("labeler.construct_weak_iasi.calls", "count", "lower"),
    ("labeler.construct_weak_iasi.verify_calls", "count", "lower"),
    ("labeler.construct_weak_iasi.useful_per_attempt", "ratio", "higher"),
    ("labeler.construct_optimal.self_s", "s", "lower"),
    ("labeler.construct_optimal.calls", "count", "lower"),
    ("setlabels.verify.self_s", "s", "lower"),
    ("setlabels.verify.calls", "count", "lower"),
    ("setlabels.verify.edges", "count", "lower"),
    ("setlabels.count_mono_elements.self_s", "s", "lower"),
    ("setlabels.count_mono_elements.calls", "count", "lower"),
    ("theorems.check_theorem.self_s", "s", "lower"),
    ("theorems.check_theorem.calls", "count", "lower"),
    ("theorems.check_theorem.rows", "count", "lower"),
    ("theorems.check_theorem.findings", "count", "lower"),
    ("theorems.check_theorem.unresolved", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
            "start": self.start, "end": self.end, "error": self.error, **self.attrs,
        }


class Tracer:
    """Collects spans while ``enabled``; ``op`` tags every span with its op id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.op: str | None = None
        self._stack: list[Span] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(
                id=len(self.spans), name=name, op=self.op,
                parent=self._stack[-1].id if self._stack else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                probe(span.attrs, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target at every binding in ``weakiasi``; return the undo."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "weakiasi" or name.startswith("weakiasi."))]
    patched: list[tuple[object, str, object]] = []
    for layer, functions in TARGETS.items():
        module = sys.modules[f"weakiasi.{layer}"]
        for fn_name, probe in functions.items():
            original = getattr(module, fn_name)
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore() -> None:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)

    return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child.get(s.id, 0.0) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass, every name in LAYER_METRICS but the overhead."""
    metrics = {name: 0 for name, _unit, _better in LAYER_METRICS if name != "trace.overhead_s"}
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    useful = shortcuts = 0
    for s in spans:
        metrics[f"{s.name}.self_s"] += selfs[s.id]
        metrics[f"{s.name}.calls"] += 1
        for key, value in s.attrs.items():
            metric = f"{s.name}.{key}"
            if key == "shortcut":
                shortcuts += value
            elif key == "max_term":
                metrics[metric] = max(metrics[metric], value)
            else:
                metrics[metric] += value
        if s.error is not None:
            if s.name == "cli.main":
                metrics["cli.main.exit_nonzero"] += 1
            elif s.name == "solver.sparing_exact" and s.error == "SolverTimeout":
                metrics["solver.sparing_exact.timeouts"] += 1
        if s.name == "setlabels.verify" and s.parent is not None \
                and by_id[s.parent].name == "labeler.construct_weak_iasi":
            metrics["labeler.construct_weak_iasi.verify_calls"] += 1
        if s.name == "labeler.construct_weak_iasi" and s.error is None:
            useful += 1
    exact = "solver.sparing_exact"
    # nodes_per_s: base is the solver's own self time (is_bipartite excluded).
    if metrics[f"{exact}.self_s"] > 0:
        metrics[f"{exact}.nodes_per_s"] = metrics[f"{exact}.nodes"] / metrics[f"{exact}.self_s"]
    if metrics[f"{exact}.calls"]:
        metrics[f"{exact}.shortcut_share"] = shortcuts / metrics[f"{exact}.calls"]
    attempts = metrics["labeler.construct_weak_iasi.verify_calls"]
    if attempts:
        metrics["labeler.construct_weak_iasi.useful_per_attempt"] = useful / attempts
    return metrics
