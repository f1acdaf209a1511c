"""Command-line surface: generation, corona products, solving, labeling,
verification, and the theorem audit.

Exit codes: 0 success, 2 malformed input, 3 resource limit (a timeout,
the recursion limit, running out of memory, or an unresolved audit row), 4
internal failure (a labeling that fails certification, or any other
defect); each failure is one ``error:`` line on standard error.
JSON goes to standard output; human-readable tables go to standard error
under --verbose.  All output is deterministic except ``elapsed_secs``
fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable

from .graph_io import read_edge_list, to_dot, write_edge_list
from .graphs import FAMILIES, Graph, edge_corona, generate, gnp_random_graph
from .labeler import construct_optimal, construct_weak_iasi
from .setlabels import VertexLabeling, verify
from .solver import (
    DEFAULT_TIMEOUT_SECS,
    MonoPattern,
    ResourceLimitError,
    sparing_bruteforce,
    sparing_exact,
)
from .theorems import THEOREM_IDS, check_theorem

EX_OK = 0
EX_INPUT = 2
EX_RESOURCE = 3
EX_INTERNAL = 4


def _emit(text: str, out: str | Path | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def emit_json(payload: dict, out: str | Path | None = None) -> None:
    """Write ``payload`` as indented, key-sorted JSON to ``out`` or stdout."""
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _read_graph(path: str) -> Graph:
    return read_edge_list(Path(path).read_text())


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate JSON key {key!r}")
        data[key] = value
    return data


def _read_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_labeling(path: str) -> VertexLabeling:
    return VertexLabeling.from_json_dict(_read_json(path))


def _read_pattern(path: str) -> MonoPattern:
    return MonoPattern.from_json_dict(_read_json(path))


def _check_inputs_exist(args: argparse.Namespace) -> None:
    for attr in ("graph", "g1", "g2", "labeling", "pattern"):
        path = getattr(args, attr, None)
        # exists(), not is_file(): a pipe such as /dev/fd/63 is readable input
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"input file not found: {path}")


def _parse_range(text: str) -> list[int]:
    """'2..5' -> [2, 3, 4, 5]; a bare integer is a single point."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "random":
        if len(args.params) != 1:
            raise ValueError("random takes one parameter: the vertex count")
        graph = gnp_random_graph(args.params[0], args.p, args.seed)
    else:
        graph = generate(args.family, args.params)
    _emit(write_edge_list(graph), args.out)
    return EX_OK


def _cmd_corona(args: argparse.Namespace) -> int:
    g1 = _read_graph(args.g1)
    g2 = _read_graph(args.g2)
    product, provenance = edge_corona(g1, g2)
    Path(args.out_graph).write_text(write_edge_list(product))
    emit_json(provenance.to_json_dict(), args.out_provenance)
    if args.verbose:
        print(
            f"corona: {product.vertex_count} vertices, {product.edge_count} edges",
            file=sys.stderr,
        )
    return EX_OK


# each --method and the unit of its result's ``explored`` count
_SPARING_METHODS = {"exact": "nodes", "bruteforce": "sets"}


def _cmd_sparing(args: argparse.Namespace) -> int:
    # the solver is looked up as the command runs: a tracer rebinds its name
    solve = sparing_exact if args.method == "exact" else sparing_bruteforce
    result = solve(_read_graph(args.graph), args.timeout_secs)
    emit_json(result.to_json_dict())
    if args.verbose:
        print(
            f"sparing number {result.value} via {result.method}, "
            f"{result.explored} {_SPARING_METHODS[args.method]}",
            file=sys.stderr,
        )
    return EX_OK


def _cmd_label(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    if args.pattern:
        labeling = construct_weak_iasi(graph, _read_pattern(args.pattern), args.timeout_secs)
    else:
        _result, labeling = construct_optimal(graph, timeout_secs=args.timeout_secs)
    emit_json(labeling.to_json_dict(), args.out)
    return EX_OK


def _cmd_verify_labeling(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    labeling = _read_labeling(args.labeling)
    verdict = verify(graph, labeling)
    emit_json(verdict.to_json_dict())
    return EX_OK


def _cmd_check_theorems(args: argparse.Namespace) -> int:
    start = time.monotonic()
    report = check_theorem(
        args.id,
        m_values=_parse_range(args.m) if args.m else None,
        n_values=_parse_range(args.n) if args.n else None,
        timeout_secs=args.timeout_secs,
    )
    payload = report.to_json_dict()
    payload["elapsed_secs"] = time.monotonic() - start
    emit_json(payload, args.out)
    if args.verbose:
        print(report.render_text(), file=sys.stderr, end="")
    return EX_OK if report.all_resolved else EX_RESOURCE


def _cmd_export_dot(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    labeling = _read_labeling(args.labeling) if args.labeling else None
    _emit(to_dot(graph, labeling), args.out)
    return EX_OK


class ArgumentParser(argparse.ArgumentParser):
    """argparse without option prefixes, whose usage errors (its subcommands'
    too) raise ValueError: ``run_reporting_errors`` prints one line, exit 2."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="weakiasi",
        description="Sparing numbers, weak set-indexer labelings, and the "
        "edge-corona theorem audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family member as an edge list")
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("family", choices=list(FAMILIES) + ["random"])
    p.add_argument("params", type=int, nargs="+", help="family parameters")
    p.add_argument("--p", type=float, default=0.3, help="edge probability (random)")
    p.add_argument("--seed", type=int, default=0, help="seed (random)")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("corona", help="edge corona of two graphs")
    p.set_defaults(handler=_cmd_corona)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-provenance", required=True)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("sparing", help="exact sparing number of a graph")
    p.set_defaults(handler=_cmd_sparing)
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=list(_SPARING_METHODS), default="exact")
    p.add_argument("--timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("label", help="construct a verified weak set-indexer")
    p.set_defaults(handler=_cmd_label)
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", help="pattern JSON; default: solve for the optimum")
    p.add_argument("--timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("verify-labeling", help="check a labeling JSON against a graph")
    p.set_defaults(handler=_cmd_verify_labeling)
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True)

    p = sub.add_parser("check-theorems", help="audit a closed form against the oracle")
    p.set_defaults(handler=_cmd_check_theorems)
    p.add_argument("--id", required=True, help=f"one of: {', '.join(THEOREM_IDS)}")
    p.add_argument("--m", help="range like 2..5 (family theorems)")
    p.add_argument("--n", help="range like 2..5")
    p.add_argument("--timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("export-dot", help="DOT rendering, optionally labeled")
    p.set_defaults(handler=_cmd_export_dot)
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling")
    p.add_argument("--out", help="output path (default: stdout)")

    return parser


def run_reporting_errors(action: Callable[[], int]) -> int:
    """``action()``'s exit code, or one ``error:`` line and the failure's code."""
    try:
        return action()
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a SolverTimeout is also an OSError, but it is a limit, not bad input
        return EX_RESOURCE if isinstance(exc, ResourceLimitError) else EX_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EX_RESOURCE
    except Exception as exc:
        # a defect, such as a labeling that fails its own certification
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


def main(argv: list[str] | None = None) -> int:
    def run() -> int:
        args = build_parser().parse_args(argv)
        _check_inputs_exist(args)
        return args.handler(args)

    return run_reporting_errors(run)


if __name__ == "__main__":
    sys.exit(main())
