#!/usr/bin/env python3
"""Run the full closed-form audit and print one table per registry entry.

Every default row is solved exactly and, where the instance fits the
audit cap, re-solved by brute force (the ``brute`` column and the
``bruteforce_value`` key).  Rows where the closed form and the exact
optimum differ are findings and are listed in the summary.

--extended widens the regular-pair catalogs up to 66-vertex coronas
(e.g. the 60-vertex bipartite-times-bipartite instance); those extra rows
are exact-solver only.

Examples:
  python scripts/audit_theorems.py
  python scripts/audit_theorems.py --ids EC_PP EC_CC --json-dir reports/
  python scripts/audit_theorems.py --extended
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from weakiasi import THEOREM_IDS, check_theorem
from weakiasi.cli import EX_OK, EX_RESOURCE, ArgumentParser, emit_json, run_reporting_errors
from weakiasi.solver import DEFAULT_TIMEOUT_SECS
from weakiasi.theorems import DEFAULT_AUDIT_VERTEX_CAP


def main(argv: list[str] | None = None) -> int:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ids", nargs="+", default=list(THEOREM_IDS), choices=THEOREM_IDS)
    parser.add_argument("--json-dir", type=Path, help="write one JSON report per id")
    parser.add_argument("--timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    parser.add_argument(
        "--extended",
        action="store_true",
        help="include regular-pair coronas up to 66 vertices (no brute-force cross-check)",
    )
    return run_reporting_errors(lambda: _audit(parser.parse_args(argv)))


def _audit(args: argparse.Namespace) -> int:
    max_vertices = 66 if args.extended else DEFAULT_AUDIT_VERTEX_CAP
    if args.json_dir:
        args.json_dir.mkdir(parents=True, exist_ok=True)

    unresolved = 0
    findings = []
    start = time.perf_counter()
    for tid in args.ids:
        report = check_theorem(
            tid, timeout_secs=args.timeout_secs, max_vertices=max_vertices
        )
        print(report.render_text())
        unresolved += report.unresolved_count
        findings.extend(
            (tid, row.params, row.formula_value, row.oracle_value)
            for row in report.rows
            if not row.agree and not row.unresolved
        )
        if args.json_dir:
            emit_json(report.to_json_dict(), args.json_dir / f"{tid}.json")
    elapsed = time.perf_counter() - start

    print(f"audited {len(args.ids)} registry entries in {elapsed:.1f}s")
    if findings:
        print(f"{len(findings)} rows where the closed form and the oracle differ:")
        for tid, params, formula, oracle in findings:
            pstr = " ".join(f"{k}={v}" for k, v in params.items())
            print(f"  {tid} [{pstr}]: formula {formula}, exact optimum {oracle}")
    else:
        print("no deltas: every row agreed with the exact optimum")
    if unresolved:
        print(f"WARNING: {unresolved} rows unresolved (timeout)")
        return EX_RESOURCE
    return EX_OK


if __name__ == "__main__":
    sys.exit(main())
