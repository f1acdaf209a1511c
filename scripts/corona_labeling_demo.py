#!/usr/bin/env python3
"""End-to-end demo: build an edge corona, solve it, and emit a certified
optimal labeling plus a DOT rendering.

Example:
  python scripts/corona_labeling_demo.py --family1 cycle --size1 5 \
      --family2 cycle --size2 3 --out-dir demo_out
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from weakiasi import (
    construct_optimal,
    count_mono_elements,
    edge_corona,
    generate,
    to_dot,
    write_edge_list,
)
from weakiasi.cli import EX_OK, ArgumentParser, emit_json, run_reporting_errors


def main(argv: list[str] | None = None) -> int:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family1", default="cycle")
    parser.add_argument("--size1", type=int, default=5)
    parser.add_argument("--family2", default="cycle")
    parser.add_argument("--size2", type=int, default=3)
    parser.add_argument("--out-dir", type=Path, default=Path("demo_out"))
    return run_reporting_errors(lambda: _demo(parser.parse_args(argv)))


def _demo(args: argparse.Namespace) -> int:
    g1 = generate(args.family1, (args.size1,))
    g2 = generate(args.family2, (args.size2,))
    product, provenance = edge_corona(g1, g2)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    print(
        f"{args.family1}({args.size1}) corona {args.family2}({args.size2}): "
        f"{product.vertex_count} vertices, {product.edge_count} edges"
    )

    result, labeling = construct_optimal(product)
    mono_vertices, mono_edges = count_mono_elements(product, labeling)
    print(f"sparing number {result.value} ({result.method}, {result.explored} nodes)")
    print(f"labeling: {mono_vertices} mono vertices, {mono_edges} mono edges")

    (args.out_dir / "corona.txt").write_text(write_edge_list(product))
    emit_json(provenance.to_json_dict(), args.out_dir / "provenance.json")
    emit_json(result.to_json_dict(), args.out_dir / "result.json")
    emit_json(labeling.to_json_dict(), args.out_dir / "labeling.json")
    (args.out_dir / "corona.dot").write_text(to_dot(product, labeling))
    print(f"wrote corona.txt, provenance.json, result.json, labeling.json, corona.dot to {args.out_dir}/")
    return EX_OK


if __name__ == "__main__":
    sys.exit(main())
