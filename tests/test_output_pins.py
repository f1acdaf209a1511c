"""Byte pins of the JSON records the CLI writes and of verify's diagnostics.

The digests were recorded before the records' key lists were derived from
their dataclass fields, so they hold the serialized bytes in place; the
sorted key lists are the written contract of each derived record.
"""

import hashlib
import json
from pathlib import Path

import pytest

from weakiasi import (
    Graph,
    SetLabel,
    VertexLabeling,
    cycle_graph,
    edge_corona,
    sparing_exact,
    verify,
)
from weakiasi.cli import main
from weakiasi.theorems import TheoremRow


def labeling(*labels):
    return VertexLabeling({v: SetLabel(tuple(xs)) for v, xs in enumerate(labels)})


# One labeling per violation kind, plus one with a weak-condition failure on a
# later edge than an edge collision: the weak condition is still reported.
VIOLATIONS = {
    "vertex": (
        Graph(2, ((0, 1),)),
        labeling([1], [1]),
        "vertices 0 and 1 share label {1}",
    ),
    "weak": (
        Graph(2, ((0, 1),)),
        labeling([0, 1], [0, 2]),
        "edge (0, 1) sumset {0,1,2,3} has size 4, expected 2",
    ),
    "edge": (
        Graph(4, ((0, 1), (2, 3))),
        labeling([0], [3], [1], [2]),
        "edges (0, 1) and (2, 3) share sumset {3}",
    ),
    "weak-before-edge": (
        Graph(6, ((0, 1), (2, 3), (4, 5))),
        labeling([0], [3], [1], [2], [10, 11], [20, 22]),
        "edge (4, 5) sumset {30,31,32,33} has size 4, expected 2",
    ),
}


@pytest.mark.parametrize("kind", list(VIOLATIONS))
def test_first_violation_text_is_exact(kind):
    g, f, text = VIOLATIONS[kind]
    verdict = verify(g, f)
    assert not verdict.is_weak_iasi
    assert verdict.first_violation == text


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    """Graph, product and labeling files for the pinned commands."""
    files = {
        "c5": _write(tmp_path / "c5.txt", "5\n0 1\n1 2\n2 3\n3 4\n0 4\n"),
        "c3": _write(tmp_path / "c3.txt", "3\n0 1\n1 2\n0 2\n"),
        "p4": _write(tmp_path / "p4.txt", "4\n0 1\n1 2\n2 3\n"),
        "product": str(tmp_path / "product.txt"),
        "provenance": str(tmp_path / "prov.json"),
        "labeling": str(tmp_path / "labeling.json"),
    }
    assert main([
        "corona", "--g1", files["c5"], "--g2", files["c3"],
        "--out-graph", files["product"], "--out-provenance", files["provenance"],
    ]) == 0
    assert main(["label", "--graph", files["product"], "--out", files["labeling"]]) == 0
    for kind, (g, f, _text) in VIOLATIONS.items():
        edges = "".join(f"{u} {v}\n" for u, v in g.edges)
        files[f"{kind}-graph"] = _write(tmp_path / f"{kind}.txt", f"{g.vertex_count}\n{edges}")
        files[f"{kind}-labeling"] = _write(tmp_path / f"{kind}.json", json.dumps(f.to_json_dict()))
    return files


def _verify_argv(kind):
    return ["verify-labeling", "--graph", f"{{{kind}-graph}}", "--labeling", f"{{{kind}-labeling}}"]


# command name -> (argv with file keys in braces, SHA-256 of stdout without
# its "elapsed_secs" line); the provenance entry hashes the written file.
CLI_DIGESTS = {
    "sparing-exact": (
        ["sparing", "--graph", "{product}"],
        "18ba4274c428e7780cc23d0506d248043d2a46a3ba846a2974c67e2deda40760",
    ),
    "sparing-bipartite": (
        ["sparing", "--graph", "{p4}"],
        "ddfa8d9593381b755f1ece48064ef352fd5f3ce3bd3308cdc9d53bbe6cc3712d",
    ),
    "sparing-bruteforce": (
        ["sparing", "--graph", "{product}", "--method", "bruteforce"],
        "914e37c541155822d0fd8242cfc9e1fdc871937c310639dab729f8ea78bbd3a4",
    ),
    "corona-provenance": (
        None,
        "66451b844c28dda5a5ccbf91cfbf1b4e10c860c02bba8fbad29857eae53fd6d5",
    ),
    "label": (
        ["label", "--graph", "{product}"],
        "82a8a5be49f0ccf45fd2dc5a55a58cb38b592c817398461c7f341c87d99514cf",
    ),
    "verify-valid": (
        ["verify-labeling", "--graph", "{product}", "--labeling", "{labeling}"],
        "8aab403696192c773dd989318f41fb1687dfe7ae4510c33fd1e359f7212ca24f",
    ),
    "verify-vertex": (
        _verify_argv("vertex"),
        "caf5e08f07fe19a363b0b37c83eab2488cc71623d964393cc25e830b4d236521",
    ),
    "verify-weak": (
        _verify_argv("weak"),
        "58e0b13ae7902774cc35f9428c9771bf358b6bf9081690fb94092189d40e2686",
    ),
    "verify-edge": (
        _verify_argv("edge"),
        "6a188aa77263b02d83ad77c9e98e023c9086f3000663ecc1d08d299b431b2657",
    ),
    "verify-weak-before-edge": (
        _verify_argv("weak-before-edge"),
        "d7c6a1e487c07e0aef5d306fdc664a7969650a2938d1c1c04e65657caa6e6066",
    ),
}


@pytest.mark.parametrize("name", list(CLI_DIGESTS))
def test_cli_json_bytes_are_pinned(name, inputs, capsys):
    argv, digest = CLI_DIGESTS[name]
    capsys.readouterr()
    if argv is None:
        text = Path(inputs["provenance"]).read_text()
    else:
        assert main([arg.format(**inputs) for arg in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        text = captured.out
    lines = text.splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith('  "elapsed_secs": '))
    assert len(lines) - len(kept.splitlines()) == (name.startswith("sparing"))
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_derived_record_keys_are_pinned():
    g, provenance = edge_corona(cycle_graph(3), cycle_graph(3))
    verdict = verify(*VIOLATIONS["vertex"][:2])
    records = {
        "SparingResult": sparing_exact(g),
        "IASIVerdict": verdict,
        "TheoremRow": TheoremRow({"n": 3}, 1, oracle_value=1, oracle_witness=(0,)),
        "CoronaProvenance": provenance,
    }
    keys = {name: sorted(record.to_json_dict()) for name, record in records.items()}
    assert keys == {
        "SparingResult": ["elapsed_secs", "explored", "method", "value", "witness"],
        "IASIVerdict": [
            "edge_injective", "first_violation", "is_weak_iasi", "mono_edge_count",
            "mono_vertex_count", "vertex_injective", "weak_condition",
        ],
        "TheoremRow": [
            "agree", "bruteforce_value", "formula_value", "oracle_value",
            "oracle_witness", "params", "unresolved", "variant_value",
        ],
        "CoronaProvenance": ["base", "copies"],
    }
