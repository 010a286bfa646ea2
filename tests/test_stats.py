"""`pathcirc stats`, and the input bound on circuit documents."""

from __future__ import annotations

import json
from random import Random

import pytest

from helpers import de_bruijn, random_multigraph
from pathcirc import Circuit, and_gate, to_json
from pathcirc.cli import main


def stats(path, capsys) -> dict:
    assert main(["stats", "--circuit", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    return json.loads(out)


# The snark circuits of the benchmark's three workloads, and their sizes
# as the benchmark records them.
WORKLOADS = {
    "long-walk": (lambda: de_bruijn(3), 8, None, dict(
        inputs=48, gates=2_027, wires=3_065, nand_gates=1_037, nand_depth=26,
        bristol_gates=740,
        bristol_by_op={"AND": 311, "XOR": 292, "INV": 137, "EQ": 0, "EQW": 0},
        gates_by_kind={"NAND": 1_037, "COPY": 990, "TRUE": 0, "FALSE": 0})),
    "wide-graph": (lambda: random_multigraph(32, 64, Random(1909)), 1, None, dict(
        inputs=19, gates=950, wires=1_435, nand_gates=484, nand_depth=27,
        bristol_gates=404,
        bristol_by_op={"AND": 162, "XOR": 190, "INV": 52, "EQ": 0, "EQW": 0},
        gates_by_kind={"NAND": 484, "COPY": 466, "TRUE": 0, "FALSE": 0})),
    "universal": (None, 2, (2, 2), dict(
        inputs=24, gates=1_047, wires=1_583, nand_gates=535, nand_depth=29,
        bristol_gates=366,
        bristol_by_op={"AND": 203, "XOR": 86, "INV": 77, "EQ": 0, "EQW": 0},
        gates_by_kind={"NAND": 535, "COPY": 512, "TRUE": 0, "FALSE": 0})),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stats_of_the_benchmark_snark_circuits(name, tmp_path, capsys):
    graph, k, capacity, expected = WORKLOADS[name]
    verifier, snark = tmp_path / "verifier.json", tmp_path / "snark.json"
    if capacity:
        m, n = capacity
        argv = ["compile-universal", "--max-edges", str(m), "--max-vertices", str(n)]
        kind = "zkp"
    else:
        (tmp_path / "graph.json").write_text(json.dumps(graph()), encoding="utf-8")
        argv = ["compile", "--graph", str(tmp_path / "graph.json")]
        kind = "kp"
    assert main(argv + ["--length", str(k), "--out", str(verifier)]) == 0
    assert main(["snarkize", "--circuit", str(verifier), "--kind", kind,
                 "--out", str(snark)]) == 0
    assert stats(snark, capsys) == {"outputs": 1, **expected}


def test_stats_of_an_empty_circuit(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(to_json(Circuit(0, ())), encoding="utf-8")
    assert stats(path, capsys) == {
        "inputs": 0, "outputs": 0, "gates": 0, "wires": 0, "nand_gates": 0, "nand_depth": 0,
        "bristol_gates": 0, "bristol_by_op": {"AND": 0, "XOR": 0, "INV": 0, "EQ": 0, "EQW": 0},
        "gates_by_kind": {"NAND": 0, "COPY": 0, "TRUE": 0, "FALSE": 0}}


def test_stats_of_a_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": "1"}', encoding="utf-8")
    assert main(["stats", "--circuit", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ParseError: ")


WIDE = ('{"format_version": "1", "n_inputs": 1000000, "n_outputs": 2, "gates": [], '
        '"output_map": [0, 1], "metadata": {"in_width": 1, "witness_width": 999999, '
        '"out_width": 1}}')


class TestDocumentBound:
    def refused(self, capsys) -> None:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: BudgetError: ")
        assert "PATHCIRC_BUDGET=gates=N" in err

    def test_declared_inputs_over_the_gate_budget(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.json"
        path.write_text(WIDE, encoding="utf-8")
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=999999")
        assert main(["snarkize", "--circuit", str(path), "--kind", "kp",
                     "--format", "bristol"]) == 1
        self.refused(capsys)
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=1000000")
        assert main(["stats", "--circuit", str(path)]) == 0

    def test_default_budget(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(WIDE.replace("1000000", str((1 << 20) + 1)), encoding="utf-8")
        assert main(["stats", "--circuit", str(path)]) == 1
        self.refused(capsys)

    def test_gate_count_over_the_gate_budget(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "and.json"
        path.write_text(to_json(and_gate()), encoding="utf-8")
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=2")
        assert main(["eval", "--circuit", str(path), "--input", "11"]) == 1
        self.refused(capsys)
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=3")
        assert main(["eval", "--circuit", str(path), "--input", "11"]) == 0
