"""End-to-end command-line behaviour."""

from __future__ import annotations

import json

import pytest

from bristol_ref import run_bristol
from pathcirc import (
    EdgeStep,
    Path,
    enumerate_graph,
    match_circuit,
    pad_path,
    parse_graph,
    path_verifier,
    to_json,
    universal_verifier,
)
from pathcirc.cli import main

AB_JSON = '{"vertices":["a","b"],"edges":[["e","a","b"]]}'
ABC_JSON = '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'


@pytest.fixture
def ab_graph(tmp_path):
    path = tmp_path / "ab.json"
    path.write_text(AB_JSON, encoding="utf-8")
    return str(path)


@pytest.fixture
def abc_graph(tmp_path):
    path = tmp_path / "abc.json"
    path.write_text(ABC_JSON, encoding="utf-8")
    return str(path)


class TestCompile:
    def test_compile_writes_document_with_metadata(self, ab_graph, tmp_path):
        out = tmp_path / "pv.json"
        assert main(["compile", "--graph", ab_graph, "--length", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["kind"] == "kp"
        assert doc["metadata"]["k"] == 2
        assert doc["metadata"]["vertex_codes"] == {"a": "01", "b": "10"}
        assert doc["metadata"]["edge_codes"] == {"e": "10"}
        assert doc["n_inputs"] == 2 + 2 * 2

    def test_compile_bristol(self, ab_graph, tmp_path, capsys):
        assert main(["compile", "--graph", ab_graph, "--length", "1",
                     "--format", "bristol"]) == 0
        text = capsys.readouterr().out
        # the verifier accepts (a, e) and reports flag then state bits
        assert run_bristol(text, "0110")[0] == "1"
        assert run_bristol(text, "1010")[0] == "0"

    def test_gate_budget_exceeded(self, ab_graph, capsys, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "100")
        assert main(["compile", "--graph", ab_graph, "--length", "50"]) == 1
        assert "BudgetError" in capsys.readouterr().err

    def test_budget_key_value_form(self, ab_graph, capsys, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=100,eval-width=20")
        assert main(["compile", "--graph", ab_graph, "--length", "50"]) == 1
        assert "BudgetError" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path, capsys):
        assert main(["compile", "--graph", str(tmp_path / "nope.json"),
                     "--length", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flags_exit_2(self, ab_graph):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--graph", ab_graph])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestCompileUniversal:
    def test_document_shape(self, tmp_path, capsys):
        assert main(["compile-universal", "--max-vertices", "2",
                     "--max-edges", "1", "--length", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["kind"] == "zkp"
        assert doc["metadata"]["spec_width"] == 16
        assert doc["n_inputs"] == 2 + 16 + 2


def partition(v) -> dict[str, int]:
    return {"in_width": v.in_width, "spec_width": v.spec_width,
            "witness_width": v.witness_width, "out_width": v.out_width}


class TestMetadataLayout:
    def test_compile(self, ab_graph, capsys):
        assert main(["compile", "--graph", ab_graph, "--length", "2"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert list(meta) == ["kind", "k", "in_width", "witness_width", "out_width",
                              "v_bits", "e_bits", "vertex_codes", "identity_codes",
                              "edge_codes"]
        g = parse_graph(AB_JSON)
        widths = partition(path_verifier(g, enumerate_graph(g), 2))
        assert widths.pop("spec_width") == 0
        assert {name: meta[name] for name in widths} == widths

    def test_compile_universal(self, capsys):
        assert main(["compile-universal", "--max-vertices", "2", "--max-edges", "1",
                     "--length", "2"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert list(meta) == ["kind", "k", "max_edges", "max_vertices", "in_width",
                              "spec_width", "witness_width", "out_width"]
        widths = partition(universal_verifier(1, 2, 2))
        assert {name: meta[name] for name in widths} == widths


class TestSnarkize:
    def test_kp_flow(self, ab_graph, tmp_path, capsys):
        compiled = tmp_path / "pv.json"
        wrapped = tmp_path / "sn.json"
        assert main(["compile", "--graph", ab_graph, "--length", "1",
                     "--out", str(compiled)]) == 0
        assert main(["snarkize", "--circuit", str(compiled), "--kind", "kp",
                     "--out", str(wrapped)]) == 0
        doc = json.loads(wrapped.read_text())
        assert doc["metadata"]["kind"] == "snark-kp"
        assert doc["n_outputs"] == 1
        # start a, edge e, claim b -> accept
        assert main(["eval", "--circuit", str(wrapped), "--input", "011010"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["eval", "--circuit", str(wrapped), "--input", "011001"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_readme_flow(self, ab_graph, tmp_path, capsys):
        """The README's compile, snarkize and eval example, at k = 2."""
        verifier, snark = tmp_path / "verifier.json", tmp_path / "snark.json"
        assert main(["compile", "--graph", ab_graph, "--length", "2",
                     "--out", str(verifier)]) == 0
        assert main(["snarkize", "--circuit", str(verifier), "--kind", "kp",
                     "--out", str(snark)]) == 0
        # start a, edge e, the identity step at b, claim b -> accept
        assert main(["eval", "--circuit", str(snark), "--input", "01100110"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_zkp_flow(self, tmp_path, capsys):
        compiled = tmp_path / "uv.json"
        wrapped = tmp_path / "sn.json"
        assert main(["compile-universal", "--max-vertices", "2", "--max-edges", "1",
                     "--length", "1", "--out", str(compiled)]) == 0
        assert main(["snarkize", "--circuit", str(compiled), "--kind", "zkp",
                     "--out", str(wrapped)]) == 0
        doc = json.loads(wrapped.read_text())
        assert doc["metadata"]["kind"] == "snark-zkp"
        assert doc["n_outputs"] == 1

    def test_metadata_required(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(to_json(match_circuit(2)), encoding="utf-8")
        assert main(["snarkize", "--circuit", str(bare), "--kind", "kp"]) == 1
        assert "partition" in capsys.readouterr().err


class TestEval:
    def test_match_rows(self, tmp_path, capsys):
        path = tmp_path / "match.json"
        path.write_text(to_json(match_circuit(2)), encoding="utf-8")
        assert main(["eval", "--circuit", str(path), "--input", "0101"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["eval", "--circuit", str(path), "--input", "0001"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_width_mismatch(self, tmp_path, capsys):
        path = tmp_path / "match.json"
        path.write_text(to_json(match_circuit(2)), encoding="utf-8")
        assert main(["eval", "--circuit", str(path), "--input", "01"]) == 1
        assert "WidthError" in capsys.readouterr().err

    def test_junk_input(self, tmp_path, capsys):
        path = tmp_path / "match.json"
        path.write_text(to_json(match_circuit(2)), encoding="utf-8")
        assert main(["eval", "--circuit", str(path), "--input", "01x1"]) == 1
        assert "ParseError" in capsys.readouterr().err


class TestVerifyPath:
    def test_valid_path_with_claim(self, ab_graph, capsys):
        assert main(["verify-path", "--graph", ab_graph, "--start", "a",
                     "--path", "e", "--end", "b"]) == 0
        out = capsys.readouterr().out
        assert "oracle: valid (end b)" in out
        assert "circuit: valid" in out

    def test_valid_path_without_claim(self, abc_graph, capsys):
        assert main(["verify-path", "--graph", abc_graph, "--start", "a",
                     "--path", "e1,e2"]) == 0
        assert "end c" in capsys.readouterr().out

    def test_identity_steps_in_path(self, abc_graph, capsys):
        assert main(["verify-path", "--graph", abc_graph, "--start", "a",
                     "--path", "e1,id:b,e2", "--end", "c"]) == 0

    def test_wrong_claim_rejected(self, ab_graph, capsys):
        assert main(["verify-path", "--graph", ab_graph, "--start", "a",
                     "--path", "e", "--end", "a"]) == 1
        out = capsys.readouterr().out
        assert "oracle: invalid" in out
        assert "circuit: invalid" in out

    def test_broken_chain_rejected(self, abc_graph, capsys):
        assert main(["verify-path", "--graph", abc_graph, "--start", "b",
                     "--path", "e1"]) == 1

    def test_empty_path(self, ab_graph, capsys):
        assert main(["verify-path", "--graph", ab_graph, "--start", "a"]) == 0
        assert "end a" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--start", "zz"], "unknown vertex 'zz'"),
        (["--start", "a", "--path", "nope"], "unknown edge 'nope'"),
        (["--start", "a", "--end", "zz"], "unknown vertex 'zz'"),
        # how a non-UTF-8 argument byte reaches main: surrogate-escaped
        (["--start", "\udcff"], "unknown vertex '\\udcff'"),
    ], ids=["start", "path", "end", "surrogate"])
    def test_an_unknown_name_is_its_message(self, ab_graph, capsys, flags, message):
        assert main(["verify-path", "--graph", ab_graph] + flags) == 1
        assert capsys.readouterr().err == f"error: LookupError: {message}\n"

    @pytest.mark.parametrize("argv", [["verify-path", "--start", "a", "--path", "e"],
                                      ["compile", "--length", "1"]])
    def test_a_lone_surrogate_name_is_one_error_line(self, tmp_path, capsys, argv):
        # the JSON escape decodes to a name no UTF-8 stream can print
        graph = tmp_path / "g.json"
        graph.write_text(r'{"vertices":["a","\ud800"],"edges":[["e","a","\ud800"]]}',
                         encoding="utf-8")
        assert main(argv[:1] + ["--graph", str(graph)] + argv[1:]) == 1
        one_error_line(capsys, "ParseError")


    def test_edges_that_are_no_list_are_one_error_line(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{"vertices": ["a"], "edges": 5}', encoding="utf-8")
        assert main(["compile", "--graph", str(graph), "--length", "1"]) == 1
        assert capsys.readouterr().err == 'error: ParseError: "edges" must be a list\n'


class TestEdgeCodes:
    def test_codes_agree_across_compile_verify_path_and_pad_path(self, tmp_path, capsys):
        # declared against (source, target) order, so the codes are not
        # the declaration indices
        text = ('{"vertices":["a","b","c"],"edges":[["z","c","a"],["y","b","c"],'
                '["x","a","b"],["w","a","a"]]}')
        graph, out = tmp_path / "g.json", tmp_path / "pv.json"
        graph.write_text(text, encoding="utf-8")
        assert main(["compile", "--graph", str(graph), "--length", "1",
                     "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert meta["edge_codes"] == {"z": "110", "y": "101", "x": "100", "w": "011"}
        g = parse_graph(text)
        en = enumerate_graph(g)
        for j, e in enumerate(g.edges):
            src, tgt = g.vertices[e.src], g.vertices[e.tgt]
            code = meta["edge_codes"][e.name]
            assert [str(c) for c in pad_path(en, Path(e.src, (EdgeStep(j),)), 1)] == [code]
            assert main(["eval", "--circuit", str(out), "--input",
                         meta["vertex_codes"][src] + code]) == 0
            assert capsys.readouterr().out.strip() == "1" + meta["vertex_codes"][tgt]
            assert main(["verify-path", "--graph", str(graph), "--start", src,
                         "--path", e.name, "--end", tgt]) == 0
            assert "circuit: valid" in capsys.readouterr().out


class TestEncodeGraph:
    def test_header_and_hex(self, ab_graph, capsys):
        assert main(["encode-graph", "--graph", ab_graph,
                     "--max-vertices", "2", "--max-edges", "1"]) == 0
        out = capsys.readouterr().out.strip()
        # source rows 01 10 01 00, target rows 01 10 10 00
        assert out == "(1,2) 6468"

    def test_capacity_error(self, abc_graph, capsys):
        assert main(["encode-graph", "--graph", abc_graph,
                     "--max-vertices", "2", "--max-edges", "2"]) == 1
        assert "CapacityError" in capsys.readouterr().err


class TestEquiv:
    def test_equal(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        from pathcirc import not_gate, seq
        a.write_text(to_json(seq(seq(not_gate(), not_gate()), not_gate())), encoding="utf-8")
        b.write_text(to_json(not_gate()), encoding="utf-8")
        assert main(["equiv", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out.strip() == "equal"

    def test_not_equal(self, tmp_path, capsys):
        from pathcirc import and_gate, or_gate
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(to_json(and_gate()), encoding="utf-8")
        b.write_text(to_json(or_gate()), encoding="utf-8")
        assert main(["equiv", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().out.strip() == "not equal"

    def test_width_budget(self, tmp_path, capsys, monkeypatch):
        from pathcirc import identity
        monkeypatch.setenv("PATHCIRC_BUDGET", "eval-width=4")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(to_json(identity(6)), encoding="utf-8")
        b.write_text(to_json(identity(6)), encoding="utf-8")
        assert main(["equiv", "--a", str(a), "--b", str(b)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: BudgetError: ")
        assert "PATHCIRC_BUDGET=eval-width=N" in err

    def test_max_width_cannot_raise_the_budget(self, tmp_path, capsys):
        from pathcirc import identity
        a = tmp_path / "a.json"
        a.write_text(to_json(identity(22)), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            main(["equiv", "--a", str(a), "--b", str(a), "--max-width", "40"])
        assert exit_.value.code == 2
        capsys.readouterr()
        assert main(["equiv", "--a", str(a), "--b", str(a)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: BudgetError: ")
        assert "PATHCIRC_BUDGET=eval-width=N" in err


def compiled(tmp_path, argv) -> dict:
    out = tmp_path / "compiled.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestNumbersAtTheBoundary:
    @pytest.mark.parametrize("argv", [
        ["compile", "--length", "-1"],
        ["compile-universal", "--max-vertices", "1", "--max-edges", "1", "--length", "-2"],
        ["compile-universal", "--max-vertices", "0", "--max-edges", "1", "--length", "1"],
        ["compile-universal", "--max-vertices", "1", "--max-edges", "-1", "--length", "1"],
        ["encode-graph", "--max-vertices", "0", "--max-edges", "1"],
        ["compile", "--length", "two"],
    ])
    def test_bad_numbers_exit_2(self, ab_graph, argv, capsys):
        if argv[0] != "compile-universal":
            argv = argv[:1] + ["--graph", ab_graph] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("pathcirc ")

    def test_huge_capacity_is_refused_in_one_line(self, capsys):
        assert main(["compile-universal", "--max-vertices", "1000", "--max-edges", "1000",
                     "--length", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "BudgetError" in err and "PATHCIRC_BUDGET=gates=" in err

    def test_an_edge_code_over_synth_width_is_refused_in_one_line(self, capsys):
        assert main(["compile-universal", "--max-vertices", "1", "--max-edges", "100000",
                     "--length", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "17 edge-code bits" in err
        assert "PATHCIRC_BUDGET=synth-width=N" in err

    def test_zero_edges_is_a_capacity(self, capsys):
        assert main(["compile-universal", "--max-vertices", "1", "--max-edges", "0",
                     "--length", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["max_edges"] == 0


class TestSnarkizeMetadata:
    @pytest.mark.parametrize("field, value", [
        ("in_width", "2"),
        ("in_width", True),
        ("in_width", -1),
        ("witness_width", 2.0),
        ("witness_width", None),
        ("out_width", 0),
        ("out_width", [2]),
    ])
    def test_bad_width_is_a_parse_error(self, ab_graph, tmp_path, capsys, field, value):
        doc = compiled(tmp_path, ["compile", "--graph", ab_graph, "--length", "1"])
        doc["metadata"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["snarkize", "--circuit", str(bad), "--kind", "kp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ParseError" in err and field in err

    def test_bad_spec_width_is_a_parse_error(self, tmp_path, capsys):
        doc = compiled(tmp_path, ["compile-universal", "--max-vertices", "1",
                                  "--max-edges", "1", "--length", "1"])
        doc["metadata"]["spec_width"] = "4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["snarkize", "--circuit", str(bad), "--kind", "zkp"]) == 1
        assert "ParseError" in capsys.readouterr().err

    def test_kp_on_a_universal_verifier(self, tmp_path, capsys):
        out = tmp_path / "uv.json"
        assert main(["compile-universal", "--max-vertices", "1", "--max-edges", "1",
                     "--length", "1", "--out", str(out)]) == 0
        assert main(["snarkize", "--circuit", str(out), "--kind", "kp"]) == 1
        assert "ValidationError" in capsys.readouterr().err

    def test_zkp_on_a_fixed_graph_verifier(self, ab_graph, tmp_path, capsys):
        out = tmp_path / "pv.json"
        assert main(["compile", "--graph", ab_graph, "--length", "1", "--out", str(out)]) == 0
        assert main(["snarkize", "--circuit", str(out), "--kind", "zkp"]) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err and "spec_width" in err


class TestLibraryGateBudget:
    def test_message_names_the_key(self, ab_graph, capsys, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=100")
        assert main(["compile", "--graph", ab_graph, "--length", "2"]) == 1
        assert "PATHCIRC_BUDGET=gates=" in capsys.readouterr().err

    def test_compile_universal(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=100")
        assert main(["compile-universal", "--max-vertices", "1", "--max-edges", "1",
                     "--length", "2"]) == 1
        assert "BudgetError" in capsys.readouterr().err

    def test_verify_path(self, abc_graph, capsys, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=100")
        assert main(["verify-path", "--graph", abc_graph, "--start", "a",
                     "--path", "e1,e2"]) == 1
        assert "BudgetError" in capsys.readouterr().err

    def test_snarkize_is_refused_over_the_budget(self, tmp_path, capsys, monkeypatch):
        # the 2-step verifier fits 107 gates; its snark circuit has 141
        graph = tmp_path / "cycle.json"
        graph.write_text('{"vertices":["a","b"],"edges":[["e","a","b"],["f","b","a"]]}',
                         encoding="utf-8")
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=107")
        out, snark = tmp_path / "pv.json", tmp_path / "snark.json"
        assert main(["compile", "--graph", str(graph), "--length", "2", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["gates"]) == 107
        capsys.readouterr()
        assert main(["snarkize", "--circuit", str(out), "--kind", "kp",
                     "--out", str(snark)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "PATHCIRC_BUDGET=gates=N" in err
        assert not snark.exists()

    def test_empty_walk_needs_no_step(self, ab_graph, monkeypatch):
        # the 1-step verifier of ab has 85 gates, the empty-walk check 19
        monkeypatch.setenv("PATHCIRC_BUDGET", "gates=19")
        assert main(["compile", "--graph", ab_graph, "--length", "0"]) == 0


def one_error_line(capsys, name: str) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"error: {name}: ")
    return err


class TestNoTraceback:
    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000])
    @pytest.mark.parametrize("argv", [
        ["compile", "--length", "1", "--graph"],
        ["encode-graph", "--max-vertices", "1", "--max-edges", "1", "--graph"],
        ["verify-path", "--start", "a", "--graph"],
        ["eval", "--input", "0", "--circuit"],
        ["snarkize", "--kind", "kp", "--circuit"],
        ["equiv", "--b", "unused", "--a"],
    ])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, capsys, content, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(argv + [str(bad)]) == 1
        one_error_line(capsys, "ParseError")

    @pytest.mark.parametrize("argv", [
        ["eval", "--input", "0", "--circuit"],
        ["snarkize", "--kind", "kp", "--circuit"],
    ])
    def test_float_width_is_a_parse_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": "1", "n_inputs": 1e400, "n_outputs": 0, '
                       '"gates": [], "output_map": [], "metadata": {}}', encoding="utf-8")
        assert main(argv + [str(bad)]) == 1
        one_error_line(capsys, "ParseError")

    @pytest.mark.parametrize("raw", ["gate=5", "gates=-1", "eval-width=x", "=5", "gates=1,,",
                                     "-3"])
    def test_a_bad_budget_is_one_error_line(self, ab_graph, capsys, monkeypatch, raw):
        monkeypatch.setenv("PATHCIRC_BUDGET", raw)
        assert main(["compile", "--graph", ab_graph, "--length", "1"]) == 1
        one_error_line(capsys, "BudgetError")

    def test_a_huge_length_is_one_error_line(self, ab_graph, capsys):
        # the joins alone pass the gate budget, so no copy of the step is listed
        for argv in (["compile", "--graph", ab_graph],
                     ["compile-universal", "--max-vertices", "2", "--max-edges", "1"]):
            assert main(argv + ["--length", str(2 ** 61)]) == 1
            assert "more than 1048576 gates" in one_error_line(capsys, "BudgetError")

    def test_encode_graph_is_bounded_by_the_synth_width(self, ab_graph, capsys, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "synth-width=3")
        assert main(["encode-graph", "--graph", ab_graph, "--max-vertices", "2",
                     "--max-edges", "8"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "PATHCIRC_BUDGET=synth-width=" in err
        assert "capacity (8, 2)" in err
        assert main(["encode-graph", "--graph", ab_graph, "--max-vertices", "2",
                     "--max-edges", "6"]) == 0
