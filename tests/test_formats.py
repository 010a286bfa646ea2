"""JSON round-trips and Bristol Fashion export."""

from __future__ import annotations

import json
from collections import Counter
from random import Random

import pytest

from bristol_ref import run_bristol
from helpers import bv, de_bruijn, random_circuit, random_multigraph
from pathcirc import (
    BitVector,
    CircuitBuilder,
    ParseError,
    ValidationError,
    and_gate,
    document_from_json,
    enumerate_graph,
    evaluate_batch,
    from_json,
    identity,
    match_circuit,
    not_gate,
    pad_path,
    parse_graph,
    path_verifier,
    primitive,
    snarkize,
    symmetry,
    synth,
    to_bristol,
    to_json,
    universal_verifier,
    xor_gate,
)
from pathcirc.circuits import CODE, COPY, FALSE, NAND, TRUE
from pathcirc.graphs import EdgeStep, Path, TruthTable
from pathcirc.synth import robdd

AB = parse_graph('{"vertices":["a","b"],"edges":[["e","a","b"]]}')


def sample_circuits():
    en = enumerate_graph(AB)
    pv = path_verifier(AB, en, 2)
    return [
        primitive(TRUE),
        primitive(FALSE),
        primitive(NAND),
        primitive(COPY),
        identity(3),
        symmetry(2, 1),
        and_gate(),
        xor_gate(),
        match_circuit(2),
        match_circuit(3),
        pv.circuit,
        snarkize(pv),
    ]


def random_circuits():
    """Seeded random gate soups, so the interpreter is also checked
    against the reference on DAGs no constructor emits."""
    rng = Random(2024)
    return [random_circuit(rng, rng.randrange(6), rng.randrange(1, 5), max_gates=40)
            for _ in range(12)]


def benchmark_verifier(name: str):
    """The verifier of one of the benchmark's workloads."""
    if name == "universal":
        return universal_verifier(2, 2, 2)
    graph, k = {"long-walk": (de_bruijn(3), 8),
                "wide-graph": (random_multigraph(32, 64, Random(1909)), 1)}[name]
    g = parse_graph(json.dumps(graph))
    return path_verifier(g, enumerate_graph(g), k)


def multiplexer(second_reader: bool = False):
    """(s AND x) OR (NOT s AND y), as `robdd` builds a node; with
    `second_reader`, NAND(s, x) is an output too."""
    b = CircuitBuilder(3)
    s1, s2 = b.copy(0)
    p = b.nand(s1, 1)
    p, extra = b.copy(p) if second_reader else (p, None)
    return b.finish([b.nand(p, b.nand(b.not_(s2), 2))] + [extra] * second_reader)


def xor_with_a_second_reader(inner: str):
    """`CircuitBuilder.xor` of inputs 0 and 1, with its inner NAND `inner`
    ("t", the NAND of the inputs, or "p", the NAND of input 0 and t)
    also an output."""
    b = CircuitBuilder(2)
    a1, a2 = b.copy(0)
    b1, b2 = b.copy(1)
    t1, t2, t3 = b.fanout(b.nand(a1, b1), 3)
    p = b.nand(a2, t1)
    p, p_out = b.copy(p) if inner == "p" else (p, None)
    out = b.nand(p, b.nand(t2, b2))
    return b.finish([out, t3] if inner == "t" else [out, p_out, b.not_(t3)])


def pattern_circuits():
    """Circuits whose NAND programs hold the XOR and MUX patterns, with
    and without a second reader of an inner NAND."""
    rng = Random(19)
    table = TruthTable(4, 3, [bv(format(rng.getrandbits(3), "03b")) for _ in range(16)])
    b = CircuitBuilder(2)
    xnor = b.finish([b.xnor(0, 1)])
    b = CircuitBuilder(3)
    s1, s2 = b.copy(0)
    # NOT s selects the first operand
    inverted = b.finish([b.nand(b.nand(b.not_(s1), 1), b.nand(s2, b.not_(2)))])
    return [multiplexer(), multiplexer(second_reader=True), xor_with_a_second_reader("t"),
            xor_with_a_second_reader("p"), xnor, inverted, synth(table)]


def pattern_soup(rng: Random):
    """A seeded soup of at most 6 inputs: XOR, XNOR, AND, OR, NOT, bare
    NAND, hand-built XORs and multiplexers of both select polarities,
    each reading recent results, so the patterns chain (a multiplexer
    over an OR of two ANDs, an XOR whose shared NAND is such an OR). An
    inner NAND of a hand-built pattern also goes, through a COPY, to a
    later gate or an output two times in five."""
    b = CircuitBuilder(rng.randrange(1, 7))
    live = b.inputs()

    def take() -> int:
        """A recent live wire; half the time one copy of it, the other staying live."""
        if not live:
            live.append(rng.choice((b.true, b.false))())
        w = live.pop(rng.randrange(max(0, len(live) - 3), len(live)))
        if rng.random() < 0.5:
            w, spare = b.copy(w)
            live.append(spare)
        return w

    def inner(w: int) -> int:
        if rng.random() < 0.4:
            w, spare = b.copy(w)
            live.append(spare)
        return w

    binary = {"xor": b.xor, "xnor": b.xnor, "and": b.and_, "or": b.or_, "nand": b.nand}
    for _ in range(rng.randrange(1, 13)):
        op = rng.choice([*binary, "not", "hand xor", "mux"])
        if op in binary:
            out = binary[op](take(), take())
        elif op == "not":
            out = b.not_(take())
        elif op == "hand xor":
            a1, a2 = b.copy(take())
            c1, c2 = b.copy(take())
            t1, t2 = b.copy(inner(b.nand(a1, c1)))
            out = b.nand(inner(b.nand(a2, t1)), inner(b.nand(t2, c2)))
        else:
            s1, s2 = b.copy(take())
            s, not_s = (s1, b.not_(s2)) if rng.random() < 0.5 else (b.not_(s1), s2)
            out = b.nand(inner(b.nand(s, take())), inner(b.nand(not_s, take())))
        live.append(out)
    return b.finish(rng.sample(live, rng.randint(1, min(4, len(live)))))


def gate_lines(text: str) -> list[str]:
    return text.splitlines()[4:]


def ops(text: str) -> Counter:
    """The number of gates of each operator in a Bristol Fashion text."""
    return Counter(line.rsplit(" ", 1)[1] for line in gate_lines(text))


AND_DOC = {"format_version": "1", "n_inputs": 2, "n_outputs": 1,
           "gates": [{"op": "NAND", "in": [0, 1], "out": [2]},
                     {"op": "COPY", "in": [2], "out": [3, 4]},
                     {"op": "NAND", "in": [3, 4], "out": [5]}],
           "output_map": [5]}


class TestJson:
    @pytest.mark.parametrize("circuit", sample_circuits())
    def test_round_trip_is_gate_identical(self, circuit):
        assert from_json(to_json(circuit)) == circuit

    def test_metadata_round_trips(self):
        doc = document_from_json(to_json(and_gate(), {"k": 3, "kind": "kp"}))
        assert doc.metadata == {"k": 3, "kind": "kp"}
        assert document_from_json(to_json(and_gate())).metadata is None

    def test_deterministic_bytes(self):
        a = to_json(match_circuit(3), {"m": 1})
        b = to_json(match_circuit(3), {"m": 1})
        assert a == b

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            from_json("{")
        with pytest.raises(ParseError):
            from_json('{"format_version": "1"}')
        with pytest.raises(ParseError):
            from_json('{"format_version": "99", "n_inputs": 0, "n_outputs": 0, '
                      '"gates": [], "output_map": []}')

    def test_and_document_parses(self):
        assert from_json(json.dumps(AND_DOC)) == and_gate()

    @pytest.mark.parametrize("path, value", [
        (("n_inputs",), 2.7),
        (("n_inputs",), 2.0),
        (("n_inputs",), 1e400),
        (("n_inputs",), "2"),
        (("n_inputs",), True),
        (("n_inputs",), -1),
        (("n_inputs",), None),
        (("n_outputs",), 1.0),
        (("n_outputs",), False),
        (("output_map", 0), "5"),
        (("output_map", 0), 5.0),
        (("output_map",), 5),
        (("gates", 0, "in"), [True, "1"]),
        (("gates", 0, "in", 1), 1.0),
        (("gates", 1, "out"), "34"),
        (("gates", 2, "out", 0), -5),
        (("gates", 2, "out"), None),
        (("gates",), {"op": "NAND"}),
    ])
    def test_every_wire_and_count_is_a_json_integer(self, path, value):
        doc = json.loads(json.dumps(AND_DOC))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ParseError):
            document_from_json(json.dumps(doc))

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            document_from_json("[" * 200_000)

    def test_unknown_gate_op(self):
        with pytest.raises(ParseError):
            from_json('{"format_version": "1", "n_inputs": 2, "n_outputs": 1, '
                      '"gates": [{"op": "XNOR", "in": [0, 1], "out": [2]}], '
                      '"output_map": [2]}')

    def test_undefined_wire_is_validation_error(self):
        with pytest.raises(ValidationError):
            from_json('{"format_version": "1", "n_inputs": 1, "n_outputs": 1, '
                      '"gates": [{"op": "NAND", "in": [0, 7], "out": [1]}], '
                      '"output_map": [1]}')

    @pytest.mark.parametrize("circuit", sample_circuits())
    def test_round_trip_preserves_eval(self, circuit):
        back = from_json(to_json(circuit))
        assert circuit.n_inputs <= 12
        for x in range(1 << circuit.n_inputs):
            inp = BitVector.from_int(x, circuit.n_inputs)
            assert back.evaluate(inp) == circuit.evaluate(inp)


class TestBristol:
    def test_constant_header(self):
        text = to_bristol(primitive(TRUE))
        lines = text.splitlines()
        assert lines[0] == "1 2"
        assert lines[1] == "0"
        assert lines[2] == "1 1"
        assert lines[4] == "1 1 1 1 EQ"

    def test_nand_lowers_to_two_gates(self):
        text = to_bristol(primitive(NAND))
        lines = [ln for ln in text.splitlines() if ln.strip()]
        gate_lines = lines[3:]
        assert len(gate_lines) == 2
        assert gate_lines[0].endswith("AND")
        assert gate_lines[1].endswith("INV")

    def test_copy_lowers_to_eqw(self):
        text = to_bristol(primitive(COPY))
        assert text.count("EQW") == 2

    def test_permutations_use_eqw(self):
        text = to_bristol(symmetry(1, 1))
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert lines[3:] == ["1 1 1 2 EQW", "1 1 0 3 EQW"]

    def test_deterministic_bytes(self):
        assert to_bristol(match_circuit(3)) == to_bristol(match_circuit(3))

    @pytest.mark.parametrize("circuit", sample_circuits() + random_circuits())
    def test_reference_interpreter_agrees(self, circuit):
        text = to_bristol(circuit)
        for x in range(1 << circuit.n_inputs):
            inp = BitVector.from_int(x, circuit.n_inputs)
            expected = str(circuit.evaluate(inp))
            assert run_bristol(text, str(inp)) == expected

    def test_not_lowers_to_one_inv(self):
        assert gate_lines(to_bristol(not_gate())) == ["1 1 0 1 INV"]

    def test_and_lowers_to_one_and(self):
        assert gate_lines(to_bristol(and_gate())) == ["2 1 0 1 3 AND"]

    def test_a_constant_read_twice_is_one_eq(self):
        b = CircuitBuilder(2)
        t1, t2 = b.copy(b.true())
        c = b.finish([b.nand(0, t1), b.nand(1, t2)])
        text = to_bristol(c)
        assert ops(text) == {"EQ": 1, "INV": 2, "AND": 2}
        for x in range(4):
            inp = BitVector.from_int(x, 2)
            assert run_bristol(text, str(inp)) == str(c.evaluate(inp))

    @pytest.mark.parametrize("circuit", sample_circuits() + random_circuits())
    def test_at_most_one_and_per_nand(self, circuit):
        assert ops(to_bristol(circuit))["AND"] <= circuit.kinds.count(CODE[NAND])

    def test_reference_interpreter_agrees_on_long_walks(self):
        g = parse_graph(json.dumps(de_bruijn(3)))
        en = enumerate_graph(g)
        k = 8
        c = snarkize(path_verifier(g, en, k))
        text = to_bristol(c)
        rng = Random(1909)
        verdicts = set()
        for i in range(16):
            start = end = rng.randrange(g.n_vertices)
            steps = []
            for _ in range(rng.randrange(k + 1)):
                edge = rng.choice([j for j, e in enumerate(g.edges) if e.src == end])
                steps.append(EdgeStep(edge))
                end = g.edges[edge].tgt
            claim = end if i % 2 else rng.randrange(g.n_vertices)
            codes = [en.vertex_code(start), *pad_path(en, Path(start, tuple(steps)), k),
                     en.vertex_code(claim)]
            inp = sum(codes, BitVector(()))
            expected = str(c.evaluate(inp))
            assert run_bristol(text, str(inp)) == expected
            verdicts.add(expected)
        assert verdicts == {"0", "1"}

    @pytest.mark.parametrize("name", ["long-walk", "wide-graph", "universal"])
    def test_reference_interpreter_agrees_on_the_benchmark_verifiers(self, name):
        pv = benchmark_verifier(name)
        rng = Random(256)
        for c in (pv.circuit, snarkize(pv)):
            text = to_bristol(c)
            vectors = [BitVector.from_int(rng.getrandbits(c.n_inputs), c.n_inputs)
                       for _ in range(256)]
            for inp, out in zip(vectors, evaluate_batch(c, vectors)):
                assert run_bristol(text, str(inp)) == str(out)

    def test_an_or_of_two_disjoint_ands_is_one_xor(self):
        # a multiplexer, y XOR (s AND (x XOR y))
        c = multiplexer()
        text = to_bristol(c)
        assert ops(text) == {"AND": 1, "XOR": 2}
        for x in range(8):
            inp = BitVector.from_int(x, 3)
            assert run_bristol(text, str(inp)) == str(c.evaluate(inp))

    def test_a_multiplexer_with_a_second_reader_is_two_ands_and_one_xor(self):
        # NAND(s, x) is emitted as an AND, so the OR of the two ANDs stays their XOR
        assert ops(to_bristol(multiplexer(second_reader=True))) == {
            "AND": 2, "INV": 2, "XOR": 1}

    def test_a_robdd_multiplexer_is_one_and(self):
        b = CircuitBuilder(3)
        # leaves 0 and 1 (terminals 2 and 3) where the select is 1 and 0
        (w,) = robdd(b, [0], [[3, 2]], leaves=[1, 2])
        c = b.finish([w])
        text = to_bristol(c)
        assert ops(text) == {"AND": 1, "XOR": 2}
        for x in range(8):
            inp = BitVector.from_int(x, 3)
            assert run_bristol(text, str(inp)) == str(c.evaluate(inp))

    def test_xor_is_one_xor_gate(self):
        # written straight into the output wire, past its reserved wire 2
        assert gate_lines(to_bristol(xor_gate())) == ["2 1 0 1 3 XOR"]

    def test_xnor_is_one_xor_and_an_output_inv(self):
        b = CircuitBuilder(2)
        assert gate_lines(to_bristol(b.finish([b.xnor(0, 1)]))) == [
            "2 1 0 1 2 XOR", "1 1 2 3 INV"]

    @pytest.mark.parametrize("inner", ["t", "p"])
    def test_an_xor_with_a_second_reader_is_not_rewritten(self, inner):
        assert "XOR" not in ops(to_bristol(xor_with_a_second_reader(inner)))

    @pytest.mark.parametrize("circuit", pattern_circuits())
    def test_the_rewrites_agree_with_the_reference_interpreter(self, circuit):
        text = to_bristol(circuit)
        assert ops(text)["AND"] <= circuit.kinds.count(CODE[NAND])
        for x in range(1 << circuit.n_inputs):
            inp = BitVector.from_int(x, circuit.n_inputs)
            assert run_bristol(text, str(inp)) == str(circuit.evaluate(inp))

    def test_the_rewrites_agree_with_the_reference_interpreter_on_pattern_soups(self):
        rng = Random(2611)
        for i in range(300):
            c = pattern_soup(rng)
            text = to_bristol(c)
            assert ops(text)["AND"] <= c.kinds.count(CODE[NAND]), i
            vectors = [BitVector.from_int(x, c.n_inputs) for x in range(1 << c.n_inputs)]
            for inp, out in zip(vectors, evaluate_batch(c, vectors)):
                assert run_bristol(text, str(inp)) == str(out), i

    @pytest.mark.parametrize("name", ["long-walk", "wide-graph", "universal"])
    def test_the_benchmark_snarks_have_fewer_ands_than_half_their_nands(self, name):
        c = snarkize(benchmark_verifier(name))
        assert 2 * ops(to_bristol(c))["AND"] < c.kinds.count(CODE[NAND])

    def test_an_or_of_two_overlapping_ands_is_no_xor(self):
        b = CircuitBuilder(4)
        c = b.finish([b.nand(b.nand(0, 1), b.nand(2, 3))])
        assert ops(to_bristol(c)) == {"AND": 3, "INV": 3}

    def test_the_wide_graph_snark_has_xors_and_no_more_ands_than_nands(self):
        c = snarkize(benchmark_verifier("wide-graph"))
        counts = ops(to_bristol(c))
        assert counts["XOR"] >= 1
        assert counts["AND"] <= c.kinds.count(CODE[NAND])
