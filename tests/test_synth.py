"""Truth-table lowering and the named table circuits."""

from __future__ import annotations

import json
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bv, de_bruijn, random_multigraph
from pathcirc import (
    BitVector,
    BudgetError,
    CircuitBuilder,
    TruthTable,
    all_graphs,
    assigned_vertex_circuit,
    enumerate_graph,
    ext_equal,
    filter_circuit,
    identity,
    match_circuit,
    parse_graph,
    source_circuit,
    source_table,
    synth,
    target_circuit,
    target_table,
    truth_columns,
)
from pathcirc.circuits import CODE, FALSE, TRUE, nand_depth
from pathcirc.graphs import Enumeration, Graph, edge_width, vertex_width
from pathcirc.synth import robdd


def random_table(rng: Random, in_width: int, out_width: int) -> TruthTable:
    rows = tuple(
        BitVector.from_int(rng.randrange(1 << out_width), out_width)
        for _ in range(1 << in_width)
    )
    return TruthTable(in_width, out_width, rows)


def table_matches_circuit(table: TruthTable, circuit) -> bool:
    cols = truth_columns(circuit)
    for x in range(1 << table.in_width):
        got = tuple((col >> x) & 1 for col in cols)
        if got != table.rows[x].bits:
            return False
    return True


def table_columns(table: TruthTable) -> list[int]:
    """The table's output bits as truth_columns lays them out: bit x of
    column j is output j on input x."""
    return [int("".join(str(row.bits[j]) for row in reversed(table.rows)), 2)
            for j in range(table.out_width)]


class TestSynth:
    def test_constant_zero_table_is_false_gates(self):
        table = TruthTable(2, 3, tuple(BitVector.zeros(3) for _ in range(4)))
        c = synth(table)
        assert set(c.kinds) <= {CODE[FALSE]}
        assert table_matches_circuit(table, c)

    def test_one_bit_identity_table(self):
        table = TruthTable(1, 1, (bv("0"), bv("1")))
        assert ext_equal(synth(table), identity(1))

    def test_exact_on_random_tables(self):
        rng = Random(23)
        for _ in range(60):
            table = random_table(rng, rng.randrange(0, 5), rng.randrange(1, 4))
            assert table_matches_circuit(table, synth(table))

    @pytest.mark.parametrize("in_width", [6, 8, 10])
    def test_exact_at_wider_inputs(self, in_width):
        rng = Random(29 + in_width)
        table = random_table(rng, in_width, 2)
        assert table_matches_circuit(table, synth(table))

    def test_match_table_reproduces_paper_rows(self):
        rows = tuple(
            BitVector((1 if (x >> 2) == (x & 3) and (x & 3) != 0 else 0,))
            for x in range(16)
        )
        table = TruthTable(4, 1, rows)
        c = synth(table)
        assert table_matches_circuit(table, c)
        assert ext_equal(c, match_circuit(2))

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "synth-width=1")
        table = TruthTable(2, 1, tuple(bv("1") for _ in range(4)))
        with pytest.raises(BudgetError):
            synth(table)

    def test_budget_error_names_its_key(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "synth-width=2")
        table = TruthTable(3, 1, tuple(bv("1") for _ in range(8)))
        with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=synth-width=N"):
            synth(table)

    def test_width_at_the_budget_is_accepted(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "synth-width=3")
        table = TruthTable(3, 1, tuple(bv("1") for _ in range(8)))
        assert table_matches_circuit(table, synth(table))


def tables(in_width: int, out_width: int):
    """Every table of the given widths."""
    for values in product(range(1 << out_width), repeat=1 << in_width):
        yield TruthTable(in_width, out_width,
                         tuple(BitVector.from_int(v, out_width) for v in values))


class TestDecoder:
    def test_every_table_with_no_input(self):
        for table in tables(0, 3):
            c = synth(table)
            assert table_matches_circuit(table, c)
            assert set(c.kinds) <= {CODE[TRUE], CODE[FALSE]}

    def test_every_table_with_one_input(self):
        for table in tables(1, 2):
            c = synth(table)
            assert table_matches_circuit(table, c)
            # a bit is a constant, the input, or its one negation
            assert nand_depth(c) <= 1

    def test_single_nonzero_row(self):
        rows = [BitVector.zeros(3)] * 32
        rows[19] = bv("101")
        table = TruthTable(5, 3, tuple(rows))
        assert table_matches_circuit(table, synth(table))

    def test_table_of_all_ones(self):
        table = TruthTable(4, 3, tuple(bv("111") for _ in range(16)))
        c = synth(table)
        assert table_matches_circuit(table, c)
        assert set(c.kinds) <= {CODE[TRUE]}

    def test_exact_on_a_dense_table_at_width_12(self):
        table = random_table(Random(12), 12, 4)
        assert truth_columns(synth(table)) == table_columns(table)

    def test_exact_on_a_sparse_table_at_the_width_budget(self):
        # 300 random rows of 65,536 are nonzero, as in a graph's tables
        rng = Random(16)
        rows = [BitVector.zeros(3)] * (1 << 16)
        for x in rng.sample(range(1 << 16), 300):
            rows[x] = BitVector.from_int(rng.randrange(1, 8), 3)
        table = TruthTable(16, 3, tuple(rows))
        assert truth_columns(synth(table)) == table_columns(table)

    def test_small_graph_family_size(self):
        # the per-output-bit DNF took 215,750 gates on these 1,818 tables
        total = 0
        for n in (1, 2, 3):
            for m in (0, 1, 2, 3):
                for g in all_graphs(n, m):
                    en = enumerate_graph(g)
                    total += synth(source_table(en, g)).gate_count
                    total += synth(target_table(en, g)).gate_count
        assert total <= 84_022


def table_of_columns(in_width: int, columns: list[int]) -> TruthTable:
    """The table whose output bit j on input x is bit x of columns[j]."""
    return TruthTable(in_width, len(columns), tuple(
        BitVector(tuple((col >> x) & 1 for col in columns)) for x in range(1 << in_width)))


class TestSharedDiagram:
    def test_every_small_graph_table(self):
        for n in range(4):
            for m in range(4):
                for g in all_graphs(n, m):
                    en = enumerate_graph(g)
                    for table in (source_table(en, g), target_table(en, g)):
                        assert truth_columns(synth(table)) == table_columns(table)

    def test_random_tables_with_constant_and_duplicate_bits(self):
        rng = Random(10)
        for in_width in range(11):
            full = (1 << (1 << in_width)) - 1
            for _ in range(6):
                columns = []
                for _ in range(rng.randrange(1, 5)):
                    kind = rng.randrange(4)
                    columns.append(0 if kind == 0 else full if kind == 1 else
                                   rng.choice(columns) if kind == 2 and columns else
                                   rng.getrandbits(1 << in_width))
                table = table_of_columns(in_width, columns)
                assert truth_columns(synth(table)) == columns

    def test_a_repeated_output_bit_costs_one_more_read(self):
        rng = Random(11)
        for in_width in range(7):
            for _ in range(8):
                column = rng.getrandbits(1 << in_width)
                once = synth(table_of_columns(in_width, [column])).gate_count
                twice = synth(table_of_columns(in_width, [column, column])).gate_count
                assert twice <= once + 1

    def test_de_bruijn_lookups(self):
        # B(2, 3): 8 id codes and 16 edges on 5 bits, 4-bit vertex codes
        g = parse_graph(json.dumps(de_bruijn(3)))
        en = enumerate_graph(g)
        assert source_circuit(g, en).gate_count + target_circuit(g, en).gate_count == 182

    def test_seeded_multigraph_lookups(self):
        # 64 vertices, 128 edges: 2,312 gates with the edges coded in
        # declaration order, 1,776 in (source, target) order
        g = parse_graph(json.dumps(random_multigraph(64, 128, Random(1909))))
        en = enumerate_graph(g)
        assert source_circuit(g, en).gate_count + target_circuit(g, en).gate_count == 1_776


MATCH2_ROWS = [
    # (a, b, expected) straight from the published 16-row table
    ("00", "00", 0),
    ("01", "00", 0),
    ("10", "00", 0),
    ("11", "00", 0),
    ("00", "01", 0),
    ("01", "01", 1),
    ("10", "01", 0),
    ("11", "01", 0),
    ("00", "10", 0),
    ("01", "10", 0),
    ("10", "10", 1),
    ("11", "10", 0),
    ("00", "11", 0),
    ("01", "11", 0),
    ("10", "11", 0),
    ("11", "11", 1),
]


class TestWireLeaves:
    """``robdd`` with wires of the builder as terminals, as the universal
    lookups use it: each row of a column is 0, 1 or a leaf wire."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_columns_mixing_constants_and_input_wires(self, data):
        width = data.draw(st.integers(1, 4), label="select width")
        n_leaves = data.draw(st.integers(0, 4), label="leaves")
        # leaf i is input wire leaves[i], after the selects in any order
        leaves = data.draw(st.permutations(range(width, width + n_leaves)), label="leaf wires")
        terminals = st.integers(0, n_leaves + 1)
        rows = data.draw(st.lists(st.lists(terminals, min_size=1 << width, max_size=1 << width),
                                  min_size=1, max_size=3), label="columns")
        b = CircuitBuilder(width + n_leaves)
        c = b.finish(robdd(b, b.inputs()[:width], rows, leaves))
        got = truth_columns(c)
        for a in range(1 << c.n_inputs):  # input wire 0 is the most significant bit of a
            bits = BitVector.from_int(a, c.n_inputs).bits
            x = a >> n_leaves
            for column, terms in zip(got, rows):
                t = terms[x]
                assert column >> a & 1 == (t if t < 2 else bits[leaves[t - 2]])

    @pytest.mark.parametrize("n_leaves", [0, 1, 3])
    @pytest.mark.parametrize("x", [0, 1, 3])
    def test_a_terminal_past_the_last_leaf_is_refused(self, n_leaves, x):
        """A terminal 2 + len(leaves) names no wire; unchecked, it would
        read as the id of an internal node. Nothing is emitted."""
        width = 2
        b = CircuitBuilder(width + n_leaves)
        column = [0] * x + [2 + n_leaves]
        with pytest.raises(ValueError, match=f"terminal {2 + n_leaves} names no"):
            robdd(b, b.inputs()[:width], [column], b.inputs()[width:])
        assert b.finish([]).gate_count == 0

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_a_short_column_reads_0_on_the_rows_it_leaves_out(self, length):
        width = 2
        b = CircuitBuilder(width + 1)
        column = [2, 1, 2][:length]
        c = b.finish(robdd(b, b.inputs()[:width], [column], [width]))
        for a in range(1 << c.n_inputs):
            x, leaf = a >> 1, a & 1
            want = 0 if x >= length else leaf if column[x] == 2 else column[x]
            assert c.evaluate(BitVector.from_int(a, c.n_inputs)).bits == (want,)

    def test_terminals_wider_than_a_byte(self):
        # 300 leaves: terminals run to 301, packed two bytes per row
        b = CircuitBuilder(1 + 300)
        leaves = b.inputs()[1:]
        c = b.finish(robdd(b, [0], [[301, 2], [257, 1]], leaves))
        for select, last, first, other in product((0, 1), repeat=4):
            bits = [select, first] + [0] * 254 + [other] + [0] * 43 + [last]
            row = (last, other) if select == 0 else (first, 1)
            assert c.evaluate(BitVector(tuple(bits))).bits == row


class TestMatch:
    @pytest.mark.parametrize("a,b,expected", MATCH2_ROWS)
    def test_two_bit_rows(self, a, b, expected):
        assert match_circuit(2).evaluate(bv(a) + bv(b)).bits[0] == expected

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_definition_exhaustive(self, width):
        c = match_circuit(width)
        for x in range(1 << width):
            for y in range(1 << width):
                expected = int(x == y and x != 0)
                inp = BitVector.from_int(x, width) + BitVector.from_int(y, width)
                assert c.evaluate(inp).bits[0] == expected

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            match_circuit(0)


class TestTableCircuits:
    def test_two_vertex_rows(self):
        (g,) = [g for g in all_graphs(2, 1) if (g.edges[0].src, g.edges[0].tgt) == (0, 1)]
        en = enumerate_graph(g)
        sc = source_circuit(g, en)
        assert sc.evaluate(bv("10")) == bv("01")
        assert sc.evaluate(bv("00")) == bv("01")
        assert sc.evaluate(bv("11")) == bv("00")
        assert target_circuit(g, en).evaluate(bv("10")) == bv("10")

    def test_agree_with_tables_small_exhaustive(self):
        for n in (1, 2, 3):
            for m in (0, 1, 2, 3):
                for g in all_graphs(n, m):
                    en = enumerate_graph(g)
                    assert table_matches_circuit(source_table(en, g), source_circuit(g, en))
                    assert table_matches_circuit(target_table(en, g), target_circuit(g, en))

    def test_agree_with_tables_sampled_at_four(self):
        rng = Random(31)
        for m in (0, 1, 2, 3, 4):
            family = all_graphs(4, m)
            for g in rng.sample(family, min(40, len(family))):
                en = enumerate_graph(g)
                assert table_matches_circuit(source_table(en, g), source_circuit(g, en))
                assert table_matches_circuit(target_table(en, g), target_circuit(g, en))


class TestFilter:
    def test_published_example_point(self):
        c = filter_circuit(bv("1001"))
        assert c.evaluate(bv("1001")).bits[0] == 1
        assert c.evaluate(bv("0001")).bits[0] == 0

    @pytest.mark.parametrize("width", [1, 2, 4, 6, 8])
    def test_indicator_of_single_point(self, width):
        rng = Random(width * 41)
        for _ in range(4):
            point = BitVector.from_int(rng.randrange(1 << width), width)
            (col,) = truth_columns(filter_circuit(point))
            assert col == 1 << point.value

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            filter_circuit(BitVector(()))


class TestAssignedVertices:
    @pytest.mark.parametrize("extra", [0, 2])
    def test_indicator_of_the_vertex_codes(self, extra):
        for n in range(70):
            g = Graph(tuple(f"v{i}" for i in range(n)), ())
            en = Enumeration(g, vertex_width(n) + extra, edge_width(0, n))
            (col,) = truth_columns(assigned_vertex_circuit(en))
            assert col == (1 << (n + 1)) - 2

    def test_no_larger_or_deeper_than_one_filter_per_vertex(self):
        for n in (1, 2, 3, 8, 64):
            en = enumerate_graph(Graph(tuple(f"v{i}" for i in range(n)), ()))
            b = CircuitBuilder(en.v_bits)
            buses = b.fanout_bus(b.inputs(), n)
            fired = [b.splice(filter_circuit(en.vertex_code(i)), buses[i])[0] for i in range(n)]
            filters = b.finish([b.or_chain(fired)])
            table = assigned_vertex_circuit(en)
            assert ext_equal(table, filters)
            assert table.gate_count <= filters.gate_count
            assert nand_depth(table) <= nand_depth(filters)
