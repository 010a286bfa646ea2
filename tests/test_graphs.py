"""Graph model, enumeration scheme, tables, oracle, homomorphisms."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_homs, bv, bvs
from pathcirc import (
    BitVector,
    BudgetError,
    Edge,
    EdgeStep,
    Enumeration,
    Graph,
    GraphHom,
    IdStep,
    ParseError,
    Path,
    TruthTable,
    ValidationError,
    all_graphs,
    enumerate_graph,
    map_path,
    parse_graph,
    path_end,
    path_length,
    path_oracle,
    source_table,
    target_table,
)

AB = parse_graph('{"vertices":["a","b"],"edges":[["e","a","b"]]}')
ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=6)) if n else 0
    edges = tuple(
        Edge(f"e{j}", draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for j in range(m)
    )
    return Graph(tuple(f"v{i}" for i in range(n)), edges)


class TestParse:
    def test_two_vertex_graph(self):
        assert AB.vertices == ("a", "b")
        assert AB.edges == (Edge("e", 0, 1),)

    def test_unknown_endpoint(self):
        with pytest.raises(ParseError, match="unknown target"):
            parse_graph('{"vertices":["a"],"edges":[["e","a","c"]]}')

    def test_edges_without_vertices(self):
        with pytest.raises(ParseError):
            parse_graph('{"vertices":[],"edges":[["e","a","b"]]}')

    def test_duplicate_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph('{"vertices":["a","a"],"edges":[]}')
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph('{"vertices":["a"],"edges":[["e","a","a"],["e","a","a"]]}')

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_graph("{nope")

    def test_a_lone_surrogate_vertex_name_is_refused(self):
        with pytest.raises(ParseError) as info:
            parse_graph(r'{"vertices":["a","\ud800"],"edges":[["e","a","\ud800"]]}')
        assert str(info.value) == r"vertex 1: name '\ud800' is not valid Unicode text"

    def test_a_lone_surrogate_edge_name_is_refused(self):
        with pytest.raises(ParseError) as info:
            parse_graph(r'{"vertices":["a","b"],"edges":[["e","a","b"],["\udfff","b","a"]]}')
        assert str(info.value) == r"edge 1: name '\udfff' is not valid Unicode text"

    def test_a_surrogate_pair_is_one_valid_character(self):
        g = parse_graph(r'{"vertices":["a","\ud83d\ude00"],"edges":[["\ud83d\ude00","a","a"]]}')
        assert g.vertices == ("a", "\U0001F600")
        assert g.edges == (Edge("\U0001F600", 0, 0),)

    @pytest.mark.parametrize("lookup, name, message", [
        (AB.vertex_index, "zz", "unknown vertex 'zz'"),
        (AB.edge_index, "nope", "unknown edge 'nope'"),
    ])
    def test_an_unknown_name_is_a_lookup_error(self, lookup, name, message):
        # a LookupError, not a KeyError: str() of a KeyError is its repr
        with pytest.raises(LookupError) as info:
            lookup(name)
        assert type(info.value) is LookupError and str(info.value) == message

    def test_order_preserved(self):
        g = parse_graph('{"vertices":["z","y","x"],"edges":[["q","x","z"],["p","z","z"]]}')
        assert g.vertices == ("z", "y", "x")
        assert [e.name for e in g.edges] == ["q", "p"]


class TestEnumeration:
    def test_six_vertices_leave_two_codes_unassigned(self):
        g = Graph(tuple("abcdef"), ())
        en = enumerate_graph(g)
        assert en.v_bits == 3
        assigned = {en.vertex_code(i).value for i in range(6)}
        assert len(assigned) == 6
        assert len(set(range(8)) - assigned) == 2  # the zero code and one spare

    def test_two_vertex_codes(self):
        en = enumerate_graph(AB)
        assert (en.v_bits, en.e_bits) == (2, 2)
        assert str(en.vertex_code(0)) == "01"
        assert str(en.vertex_code(1)) == "10"
        assert str(en.identity_code(0)) == "00"
        assert str(en.identity_code(1)) == "01"
        assert str(en.edge_code(0)) == "10"

    def test_empty_graph_clamps_widths(self):
        en = enumerate_graph(Graph((), ()))
        assert (en.v_bits, en.e_bits) == (1, 1)

    def test_single_vertex_clamps_edge_width(self):
        en = enumerate_graph(Graph(("a",), ()))
        assert (en.v_bits, en.e_bits) == (1, 1)

    def test_capacity_widths_must_fit(self):
        with pytest.raises(ValidationError, match="vertex bits"):
            Enumeration(ABC, 1, enumerate_graph(ABC).e_bits)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_injective_with_reservations(self, g):
        en = enumerate_graph(g)
        vcodes = [en.vertex_code(i) for i in range(g.n_vertices)]
        assert all(not c.is_zero() for c in vcodes)
        assert len(set(vcodes)) == g.n_vertices
        ecodes = [en.identity_code(i) for i in range(g.n_vertices)]
        ecodes += [en.edge_code(j) for j in range(g.n_edges)]
        assert len(set(ecodes)) == g.n_vertices + g.n_edges
        assert [en.identity_code(i).value for i in range(g.n_vertices)] == list(range(g.n_vertices))
        assert all(en.edge_code(j).value >= g.n_vertices for j in range(g.n_edges))

    def test_order_defaults_to_declaration_order(self):
        en = Enumeration(ABC, 2, 3)
        assert en.order == (0, 1) and en.rank == (0, 1)
        assert [en.edge_code(j).value for j in range(2)] == [3, 4]

    @pytest.mark.parametrize("order", [(0,), (1, 1), (0, 2), (0, 1, 2), ("a", "b")])
    def test_an_order_that_is_no_permutation_is_refused(self, order):
        with pytest.raises(ValidationError, match="permutation"):
            Enumeration(ABC, 2, 3, order)

    def test_fixed_graph_codes_follow_source_then_target(self):
        # declared out of order, with two parallel edges c -> a kept in
        # declaration order
        g = parse_graph('{"vertices":["a","b","c"],"edges":[["z1","c","a"],'
                        '["y","b","c"],["z2","c","a"],["x","a","b"],["w","a","a"]]}')
        en = enumerate_graph(g)
        assert en.order == (4, 3, 1, 0, 2)
        assert [en.edge_code(j).value for j in range(5)] == [6, 5, 7, 4, 3]

    def test_decode_step_is_none_off_the_assigned_codes(self):
        # 2 vertices and 3 edges: codes 0..1 are identities, 2..4 edges
        g = parse_graph('{"vertices":["a","b"],"edges":[["x","a","b"],'
                        '["y","b","a"],["z","a","a"]]}')
        en = enumerate_graph(g)
        assert [en.decode_step(v) for v in range(-6, 0)] == [None] * 6
        assert [en.decode_step(v) for v in range(2)] == [IdStep(0), IdStep(1)]
        assert {en.decode_step(v) for v in range(2, 5)} == {EdgeStep(j) for j in range(3)}
        assert [en.decode_step(v) for v in range(5, 9)] == [None] * 4

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_edge_codes_sort_by_endpoints_and_decode_back(self, g):
        en = enumerate_graph(g)
        by_code = sorted(range(g.n_edges), key=lambda j: en.edge_code(j).value)
        assert by_code == sorted(range(g.n_edges),
                                 key=lambda j: (g.edges[j].src, g.edges[j].tgt, j))
        assert all(en.decode_step(en.edge_code(j).value) == EdgeStep(j)
                   for j in range(g.n_edges))


class TestTables:
    def test_source_rows_for_two_vertex_graph(self):
        en = enumerate_graph(AB)
        src = source_table(en, AB)
        assert src.lookup(bv("10")) == bv("01")
        assert src.lookup(bv("11")) == bv("00")
        assert src.lookup(bv("00")) == bv("01")  # identity of the first vertex

    def test_target_row(self):
        en = enumerate_graph(AB)
        assert target_table(en, AB).lookup(bv("10")) == bv("10")

    def test_wrong_graph_rejected(self):
        with pytest.raises(ValidationError):
            source_table(enumerate_graph(AB), ABC)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_assigned_rows_hit_assigned_vertices(self, g):
        en = enumerate_graph(g)
        for table in (source_table(en, g), target_table(en, g)):
            for value, row in enumerate(table.rows):
                if en.decode_step(value) is None:
                    assert row.is_zero()
                else:
                    assert en.decode_vertex(row.value) is not None


class TestOracle:
    def test_single_edge_walk(self):
        en = enumerate_graph(AB)
        assert path_oracle(AB, en, bv("01"), bvs("10")) == (True, bv("10"))

    def test_unassigned_edge_code(self):
        en = enumerate_graph(AB)
        assert path_oracle(AB, en, bv("01"), bvs("11")) == (False, bv("00"))

    def test_empty_path(self):
        en = enumerate_graph(AB)
        assert path_oracle(AB, en, bv("01"), []) == (True, bv("01"))

    def test_undefined_start(self):
        en = enumerate_graph(AB)
        assert path_oracle(AB, en, bv("00"), []) == (False, bv("00"))
        assert path_oracle(AB, en, bv("11"), []) == (False, bv("00"))

    def test_broken_chain(self):
        en = enumerate_graph(ABC)
        e1, e2 = en.edge_code(0), en.edge_code(1)
        assert path_oracle(ABC, en, en.vertex_code(0), [e1, e2]) == (True, en.vertex_code(2))
        assert path_oracle(ABC, en, en.vertex_code(0), [e2, e1])[0] is False

    def test_empty_steps_accept_iff_assigned(self):
        for n, m in [(1, 1), (2, 1), (2, 2)]:
            for g in all_graphs(n, m):
                en = enumerate_graph(g)
                for value in range(1 << en.v_bits):
                    valid, end = path_oracle(g, en, BitVector.from_int(value, en.v_bits), [])
                    assert valid == (en.decode_vertex(value) is not None)
                    if valid:
                        assert end.value == value


class TestPaths:
    def test_length_counts_only_edges(self):
        assert path_length(Path(0, ())) == 0
        assert path_length(Path(0, (EdgeStep(0), EdgeStep(1)))) == 2
        assert path_length(Path(0, (IdStep(0), EdgeStep(0)))) == 1

    def test_end(self):
        assert path_end(ABC, Path(0, (EdgeStep(0), EdgeStep(1)))) == 2
        assert path_end(ABC, Path(1, (IdStep(1),))) == 1


class TestHoms:
    def test_identity_hom_is_neutral(self):
        h = GraphHom(ABC, ABC, (0, 1, 2), (0, 1))
        p = Path(0, (EdgeStep(0), IdStep(1)))
        assert map_path(h, p) == p

    def test_non_preserving_rejected(self):
        with pytest.raises(ValidationError):
            GraphHom(AB, AB, (1, 0), (0,))

    # edge 1 is a loop at b, so (1, 1) maps both edges onto it
    LOOP = parse_graph('{"vertices":["a","b"],"edges":[["e","a","b"],["l","b","b"]]}')

    @pytest.mark.parametrize("emap", [(-1, 1), (2, 1)])
    def test_emap_out_of_range_rejected(self, emap):
        assert GraphHom(self.LOOP, self.LOOP, (1, 1), (1, 1))
        with pytest.raises(ValidationError, match="emap value"):
            GraphHom(self.LOOP, self.LOOP, (1, 1), emap)

    def test_valid_paths_map_to_valid_paths(self):
        family = [g for n in (1, 2) for m in (0, 1, 2) for g in all_graphs(n, m)]
        for dom, cod in itertools.product(family, repeat=2):
            for h in all_homs(dom, cod):
                en_dom, en_cod = enumerate_graph(dom), enumerate_graph(cod)
                for start in range(dom.n_vertices):
                    for steps in itertools.product(range(dom.n_edges), repeat=2):
                        p = Path(start, tuple(EdgeStep(j) for j in steps))
                        codes = [en_dom.step_code(s) for s in p.steps]
                        ok, _ = path_oracle(dom, en_dom, en_dom.vertex_code(start), codes)
                        if not ok:
                            continue
                        q = map_path(h, p)
                        assert path_length(q) == path_length(p)
                        qcodes = [en_cod.step_code(s) for s in q.steps]
                        ok2, _ = path_oracle(cod, en_cod, en_cod.vertex_code(q.start), qcodes)
                        assert ok2


class TestAllGraphs:
    def test_counts(self):
        assert len(all_graphs(1, 1)) == 1
        assert len(all_graphs(2, 1)) == 4
        assert len(all_graphs(2, 2)) == 16

    def test_single_self_loop(self):
        (g,) = all_graphs(1, 1)
        assert g.edges == (Edge("e1", 0, 0),)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=100")
        with pytest.raises(BudgetError):
            all_graphs(4, 4)
        monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=256")
        assert len(all_graphs(4, 2)) == 256

    def test_budget_error_names_its_key(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=100")
        with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=graphs=N"):
            all_graphs(4, 4)


EN_ABC = enumerate_graph(ABC)
ONE_BIT_ROWS = (BitVector((0,)), BitVector((1,)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(("a", "a"), ()), ValidationError, "duplicate vertex name"),
    (lambda: Graph(("a",), (Edge("e", 0, 0), Edge("e", 0, 0))), ValidationError,
     "duplicate edge name"),
    (lambda: Graph(("a",), (Edge("e", 0, 1),)), ValidationError,
     "edge 'e' has an endpoint out of range"),
    (lambda: Enumeration(ABC, EN_ABC.v_bits, 1), ValidationError,
     "1 edge bits cannot hold 2+3 codes"),
    (lambda: EN_ABC.vertex_code(9), LookupError, "no vertex 9"),
    (lambda: TruthTable(1, 1, ONE_BIT_ROWS[:1]), ValidationError, "table needs 2 rows, got 1"),
    (lambda: TruthTable(1, 1, (ONE_BIT_ROWS[0], bv("01"))), ValidationError,
     "row width does not match out_width"),
    (lambda: TruthTable(1, 1, ONE_BIT_ROWS).lookup(bv("01")), ValidationError,
     "expected 1-bit input"),
    (lambda: GraphHom(ABC, ABC, (0, 1), (0, 1)), ValidationError,
     "vmap/emap sizes do not match the domain graph"),
    (lambda: GraphHom(ABC, ABC, (0, 1, 3), (0, 1)), ValidationError, "vmap value 3 out of range"),
    (lambda: parse_graph('{"vertices": ["a"], "edges": 5}'), ParseError,
     '"edges" must be a list'),
    (lambda: parse_graph('{"vertices": ["a"], "edges": [["e", "a"]]}'), ParseError,
     "edge 0: expected [name, source, target] strings"),
], ids=["duplicate-vertex", "duplicate-edge", "endpoint-range", "edge-bits", "vertex-code",
        "table-rows", "table-row-width", "table-lookup-width", "hom-sizes", "hom-vmap-range",
        "edges-not-a-list", "edge-entry-short"])
def test_refusals(call, error, message):
    """Each structural check refuses with its own type and message."""
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("start, steps", [(bv("1"), []), (bv("01"), [bv("1")])],
                         ids=["start-width", "step-width"])
def test_the_oracle_rejects_a_code_of_the_wrong_width(start, steps):
    assert path_oracle(ABC, EN_ABC, start, steps) == (False, bv("00"))
