"""Graph encodings, universal lookups, spec-sharing composition."""

from __future__ import annotations

import itertools
from random import Random

import pytest

from helpers import bv
from pathcirc import (
    BitVector,
    CapacityError,
    Edge,
    Graph,
    GraphEncoding,
    ValidationError,
    WidthError,
    capacity_enumeration,
    encode_graph,
    encoding_width,
    enumerate_graph,
    ext_equal,
    parse_graph,
    path_oracle,
    path_verifier,
    source_table,
    target_table,
    truth_columns,
    universal_source,
    universal_step,
    universal_target,
    universal_verifier,
    valid_graphs,
    zkp_compose,
    zkp_identity,
    zkp_snarkize,
)

AB = parse_graph('{"vertices":["a","b"],"edges":[["e","a","b"]]}')


def spec_fixed(uv, enc: GraphEncoding) -> dict[int, int]:
    """Pin a verifier's spec bus to a concrete graph encoding."""
    return {uv.in_width + i: bit for i, bit in enumerate(enc.bits)}


class TestEncoding:
    def test_width_formula(self):
        assert encoding_width(1, 2) == 16  # 2 tables * 4 rows * 2 bits
        assert encoding_width(2, 2) == 16
        assert encoding_width(1, 1) == 4

    def test_layout_is_source_rows_then_target_rows(self):
        enc = encode_graph(AB, 1, 2)
        en = capacity_enumeration(AB, 1, 2)
        rows = [r.bits for r in source_table(en, AB).rows]
        rows += [r.bits for r in target_table(en, AB).rows]
        assert enc.bits.bits == tuple(b for row in rows for b in row)

    def test_capacity_codes_keep_declaration_order(self):
        # a fixed graph's codes sort its edges by (source, target); the
        # spec rows of a capacity encoding stay in declaration order
        g = Graph(("a", "b"), (Edge("e1", 1, 0), Edge("e2", 0, 1)))
        assert enumerate_graph(g).order == (1, 0)
        assert capacity_enumeration(g, 2, 2).order == (0, 1)
        assert len({encode_graph(h, 2, 2).bits for h in (g, Graph(g.vertices, g.edges[::-1]))}) == 2

    def test_capacity_equals_natural_widths_here(self):
        en = capacity_enumeration(AB, 1, 2)
        assert (en.v_bits, en.e_bits) == (2, 2)

    def test_over_capacity(self):
        with pytest.raises(CapacityError):
            encode_graph(AB, 1, 1)
        with pytest.raises(CapacityError):
            encode_graph(AB, 0, 2)

    def test_bad_width_rejected(self):
        with pytest.raises(ValidationError):
            GraphEncoding(1, 2, bv("01"))

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2)])
    def test_distinct_graphs_encode_distinctly(self, m, n):
        encodings = [encode_graph(g, m, n).bits for g in valid_graphs(m, n)]
        assert len({e.bits for e in encodings}) == len(encodings)

    def test_family_sizes(self):
        assert len(valid_graphs(1, 2)) == 7
        assert len(valid_graphs(2, 2)) == 24


class TestUniversalLookups:
    def test_reduces_to_graph_tables(self):
        us, ut = universal_source(1, 2), universal_target(1, 2)
        for g in valid_graphs(1, 2):
            en = capacity_enumeration(g, 1, 2)
            enc = encode_graph(g, 1, 2)
            src, tgt = source_table(en, g), target_table(en, g)
            for value in range(1 << en.e_bits):
                code = BitVector.from_int(value, en.e_bits)
                assert us.evaluate(enc.bits + code) == src.lookup(code)
                assert ut.evaluate(enc.bits + code) == tgt.lookup(code)

    def test_example_edge_lookup(self):
        us = universal_source(1, 2)
        enc = encode_graph(AB, 1, 2)
        assert us.evaluate(enc.bits + bv("10")) == bv("01")
        assert us.evaluate(enc.bits + bv("11")) == bv("00")

    def test_all_zero_spec_yields_undefined(self):
        us = universal_source(1, 2)
        for value in range(4):
            code = BitVector.from_int(value, 2)
            assert us.evaluate(BitVector.zeros(16) + code).is_zero()

    def test_at_most_one_filter_fires(self):
        # filters are single-point indicators on pairwise distinct points
        from pathcirc import filter_circuit
        points = [encode_graph(g, 1, 2).bits for g in valid_graphs(1, 2)]
        cols = [truth_columns(filter_circuit(p))[0] for p in points]
        for a, b in itertools.combinations(cols, 2):
            assert a & b == 0
        for col, p in zip(cols, points):
            assert col == 1 << p.value


class TestZkpIdentity:
    def test_ignores_spec(self):
        ident = zkp_identity(2, 3)
        for x in range(4):
            for s in range(8):
                state = BitVector.from_int(x, 2)
                spec = BitVector.from_int(s, 3)
                assert ident.run(state, spec) == (1, state)

    def test_unit_laws(self):
        step = universal_step(1, 1)
        ident = zkp_identity(step.in_width, step.spec_width)
        left = zkp_compose(ident, step)
        right = zkp_compose(step, ident)
        assert ext_equal(left.circuit, step.circuit)
        assert ext_equal(right.circuit, step.circuit)

    def test_identity_chain(self):
        ident = zkp_identity(1, 2)
        assert ext_equal(zkp_compose(ident, ident).circuit, ident.circuit)


class TestZkpCompose:
    def test_spec_width_mismatch(self):
        with pytest.raises(WidthError):
            zkp_compose(zkp_identity(1, 2), zkp_identity(1, 3))

    def test_state_width_mismatch(self):
        with pytest.raises(WidthError):
            zkp_compose(zkp_identity(1, 2), zkp_identity(2, 2))

    def test_both_halves_see_the_same_spec(self):
        step = universal_step(1, 1)
        two = zkp_compose(step, step)
        f_bits = step.spec_width
        for g in valid_graphs(1, 1):
            en = capacity_enumeration(g, 1, 1)
            enc = encode_graph(g, 1, 1)
            for x in range(1 << step.in_width):
                state = BitVector.from_int(x, step.in_width)
                for w in range(1 << (2 * step.witness_width)):
                    witness = BitVector.from_int(w, 2 * step.witness_width)
                    w1 = BitVector(witness.bits[:step.witness_width])
                    w2 = BitVector(witness.bits[step.witness_width:])
                    f1, mid = step.run(state, enc.bits, w1)
                    f2, out = step.run(mid, enc.bits, w2)
                    assert two.run(state, enc.bits, witness) == (f1 & f2, out)

    def test_association_order_is_extensionally_irrelevant(self):
        step = universal_step(1, 1)
        left = zkp_compose(zkp_compose(step, step), step)
        right = zkp_compose(step, zkp_compose(step, step))
        assert left.circuit.gates != right.circuit.gates
        assert ext_equal(left.circuit, right.circuit)


class TestUniversalStep:
    def test_matches_fixed_graph_step_verifier(self):
        from pathcirc import enumerate_graph, step_verifier
        us = universal_step(1, 2)
        for g in valid_graphs(1, 2):
            en = capacity_enumeration(g, 1, 2)
            sv = step_verifier(g, en)
            enc = encode_graph(g, 1, 2)
            assert truth_columns(us.circuit, spec_fixed(us, enc)) == \
                truth_columns(sv.circuit)

    def test_invalid_spec_rejects_everything(self):
        us = universal_step(1, 2)
        valid = {encode_graph(g, 1, 2).bits for g in valid_graphs(1, 2)}
        rng = Random(71)
        bogus = [BitVector.zeros(16), BitVector((1,) * 16)]
        while len(bogus) < 5:
            candidate = BitVector.from_int(rng.randrange(1 << 16), 16)
            if candidate not in valid:
                bogus.append(candidate)
        for spec in bogus:
            flag_col = truth_columns(us.circuit, spec_fixed(us, GraphEncoding(1, 2, spec)))[0]
            assert flag_col == 0

    def test_undefined_vertex_rejected(self):
        us = universal_step(1, 2)
        enc = encode_graph(AB, 1, 2)
        for e in range(4):
            flag, _ = us.run(bv("00"), enc.bits, BitVector.from_int(e, 2))
            assert flag == 0


class TestUniversalVerifier:
    def test_two_step_padded_walk(self):
        uv = universal_verifier(1, 2, 2)
        enc = encode_graph(AB, 1, 2)
        witness = bv("10") + bv("01")  # the edge, then the identity at b
        assert uv.run(bv("01"), enc.bits, witness) == (1, bv("10"))

    def test_swapping_the_spec_flips_acceptance(self):
        uv = universal_verifier(1, 2, 1)
        ba = parse_graph('{"vertices":["a","b"],"edges":[["e","b","a"]]}')
        enc_ab, enc_ba = encode_graph(AB, 1, 2), encode_graph(ba, 1, 2)
        flag_ab, _ = uv.run(bv("01"), enc_ab.bits, bv("10"))
        flag_ba, _ = uv.run(bv("01"), enc_ba.bits, bv("10"))
        assert (flag_ab, flag_ba) == (1, 0)

    def test_zero_steps_checks_vertex_against_the_spec(self):
        uv = universal_verifier(1, 2, 0)
        single = parse_graph('{"vertices":["a"],"edges":[]}')
        enc2, enc1 = encode_graph(AB, 1, 2), encode_graph(single, 1, 2)
        assert uv.run(bv("01"), enc2.bits) == (1, bv("01"))
        assert uv.run(bv("10"), enc2.bits) == (1, bv("10"))
        assert uv.run(bv("10"), enc1.bits)[0] == 0  # not a vertex of the 1-vertex graph
        assert uv.run(bv("00"), enc2.bits)[0] == 0
        assert uv.run(bv("01"), BitVector.zeros(16))[0] == 0

    def test_reduces_to_fixed_graph_verifier(self):
        for k in (0, 1, 2):
            uv = universal_verifier(1, 2, k)
            for g in valid_graphs(1, 2):
                en = capacity_enumeration(g, 1, 2)
                pv = path_verifier(g, en, k)
                enc = encode_graph(g, 1, 2)
                assert truth_columns(uv.circuit, spec_fixed(uv, enc)) == \
                    truth_columns(pv.circuit)


class TestZkpSnarkize:
    def test_claim_checked_against_oracle(self):
        uv = universal_verifier(1, 2, 1)
        sn = zkp_snarkize(uv)
        en = capacity_enumeration(AB, 1, 2)
        enc = encode_graph(AB, 1, 2)
        for v in range(4):
            for e in range(4):
                state = BitVector.from_int(v, 2)
                edge = BitVector.from_int(e, 2)
                valid, end = path_oracle(AB, en, state, [edge])
                for c in range(4):
                    claim = BitVector.from_int(c, 2)
                    expected = int(valid and claim == end)
                    got = sn.evaluate(state + enc.bits + edge + claim).bits[0]
                    assert got == expected

    def test_zero_claim_rejected(self):
        uv = universal_verifier(1, 2, 1)
        sn = zkp_snarkize(uv)
        enc = encode_graph(AB, 1, 2)
        assert sn.evaluate(bv("01") + enc.bits + bv("10") + bv("00")).bits[0] == 0
