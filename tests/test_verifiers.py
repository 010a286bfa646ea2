"""Flag-and-witness verifier composition, path verifiers, snarkizator."""

from __future__ import annotations

import itertools
import json
from collections import Counter
from random import Random

import pytest

from helpers import bv, bvs, de_bruijn, random_kp, random_multigraph, reads
from pathcirc import (
    BitVector,
    EdgeStep,
    IdStep,
    LengthError,
    Path,
    WidthError,
    all_graphs,
    edge_evaluator,
    enumerate_graph,
    ext_equal,
    kp_compose,
    kp_identity,
    pad_path,
    parse_graph,
    path_oracle,
    path_verifier,
    snarkize,
    step_verifier,
    truth_columns,
)
from pathcirc.verifiers import fold

AB = parse_graph('{"vertices":["a","b"],"edges":[["e","a","b"]]}')
ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)


def assert_matches_oracle(g, en, k):
    """The k-step path verifier agrees with the oracle on every input."""
    pv = path_verifier(g, en, k)
    total = en.v_bits + k * en.e_bits
    for x in range(1 << total):
        bits = BitVector.from_int(x, total)
        state = BitVector(bits.bits[:en.v_bits])
        steps = [
            BitVector(bits.bits[en.v_bits + i * en.e_bits:en.v_bits + (i + 1) * en.e_bits])
            for i in range(k)
        ]
        valid, end = path_oracle(g, en, state, steps)
        flag, out = pv.run(state, BitVector(bits.bits[en.v_bits:]))
        assert flag == int(valid)
        if valid:
            assert out == end


class TestKpIdentity:
    def test_passes_state_with_true_flag(self):
        ident = kp_identity(3)
        for x in range(8):
            state = BitVector.from_int(x, 3)
            assert ident.run(state) == (1, state)

    def test_unit_laws(self):
        rng = Random(41)
        for _ in range(20):
            f = random_kp(rng, 2, 2)
            left = kp_compose(kp_identity(2), f)
            right = kp_compose(f, kp_identity(2))
            assert ext_equal(left.circuit, f.circuit)
            assert ext_equal(right.circuit, f.circuit)


class TestKpCompose:
    def test_width_mismatch(self):
        rng = Random(43)
        with pytest.raises(WidthError):
            kp_compose(random_kp(rng, 1, 2), random_kp(rng, 1, 1))

    def test_identity_chain(self):
        two = kp_compose(kp_identity(2), kp_identity(2))
        assert ext_equal(two.circuit, kp_identity(2).circuit)

    def test_witnesses_concatenate_in_order(self):
        rng = Random(47)
        f, g = random_kp(rng, 2, 1), random_kp(rng, 1, 2)
        fg = kp_compose(f, g)
        assert fg.witness_width == f.witness_width + g.witness_width
        assert fg.in_width == f.in_width and fg.out_width == g.out_width

    def test_flag_is_and_of_component_flags(self):
        rng = Random(53)
        for _ in range(15):
            f, g = random_kp(rng, 2, 1), random_kp(rng, 1, 2)
            fg = kp_compose(f, g)
            for x in range(1 << f.in_width):
                state = BitVector.from_int(x, f.in_width)
                for wf in range(1 << f.witness_width):
                    for wg in range(1 << g.witness_width):
                        wfb = BitVector.from_int(wf, f.witness_width)
                        wgb = BitVector.from_int(wg, g.witness_width)
                        flag_f, mid = f.run(state, wfb)
                        flag_g, out = g.run(mid, wgb)
                        flag, got = fg.run(state, wfb + wgb)
                        assert flag == (flag_f & flag_g)
                        assert got == out

    def test_associative_extensionally_but_not_structurally(self):
        rng = Random(59)
        for _ in range(10):
            f = random_kp(rng, 1, 2)
            g = random_kp(rng, 2, 1)
            h = random_kp(rng, 1, 1)
            left = kp_compose(kp_compose(f, g), h)
            right = kp_compose(f, kp_compose(g, h))
            assert left.circuit.gates != right.circuit.gates
            assert ext_equal(left.circuit, right.circuit)


class TestEdgeEvaluator:
    def test_accepts_source_vertex(self):
        en = enumerate_graph(AB)
        assert edge_evaluator(AB, en, EdgeStep(0)).run(bv("01")) == (1, bv("10"))

    def test_rejects_other_vertex_but_emits_target(self):
        en = enumerate_graph(AB)
        assert edge_evaluator(AB, en, EdgeStep(0)).run(bv("10")) == (0, bv("10"))

    def test_identity_step(self):
        en = enumerate_graph(AB)
        assert edge_evaluator(AB, en, IdStep(0)).run(bv("01")) == (1, bv("01"))

    def test_unknown_step(self):
        en = enumerate_graph(AB)
        with pytest.raises(LookupError):
            edge_evaluator(AB, en, EdgeStep(7))
        with pytest.raises(LookupError):
            edge_evaluator(AB, en, IdStep(5))


class TestStepVerifier:
    def test_valid_step(self):
        en = enumerate_graph(AB)
        assert step_verifier(AB, en).run(bv("01"), bv("10")) == (1, bv("10"))

    def test_unassigned_edge_code(self):
        en = enumerate_graph(AB)
        assert step_verifier(AB, en).run(bv("01"), bv("11")) == (0, bv("00"))

    def test_undefined_start_vertex(self):
        en = enumerate_graph(AB)
        assert step_verifier(AB, en).run(bv("00"), bv("00")) == (0, bv("01"))


class TestPathVerifier:
    def test_zero_steps_checks_start_is_assigned(self):
        en = enumerate_graph(AB)
        pv = path_verifier(AB, en, 0)
        assert pv.witness_width == 0
        assert pv.run(en.vertex_code(0)) == (1, en.vertex_code(0))
        assert pv.run(en.vertex_code(1)) == (1, en.vertex_code(1))
        assert pv.run(bv("00")) == (0, bv("00"))
        assert pv.run(bv("11")) == (0, bv("11"))

    def test_fold_needs_a_step(self):
        with pytest.raises(ValueError, match="k >= 1"):
            fold(step_verifier(AB, enumerate_graph(AB)), 0)

    def test_two_step_walk(self):
        en = enumerate_graph(ABC)
        pv = path_verifier(ABC, en, 2)
        witness = en.edge_code(0) + en.edge_code(1)
        assert pv.run(en.vertex_code(0), witness) == (1, en.vertex_code(2))

    def test_padded_single_step(self):
        en = enumerate_graph(ABC)
        pv = path_verifier(ABC, en, 2)
        witness = en.edge_code(0) + en.identity_code(1)
        assert pv.run(en.vertex_code(0), witness) == (1, en.vertex_code(1))

    def test_broken_chain_rejected(self):
        en = enumerate_graph(ABC)
        pv = path_verifier(ABC, en, 2)
        witness = en.edge_code(1) + en.edge_code(0)
        flag, _ = pv.run(en.vertex_code(0), witness)
        assert flag == 0

    def test_matches_oracle_exhaustively_small(self):
        for n, m in [(1, 1), (2, 1), (2, 2)]:
            for g in all_graphs(n, m):
                for k in (0, 1, 2):
                    assert_matches_oracle(g, enumerate_graph(g), k)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_with_edges_declared_out_of_order(self, seed):
        # edge codes follow (source, target), not the declaration order
        rng = Random(seed)
        doc = random_multigraph(rng.randint(2, 3), rng.randint(3, 4), rng)
        shuffled = doc["edges"][:]
        rng.shuffle(shuffled)
        for edges in (shuffled, doc["edges"][::-1]):
            g = parse_graph(json.dumps({"vertices": doc["vertices"], "edges": edges}))
            for k in (0, 1, 2):
                assert_matches_oracle(g, enumerate_graph(g), k)

    def test_large_graph_under_the_default_budget(self):
        # a 200-cycle plus 300 seeded chords; the per-output-bit DNF
        # lowering put this verifier at 4.3 million gates
        rng = Random(200)
        vertices = [f"v{i}" for i in range(200)]
        edges = [[f"c{i}", vertices[i], vertices[(i + 1) % 200]] for i in range(200)]
        edges += [[f"h{j}", rng.choice(vertices), rng.choice(vertices)] for j in range(300)]
        g = parse_graph(json.dumps({"vertices": vertices, "edges": edges}))
        snark = snarkize(path_verifier(g, enumerate_graph(g), 16))
        assert snark.gate_count < 1 << 20


class TestPadPath:
    def test_empty_path_pads_with_start_identity(self):
        en = enumerate_graph(AB)
        assert pad_path(en, Path(0), 1) == [en.identity_code(0)]

    def test_pads_with_end_identity(self):
        en = enumerate_graph(ABC)
        codes = pad_path(en, Path(0, (EdgeStep(0),)), 3)
        assert codes == [en.edge_code(0), en.identity_code(1), en.identity_code(1)]

    def test_full_length_unchanged(self):
        en = enumerate_graph(ABC)
        p = Path(0, (EdgeStep(0), EdgeStep(1)))
        assert pad_path(en, p, 2) == [en.edge_code(0), en.edge_code(1)]

    def test_too_long(self):
        en = enumerate_graph(AB)
        with pytest.raises(LengthError):
            pad_path(en, Path(0, (EdgeStep(0),)), 0)

    def test_padding_position_is_irrelevant(self):
        en = enumerate_graph(AB)
        pv = path_verifier(AB, en, 2)
        before = en.identity_code(0) + en.edge_code(0)
        after = en.edge_code(0) + en.identity_code(1)
        assert pv.run(en.vertex_code(0), before) == (1, en.vertex_code(1))
        assert pv.run(en.vertex_code(0), after) == (1, en.vertex_code(1))


class TestSnarkize:
    def test_accepts_correct_claim(self):
        en = enumerate_graph(AB)
        sn = snarkize(path_verifier(AB, en, 1))
        base = en.vertex_code(0) + en.edge_code(0)
        assert sn.evaluate(base + en.vertex_code(1)).bits[0] == 1
        assert sn.evaluate(base + en.vertex_code(0)).bits[0] == 0
        assert sn.evaluate(base + en.zero_vertex()).bits[0] == 0

    def test_pointwise_flag_and_match(self):
        rng = Random(61)
        for _ in range(10):
            f = random_kp(rng, 2, 2)
            sn = snarkize(f)
            for x in range(1 << f.in_width):
                for w in range(1 << f.witness_width):
                    state = BitVector.from_int(x, f.in_width)
                    witness = BitVector.from_int(w, f.witness_width)
                    flag, out = f.run(state, witness)
                    for claim_value in range(1 << f.out_width):
                        claim = BitVector.from_int(claim_value, f.out_width)
                        expected = flag & int(out == claim and not claim.is_zero())
                        got = sn.evaluate(state + witness + claim).bits[0]
                        assert got == expected

    def test_does_not_commute_with_composition(self):
        # Snarkized circuits cannot be chained: the wrapper of a composite
        # has more inputs than the single wire either wrapped part emits.
        rng = Random(67)
        f, g = random_kp(rng, 2, 2), random_kp(rng, 2, 2)
        whole = snarkize(kp_compose(f, g))
        assert snarkize(f).n_outputs == 1
        assert whole.n_inputs > snarkize(f).n_inputs
        assert snarkize(g).n_inputs > snarkize(f).n_outputs


@pytest.mark.parametrize("graph, k", [(de_bruijn(3), 8),
                                      (random_multigraph(32, 64, Random(1909)), 1)],
                         ids=["B(2,3)-k8", "32V-64E-k1"])
def test_every_wire_is_read_once(graph, k):
    """No wire of a fixed-graph verifier or its snark circuit is dead
    or read twice, by a gate or by the output map."""
    g = parse_graph(json.dumps(graph))
    pv = path_verifier(g, enumerate_graph(g), k)
    for c in (pv.circuit, snarkize(pv)):
        assert reads(c) == Counter(range(c.wire_count))


class TestFixedStepsMatchGenericVerifier:
    def test_composed_edge_evaluators_reduce_to_path_verifier(self):
        en = enumerate_graph(ABC)
        steps_pool = [IdStep(0), IdStep(1), IdStep(2), EdgeStep(0), EdgeStep(1)]
        for length in (1, 2):
            pv = path_verifier(ABC, en, length)
            for steps in itertools.product(steps_pool, repeat=length):
                composed = edge_evaluator(ABC, en, steps[0])
                for step in steps[1:]:
                    composed = kp_compose(composed, edge_evaluator(ABC, en, step))
                witness = tuple(b for s in steps for b in en.step_code(s).bits)
                fixed = {en.v_bits + i: bit for i, bit in enumerate(witness)}
                assert truth_columns(pv.circuit, fixed) == truth_columns(composed.circuit)
