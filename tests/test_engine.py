"""The interpreter: the lowered NAND program against the per-kind
reference loop, and batched evaluation against one vector at a time and
against the path oracle."""

from __future__ import annotations

import json
from random import Random

import pytest

from engine_ref import reference_columns, reference_evaluate
from helpers import de_bruijn, random_circuit, random_multigraph
from pathcirc import (
    BitVector,
    Circuit,
    EdgeStep,
    Path,
    WidthError,
    enumerate_graph,
    evaluate_batch,
    from_json,
    identity,
    pad_path,
    parse_graph,
    path_oracle,
    path_verifier,
    snarkize,
    to_json,
    truth_columns,
)
from pathcirc.circuits import CODE, COPY, FALSE, NAND, TRUE

N, C, T, F = (CODE[kind] for kind in (NAND, COPY, TRUE, FALSE))

_rng = Random(10)
RANDOM = [random_circuit(_rng, _rng.randrange(6), _rng.randrange(1, 5), 40) for _ in range(300)]

#: Flat-array circuits no builder emits, each with the case it covers.
FLAT = {
    "wire-read-twice": Circuit(1, (1,), bytes([N]), (0, 0)),
    "input-output": Circuit(2, (1, 0, 1), b"", ()),
    "constant-outputs": Circuit(1, (1, 2), bytes([T, F]), ()),
    "repeated-output": Circuit(2, (2, 2, 0, 2), bytes([N]), (0, 1)),
    "dead-nands": Circuit(2, (3,), bytes([N, N, N]), (0, 1, 1, 0, 2, 2)),
    "copy-of-copy": Circuit(1, (4, 1, 3), bytes([C, C, N]), (0, 2, 1, 3)),
    "copy-of-constant": Circuit(1, (3, 4, 2), bytes([T, C, N]), (1, 0, 2)),
    "no-inputs": Circuit(0, (3, 0, 2), bytes([T, F, C, N]), (1, 0, 2)),
    "no-gates": Circuit(3, (2, 0), b"", ()),
    "empty": Circuit(0, (), b"", ()),
    "no-outputs": Circuit(2, (), bytes([N]), (0, 1)),
}


def fresh(c: Circuit) -> Circuit:
    """An equal circuit that has never been evaluated."""
    return Circuit(c.n_inputs, c.output_map, c.kinds, c.ins)


def vectors(n: int) -> list[BitVector]:
    return [BitVector.from_int(x, n) for x in range(1 << n)]


def pinnings(c: Circuit, rng: Random) -> list[dict[int, int]]:
    """No pins, every input pinned, and a random half pinned."""
    half = {w: rng.randrange(2) for w in range(c.n_inputs) if rng.random() < 0.5}
    return [{}, {w: rng.randrange(2) for w in range(c.n_inputs)}, half]


#: The circuits under test by family; the documents went through JSON.
FAMILIES = {
    "random": RANDOM,
    "flat": list(FLAT.values()),
    "json": [from_json(to_json(c)) for c in RANDOM[::10] + list(FLAT.values())],
}


class TestAgainstReference:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_evaluate(self, family):
        for i, c in enumerate(map(fresh, FAMILIES[family])):
            for v in vectors(c.n_inputs):
                assert c.evaluate(v).bits == reference_evaluate(c, v.bits), (i, v)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_truth_columns(self, family):
        rng = Random(family)
        for i, c in enumerate(map(fresh, FAMILIES[family])):
            for fixed in pinnings(c, rng):
                assert truth_columns(c, fixed) == reference_columns(c, fixed), (i, fixed)

    @pytest.mark.parametrize("n", range(17))
    def test_input_columns(self, n):
        c = identity(n)
        for fixed in ({}, {w: 1 for w in range(n)[-1:]}, {w: w % 2 for w in range(0, n, 3)}):
            assert truth_columns(c, fixed) == reference_columns(c, fixed), fixed

    def test_random_soup_reaches_every_kind(self):
        kinds = b"".join(c.kinds for c in RANDOM)
        assert all(kinds.count(code) for code in (N, C, T, F))
        assert sum(not c.n_inputs for c in RANDOM) > 10


class TestEvaluateBatch:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_agrees_with_evaluate(self, family):
        for i, c in enumerate(FAMILIES[family]):
            vs = vectors(c.n_inputs)
            batched = evaluate_batch(fresh(c), vs)
            assert batched == [c.evaluate(v) for v in vs], i
            assert evaluate_batch(c, vs[::-1]) == batched[::-1], i
            assert evaluate_batch(c, vs[:1]) == batched[:1], i

    def test_empty_batch(self):
        assert evaluate_batch(FLAT["dead-nands"], []) == []

    def test_width_check(self):
        c = FLAT["dead-nands"]
        with pytest.raises(WidthError, match="expects 2 input bits, got 3"):
            evaluate_batch(c, [BitVector((0, 1)), BitVector((0, 1, 1))])

    @pytest.mark.parametrize("doc, k", [(de_bruijn(3), 8),
                                        (random_multigraph(32, 64, Random(1909)), 1)],
                             ids=["B(2,3)-k8", "32V-64E-k1"])
    def test_snark_circuit_against_the_oracle(self, doc, k):
        g = parse_graph(json.dumps(doc))
        en = enumerate_graph(g)
        snark = snarkize(path_verifier(g, en, k))
        rng = Random(k)
        walks, expected = [], []
        for i in range(96):
            start, codes, claim = claimed_walk(g, en, k, i % 3, rng)
            valid, end = path_oracle(g, en, start, codes)
            walks.append(BitVector(start.bits + sum((c.bits for c in codes), ()) + claim.bits))
            expected.append(valid and claim == end)
        assert 0 < sum(expected) < len(expected)
        verdicts = [out.bits == (1,) for out in evaluate_batch(snark, walks)]
        assert verdicts == expected
        assert verdicts == [snark.evaluate(w).bits == (1,) for w in walks]


def claimed_walk(g, en, k: int, kind: int, rng: Random):
    """A start code, k step codes and a claimed end code. Kind 0 is a
    walk in the graph with its true end; kind 1 the same walk claiming
    a random end; kind 2 random bits throughout."""
    if kind == 2:
        return (BitVector.from_int(rng.getrandbits(en.v_bits), en.v_bits),
                [BitVector.from_int(rng.getrandbits(en.e_bits), en.e_bits) for _ in range(k)],
                BitVector.from_int(rng.getrandbits(en.v_bits), en.v_bits))
    start = cur = rng.randrange(g.n_vertices)
    steps = []
    for _ in range(rng.randrange(k + 1)):
        out = [j for j, e in enumerate(g.edges) if e.src == cur]
        if not out:
            break
        steps.append(EdgeStep(rng.choice(out)))
        cur = g.edges[steps[-1].edge].tgt
    claim = (en.vertex_code(cur) if kind == 0
             else BitVector.from_int(rng.getrandbits(en.v_bits), en.v_bits))
    return en.vertex_code(start), pad_path(en, Path(start, tuple(steps)), k), claim
