"""The reference ROBDD (``bdd_ref``): it agrees with the interpreter
where both reach, and proves verifiers past ``eval-width`` equal to
walks built straight from a graph's tables."""

from __future__ import annotations

import json
from random import Random

import pytest

import bdd_ref
import universal_ref
from helpers import de_bruijn, random_circuit, random_multigraph
from pathcirc import (
    Circuit,
    encoding_width,
    enumerate_graph,
    parse_graph,
    path_verifier,
    source_table,
    target_table,
    to_json,
    truth_columns,
    universal_verifier,
)
from pathcirc.graphs import edge_width, vertex_width
from pathcirc.verifiers import assemble_step, fold


def column(bdd: bdd_ref.BDD, f: int, levels: int) -> int:
    """`f` as a truth column over `levels` variables: bit x is its value
    where the variables, level 0 the most significant, read x."""
    col = 0
    for x in range(1 << levels):
        n = f
        while n > 1:
            level, hi, lo = bdd.nodes[n]
            n = hi if x >> (levels - 1 - level) & 1 else lo
        col |= n << x
    return col


def test_the_referee_agrees_with_truth_columns():
    rng = Random(31)
    for _ in range(200):
        c = random_circuit(rng, rng.randrange(7), rng.randrange(1, 4), 40)
        bdd = bdd_ref.BDD()
        assert [column(bdd, f, c.n_inputs) for f in bdd_ref.outputs(bdd, c)] == truth_columns(c)


def test_the_variable_order_names_the_wire_at_each_level():
    rng = Random(32)
    for _ in range(100):
        c = random_circuit(rng, 5, 2, 30)
        order = rng.sample(range(5), 5)
        bdd = bdd_ref.BDD()
        got = [column(bdd, f, 5) for f in bdd_ref.outputs(bdd, c, order)]
        for x in range(32):
            # level i, bit 4 - i of x, is wire order[i]
            pinned = {w: x >> (4 - i) & 1 for i, w in enumerate(order)}
            assert [col >> x & 1 for col in got] == truth_columns(c, pinned)


def test_unequal_circuits_are_told_apart():
    rng = Random(33)
    pairs = [(random_circuit(rng, 4, 2, 30), random_circuit(rng, 4, 2, 30)) for _ in range(100)]
    assert [bdd_ref.equal(a, b) for a, b in pairs] == \
        [truth_columns(a) == truth_columns(b) for a, b in pairs]
    assert not all(bdd_ref.equal(a, b) for a, b in pairs)


def reference_walk(bdd: bdd_ref.BDD, g, en, k: int) -> list[int]:
    """(flag ++ state out) of the k-step walk over input levels state ++
    k edge codes: the flag ANDs, over the steps, state = source(edge)
    and state != 0; the state out is the last step's target."""
    def or_(f, h):
        return bdd.not_(bdd.and_(bdd.not_(f), bdd.not_(h)))

    def lookup(table, code):
        # each output bit as a multiplexer over the rows, the last code bit first
        cells = [[row.bits[j] for row in table.rows] for j in range(table.out_width)]
        for s in reversed(code):
            cells = [[or_(bdd.and_(s, hi), bdd.and_(bdd.not_(s), lo))
                      for lo, hi in zip(col[::2], col[1::2])] for col in cells]
        return [col[0] for col in cells]

    tables = source_table(en, g), target_table(en, g)
    levels = [bdd.node(i, 1, 0) for i in range(en.v_bits + k * en.e_bits)]
    state, flag = levels[:en.v_bits], 1
    for i in range(k):
        code = levels[en.v_bits + i * en.e_bits:][:en.e_bits]
        source, target = (lookup(table, code) for table in tables)
        for a, b in zip(state, source):
            flag = bdd.and_(flag, bdd.not_(or_(bdd.and_(a, bdd.not_(b)), bdd.and_(bdd.not_(a), b))))
        nonzero = 0
        for a in state:
            nonzero = or_(nonzero, a)
        flag, state = bdd.and_(flag, nonzero), target
    return [flag, *state]


@pytest.mark.parametrize("doc, k, inputs", [
    (de_bruijn(3), 8, 44), (random_multigraph(32, 64, Random(1909)), 16, 118)],
    ids=["long-walk", "multigraph-32-64-k16"])
def test_fixed_graph_verifiers_equal_the_reference_walk(doc, k, inputs):
    g = parse_graph(json.dumps(doc))
    en = enumerate_graph(g)
    c = path_verifier(g, en, k).circuit
    assert c.n_inputs == inputs
    bdd = bdd_ref.BDD()
    assert bdd_ref.outputs(bdd, c) == reference_walk(bdd, g, en, k)


@pytest.mark.parametrize("k, inputs", [(2, 22), (4, 26)])
def test_universal_verifiers_equal_the_per_graph_dispatch(k, inputs):
    m = n = 2
    step = assemble_step(vertex_width(n), encoding_width(m, n), edge_width(m, n),
                         universal_ref.source(m, n), universal_ref.target(m, n))
    c = universal_verifier(m, n, k).circuit
    assert c.n_inputs == inputs
    assert bdd_ref.equal(c, fold(step, k).circuit)


def test_the_script_proves_two_documents_equal_or_not(tmp_path, capsys):
    uv = universal_verifier(2, 2, 2)
    meta = {"kind": "zkp", "in_width": uv.in_width, "spec_width": uv.spec_width,
            "witness_width": uv.witness_width, "out_width": uv.out_width}
    step = assemble_step(uv.in_width, uv.spec_width, uv.witness_width // 2,
                         universal_ref.source(2, 2), universal_ref.target(2, 2))
    c = uv.circuit
    paths = []
    for i, other in enumerate((c, fold(step, 2).circuit,
                               Circuit(c.n_inputs, c.output_map[::-1], c.kinds, c.ins),
                               universal_verifier(2, 2, 1).circuit)):
        path = tmp_path / f"{i}.json"
        path.write_text(to_json(other, meta), encoding="utf-8")
        paths.append(str(path))
    a, same, swapped, shorter = paths
    assert bdd_ref.main([a, same]) == bdd_ref.main([a, same, "--spec-last"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("equal")
    assert bdd_ref.main([a, swapped, "--spec-last"]) == 1
    assert capsys.readouterr().out.startswith("unequal")
    assert bdd_ref.main([a, shorter]) == 1
    assert capsys.readouterr().out.startswith("widths differ")
