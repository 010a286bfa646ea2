"""Lowering truth tables and table-like functions to circuits.

Tables are lowered on one row decoder that all output bits share. Only
the rows that are 1 in some non-constant output are decoded: the input
bus is split in halves, recursively, each half-pattern is decoded once,
and one gate per row joins its two halves. The top level emits each
row complemented (a single NAND of its halves), fanned out to the
output bits it sets; an output bit is then the NAND of two balanced
AND trees over its complemented rows, which is the OR of those rows.
Constant output bits are single TRUE or FALSE gates. The named
circuits built here -- the source/target lookups of a graph, the
nonzero-aware MATCH comparator and the single-point filters -- are the
building blocks of every verifier in the package.
"""

from __future__ import annotations

from collections import Counter

from . import budget
from .circuits import BitVector, Circuit, CircuitBuilder
from .graphs import Enumeration, Graph, TruthTable, source_table, target_table

__all__ = [
    "TruthTable",
    "synth",
    "match_circuit",
    "filter_circuit",
    "assigned_vertex_circuit",
    "source_circuit",
    "target_circuit",
]


def _rows(b: CircuitBuilder, bus: list[int], demand: Counter, join=None) -> dict[int, list[int]]:
    """Decode the patterns of `bus` (integers, MSB first) that `demand`
    counts: ``demand[p]`` wires for pattern ``p``, each carrying
    ``join`` of its halves' minterms (AND by default, so ``[bus == p]``).
    A one-wire bus has no halves: it is its own minterm for 1, and its
    negation for 0."""
    if len(bus) == 1:
        ones, zeros = demand[1], demand[0]
        wires = b.fanout(bus[0], ones + (zeros > 0))
        return {1: wires[:ones], 0: b.fanout(b.not_(wires[-1]), zeros) if zeros else []}
    half = (len(bus) + 1) // 2
    low = len(bus) - half
    mask = (1 << low) - 1
    his = _rows(b, bus[:half], Counter(p >> low for p in demand))
    los = _rows(b, bus[half:], Counter(p & mask for p in demand))
    join = join or b.and_
    return {p: b.fanout(join(his[p >> low].pop(), los[p & mask].pop()), n)
            for p, n in demand.items()}


def _nand_all(b: CircuitBuilder, wires: list[int]) -> int:
    """NOT of the AND of the wires: the NAND of two balanced AND trees,
    which is the OR of the wires' complements."""
    if len(wires) == 1:
        return b.not_(wires[0])
    half = len(wires) // 2
    return b.nand(b.and_chain(wires[:half]), b.and_chain(wires[half:]))


def synth(table: TruthTable) -> Circuit:
    """Lower a truth table to a circuit, exactly, on a shared row decoder."""
    width = table.in_width
    budget.check("synth-width", width, "the truth table", "inputs")
    b = CircuitBuilder(width)
    ones = [[x for x, row in enumerate(table.rows) if row.bits[bit]]
            for bit in range(table.out_width)]
    live = [xs for xs in ones if 0 < len(xs) < len(table.rows)]
    demand = Counter(x for xs in live for x in xs)
    # complemented rows, except on a one-wire bus, whose rows are minterms
    rows = _rows(b, b.inputs(), demand, b.nand) if demand else {}
    outputs = []
    for xs in ones:
        if not xs or len(xs) == len(table.rows):
            outputs.append(b.true() if xs else b.false())
        elif width == 1:
            outputs.append(rows[xs[0]].pop())
        else:
            outputs.append(_nand_all(b, [rows[x].pop() for x in xs]))
    return b.finish(outputs)


def match_circuit(width: int) -> Circuit:
    """Equality test that rejects the reserved all-zero code.

    2*width inputs (two codes), one output: 1 iff the halves are equal
    and nonzero. Built structurally (per-bit XNOR into an AND chain,
    then an OR-chain nonzero check) so it scales to any width.
    """
    if width < 1:
        raise ValueError("match_circuit needs width >= 1")
    b = CircuitBuilder(2 * width)
    first = [b.copy(w) for w in range(width)]
    same = b.and_chain([b.xnor(pair[0], width + i) for i, pair in enumerate(first)])
    nonzero = b.or_chain([pair[1] for pair in first])
    return b.finish([b.and_(same, nonzero)])


def filter_circuit(point: BitVector) -> Circuit:
    """Indicator of a single bitstring: NOT each 0-position, AND everything."""
    if point.width < 1:
        raise ValueError("filter_circuit needs a nonempty bitstring")
    b = CircuitBuilder(point.width)
    literals = [w if point.bits[w] else b.not_(w) for w in range(point.width)]
    return b.finish([b.and_chain(literals)])


def assigned_vertex_circuit(en: Enumeration) -> Circuit:
    """Indicator of the assigned vertex codes 1..|V|, lowered as a table.

    Rejects the reserved all-zero code and any spare code beyond the
    graph's vertices; constantly 0 for a graph with no vertices.
    """
    rows = [BitVector((int(1 <= x <= en.n_vertices),)) for x in range(1 << en.v_bits)]
    return synth(TruthTable(en.v_bits, 1, rows))


def source_circuit(g: Graph, en: Enumeration) -> Circuit:
    """Circuit form of the source table: edge code in, vertex code out."""
    return synth(source_table(en, g))


def target_circuit(g: Graph, en: Enumeration) -> Circuit:
    """Circuit form of the target table: edge code in, vertex code out."""
    return synth(target_table(en, g))
