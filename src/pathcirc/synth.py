"""Lowering truth tables and table-like functions to circuits.

A table is lowered by :func:`robdd` as one reduced ordered binary
decision diagram (ROBDD, Bryant 1986) that all its output bits share.
Its select wires are read MSB first (in :func:`synth`, the inputs, so
input wire 0 is the top variable), and each output bit is given as a
column of terminals, one per row: a constant or a wire w of the
circuit, such as a universal spec bit, which is the literal node
(w, 1, 0). Each column is reduced bottom-up: padded with 0 to one row
per select pattern, it is halved once per select wire s, the last
first, rows 2i (s = 0, lo) and 2i + 1 (s = 1, hi) becoming the node
(s, hi, lo), or their one child when they name the same. A node is
made once per distinct (s, hi, lo), after its children, and is a
multiplexer, NAND(NAND(s, hi), NAND(NOT s, lo)), unless a child is
constant: then it is the literal s or NOT s, an AND of a literal with
the other child, or an OR, NAND(literal, NOT child). One table holds
one NAND per ordered operand pair (a wire or an earlier NAND), NOT x
being NAND(x, x) and NOT of a NOT its operand; the NANDs the roots
read are emitted in that order, each wire and NAND fanned out once to
all its readers. A constant output bit is one TRUE or FALSE gate. The
circuits named here -- a graph's source/target lookups, the
nonzero-aware MATCH and the single-point filters -- build every verifier.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import budget
from .circuits import BitVector, Circuit, CircuitBuilder
from .graphs import Enumeration, Graph, TruthTable, source_table, target_table

__all__ = [
    "TruthTable",
    "synth",
    "robdd",
    "match_circuit",
    "filter_circuit",
    "assigned_vertex_circuit",
    "source_circuit",
    "target_circuit",
]


def synth(table: TruthTable) -> Circuit:
    """Lower a truth table to a circuit, exactly, as one shared ROBDD."""
    budget.check("synth-width", table.in_width, "the truth table", "inputs")
    b = CircuitBuilder(table.in_width)
    return b.finish(robdd(b, b.inputs(), zip(*(row.bits for row in table.rows))))


def robdd(b: CircuitBuilder, selects: list[int], columns: Iterable[Sequence[int]],
          leaves: Sequence[int] = ()) -> list[int]:
    """Emit into `b` one shared ROBDD of `columns` over the wires
    `selects`, read MSB first; return a wire per column. ``column[x]``
    is the column's terminal where the selects read x: 0 or 1 for that
    constant, 2 + i for the wire ``leaves[i]`` of `b`. A column has at
    most 2^len(selects) rows and is 0 on the rows it leaves out. No two
    NANDs emitted read the same ordered pair, and none is a NOT of a
    NOT. A repeated leaf wire, a longer column, or a terminal below 0
    or past the last leaf (the first such in row order is named) raises
    :class:`ValueError` before any gate is emitted."""
    width = len(selects)
    top = len(leaves) + 2
    # unique[(wire, hi, lo)]: that node's id; 0, 1 the constants, 2 + i the leaf i
    unique = {(w, 1, 0): i for i, w in enumerate(leaves, 2)}
    if len(unique) < len(leaves):
        repeated = next(w for i, w in enumerate(leaves, 2) if unique[w, 1, 0] != i)
        raise ValueError(f"leaf wire {repeated} is repeated")
    roots = []
    for column in columns:
        if len(column) > 1 << width:
            raise ValueError(f"a column has {len(column)} rows, over the "
                             f"2^{width} = {1 << width} its selects read")
        if not 0 <= min(column, default=0) <= max(column, default=0) < top:
            raise ValueError(f"terminal {next(t for t in column if not 0 <= t < top)} "
                             f"names no constant or leaf: there are {len(leaves)} leaves")
        # bottom-up, the last select first: it pairs rows 2i (lo) and 2i + 1 (hi)
        nodes = [*column, *[0] * ((1 << width) - len(column))]
        for s in reversed(selects):
            nodes = [hi if hi == lo else unique.setdefault((s, hi, lo), len(unique) + 2)
                     for lo, hi in zip(nodes[::2], nodes[1::2])]
        roots += nodes  # the one node left: the column's root
    # nands[x, y]: the id of NAND(x, y), -1 down; negation[x]: NOT x, and back
    nands: dict[tuple[int, int], int] = {}
    negation: dict[int, int] = {}

    def nand(x: int, y: int) -> int:
        return nands.setdefault((x, y), ~len(nands))

    def not_(x: int) -> int:
        if x not in negation:
            negation[x] = nand(x, x)
            negation[negation[x]] = x
        return negation[x]

    value: dict[int, int] = {}  # value[n]: node n's operand
    for (s, hi, lo), n in unique.items():  # in creation order, so children first
        if hi < 2 and lo < 2:
            value[n] = s if hi else not_(s)
        elif lo == 0:
            value[n] = not_(nand(s, value[hi]))
        elif hi == 0:
            value[n] = not_(nand(not_(s), value[lo]))
        elif hi == 1:
            value[n] = nand(not_(s), not_(value[lo]))
        elif lo == 1:
            value[n] = nand(s, not_(value[hi]))
        else:
            value[n] = nand(nand(s, value[hi]), nand(not_(s), value[lo]))
    # reads, counted parents first and only from the NANDs that are read
    reads = dict.fromkeys([*selects, *leaves, *nands.values()], 0)
    for v in [value[n] for n in roots if n > 1]:
        reads[v] += 1
    for (x, y), n in reversed(nands.items()):
        if reads[n]:
            reads[x] += 1
            reads[y] += 1
    wires = {w: b.fanout(w, reads[w]) for w in dict.fromkeys([*selects, *leaves]) if reads[w]}
    for (x, y), n in nands.items():
        if reads[n]:
            w = b.nand(wires[x].pop(), wires[y].pop())
            wires[n] = [w] if reads[n] == 1 else b.fanout(w, reads[n])
    return [wires[value[n]].pop() if n > 1 else b.true() if n else b.false() for n in roots]


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
    rows = [BitVector((int(en.decode_vertex(x) is not None),)) for x in range(1 << en.v_bits)]
    return synth(TruthTable(en.v_bits, 1, rows))


def source_circuit(g: Graph, en: Enumeration) -> Circuit:
    """Circuit form of the source table: edge code in, vertex code out."""
    return synth(source_table(en, g))


def target_circuit(g: Graph, en: Enumeration) -> Circuit:
    """Circuit form of the target table: edge code in, vertex code out."""
    return synth(target_table(en, g))
