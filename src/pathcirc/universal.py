"""Graph-agnostic verifier circuits.

Instead of hardwiring one graph's source/target tables, the circuits
here take the tables themselves as an extra input bus: a graph within
capacity (at most ``m`` edges and ``n`` vertices) is serialised into a
fixed-width bitstring. That spec bus *is* the two tables, so a
universal lookup is the fixed-graph lookup, :func:`~pathcirc.synth.robdd`
over the edge code, with spec wires as leaves: row r < n + m ends in the
spec wire of its bit, and the rows above in 0, as a valid spec leaves
them zero. The result is ANDed with a
structural validity check of the spec (:func:`_spec_valid`), so a spec
that encodes no graph within capacity yields all zeros, which the
MATCH stage rejects. The check lowers each table cell by the same
:func:`~pathcirc.synth.robdd` over its wires and flags row r as an
identity row (both cells hold r + 1), a zero row or an edge row (both
hold codes in 1..min(n, r)). Local rules decide: row 0 is an identity
row and every other row one of the three; identity rows come only
after identity rows, zero rows only before zero rows; a nonzero row
r > m has an identity row at r - m, so at most m edge rows follow the
identity rows; an edge code x needs row x - 1 to be an identity row,
a terminal of the cell's ROBDD where no other rule implies it; and the
rows from n + m on are zero. The k = 0
assigned-vertex check is that lowering over the state, with the
identity-row flags as leaves: a state s is assigned iff the spec is
valid and row s - 1 is an identity row. The verifiers built here are
the :class:`~pathcirc.verifiers.Verifier` shape with the encoding on
the spec bus; a fixed-graph verifier is the same shape with an empty one.

Every circuit here is polynomial in the capacity. A capacity whose
spec bus alone is wider than the gate budget is refused before any gate
is built; any other circuit over the budget is refused by its
:class:`~pathcirc.circuits.CircuitBuilder` once it reaches the limit,
so the cost of refusing one is bounded by the budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from . import budget
from .circuits import BitVector, Circuit, CircuitBuilder
from .errors import BudgetError, CapacityError, ValidationError
from .graphs import (
    Enumeration,
    Graph,
    all_graphs,
    edge_width,
    enumerate_graph,  # noqa: F401 -- perfbench/tracing.py wraps universal.enumerate_graph
    family_size,
    source_table,
    target_table,
    vertex_width,
)
from .synth import robdd
from .verifiers import (Verifier, assemble_step, compose, empty_walk, fold, snarkize,
                        verifier_identity)


def encoding_width(m: int, n: int) -> int:
    """Bits needed to store a graph's source and target tables at
    capacity (m edges, n vertices): two tables of 2^e_bits rows of
    v_bits each."""
    return 2 * (1 << edge_width(m, n)) * vertex_width(n)


@dataclass(frozen=True)
class GraphEncoding:
    """A graph's source+target tables serialised at capacity widths.

    Layout: source table rows in code order, row-major, then target
    table rows.
    """

    m: int
    n: int
    bits: BitVector

    def __post_init__(self):
        if self.bits.width != encoding_width(self.m, self.n):
            raise ValidationError(
                f"encoding must be {encoding_width(self.m, self.n)} bits, "
                f"got {self.bits.width}"
            )


def capacity_enumeration(g: Graph, m: int, n: int) -> Enumeration:
    """Enumerate a graph at the widths of capacity (m, n).

    Edges keep declaration order: here the codes are the rows of the
    universal spec, so each graph of the family encodes as declared
    (see :func:`~pathcirc.graphs.enumerate_graph` for fixed graphs)."""
    if g.n_vertices > n:
        raise CapacityError(f"{g.n_vertices} vertices exceed capacity {n}")
    if g.n_edges > m:
        raise CapacityError(f"{g.n_edges} edges exceed capacity {m}")
    return Enumeration(g, vertex_width(n), edge_width(m, n))


def encode_graph(g: Graph, m: int, n: int) -> GraphEncoding:
    """Serialise a graph's tables at capacity; codes beyond the graph's
    own elements stay unassigned, so their rows are all-zero."""
    en = capacity_enumeration(g, m, n)
    tables = source_table(en, g), target_table(en, g)
    return GraphEncoding(m, n, BitVector(tuple(bit for table in tables
                                               for row in table.rows for bit in row.bits)))


def _check_capacity(m: int, n: int) -> None:
    if n < 1 or m < 0:
        raise CapacityError(f"capacity needs at least 1 vertex and 0 edges, got ({m}, {n})")


def valid_graphs(m: int, n: int) -> list[Graph]:
    """Every graph encodable at capacity (m, n), in canonical order.

    Ranges over 1..n vertices and 0..m edges: their encodings are the
    valid specs of the universal circuits. The empty graph is left out:
    its encoding is the all-zero string, which the circuits treat as
    invalid, with the same all-zero result an empty graph would give.
    A capacity below one vertex or zero edges is refused, and so is one
    whose family has more graphs than the ``graphs`` budget or names more
    vertices and edges than the ``gates`` budget, before any is built.
    """
    _check_capacity(m, n)
    # a shape with one vertex or no edges has one graph, m + n of them in
    # all; every other shape adds at least 4, so the count stops within the limit
    vertices = range(2, n + 1) if m else ()  # of the other shapes
    shapes = ((v, e) for v in vertices for e in range(1, m + 1))
    budget.check("graphs", family_size(shapes, m + n), f"capacity ({m}, {n})", "graphs")
    # the graphs with one vertex name (m + 1)(m + 2) / 2 vertices and
    # edges, those with no edges n(n + 1) / 2 - 1 more: quadratic in a
    # capacity that the count above lets through
    names = (m + 1) * (m + 2) // 2 + n * (n + 1) // 2 - 1 + sum(
        v ** (2 * e) * (v + e) for v in vertices for e in range(1, m + 1))
    budget.check("gates", names, f"capacity ({m}, {n})", "vertices and edges in its graphs")
    return [g for v in range(1, n + 1) for e in range(m + 1) for g in all_graphs(v, e)]


def _nand_all(b: CircuitBuilder, wires: list[int]) -> int:
    """NOT of the AND of the wires: the NAND of two balanced AND trees,
    which is the OR of the wires' complements."""
    if len(wires) == 1:
        return b.not_(wires[0])
    half = len(wires) // 2
    return b.nand(b.and_chain(wires[:half]), b.and_chain(wires[half:]))


def _row(r: int, m: int, n: int) -> tuple[range, range, list[list[tuple[str, int]]]]:
    """Row r of a spec at capacity (m, n): the codes an edge row there
    holds, those of them whose identity row the rule does not already
    imply, and the rule, an OR of ANDs of row flags."""
    used = n + m
    edges = range(1, min(n, r) + 1) if m and r < used else range(0)
    checked = edges[max(1, r - m + 1):]
    if r == 0 or r >= used:
        return edges, checked, [[("zero", r) if r else ("id", 0)]]
    rule = [[("zero", r)] + [("zero", r + 1)] * (m > 1 and r + 1 < used)]
    if r < n:
        rule.insert(0, [("id", r)] + [("id", r - 1)] * (r > 1))
    if edges:
        rule.append([("edge", r)] + [("id", r - m)] * (r > m))
    return edges, checked, rule


def _spec_valid(b: CircuitBuilder, spec: list[int], m: int, n: int,
                identities: bool = False) -> tuple[int, list[int]]:
    """Flag whether `spec` is the encoding of a graph at capacity (m, n).

    Each table cell is one :func:`~pathcirc.synth.robdd` over its wires,
    with a column per flag of its row, and a flag is the AND of the two
    cells' outputs: row r is an identity row (both cells hold r + 1,
    read off the encoding of the edgeless graph on n vertices), a zero
    row, or an edge row (both cells hold codes in 1..min(n, r)). The
    spec is valid iff every row's rule holds (see :func:`_row`) and row
    x - 1 is an identity row for each code x an edge row holds where no
    rule implies it: the cell's last column, 1 on every other code and
    a copy of row x - 1's identity flag on x, is a term of the flag.
    With `identities`, also return a copy of the identity flag of each
    row r < n.
    """
    v_bits, rows = vertex_width(n), 1 << edge_width(m, n)
    # the edgeless graph on n vertices holds the identity codes in its first n rows
    (edgeless,) = all_graphs(n, 0)
    steps = encode_graph(edgeless, m, n).bits.bits
    layout = [_row(r, m, n) for r in range(rows)]
    uses = Counter(key for _, _, rule in layout for product in rule for key in product)
    # both cells of a row read a copy of the identity flag of row x - 1 for each
    # checked x; the codes a row checks are a run, so the runs' ends are counted
    starts = Counter(checked.start for _, checked, _ in layout if checked)
    stops = Counter(checked.stop for _, checked, _ in layout if checked)
    runs = accumulate(starts[x] - stops[x] for x in range(n + 1))
    uses.update({("id", x - 1): 2 * count for x, count in enumerate(runs) if count})
    uses.update(("id", r) for r in range(n) if identities)
    wires, terms = {}, []
    for r, (edges, checked, _) in enumerate(layout):
        cells = [slice((t * rows + r) * v_bits, (t * rows + r + 1) * v_bits) for t in (0, 1)]
        step = BitVector(steps[cells[0]]).value
        # terminal 2 + i is the leaf i, a copy of the identity flag of row checked[i] - 1
        k = (len(checked) + 1).bit_length()
        ones = ((1 << (k << v_bits)) - 1) // ((1 << k) - 1)  # terminal 1 on every code
        keys = [("id", r)] * (step > 0) + [("zero", r)] * (r > 0) + [("edge", r)] * bool(edges)
        columns = [1 << step * k] * (step > 0) + [1] * (r > 0)
        if edges:
            columns.append(ones >> ((1 << v_bits) - len(edges)) * k << k)
        if checked:
            columns.append(ones + sum(i << x * k for i, x in enumerate(checked, 1)))
        outs = [robdd(b, spec[cell], columns, [wires["id", x - 1].pop() for x in checked], k)
                for cell in cells]
        for key, source, target in zip(keys, *outs):
            wires[key] = b.fanout(b.and_(source, target), uses[key])
        terms += [out[-1] for out in outs if checked]
    for _, _, rule in layout:  # a rule is one flag, or an OR of ANDs
        products = [[wires[key].pop() for key in product] for product in rule]
        terms.append(products[0][0] if len(rule) == 1 else
                     _nand_all(b, [_nand_all(b, product) for product in products]))
    return b.and_chain(terms), [wires["id", r].pop() for r in range(n) if identities]


def _refuse_over_budget(m: int, n: int, what: str) -> None:
    """Refuse `what` at capacity (m, n) if the capacity is not one, or
    if its spec bus alone is wider than the gate budget. The builder
    refuses any larger circuit as its gates are emitted."""
    _check_capacity(m, n)
    budget.check("gates", encoding_width(m, n), f"{what} at capacity ({m}, {n})", "spec wires")


def _lookup(m: int, n: int, side: int) -> Circuit:
    """(encoding ++ edge code) -> the code in row `edge code` of table
    `side` (0 source, 1 target), all-zero when the spec is invalid."""
    _refuse_over_budget(m, n, "a universal lookup")
    v_bits, e_bits, f_bits = vertex_width(n), edge_width(m, n), encoding_width(m, n)
    used = n + m
    b = CircuitBuilder(f_bits + e_bits)
    spec, edge = b.inputs()[:f_bits], b.inputs()[f_bits:]
    start = side * (1 << e_bits) * v_bits
    end = start + used * v_bits
    checked, table = b.fanout_bus(spec[start:end], 2)
    valid, _ = _spec_valid(b, spec[:start] + checked + spec[end:], m, n)
    # bit j of row r < n + m is the leaf table[r * v_bits + j], terminal id 2 + that index
    k = (len(table) + 1).bit_length()
    out = robdd(b, edge, [sum(i + 2 << r * k for r, i in enumerate(range(j, len(table), v_bits)))
                          for j in range(v_bits)], table, k)
    return b.finish([b.and_(on, bit) for on, bit in zip(b.fanout(valid, v_bits), out)])


def universal_source(m: int, n: int) -> Circuit:
    """Source lookup for any encodable graph: (encoding ++ edge code) ->
    source vertex code, all-zero when the encoding matches no graph or
    the edge code is unassigned in it."""
    return _lookup(m, n, 0)


def universal_target(m: int, n: int) -> Circuit:
    """Target lookup for any encodable graph (see universal_source)."""
    return _lookup(m, n, 1)


def universal_step(m: int, n: int) -> Verifier:
    """One-step walk checker over the graph spec bus.

    State in: a vertex code at capacity width. Spec: a graph encoding.
    Witness: an edge code. Flag is MATCH(vertex, source); state out is
    the target, both read through the universal lookups, which refuse
    a capacity over the gate budget.
    """
    return assemble_step(vertex_width(n), encoding_width(m, n), edge_width(m, n),
                         universal_source(m, n), universal_target(m, n))


def _assigned(m: int, n: int) -> Circuit:
    """(encoding ++ vertex code) -> whether the code is a vertex of the
    encoded graph: the spec is valid and row s - 1, the identity step of
    vertex s, is an identity row."""
    _refuse_over_budget(m, n, "the spec validity check")
    f_bits = encoding_width(m, n)
    b = CircuitBuilder(f_bits + vertex_width(n))
    valid, ids = _spec_valid(b, b.inputs()[:f_bits], m, n, identities=True)
    # code s in 1..n reads the leaf ids[s - 1], terminal id s + 1
    k = (n + 1).bit_length()
    (hit,) = robdd(b, b.inputs()[f_bits:], [sum(s + 1 << s * k for s in range(1, n + 1))], ids, k)
    return b.finish([b.and_(valid, hit)])


def universal_verifier(m: int, n: int, k: int) -> Verifier:
    """k-fold composition of the universal step checker.

    Verifies any walk of up to k steps (shorter ones via identity
    padding) in any graph with at most m edges and n vertices, the
    graph being chosen by the spec input alone. k = 0 is the empty-walk
    check: accept iff the state input is an assigned vertex of the
    encoded graph, passing the state through (the spec-ignoring
    categorical identity is :func:`verifier_identity`). Verifiers over
    a budget are refused, naming the capacity and k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    try:
        if k == 0:
            return empty_walk(vertex_width(n), encoding_width(m, n), _assigned(m, n))
        return fold(universal_step(m, n), k)
    except BudgetError as exc:
        raise BudgetError(f"the universal verifier at capacity ({m}, {n}), k = {k}: "
                          f"{exc}") from exc


ZkpMorphism = Verifier
zkp_identity = verifier_identity
zkp_compose = compose
zkp_snarkize = snarkize
