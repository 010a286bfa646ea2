"""Graph-agnostic verifier circuits.

Instead of hardwiring one graph's source/target tables, the circuits
here take the tables themselves as an extra input bus: a graph within
capacity (at most ``m`` edges and ``n`` vertices) is serialised into a
fixed-width bitstring. That spec bus *is* the two tables, so a
universal lookup is a multiplexer over it: the edge code is decoded
into one select per table row, and each output bit is the OR over rows
of (select AND spec bit). Only the first n + m rows are read, because a
valid spec leaves the others zero. The result is ANDed with a
structural validity check of the spec (:func:`_spec_valid`), so a spec
that encodes no graph within capacity yields all zeros, which the
MATCH stage rejects. The k = 0 assigned-vertex check is a multiplexer
too: a state s is assigned iff the spec is valid and row s - 1 of its
source table (the identity step of vertex s) holds s. The verifiers
built here are the :class:`~pathcirc.verifiers.Verifier` shape with
the encoding on the spec bus; a fixed-graph verifier is the same shape
with an empty one.

Every circuit here is polynomial in the capacity. Its exact gate count
is computed before any gate is built, and a circuit over the gate
budget is refused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import budget
from .circuits import BitVector, Circuit, CircuitBuilder
from .errors import BudgetError, CapacityError, ValidationError
from .graphs import (
    Enumeration,
    Graph,
    all_graphs,
    edge_width,
    enumerate_graph,
    source_table,
    target_table,
    vertex_width,
)
from .synth import _nand_all, _rows, _rows_gates, filter_circuit, match_circuit
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
    """Enumerate a graph at the widths of capacity (m, n)."""
    if g.n_vertices > n:
        raise CapacityError(f"{g.n_vertices} vertices exceed capacity {n}")
    if g.n_edges > m:
        raise CapacityError(f"{g.n_edges} edges exceed capacity {m}")
    return enumerate_graph(g, v_bits=vertex_width(n), e_bits=edge_width(m, n))


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


def valid_graphs(m: int, n: int, max_count: int | None = None) -> list[Graph]:
    """Every graph encodable at capacity (m, n), in canonical order.

    Ranges over 1..n vertices and 0..m edges: their encodings are the
    valid specs of the universal circuits. The empty graph is left out:
    its encoding is the all-zero string, which the circuits treat as
    invalid, with the same all-zero result an empty graph would give.
    A capacity below one vertex or zero edges is refused.
    """
    _check_capacity(m, n)
    if max_count is None:
        max_count = budget.current().graph_count
    total = 0
    for v in range(1, n + 1):
        for e in range(m + 1):
            total += v ** (2 * e)
            if total > max_count:  # stop early: large capacities have totals too big to print
                raise BudgetError(f"capacity ({m}, {n}) has more than {max_count} graphs, over "
                                  f"the graph budget (raise it with PATHCIRC_BUDGET=graphs=N)")
    out = []
    for v in range(1, n + 1):
        for e in range(m + 1):
            out.extend(all_graphs(v, e, max_count=max_count))
    return out


def _row_checks(r: int, m: int, n: int) -> tuple[bool, bool, range]:
    """What row r of a spec at capacity (m, n) can hold, in the graphs
    of some case (nv, ne): an identity step (r < n), nothing (r > 0),
    or an edge of a graph on nv vertices, for each nv returned."""
    return r < n, r > 0, range(max(1, r - m + 1), min(n, r) + 1) if r < n + m else range(0)


def _cell_checks(b: CircuitBuilder, bits: list[int], r: int, m: int, n: int,
                 step: BitVector) -> list[int]:
    """Checks of one table cell of row r, in the order of :func:`_row_checks`:
    it holds `step`, the code of the identity step r (a single-point
    filter), it holds 0, and it holds a code in 1..nv for each edge
    case nv (all off one decoder)."""
    identity, zero, edges = _row_checks(r, m, n)
    decoded = bits
    if identity and zero:
        bits, decoded = b.fanout_bus(bits, 2)
    out = b.splice(filter_circuit(step), bits) if identity else []
    if zero:
        demand = Counter([0])
        for nv in edges:
            demand.update(range(1, nv + 1))
        hit = _rows(b, decoded, demand)
        out.append(hit[0].pop())
        out += [b.or_chain([hit[v].pop() for v in range(1, nv + 1)]) for nv in edges]
    return out


def _spec_valid(b: CircuitBuilder, spec: list[int], m: int, n: int,
                identities: bool = False) -> tuple[int, list[int]]:
    """Flag whether `spec` is the encoding of a graph at capacity (m, n).

    It is iff, for some nv in 1..n and ne in 0..m, rows 0..nv - 1 of
    both tables hold codes 1..nv (the identity steps, read off the
    encoding of the edgeless graph on n vertices), rows nv..nv+ne-1
    hold codes in 1..nv (the edges), and every other row is zero. Each
    cell is checked once, and each row check is the AND of its two
    cells' checks. Row 0 is an identity and the rows from n + m on are
    zero in every case, so they are ANDed in once; the checks of the
    rows between are fanned out to the (nv, ne) cases that use them,
    each case is the AND of its checks, and the cases are ORed.

    With `identities`, also return, for each r < n, a copy of the
    source table's check that row r holds r + 1.
    """
    v_bits, rows = vertex_width(n), 1 << edge_width(m, n)
    used = n + m
    cases = [[("id", r) if r < nv else ("edge", r, nv) if r < nv + ne else ("zero", r)
              for r in range(1, used)]
             for nv in range(1, n + 1) for ne in range(m + 1)]
    common = [("id", 0)] + [("zero", r) for r in range(used, rows)]
    uses = Counter(common)
    for case in cases:
        uses.update(case)
    # the edgeless graph on n vertices holds the identity steps in its first n rows
    (edgeless,) = all_graphs(n, 0)
    steps = encode_graph(edgeless, m, n).bits.bits
    checks, ids = {}, []
    for r in range(rows):
        identity, zero, edges = _row_checks(r, m, n)
        keys = [("id", r)] * identity + [("zero", r)] * zero + [("edge", r, nv) for nv in edges]
        cells = [slice((t * rows + r) * v_bits, (t * rows + r + 1) * v_bits) for t in (0, 1)]
        source, target = (_cell_checks(b, spec[cell], r, m, n, BitVector(steps[cell]))
                          for cell in cells)
        if identities and identity:
            source[0], copy = b.fanout(source[0], 2)
            ids.append(copy)
        for key, s, t in zip(keys, source, target):
            checks[key] = b.fanout(b.and_(s, t), uses[key])
    terms = [checks[key].pop() for key in common]
    if used > 1:
        terms.append(b.or_chain([b.and_chain([checks[key].pop() for key in case])
                                 for case in cases]))
    return b.and_chain(terms), ids


def _valid_gates(m: int, n: int) -> int:
    """Gates of :func:`_spec_valid` at capacity (m, n), without `identities`."""
    v_bits, rows = vertex_width(n), 1 << edge_width(m, n)
    used, cases = n + m, n * (m + 1)
    common = 1 + rows - used
    gates = keys = 0
    for r in range(rows):
        identity, zero, edges = _row_checks(r, m, n)
        cell = 0
        if identity:  # the filter: a NOT per 0 bit, an AND tree
            cell += 3 * (v_bits - 1) + 2 * (v_bits - (r + 1).bit_count())
        if zero:  # the decoder, and an OR over 1..nv per edge case
            ones = (edges.start + edges.stop - 1) * len(edges) // 2  # edge case nv reads 1..nv
            top = edges[-1] if edges else 0
            cell += _rows_gates(v_bits, top, 1 + ones) + 5 * (ones - len(edges))
        if identity and zero:  # the cell's copy for each
            cell += v_bits
        row_keys = identity + zero + len(edges)
        gates += 2 * cell + 3 * row_keys
        keys += row_keys
    uses = common + cases * (used - 1)
    gates += uses - keys  # the row checks' fan-out
    if used > 1:
        gates += cases * 3 * (used - 2) + 5 * (cases - 1)  # the cases' ANDs and their OR
    return gates + 3 * (common + (used > 1) - 1)


def _lookup_gates(m: int, n: int) -> int:
    """Gates of a universal source or target lookup at capacity (m, n)."""
    v_bits, e_bits, used = vertex_width(n), edge_width(m, n), n + m
    return (_valid_gates(m, n) + used * v_bits  # the looked-up rows' copies
            + _rows_gates(e_bits, used - 1, used * v_bits)  # a select per row and bit
            + v_bits * (used + (2 if used == 1 else 3 * used - 5))  # the OR of selected bits
            + (v_bits - 1) + 3 * v_bits)  # the valid flag ANDed into each bit


def step_gates(m: int, n: int) -> int:
    """Exact gate count of ``universal_step(m, n)``, computed in time
    linear in the number of table rows, without building it."""
    return (2 * _lookup_gates(m, n) + encoding_width(m, n) + edge_width(m, n)
            + match_circuit(vertex_width(n)).gate_count)


def _refuse_over_budget(m: int, n: int, what: str, gates) -> None:
    """Refuse `what` at capacity (m, n), a circuit of ``gates(m, n)``
    gates, if it is over the gate budget. Its spec bus is bounded by the
    budget first, which keeps the count cheap at huge capacities."""
    _check_capacity(m, n)
    what = f"{what} at capacity ({m}, {n})"
    budget.check_gates(encoding_width(m, n), what, "spec wires")
    budget.check_gates(gates(m, n), what)


def _lookup(m: int, n: int, side: int) -> Circuit:
    """(encoding ++ edge code) -> the code in row `edge code` of table
    `side` (0 source, 1 target), all-zero when the spec is invalid."""
    _refuse_over_budget(m, n, "a universal lookup", _lookup_gates)
    v_bits, e_bits, f_bits = vertex_width(n), edge_width(m, n), encoding_width(m, n)
    used = n + m
    b = CircuitBuilder(f_bits + e_bits)
    spec, edge = b.inputs()[:f_bits], b.inputs()[f_bits:]
    start = side * (1 << e_bits) * v_bits
    end = start + used * v_bits
    checked, table = b.fanout_bus(spec[start:end], 2)
    valid, _ = _spec_valid(b, spec[:start] + checked + spec[end:], m, n)
    selects = _rows(b, edge, Counter({r: v_bits for r in range(used)}))
    # bit j: the OR over rows of (select AND the row's bit j)
    out = [_nand_all(b, [b.nand(selects[r].pop(), x) for r, x in enumerate(table[j::v_bits])])
           for j in range(v_bits)]
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
    the target, both read through the universal lookups. Refused over
    the gate budget before any gate is built (see :func:`step_gates`).
    """
    _refuse_over_budget(m, n, "the universal step", step_gates)
    return assemble_step(vertex_width(n), encoding_width(m, n), edge_width(m, n),
                         universal_source(m, n), universal_target(m, n))


def _assigned(m: int, n: int) -> Circuit:
    """(encoding ++ vertex code) -> whether the code is a vertex of the
    encoded graph: the spec is valid and its source table maps the
    identity step of vertex s, row s - 1, to s."""
    _refuse_over_budget(m, n, "the spec validity check", _valid_gates)
    f_bits = encoding_width(m, n)
    b = CircuitBuilder(f_bits + vertex_width(n))
    valid, ids = _spec_valid(b, b.inputs()[:f_bits], m, n, identities=True)
    selects = _rows(b, b.inputs()[f_bits:], Counter(range(1, n + 1)))
    hit = _nand_all(b, [b.nand(selects[s].pop(), ids[s - 1]) for s in range(1, n + 1)])
    return b.finish([b.and_(valid, hit)])


def universal_verifier(m: int, n: int, k: int) -> Verifier:
    """k-fold composition of the universal step checker.

    Verifies any walk of up to k steps (shorter ones via identity
    padding) in any graph with at most m edges and n vertices, the
    graph being chosen by the spec input alone. k = 0 is the empty-walk
    check: accept iff the state input is an assigned vertex of the
    encoded graph, passing the state through (the spec-ignoring
    categorical identity is :func:`verifier_identity`). Verifiers over
    the gate budget are refused.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return empty_walk(vertex_width(n), encoding_width(m, n), _assigned(m, n))
    return fold(universal_step(m, n), k)


ZkpMorphism = Verifier
zkp_identity = verifier_identity
zkp_compose = compose
zkp_snarkize = snarkize
