"""Graph-agnostic verifier circuits.

Instead of hardwiring one graph's source/target tables, the circuits
here take the tables themselves as an extra input bus: a graph within
capacity (at most ``m`` edges and ``n`` vertices) is serialised into a
fixed-width bitstring. The universal source/target lookups and the
k = 0 assigned-vertex check share one dispatch on that bitstring: one
single-point filter per encodable graph, AND-gating that graph's
circuit, OR-ing the results. A spec matching no encodable graph thus
yields all zeros, which the MATCH stage rejects. The verifiers built
here are the :class:`~pathcirc.verifiers.Verifier` shape with the
encoding on the spec bus; a fixed-graph verifier is the same shape
with an empty one.

The construction is exponential in the capacity by design; a budget
guard refuses capacities whose graph family is too large.
"""

from __future__ import annotations

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
from .synth import assigned_vertex_circuit, filter_circuit, synth
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


def _tables(g: Graph, m: int, n: int):
    """A graph's enumeration at capacity, and its source and target tables."""
    en = capacity_enumeration(g, m, n)
    return en, (source_table(en, g), target_table(en, g))


def _encoding_bits(tables) -> BitVector:
    return BitVector(tuple(bit for table in tables for row in table.rows for bit in row.bits))


def encode_graph(g: Graph, m: int, n: int) -> GraphEncoding:
    """Serialise a graph's tables at capacity; codes beyond the graph's
    own elements stay unassigned, so their rows are all-zero."""
    return GraphEncoding(m, n, _encoding_bits(_tables(g, m, n)[1]))


def valid_graphs(m: int, n: int, max_count: int | None = None) -> list[Graph]:
    """Every graph encodable at capacity (m, n), in canonical order.

    Ranges over 1..n vertices and 0..m edges. The empty graph is left
    out: its encoding is the all-zero string, and the all-zero table it
    would contribute is already what the OR-aggregation produces when
    no filter fires. A capacity below one vertex or zero edges is
    refused.
    """
    if n < 1 or m < 0:
        raise CapacityError(f"capacity needs at least 1 vertex and 0 edges, got ({m}, {n})")
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


def _family(m: int, n: int, max_count: int | None) -> list:
    """Every encodable graph at capacity (m, n), as its enumeration and
    its source and target tables, each built once."""
    return [_tables(g, m, n) for g in valid_graphs(m, n, max_count=max_count)]


def _dispatch(f_bits: int, key_bits: int, family: list, per_graph) -> Circuit:
    """(encoding ++ key) -> the outputs of ``per_graph(en, tables)`` on
    the key for the encoded graph of ``family`` (see :func:`_family`),
    all-zero when the encoding matches no graph.

    One single-point filter per graph fires on its encoding, read off
    its tables; it is ANDed into each output bit, and the bits ORed
    across graphs.
    """
    b = CircuitBuilder(f_bits + key_bits)
    wires = b.inputs()
    spec_copies = b.fanout_bus(wires[:f_bits], len(family))
    key_copies = b.fanout_bus(wires[f_bits:], len(family))
    terms = []
    for (en, tables), spec, key in zip(family, spec_copies, key_copies):
        (fired,) = b.splice(filter_circuit(_encoding_bits(tables)), spec)
        out = b.splice(per_graph(en, tables), key)
        terms.append([b.and_(on, bit) for on, bit in zip(b.fanout(fired, len(out)), out)])
    return b.finish([b.or_chain(column) for column in zip(*terms)])


def _lookup(m: int, n: int, side: int, max_count: int | None, family: list | None) -> Circuit:
    if family is None:
        family = _family(m, n, max_count)
    return _dispatch(encoding_width(m, n), edge_width(m, n), family,
                     lambda en, tables: synth(tables[side]))


def universal_source(m: int, n: int, max_count: int | None = None,
                     family: list | None = None) -> Circuit:
    """Source lookup for any encodable graph: (encoding ++ edge code) ->
    source vertex code, all-zero when the encoding matches no graph or
    the edge code is unassigned in it. A caller that builds both lookups
    passes the graph family (:func:`_family`) it built once."""
    return _lookup(m, n, 0, max_count, family)


def universal_target(m: int, n: int, max_count: int | None = None,
                     family: list | None = None) -> Circuit:
    """Target lookup for any encodable graph (see universal_source)."""
    return _lookup(m, n, 1, max_count, family)


def universal_step(m: int, n: int, max_count: int | None = None) -> Verifier:
    """One-step walk checker over the graph spec bus.

    State in: a vertex code at capacity width. Spec: a graph encoding.
    Witness: an edge code. Flag is MATCH(vertex, source); state out is
    the target, both read through the universal lookups, which share
    one build of the graph family's tables.
    """
    family = _family(m, n, max_count)
    return assemble_step(vertex_width(n), encoding_width(m, n), edge_width(m, n),
                         universal_source(m, n, family=family),
                         universal_target(m, n, family=family))


def universal_verifier(m: int, n: int, k: int, max_count: int | None = None) -> Verifier:
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
        assigned = _dispatch(encoding_width(m, n), vertex_width(n), _family(m, n, max_count),
                             lambda en, tables: assigned_vertex_circuit(en))
        return empty_walk(vertex_width(n), encoding_width(m, n), assigned)
    return fold(universal_step(m, n, max_count=max_count), k)


ZkpMorphism = Verifier
zkp_identity = verifier_identity
zkp_compose = compose
zkp_snarkize = snarkize
