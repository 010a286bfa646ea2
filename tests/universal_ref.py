"""Reference construction of the universal lookups: a per-graph dispatch,
and a plain-Python referee of spec validity.

One single-point filter per encodable graph fires on that graph's
encoding; it is ANDed into each output bit of the graph's own circuit
on the key, and the bits are ORed across graphs, so a spec that matches
no graph yields all zeros. This is exponential in the capacity (there
are sum v^(2e) graphs), which is why the package builds a multiplexer
over the spec bus instead; the tests check the two agree.
:func:`spec_is_valid` reads the encoding layout directly, with no
circuit, to referee the multiplexer's validity flag at capacities where
the dispatch is too large to build.
"""

from __future__ import annotations

from pathcirc import (
    Circuit,
    CircuitBuilder,
    assigned_vertex_circuit,
    capacity_enumeration,
    encode_graph,
    encoding_width,
    filter_circuit,
    source_table,
    synth,
    target_table,
    valid_graphs,
)
from pathcirc.graphs import edge_width, vertex_width


def dispatch(m: int, n: int, key_bits: int, per_graph) -> Circuit:
    """(encoding ++ key) -> ``per_graph(g, en)`` on the key for the
    graph the encoding names, all-zero when it names none."""
    family = valid_graphs(m, n)
    f_bits = encoding_width(m, n)
    b = CircuitBuilder(f_bits + key_bits)
    wires = b.inputs()
    spec_copies = b.fanout_bus(wires[:f_bits], len(family))
    key_copies = b.fanout_bus(wires[f_bits:], len(family))
    terms = []
    for g, spec, key in zip(family, spec_copies, key_copies):
        (fired,) = b.splice(filter_circuit(encode_graph(g, m, n).bits), spec)
        out = b.splice(per_graph(g, capacity_enumeration(g, m, n)), key)
        terms.append([b.and_(on, bit) for on, bit in zip(b.fanout(fired, len(out)), out)])
    return b.finish([b.or_chain(column) for column in zip(*terms)])


def source(m: int, n: int) -> Circuit:
    return dispatch(m, n, edge_width(m, n), lambda g, en: synth(source_table(en, g)))


def target(m: int, n: int) -> Circuit:
    return dispatch(m, n, edge_width(m, n), lambda g, en: synth(target_table(en, g)))


def assigned(m: int, n: int) -> Circuit:
    """(encoding ++ vertex code) -> the code is a vertex of the encoded graph."""
    return dispatch(m, n, vertex_width(n), lambda g, en: assigned_vertex_circuit(en))


def spec_is_valid(bits, m: int, n: int) -> bool:
    """Whether the spec bits encode a graph at capacity (m, n): nv >= 1
    leading identity rows (row r holds r + 1 in both tables), then at
    most m edge rows whose cells name vertices 1..nv, then zero rows."""
    v_bits, rows = vertex_width(n), 1 << edge_width(m, n)
    cells = [int("".join(map(str, bits[i:i + v_bits])), 2) for i in range(0, len(bits), v_bits)]
    pairs = list(zip(cells[:rows], cells[rows:]))
    nv = 0
    while nv < n and pairs[nv] == (nv + 1, nv + 1):
        nv += 1
    ne = 0
    while ne < m and nv + ne < rows and all(1 <= c <= nv for c in pairs[nv + ne]):
        ne += 1
    return nv >= 1 and all(pair == (0, 0) for pair in pairs[nv + ne:])
