"""Finite state machines as directed graphs.

State spaces are plain directed graphs (parallel edges and self-loops
allowed). This module owns the JSON graph format, the binary
enumeration scheme for vertices and edges, the source/target truth
tables derived from a graph's incidence structure, the brute-force
path walker that serves as the independent oracle for every circuit in
the package, and graph homomorphisms.

Enumeration scheme: vertex i (declaration order, counting from 1) gets
code i, so the all-zero vertex code is reserved to mean "undefined".
The first |V| edge codes are reserved for the per-vertex identity
steps; real edges follow in the enumeration's edge order. A fixed
graph's edges are ordered by (source, target), which shrinks its
source and target lookups; a capacity encoding keeps declaration
order, because there the codes are the universal spec's rows. All
widths are clamped to at least one wire.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Union

from . import budget
from .circuits import BitVector
from .errors import ParseError, ValidationError


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def vertex_width(n_vertices: int) -> int:
    """Wires needed for vertex codes: ceil(log2(n+1)), clamped to >= 1."""
    return max(1, _ceil_log2(n_vertices + 1))


def edge_width(n_edges: int, n_vertices: int) -> int:
    """Wires needed for edge codes: ceil(log2(m+n)), clamped to >= 1."""
    return max(1, _ceil_log2(max(1, n_edges + n_vertices)))


@dataclass(frozen=True)
class Edge:
    name: str
    src: int
    tgt: int


@dataclass(frozen=True)
class Graph:
    """Directed graph with named vertices and edges, declaration order kept."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex name")
        if len({e.name for e in self.edges}) != len(self.edges):
            raise ValidationError("duplicate edge name")
        for e in self.edges:
            if not 0 <= e.src < len(self.vertices) or not 0 <= e.tgt < len(self.vertices):
                raise ValidationError(f"edge {e.name!r} has an endpoint out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise LookupError(f"unknown vertex {name!r}") from None

    def edge_index(self, name: str) -> int:
        for i, e in enumerate(self.edges):
            if e.name == name:
                return i
        raise LookupError(f"unknown edge {name!r}")


@dataclass(frozen=True)
class IdStep:
    """A null step: stay at `vertex`."""

    vertex: int


@dataclass(frozen=True)
class EdgeStep:
    """Traverse edge number `edge`."""

    edge: int


Step = Union[IdStep, EdgeStep]


@dataclass(frozen=True)
class Path:
    """A claimed walk: a start vertex and a sequence of steps.

    Nothing is validated structurally; whether the steps chain up is
    exactly what the oracle and the compiled circuits decide.
    """

    start: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def path_length(p: Path) -> int:
    """Number of edge steps; explicit identity steps count zero."""
    return sum(1 for s in p.steps if isinstance(s, EdgeStep))


def path_end(g: Graph, p: Path) -> int:
    """Final vertex of a well-formed path (identities keep the vertex)."""
    cur = p.start
    for s in p.steps:
        cur = cur if isinstance(s, IdStep) else g.edges[s.edge].tgt
    return cur


@dataclass(frozen=True)
class Enumeration:
    """Binary codes for one graph's vertices, identities and edges.

    ``order[r]`` is the edge whose code is |V| + r, declaration order
    by default; ``rank`` is its inverse, the rank of each edge. An
    order that is not a permutation of the edge indices is refused.
    """

    graph: Graph
    v_bits: int
    e_bits: int
    order: tuple[int, ...] | None = None
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        if self.v_bits < vertex_width(g.n_vertices):
            raise ValidationError(
                f"{self.v_bits} vertex bits cannot hold {g.n_vertices} vertices"
            )
        if self.e_bits < edge_width(g.n_edges, g.n_vertices):
            raise ValidationError(
                f"{self.e_bits} edge bits cannot hold {g.n_edges}+{g.n_vertices} codes"
            )
        order = tuple(range(g.n_edges) if self.order is None else self.order)
        if len(order) != g.n_edges or set(order) != set(range(g.n_edges)):
            raise ValidationError(
                f"edge order must be a permutation of the {g.n_edges} edge indices"
            )
        rank = [0] * g.n_edges
        for r, j in enumerate(order):
            rank[j] = r
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rank", tuple(rank))

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def zero_vertex(self) -> BitVector:
        """The reserved all-zero "undefined" vertex code."""
        return BitVector.zeros(self.v_bits)

    def vertex_code(self, i: int) -> BitVector:
        if not 0 <= i < self.n_vertices:
            raise LookupError(f"no vertex {i}")
        return BitVector.from_int(i + 1, self.v_bits)

    def identity_code(self, i: int) -> BitVector:
        if not 0 <= i < self.n_vertices:
            raise LookupError(f"no vertex {i}")
        return BitVector.from_int(i, self.e_bits)

    def edge_code(self, j: int) -> BitVector:
        if not 0 <= j < self.n_edges:
            raise LookupError(f"no edge {j}")
        return BitVector.from_int(self.n_vertices + self.rank[j], self.e_bits)

    def step_code(self, step: Step) -> BitVector:
        if isinstance(step, IdStep):
            return self.identity_code(step.vertex)
        return self.edge_code(step.edge)

    def decode_vertex(self, value: int) -> int | None:
        """Vertex index for an assigned vertex code value, else None."""
        return value - 1 if 1 <= value <= self.n_vertices else None

    def decode_step(self, value: int) -> Step | None:
        """Step for an assigned edge code value, else None."""
        if 0 <= value < self.n_vertices:
            return IdStep(value)
        if self.n_vertices <= value < self.n_vertices + self.n_edges:
            return EdgeStep(self.order[value - self.n_vertices])
        return None


def enumerate_graph(g: Graph) -> Enumeration:
    """Assign binary codes to a graph, at the narrowest widths that hold them.

    Edges take their codes in (source, target) order, ties in
    declaration order, so that edges sharing endpoints sit in adjacent
    rows of the source and target tables.
    """
    edges = g.edges
    return Enumeration(
        g,
        vertex_width(g.n_vertices),
        edge_width(g.n_edges, g.n_vertices),
        tuple(sorted(range(len(edges)), key=lambda j: (edges[j].src, edges[j].tgt))),
    )


@dataclass(frozen=True)
class TruthTable:
    """Total function table: one output vector per input value.

    ``rows[x]`` is the output for the input whose MSB-first integer
    value is ``x``; rows cover all ``2**in_width`` inputs.
    """

    in_width: int
    out_width: int
    rows: tuple[BitVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != 1 << self.in_width:
            raise ValidationError(
                f"table needs {1 << self.in_width} rows, got {len(self.rows)}"
            )
        if any(r.width != self.out_width for r in self.rows):
            raise ValidationError("row width does not match out_width")

    def lookup(self, x: BitVector) -> BitVector:
        if x.width != self.in_width:
            raise ValidationError(f"expected {self.in_width}-bit input")
        return self.rows[x.value]


def _endpoint_table(en: Enumeration, g: Graph, pick) -> TruthTable:
    if en.graph != g:
        raise ValidationError("enumeration was derived from a different graph")
    # the budget synth applies to these tables, before any row
    budget.check("synth-width", en.e_bits, "an endpoint table", "inputs")
    # identity rows, then the edges in code order, then the unassigned codes
    codes = [BitVector.from_int(i + 1, en.v_bits) for i in range(en.n_vertices)]
    rows = codes + [codes[pick(g.edges[j])] for j in en.order]
    rows += [BitVector.zeros(en.v_bits)] * ((1 << en.e_bits) - len(rows))
    return TruthTable(en.e_bits, en.v_bits, tuple(rows))


def source_table(en: Enumeration, g: Graph) -> TruthTable:
    """Edge code -> source vertex code; identities map to their vertex,
    unassigned codes map to the all-zero code."""
    return _endpoint_table(en, g, lambda e: e.src)


def target_table(en: Enumeration, g: Graph) -> TruthTable:
    """Edge code -> target vertex code (see source_table)."""
    return _endpoint_table(en, g, lambda e: e.tgt)


def path_oracle(
    g: Graph,
    en: Enumeration,
    start_code: BitVector,
    step_codes: Iterable[BitVector],
) -> tuple[bool, BitVector]:
    """Walk a claimed path directly on the graph tables.

    This is the reference semantics every compiled circuit is tested
    against, so it deliberately never touches circuits. Any malformed
    input (wrong width, unassigned code, broken chaining) yields
    ``(False, all-zero)`` rather than an error.
    """
    zero = en.zero_vertex()
    if start_code.width != en.v_bits:
        return False, zero
    cur = en.decode_vertex(start_code.value)
    if cur is None:
        return False, zero
    for code in step_codes:
        if code.width != en.e_bits:
            return False, zero
        step = en.decode_step(code.value)
        if step is None:
            return False, zero
        if isinstance(step, IdStep):
            src = tgt = step.vertex
        else:
            edge = g.edges[step.edge]
            src, tgt = edge.src, edge.tgt
        if src != cur:
            return False, zero
        cur = tgt
    return True, en.vertex_code(cur)


@dataclass(frozen=True)
class GraphHom:
    """Structure-preserving map between graphs."""

    dom: Graph
    cod: Graph
    vmap: tuple[int, ...]
    emap: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vmap", tuple(self.vmap))
        object.__setattr__(self, "emap", tuple(self.emap))
        if len(self.vmap) != self.dom.n_vertices or len(self.emap) != self.dom.n_edges:
            raise ValidationError("vmap/emap sizes do not match the domain graph")
        for v in self.vmap:
            if not 0 <= v < self.cod.n_vertices:
                raise ValidationError(f"vmap value {v} out of range")
        for e in self.emap:
            if not 0 <= e < self.cod.n_edges:
                raise ValidationError(f"emap value {e} out of range")
        for i, e in enumerate(self.dom.edges):
            img = self.cod.edges[self.emap[i]]
            if self.vmap[e.src] != img.src or self.vmap[e.tgt] != img.tgt:
                raise ValidationError(
                    f"edge {e.name!r} is not preserved by the homomorphism"
                )


def map_path(h: GraphHom, p: Path) -> Path:
    """Push a path through a homomorphism; the step count is preserved."""
    steps = tuple(
        IdStep(h.vmap[s.vertex]) if isinstance(s, IdStep) else EdgeStep(h.emap[s.edge])
        for s in p.steps
    )
    return Path(h.vmap[p.start], steps)


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph format:
    ``{"vertices": ["a", ...], "edges": [["e", "a", "b"], ...]}``."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, list) or any(not isinstance(v, str) for v in vertices):
        raise ParseError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list')
    index: dict[str, int] = {}
    for i, name in enumerate(vertices):
        if name in index:
            raise ParseError(f"vertex {i}: duplicate name {name!r}")
        index[name] = i
    parsed = []
    seen = set()
    for i, entry in enumerate(edges):
        if (not isinstance(entry, list) or len(entry) != 3
                or any(not isinstance(x, str) for x in entry)):
            raise ParseError(f"edge {i}: expected [name, source, target] strings")
        name, src, tgt = entry
        if name in seen:
            raise ParseError(f"edge {i}: duplicate name {name!r}")
        seen.add(name)
        if src not in index:
            raise ParseError(f"edge {i} ({name!r}): unknown source vertex {src!r}")
        if tgt not in index:
            raise ParseError(f"edge {i} ({name!r}): unknown target vertex {tgt!r}")
        parsed.append(Edge(name, index[src], index[tgt]))
    # one pass over all the names: a lone surrogate, which a JSON \u
    # escape can spell, is no text UTF-8 can write
    names = vertices + [e.name for e in parsed]
    try:
        "".join(names).encode()
    except UnicodeEncodeError as exc:
        i = bisect.bisect(list(itertools.accumulate(map(len, names))), exc.start)
        what, j = ("vertex", i) if i < len(vertices) else ("edge", i - len(vertices))
        raise ParseError(f"{what} {j}: name {names[i]!r} is not valid Unicode text") from None
    return Graph(tuple(vertices), tuple(parsed))


def family_size(shapes: Iterable[tuple[int, int]], graphs: int = 0) -> int | None:
    """How many graphs have v vertices and e edges, summed over the
    (v, e) `shapes`, plus `graphs` counted in closed form; None as soon
    as the sum passes the ``graphs`` limit, so that a huge family costs
    no huge integer."""
    cap = budget.limit("graphs")
    total = graphs
    if total > cap:
        return None
    for v, e in shapes:
        # exact up to cap.bit_length() + 1 edges; past that, two or more
        # vertices are already over the limit
        total += v ** (2 * min(e, cap.bit_length() + 1))
        if total > cap:
            return None
    return total


def all_graphs(n: int, m: int) -> list[Graph]:
    """Every graph with exactly n vertices and m edges, in canonical order.

    Each edge slot independently ranges over all (source, target)
    pairs, so there are n**(2m) graphs. Vertices are named v1..vn and
    edges e1..em.
    """
    budget.check("graphs", family_size([(n, m)]),
                 f"the family of graphs with {n} vertices and {m} edges", "members")
    vertices = tuple(f"v{i + 1}" for i in range(n))
    out = []
    for combo in itertools.product(itertools.product(range(n), repeat=2), repeat=m):
        edges = tuple(Edge(f"e{j + 1}", s, t) for j, (s, t) in enumerate(combo))
        out.append(Graph(vertices, edges))
    return out
