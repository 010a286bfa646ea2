"""Seeded benchmark inputs: graph documents and claimed walks.

Everything here is a pure function of the ``random.Random`` it is given,
so one seed always yields the same graphs, witnesses and expected
verdicts. The expected verdict of every witness comes from
``graphs.path_oracle``, never from a compiled circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from pathcirc import BitVector, EdgeStep, Enumeration, Path, pad_path, path_oracle

#: Witness kinds, drawn in rotation so every batch mixes accepted and
#: rejected claims.
WITNESS_KINDS = ("valid", "short", "corrupt-step", "wrong-end", "zero-claim", "unassigned")


def de_bruijn(d: int) -> dict:
    """Graph document of the binary de Bruijn graph B(2, d): the state
    graph of a d-bit shift register (2^d states, 2^(d+1) edges)."""
    states = [format(i, f"0{d}b") for i in range(1 << d)]
    edges = [[f"{s}>{b}", s, s[1:] + b] for s in states for b in "01"]
    return {"vertices": states, "edges": edges}


def random_multigraph(n_vertices: int, n_edges: int, rng: Random) -> dict:
    """Graph document with uniformly drawn endpoints (loops and parallel
    edges allowed)."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = [[f"e{j}", rng.choice(vertices), rng.choice(vertices)] for j in range(n_edges)]
    return {"vertices": vertices, "edges": edges}


@dataclass(frozen=True)
class Witness:
    """One claimed walk, laid out as the snark circuit's input."""

    kind: str
    en: Enumeration
    start: BitVector
    steps: tuple[BitVector, ...]
    claim: BitVector
    bits: BitVector
    expected: bool


def oracle_verdict(en, start: BitVector, steps, claim: BitVector) -> bool:
    """What the snark circuit must answer: a valid walk ending at the claim."""
    valid, end = path_oracle(en.graph, en, start, steps)
    return valid and claim == end


def _walk(en, k: int, length: int, rng: Random) -> tuple[int, list[BitVector], int]:
    g = en.graph
    start = cur = rng.randrange(g.n_vertices)
    steps = []
    for _ in range(length):
        out = [j for j, e in enumerate(g.edges) if e.src == cur]
        if not out:
            break
        j = rng.choice(out)
        steps.append(EdgeStep(j))
        cur = g.edges[j].tgt
    return start, pad_path(en, Path(start, tuple(steps)), k), cur


def make_witness(en, k: int, kind: str, rng: Random, spec: BitVector | None = None) -> Witness:
    """A claimed k-step walk of the given kind on the enumerated graph.

    Walks shorter than k are padded with identity codes. With ``spec``
    (a graph encoding) the input is laid out for a universal snark
    circuit: start, spec, steps, claim.
    """
    length = rng.randrange(k) if kind == "short" else k
    start_i, steps, end_i = _walk(en, k, length, rng)
    start = en.vertex_code(start_i)
    claim = en.vertex_code(end_i)
    assigned = en.n_vertices + en.n_edges
    if kind == "corrupt-step":
        i = rng.randrange(k)
        others = [c for c in range(assigned) if c != steps[i].value]
        value = rng.choice(others) if others else assigned
        steps[i] = BitVector.from_int(value, en.e_bits)
    elif kind == "wrong-end":
        others = [c for c in range(1, 1 << en.v_bits) if c != claim.value]
        claim = (BitVector.from_int(rng.choice(others), en.v_bits) if others
                 else en.zero_vertex())
    elif kind == "zero-claim":
        claim = en.zero_vertex()
    elif kind == "unassigned":
        if assigned < 1 << en.e_bits:
            steps[rng.randrange(k)] = BitVector.from_int(
                rng.randrange(assigned, 1 << en.e_bits), en.e_bits)
        else:
            # every edge code is assigned: use the reserved vertex code instead
            start = en.zero_vertex()
    prefix = start if spec is None else start + spec
    bits = BitVector(prefix.bits + tuple(b for s in steps for b in s.bits) + claim.bits)
    return Witness(kind, en, start, tuple(steps), claim, bits,
                   oracle_verdict(en, start, steps, claim))


def make_witnesses(en, k: int, count: int, rng: Random) -> list[Witness]:
    return [make_witness(en, k, WITNESS_KINDS[i % len(WITNESS_KINDS)], rng)
            for i in range(count)]
