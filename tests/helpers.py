"""Shared test helpers: shorthand constructors, random circuit soup,
the benchmark's graph documents, wire reads, and exhaustive hom
enumeration for small graphs."""

from __future__ import annotations

import itertools
from collections import Counter
from random import Random

from pathcirc import (
    BitVector,
    CircuitBuilder,
    Graph,
    GraphHom,
    KpMorphism,
    ValidationError,
)


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def bvs(*texts: str) -> list[BitVector]:
    return [BitVector.from_string(t) for t in texts]


def random_circuit(rng: Random, n_inputs: int, n_outputs: int, max_gates: int = 12):
    """A random (linear) gate soup with the requested boundary widths."""
    b = CircuitBuilder(n_inputs)
    live = b.inputs()
    for _ in range(rng.randrange(max_gates + 1)):
        choice = rng.random()
        if choice < 0.45 and len(live) >= 2:
            x = live.pop(rng.randrange(len(live)))
            y = live.pop(rng.randrange(len(live)))
            live.append(b.nand(x, y))
        elif choice < 0.8 and live:
            x = live.pop(rng.randrange(len(live)))
            live.extend(b.copy(x))
        elif choice < 0.9:
            live.append(b.true())
        else:
            live.append(b.false())
    while len(live) < n_outputs:
        live.append(b.true())
    rng.shuffle(live)
    return b.finish(live[:n_outputs])


def de_bruijn(d: int) -> dict:
    """Graph document of the binary de Bruijn graph B(2, d)."""
    states = [format(i, f"0{d}b") for i in range(1 << d)]
    return {"vertices": states, "edges": [[f"{s}>{b}", s, s[1:] + b]
                                          for s in states for b in "01"]}


def random_multigraph(n_vertices: int, n_edges: int, rng: Random) -> dict:
    """Graph document with uniformly drawn endpoints (loops and parallel
    edges allowed)."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    return {"vertices": vertices,
            "edges": [[f"e{j}", rng.choice(vertices), rng.choice(vertices)]
                      for j in range(n_edges)]}


def reads(circuit) -> Counter:
    """How often each wire is read, by a gate or by the output map."""
    return Counter(circuit.ins) + Counter(circuit.output_map)


def random_kp(rng: Random, in_width: int, out_width: int, max_witness: int = 2) -> KpMorphism:
    witness = rng.randrange(max_witness + 1)
    circuit = random_circuit(rng, in_width + witness, 1 + out_width)
    return KpMorphism(in_width, witness, out_width, circuit)


def all_homs(dom: Graph, cod: Graph) -> list[GraphHom]:
    """Every structure-preserving map dom -> cod, by brute force."""
    homs = []
    vmaps = itertools.product(range(cod.n_vertices), repeat=dom.n_vertices)
    for vmap in vmaps:
        emaps = itertools.product(range(cod.n_edges), repeat=dom.n_edges)
        for emap in emaps:
            try:
                homs.append(GraphHom(dom, cod, vmap, emap))
            except ValidationError:
                continue
    return homs
