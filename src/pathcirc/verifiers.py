"""Flag-and-witness verifier circuits and their composition.

A verifier morphism is a circuit whose inputs split into a state bus, a
graph-spec bus and a witness bus, and whose outputs are a single
acceptance flag followed by a state bus. A fixed-graph verifier has its
graph baked into the gates and an empty spec bus; the universal ones
(:mod:`pathcirc.universal`) read the graph's encoding from it. Composing
two verifiers shares the one spec bus between both halves, chains the
state buses, concatenates the witness buses and ANDs the flags, so a
k-fold composite of the one-step checker accepts exactly the k-step
walks of a graph. The snarkizator then folds the state output into the
inputs (as a claimed result) leaving a single output bit, the shape
SNARK toolchains consume.

Every bracketing of a composite computes the same function, so
:func:`compose` builds any number of parts flat (a k-fold is k copies of
the step): one spec fan-out and one balanced AND tree over their flags.
Equality of verifiers is always extensional, never gate-list identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import budget
from .circuits import BitVector, Circuit, CircuitBuilder
from .errors import LengthError, ValidationError, WidthError
from .graphs import Enumeration, Graph, Path, Step, path_end
from .synth import assigned_vertex_circuit, match_circuit, source_circuit, target_circuit


@dataclass(frozen=True)
class Verifier:
    """A circuit with the (state-in ++ spec ++ witness) -> (flag ++ state-out)
    wire split. Fixed-graph verifiers have ``spec_width == 0``."""

    in_width: int
    spec_width: int
    witness_width: int
    out_width: int
    circuit: Circuit

    def __post_init__(self):
        expected = self.in_width + self.spec_width + self.witness_width
        if self.circuit.n_inputs != expected:
            raise ValidationError("circuit inputs do not match state+spec+witness widths")
        if self.circuit.n_outputs != 1 + self.out_width:
            raise ValidationError("circuit outputs do not match flag+state widths")

    def run(self, state: BitVector, *buses: BitVector) -> tuple[int, BitVector]:
        """Evaluate on state ++ buses (the spec, then the witness; an
        empty bus may be left out), returning (flag, state out)."""
        bits = state.bits + tuple(b for bus in buses for b in bus.bits)
        out = self.circuit.evaluate(BitVector(bits))
        return out.bits[0], BitVector(out.bits[1:])


def KpMorphism(in_width: int, witness_width: int, out_width: int, circuit: Circuit) -> Verifier:
    """A fixed-graph verifier: one with an empty spec bus."""
    return Verifier(in_width, 0, witness_width, out_width, circuit)


def verifier_identity(width: int, spec_width: int = 0) -> Verifier:
    """The do-nothing verifier: constant-true flag, state passed through,
    the spec bus consumed and ignored."""
    b = CircuitBuilder(width + spec_width)
    flag = b.true()
    return Verifier(width, spec_width, 0, width, b.finish([flag] + list(range(width))))


def compose(*parts: Verifier) -> Verifier:
    """The composite of one or more verifiers, in one builder: state flows
    through the parts in order, part i reads the i-th copy of the spec bus
    and the i-th witness block, and the flags are joined by one balanced
    AND tree. ``compose(compose(f, g), h)`` computes the same function.

    Beyond the parts' gates it has one spec COPY per spec wire and one
    flag AND (3 gates) per join, so a composite over the gate budget is
    refused before any gate is emitted.
    """
    if not parts:
        raise ValueError("compose needs at least one verifier")
    for f, g in zip(parts, parts[1:]):
        if f.out_width != g.in_width:
            raise WidthError(
                f"cannot chain verifiers: {f.out_width} state out vs {g.in_width} in"
            )
        if f.spec_width != g.spec_width:
            raise WidthError(f"spec widths differ: {f.spec_width} vs {g.spec_width}")
    n, s = parts[0].in_width, parts[0].spec_width
    gates = sum(part.circuit.gate_count for part in parts) + (len(parts) - 1) * (3 + s)
    budget.check("gates", gates, f"a composite of {len(parts)} verifiers", "gates")
    b = CircuitBuilder(n + s + sum(part.witness_width for part in parts))
    wires = b.inputs()
    state, flags, at = wires[:n], [], n + s
    for part, spec in zip(parts, b.fanout_bus(wires[n:n + s], len(parts))):
        witness, at = wires[at:at + part.witness_width], at + part.witness_width
        flag, *state = b.splice(part.circuit, state + spec + witness)
        flags.append(flag)
    return Verifier(n, s, at - n - s, parts[-1].out_width, b.finish([b.and_chain(flags)] + state))


def assemble_step(v_bits: int, spec_bits: int, e_bits: int,
                  source: Circuit, target: Circuit) -> Verifier:
    """One-step walk checker around a source and a target lookup, each
    reading (spec ++ edge code).

    State in: a vertex code. Witness: an edge code. The flag is
    MATCH(vertex, source(edge)); the state out is target(edge),
    emitted whether or not the flag holds.
    """
    b = CircuitBuilder(v_bits + spec_bits + e_bits)
    wires = b.inputs()
    spec_s, spec_t = b.fanout_bus(wires[v_bits:v_bits + spec_bits], 2)
    edge_s, edge_t = b.fanout_bus(wires[v_bits + spec_bits:], 2)
    src = b.splice(source, spec_s + edge_s)
    tgt = b.splice(target, spec_t + edge_t)
    (flag,) = b.splice(match_circuit(v_bits), wires[:v_bits] + src)
    return Verifier(v_bits, spec_bits, e_bits, v_bits, b.finish([flag] + tgt))


def fold(step: Verifier, k: int) -> Verifier:
    """The k-fold composite of a step checker, k >= 1: :func:`compose` of
    k copies. Its flags are joined in a balanced tree, so the NAND depth
    grows by at most 2*ceil(log2 k) over the step's."""
    if k < 1:
        raise ValueError("fold needs k >= 1")
    return compose(*[step] * k)


def step_verifier(g: Graph, en: Enumeration) -> Verifier:
    """One-step walk checker of a fixed graph (see :func:`assemble_step`)."""
    return assemble_step(en.v_bits, 0, en.e_bits, source_circuit(g, en), target_circuit(g, en))


def edge_evaluator(g: Graph, en: Enumeration, step: Step) -> Verifier:
    """Fixed-step checker: the step's code is baked in as constant gates.

    Witness-free; on a vertex code v it accepts iff v is the step's
    source, and always outputs the step's target code.
    """
    b = CircuitBuilder(en.v_bits)
    code = [b.true() if bit else b.false() for bit in en.step_code(step)]
    out = b.splice(step_verifier(g, en).circuit, b.inputs() + code)
    return Verifier(en.v_bits, 0, 0, en.v_bits, b.finish(out))


def empty_walk(v_bits: int, spec_bits: int, assigned: Circuit) -> Verifier:
    """The k = 0 check around `assigned`, a circuit reading (spec ++
    vertex code) that flags an assigned vertex: accept iff the state is
    assigned, and pass the state through. Its builder refuses it over
    the gate budget before splicing `assigned`."""
    b = CircuitBuilder(v_bits + spec_bits)
    wires = b.inputs()
    through, checked = b.fanout_bus(wires[:v_bits], 2)
    (flag,) = b.splice(assigned, wires[v_bits:] + checked)
    return Verifier(v_bits, spec_bits, 0, v_bits, b.finish([flag] + through))


def path_verifier(g: Graph, en: Enumeration, k: int) -> Verifier:
    """k-fold composition of the one-step checker.

    Accepts a vertex code plus k witness edge codes, and flags 1 iff
    they form a valid walk from that vertex. k = 0 is the empty-walk
    check: accept iff the state input is an assigned vertex code, and
    pass it through, so the flag agrees with the oracle on every input
    (the categorical identity, which accepts anything, is
    :func:`verifier_identity`). Shorter paths are handled by padding the
    witness with identity codes (see :func:`pad_path`). Verifiers over
    the gate budget are refused.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > 0:
        return fold(step_verifier(g, en), k)
    return empty_walk(en.v_bits, 0, assigned_vertex_circuit(en))


def pad_path(en: Enumeration, p: Path, k: int) -> list[BitVector]:
    """Witness for a k-step verifier: the path's step codes, topped up
    with identity codes of its end vertex.

    Explicit identity steps already occupy slots, so the relevant
    length is the step count, not the edge count.
    """
    if len(p.steps) > k:
        raise LengthError(f"path has {len(p.steps)} steps, verifier takes {k}")
    codes = [en.step_code(s) for s in p.steps]
    return codes + [en.identity_code(path_end(en.graph, p))] * (k - len(p.steps))


def snarkize(f: Verifier) -> Circuit:
    """Wrap a verifier into a single-output circuit.

    Inputs are (state-in ++ spec ++ witness ++ claimed state-out); the
    output is 1 iff the verifier accepts and its actual state output
    MATCHes the claim. MATCH rejects the all-zero code, so claiming
    "undefined" never succeeds.
    """
    n = f.circuit.n_inputs
    b = CircuitBuilder(n + f.out_width)
    wires = b.inputs()
    flag, *state = b.splice(f.circuit, wires[:n])
    (match,) = b.splice(match_circuit(f.out_width), state + wires[n:])
    return b.finish([b.and_(flag, match)])


kp_identity = verifier_identity
kp_compose = compose
