"""Circuit serialization: the native JSON document and Bristol Fashion.

The JSON document is the lossless interchange form -- gate-for-gate
round-trips, deterministic key order, optional metadata block (wire
partitions, enumeration assignments) so verifier structure survives a
trip through a file.

Bristol Fashion is the lossy hand-off format for MPC/zk toolchains,
written by :func:`to_bristol` so that it costs what free-XOR back ends
charge: XOR gates are free and only AND gates cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from . import budget
from .circuits import _COPY, _NAND, CODE, GATE_ARITY, KINDS, Circuit
from .errors import ParseError, ValidationError

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class CircuitDocument:
    circuit: Circuit
    metadata: Mapping[str, Any] | None = None


#: The JSON text of one gate of each kind, as ``json.dumps(doc, indent=2)``
#: writes it inside the document: the input wires, then the output wires.
_GATE_JSON = tuple(
    '    {\n      "op": "%s",\n      "in": %s,\n      "out": [\n%s\n      ]\n    }' % (
        kind,
        "[\n" + ",\n".join(["        %d"] * n_in) + "\n      ]" if n_in else "[]",
        ",\n".join(["        %d"] * n_out))
    for kind, (n_in, n_out) in ((kind, GATE_ARITY[kind]) for kind in KINDS))


def to_json(c: Circuit, metadata: Mapping[str, Any] | None = None) -> str:
    """Serialise a circuit (and optional metadata) deterministically.

    The text is exactly ``json.dumps(doc, indent=2) + "\\n"`` of the
    document, but each gate is written from its kind's template rather
    than through the encoder.
    """
    gates = []
    read = iter(c.ins).__next__
    w = c.n_inputs
    for code in c.kinds:
        if code == _NAND:
            gates.append(_GATE_JSON[code] % (read(), read(), w))
            w += 1
        elif code == _COPY:
            gates.append(_GATE_JSON[code] % (read(), w, w + 1))
            w += 2
        else:
            gates.append(_GATE_JSON[code] % w)
            w += 1
    parts = [
        '{\n  "format_version": %s,\n' % json.dumps(FORMAT_VERSION),
        f'  "n_inputs": {c.n_inputs},\n  "n_outputs": {c.n_outputs},\n',
        '  "gates": [\n' + ",\n".join(gates) + "\n  ],\n" if gates else '  "gates": [],\n',
        '  "output_map": [\n' + ",\n".join(f"    {w}" for w in c.output_map) + "\n  ]"
        if c.output_map else '  "output_map": []',
    ]
    if metadata is not None:
        parts.append(',\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  "))
    parts.append("\n}\n")
    return "".join(parts)


def is_json_int(value: Any, least: int = 0) -> bool:
    """A JSON integer (not a bool, float or string) of at least `least`."""
    return type(value) is int and value >= least


def json_int(value: Any, least: int, what: str) -> int:
    """`value` if :func:`is_json_int`, else ParseError naming `what`."""
    if not is_json_int(value, least):
        raise ParseError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _check_wires(entries: list, wires: list) -> None:
    """Refuse gate entries whose wires, flattened into `wires`, are not
    all JSON integers >= 0, naming the first such gate."""
    if wires and (set(map(type, wires)) != {int} or min(wires) < 0):
        i = next(i for i, entry in enumerate(entries)
                 if not all(map(is_json_int, entry["in"] + entry["out"])))
        raise ParseError(f"gate {i}: in and out must be lists of integers >= 0")


def document_from_json(text: str) -> CircuitDocument:
    """Parse a circuit document; structural violations raise ValidationError.

    A document declaring more inputs or gates than the gate budget is
    refused before the circuit is built.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    if not isinstance(doc.get("gates"), list):
        raise ParseError("gates must be a list")
    n_inputs = json_int(doc.get("n_inputs"), 0, "n_inputs")
    budget.check("gates", n_inputs, "the circuit document", "inputs")
    budget.check("gates", len(doc["gates"]), "the circuit document", "gates")
    entries = doc["gates"]
    kinds, ins, outs = bytearray(), [], []
    for i, entry in enumerate(entries):
        op = entry.get("op") if isinstance(entry, dict) else None
        if not isinstance(op, str) or op not in GATE_ARITY:
            raise ParseError(f"gate {i}: unknown or missing op")
        gate_ins, gate_outs = entry.get("in"), entry.get("out")
        if not (isinstance(gate_ins, list) and isinstance(gate_outs, list)):
            raise ParseError(f"gate {i}: in and out must be lists of integers >= 0")
        n_in, n_out = GATE_ARITY[op]
        if len(gate_ins) != n_in or len(gate_outs) != n_out:
            _check_wires(entries[:i + 1], ins + outs + gate_ins + gate_outs)
            raise ValidationError(f"{op} gate must have {n_in} inputs / {n_out} outputs, "
                                  f"got {len(gate_ins)}/{len(gate_outs)}")
        kinds.append(CODE[op])
        ins += gate_ins
        outs += gate_outs
    _check_wires(entries, ins + outs)
    output_map = doc.get("output_map")
    if not isinstance(output_map, list) or not all(map(is_json_int, output_map)):
        raise ParseError("output_map must be a list of integers >= 0")
    n_outputs = json_int(doc.get("n_outputs"), 0, "n_outputs")
    dense = range(n_inputs, n_inputs + len(outs))
    if outs != list(dense):
        w, expected = next((w, e) for w, e in zip(outs, dense) if w != e)
        raise ValidationError(f"a gate writes wire {w}, expected {expected}")
    if n_outputs != len(output_map):
        raise ValidationError("n_outputs does not match output_map length")
    circuit = Circuit(n_inputs, output_map, kinds, ins)
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata must be a JSON object")
    return CircuitDocument(circuit, metadata)


def from_json(text: str) -> Circuit:
    return document_from_json(text).circuit


#: The text of one Bristol gate of each operator the writer writes, from its sources and output.
BRISTOL_LINE = {op: f"{n} 1 {'%s ' * n}%s {op}"
                for op, n in (("AND", 2), ("XOR", 2), ("INV", 1), ("EQ", 1), ("EQW", 1))}


def to_bristol(c: Circuit) -> str:
    """Export in Bristol Fashion; byte-deterministic for a given circuit.

    The text is written from the circuit's cached NAND program
    (:attr:`~pathcirc.circuits.Circuit._program`), holding each value as
    a literal: a Bristol wire and a complement bit. Inputs are positive
    literals, and a COPY, already an alias in the program, emits nothing.
    A NAND of two equal literals is that literal complemented and emits
    nothing either, so NOT is free. Every other NAND is a node, and one
    pass gives each node one of four forms:

    - XOR: NAND(NAND(a, t), NAND(t, b)) with t = NAND(a, b), as
      :meth:`~pathcirc.circuits.CircuitBuilder.xor` builds it, when its
      inner nodes have no reader outside the pattern. It is one XOR of
      the wires of a and b; their complement bits fold into its literal.
    - MUX: NAND(NAND(s, x), NAND(NOT s, y)), a node of
      :func:`~pathcirc.synth.robdd`, when nothing else reads its inner
      nodes. It is y XOR (s AND (x XOR y)): one AND and two XORs, not
      two ANDs. A complemented s swaps x and y. Over two complemented
      children the result is the complement of the MUX of their wires.
      When exactly one child is complemented, that child is made positive
      through its wire's one INV, so the result is a positive literal and
      complements do not spread up the BDD.
    - OR: the multiplexer shape when an inner node has another reader and
      both inner nodes are ANDs. These are never both 1, so their OR is
      one XOR of the two AND wires, a positive literal.
    - AND: any other node. It emits one AND over its operands made
      positive -- a complemented operand through an INV, emitted at most
      once per wire -- and is the complement of that AND.

    An inner node of an XOR or a MUX may be an OR by itself, but not an
    XOR or a MUX, and emits nothing. So there is never more than one AND
    per NAND. A constant is one EQ gate with a literal 0/1 source,
    emitted only if a node or an output reads it. A final block moves
    the outputs to the trailing wires the format requires. When a slot
    is the only reader of a node that is not an input, and holds it as a
    positive literal, the node's gate writes straight into the slot (a
    gate emitted over a node's wire serves one of its counted readers);
    its nominal internal wire stays reserved, so the wire count is always
    inputs + emitted gates before the output block + outputs. Every
    other slot gets an INV of a complemented literal or an EQW.
    """
    left, right, outputs = c._program
    n_in = c.n_inputs
    first = n_in + 2
    # node[v]: program value v as a literal over the nodes -- the inputs,
    # the constants and every NAND of two distinct literals -- twice the
    # node's value id, plus 1 for its complement. NAND value v reads the
    # literals operands[v - first]. reads[u] counts the nodes and outputs
    # that read node u; form[u] is node u's form, or None.
    node = list(range(0, 2 * first, 2))
    reads = [0] * (first + len(left))
    form: list[Any] = [None] * first + ["AND"] * len(left)
    operands: list[tuple[int, int]] = []
    pairs: list[int] = []  # the NAND nodes that read two NAND nodes
    for a, b in zip(left, right):
        la, lb = node[a], node[b]
        operands.append((la, lb))
        if la == lb:
            form[len(node)] = None
            node.append(la ^ 1)
            continue
        reads[la >> 1] += 1
        reads[lb >> 1] += 1
        if not (la | lb) & 1 and min(la, lb) >= 2 * first:
            pairs.append(len(node))
        node.append(2 * len(node))
    for v in outputs:
        reads[node[v] >> 1] += 1

    for v in pairs:
        lp, lq = operands[v - first]
        p, q = lp >> 1, lq >> 1
        (p0, p1), (q0, q1) = operands[p - first], operands[q - first]
        alone = (reads[p] == reads[q] == 1  # only v reads p and q, neither an XOR or a MUX
                 and form[p] in ("AND", "OR") and form[q] in ("AND", "OR"))
        for t, a in ((p0, p1), (p1, p0)):
            b = q0 + q1 - t
            if alone and t in (q0, q1) and t >= 2 * first and not t & 1 \
                    and reads[t >> 1] == 2 and form[t >> 1] in ("AND", "OR") \
                    and operands[(t >> 1) - first] in ((a, b), (b, a)):
                form[v] = "XOR", a, b
                form[p] = form[q] = form[t >> 1] = None
                break
        else:
            for s, x in ((p0, p1), (p1, p0)):
                if s ^ 1 in (q0, q1):
                    if alone:
                        form[v] = "MUX", s, x, q0 + q1 - (s ^ 1)
                        form[p] = form[q] = None
                    elif form[p] == form[q] == "AND":
                        form[v] = "OR"
                    break

    # Emitted gate i has operator ops[i] and sources srcs[i], and writes
    # Bristol wire n_in + i. lit[u] is the literal holding node u: twice
    # its Bristol wire, plus 1 when u is that wire's complement.
    ops: list[str] = []
    srcs: list[tuple[int | str, ...]] = []
    lit = list(range(0, 2 * n_in, 2)) + [0] * (len(node) - n_in)

    def emit(op: str, *sources: int | str) -> int:
        """Emit one gate; return its wire."""
        ops.append(op)
        srcs.append(sources)
        return n_in + len(ops) - 1

    for value, bit in ((n_in, "0"), (n_in + 1, "1")):
        if reads[value]:
            lit[value] = 2 * emit("EQ", bit)
    inverse: dict[int, int] = {}  # inverse[w]: the wire of w's one INV

    def positive(literal: int) -> int:
        """The Bristol wire that holds `literal` uncomplemented."""
        w = literal >> 1
        if not literal & 1:
            return w
        if w not in inverse:
            inverse[w] = emit("INV", w)
        return inverse[w]

    for v, (u, w) in enumerate(operands, first):
        match form[v]:
            case "AND":
                la, lb = lit[u >> 1] ^ (u & 1), lit[w >> 1] ^ (w & 1)
                lit[v] = 2 * emit("AND", positive(la), positive(lb)) + 1
            case "OR":
                lit[v] = 2 * emit("XOR", lit[u >> 1] >> 1, lit[w >> 1] >> 1)
            case ("XOR", a, b):
                la, lb = lit[a >> 1] ^ (a & 1), lit[b >> 1] ^ (b & 1)
                lit[v] = 2 * emit("XOR", la >> 1, lb >> 1) + ((la ^ lb) & 1)
            case ("MUX", s, x, y):
                ls, lx, ly = (lit[n >> 1] ^ (n & 1) for n in (s, x, y))
                flip = lx & ly & 1
                wx, wy = (positive(lx), positive(ly)) if (lx ^ ly) & 1 else (lx >> 1, ly >> 1)
                if ls & 1:
                    wx, wy = wy, wx
                lit[v] = 2 * emit("XOR", wy, emit("AND", ls >> 1, emit("XOR", wx, wy))) + flip

    next_wire = n_in + len(ops)
    outs = list(range(n_in, next_wire))
    n_wires = next_wire + c.n_outputs
    for target, u in enumerate(map(node.__getitem__, outputs), next_wire):
        literal = lit[u >> 1] ^ (u & 1)
        if not literal & 1 and u >> 1 >= n_in and reads[u >> 1] == 1:
            outs[(literal >> 1) - n_in] = target
        else:
            ops.append("INV" if literal & 1 else "EQW")
            srcs.append((literal >> 1,))
            outs.append(target)

    lines = [f"{len(ops)} {n_wires}",
             f"1 {n_in}" if n_in else "0",
             f"1 {c.n_outputs}" if c.n_outputs else "0",
             ""]
    lines += [BRISTOL_LINE[op] % (*ins, out) for op, ins, out in zip(ops, srcs, outs)]
    return "\n".join(lines) + "\n"
