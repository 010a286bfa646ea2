"""Circuit serialization: the native JSON document and Bristol Fashion.

The JSON document is the lossless interchange form -- gate-for-gate
round-trips, deterministic key order, optional metadata block (wire
partitions, enumeration assignments) so verifier structure survives a
trip through a file.

Bristol Fashion is the lossy hand-off format for MPC/zk toolchains:
NAND lowers to AND+INV, COPY to two EQW, constants to EQ gates with a
literal 0/1 source, and a final block of EQW gates relocates the
circuit outputs to the trailing wires the format requires. When an
output is produced by the last use of a gate, the gate writes straight
into the output region instead (its nominal internal wire stays
reserved, so the wire count is always inputs + lowered gate outputs +
outputs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .circuits import COPY, GATE_ARITY, NAND, TRUE, Circuit, GateInstance
from .errors import ParseError

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class CircuitDocument:
    circuit: Circuit
    metadata: Mapping[str, Any] | None = None


def to_json(c: Circuit, metadata: Mapping[str, Any] | None = None) -> str:
    """Serialise a circuit (and optional metadata) deterministically."""
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "n_inputs": c.n_inputs,
        "n_outputs": c.n_outputs,
        "gates": [
            {"op": g.kind, "in": list(g.in_wires), "out": list(g.out_wires)}
            for g in c.gates
        ],
        "output_map": list(c.output_map),
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def is_json_int(value: Any, least: int = 0) -> bool:
    """A JSON integer (not a bool, float or string) of at least `least`."""
    return type(value) is int and value >= least


def json_int(value: Any, least: int, what: str) -> int:
    """`value` if :func:`is_json_int`, else ParseError naming `what`."""
    if not is_json_int(value, least):
        raise ParseError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def document_from_json(text: str) -> CircuitDocument:
    """Parse a circuit document; structural violations raise ValidationError."""
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
    gates = []
    for i, entry in enumerate(doc["gates"]):
        op = entry.get("op") if isinstance(entry, dict) else None
        if not isinstance(op, str) or op not in GATE_ARITY:
            raise ParseError(f"gate {i}: unknown or missing op")
        ins, outs = entry.get("in"), entry.get("out")
        if not (isinstance(ins, list) and isinstance(outs, list)
                and all(map(is_json_int, ins + outs))):
            raise ParseError(f"gate {i}: in and out must be lists of integers >= 0")
        gates.append(GateInstance(op, tuple(ins), tuple(outs)))
    output_map = doc.get("output_map")
    if not isinstance(output_map, list) or not all(map(is_json_int, output_map)):
        raise ParseError("output_map must be a list of integers >= 0")
    circuit = Circuit(json_int(doc.get("n_inputs"), 0, "n_inputs"),
                      json_int(doc.get("n_outputs"), 0, "n_outputs"),
                      tuple(gates), tuple(output_map))
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata must be a JSON object")
    return CircuitDocument(circuit, metadata)


def from_json(text: str) -> Circuit:
    return document_from_json(text).circuit


def to_bristol(c: Circuit) -> str:
    """Export in Bristol Fashion; byte-deterministic for a given circuit."""
    internal: dict[int, int] = {w: w for w in range(c.n_inputs)}
    next_wire = c.n_inputs
    lowered: list[tuple[str, tuple[int | str, ...], int]] = []

    def fresh() -> int:
        nonlocal next_wire
        w = next_wire
        next_wire += 1
        return w

    for g in c.gates:
        ins = tuple(internal[w] for w in g.in_wires)
        if g.kind == NAND:
            t = fresh()
            lowered.append(("AND", ins, t))
            out = fresh()
            lowered.append(("INV", (t,), out))
            internal[g.out_wires[0]] = out
        elif g.kind == COPY:
            for out_wire in g.out_wires:
                out = fresh()
                lowered.append(("EQW", ins, out))
                internal[out_wire] = out
        else:
            out = fresh()
            lowered.append(("EQ", ("1" if g.kind == TRUE else "0",), out))
            internal[g.out_wires[0]] = out

    out_region = list(range(next_wire, next_wire + c.n_outputs))
    n_wires = next_wire + c.n_outputs
    read = {w for _, ins, _ in lowered for w in ins if isinstance(w, int)}
    gate_at = {out: i for i, (_, _, out) in enumerate(lowered)}
    relocations = []
    for slot, src in enumerate(c.output_map):
        wire = internal[src]
        fusable = (
            wire >= c.n_inputs
            and wire not in read
            and c.output_map.count(src) == 1
        )
        if fusable:
            op, ins, _ = lowered[gate_at[wire]]
            lowered[gate_at[wire]] = (op, ins, out_region[slot])
        else:
            relocations.append(("EQW", (wire,), out_region[slot]))
    lowered += relocations

    lines = [f"{len(lowered)} {n_wires}"]
    lines.append(f"1 {c.n_inputs}" if c.n_inputs else "0")
    lines.append(f"1 {c.n_outputs}" if c.n_outputs else "0")
    lines.append("")
    for op, ins, out in lowered:
        n_in = len(ins)
        fields = " ".join(str(x) for x in ins)
        lines.append(f"{n_in} 1 {fields} {out} {op}")
    return "\n".join(lines) + "\n"
