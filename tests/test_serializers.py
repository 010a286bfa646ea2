"""The JSON serialiser against an independent reference, and one
structural error per rule of the document parser."""

from __future__ import annotations

import json
from random import Random

import pytest

from json_ref import reference_json
from pathcirc import Circuit, ValidationError, document_from_json, to_json
from pathcirc.circuits import CODE, COPY, FALSE, NAND, TRUE

ARITY = {NAND: (2, 1), COPY: (1, 2), TRUE: (0, 1), FALSE: (0, 1)}

METADATA = [
    None,
    {},
    {"k": 3, "kind": "kp", "codes": {"a": "01", "b": "10"}},
    {"empty": [], "nested": {"deeper": {"list": [1, [2, []], {}]}}, "none": None},
    {"name": "Grüße, 路径 ✓", "text": "line one\nline two\t\"quoted\"\\", "flag": True},
    {"ratio": 0.5, "negative": -7, "big": 10 ** 30},
]


def random_gates(rng: Random, n_inputs: int, n_gates: int):
    """A gate list over dense wires, as (kind, in wires, out wires)."""
    gates = []
    wires = n_inputs
    for _ in range(n_gates):
        kind = rng.choice([NAND, COPY, TRUE, FALSE] if wires else [TRUE, FALSE])
        n_in, n_out = ARITY[kind]
        ins = tuple(rng.randrange(wires) for _ in range(n_in))
        gates.append((kind, ins, tuple(range(wires, wires + n_out))))
        wires += n_out
    return gates, wires


def cases():
    rng = Random(4242)
    out = [(0, 0, 0), (0, 0, 2), (3, 0, 0), (0, 2, 0), (2, 5, 0)]
    out += [(rng.randrange(8), rng.randrange(60), rng.randrange(6)) for _ in range(25)]
    return [(n_inputs, n_gates, n_outputs, rng.randrange(1 << 30), METADATA[i % len(METADATA)])
            for i, (n_inputs, n_gates, n_outputs) in enumerate(out)]


@pytest.mark.parametrize("n_inputs, n_gates, n_outputs, seed, metadata", cases())
def test_to_json_matches_the_reference(n_inputs, n_gates, n_outputs, seed, metadata):
    rng = Random(seed)
    gates, wires = random_gates(rng, n_inputs, n_gates)
    output_map = [rng.randrange(wires) for _ in range(n_outputs if wires else 0)]
    circuit = Circuit(n_inputs, output_map, bytes(CODE[kind] for kind, _, _ in gates),
                      [w for _, ins, _ in gates for w in ins])
    expected = reference_json(n_inputs, gates, output_map, metadata)
    assert to_json(circuit, metadata) == expected
    doc = document_from_json(expected)
    assert doc.circuit == circuit and doc.metadata == metadata


DOC = {"format_version": "1", "n_inputs": 2, "n_outputs": 1,
       "gates": [{"op": "NAND", "in": [0, 1], "out": [2]},
                 {"op": "COPY", "in": [2], "out": [3, 4]},
                 {"op": "NAND", "in": [3, 4], "out": [5]}],
       "output_map": [5]}


@pytest.mark.parametrize("path, value", [
    (("gates", 0, "in"), [0]),              # wrong arity: too few inputs
    (("gates", 1, "out"), [3]),             # wrong arity: too few outputs
    (("gates", 1, "out"), [4, 5]),          # out-wire is not the next dense wire
    (("gates", 0, "out"), [7]),             # out-wire is not the next dense wire
    (("gates", 2, "in"), [3, 6]),           # reads a wire not yet defined
    (("gates", 0, "in"), [0, 2]),           # reads its own output
    (("output_map", 0), 6),                 # output_map entry past the last wire
    (("n_outputs",), 2),                    # count mismatch with output_map
], ids=["arity-in", "arity-out", "out-not-dense", "out-skips", "read-undefined",
        "read-own-output", "output-past-last", "count-mismatch"])
def test_structural_errors_are_validation_errors(path, value):
    doc = json.loads(json.dumps(DOC))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ValidationError):
        document_from_json(json.dumps(doc))
