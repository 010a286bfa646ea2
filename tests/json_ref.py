"""Independent reference for the circuit JSON document.

Used to validate the serialiser: the document is built here from an
explicit gate list, as (kind, in wires, out wires) triples, and written
with the standard library's indented encoder. It must share no code
with the serialiser under test.
"""

from __future__ import annotations

import json


def reference_json(n_inputs: int, gates, output_map, metadata=None) -> str:
    doc = {
        "format_version": "1",
        "n_inputs": n_inputs,
        "n_outputs": len(output_map),
        "gates": [{"op": kind, "in": list(ins), "out": list(outs)}
                  for kind, ins, outs in gates],
        "output_map": list(output_map),
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"
