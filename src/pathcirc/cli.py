"""Command-line front end.

Subcommands: compile, compile-universal, snarkize, eval, verify-path,
encode-graph, equiv, stats. Bitstrings on the command line are written most
significant bit first, matching the enumeration tables. Domain errors
exit 1 with a message on stderr; bad flags exit 2 via argparse.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path as FsPath

from .circuits import CODE, NAND, BitVector, Circuit, ext_equal, nand_depth
from .errors import ParseError, PathcircError
from .formats import document_from_json, json_int, to_bristol, to_json
from .graphs import EdgeStep, Graph, IdStep, enumerate_graph, parse_graph, path_oracle
from .universal import encode_graph, universal_verifier
from .verifiers import Verifier, path_verifier, snarkize


def _read(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit(circuit, metadata, fmt: str, out: str | None) -> None:
    if fmt == "bristol":
        _write(to_bristol(circuit), out)
    else:
        _write(to_json(circuit, metadata), out)


def _enumeration_metadata(g: Graph, en) -> dict:
    return {
        "v_bits": en.v_bits,
        "e_bits": en.e_bits,
        "vertex_codes": {name: str(en.vertex_code(i)) for i, name in enumerate(g.vertices)},
        "identity_codes": {name: str(en.identity_code(i)) for i, name in enumerate(g.vertices)},
        "edge_codes": {e.name: str(en.edge_code(j)) for j, e in enumerate(g.edges)},
    }


# the Verifier width fields, in declaration order
_PARTITION = ("in_width", "spec_width", "witness_width", "out_width")


def _partition(v: Verifier) -> dict[str, int]:
    """A verifier's wire partition as document metadata: the fields of
    ``_PARTITION``, without ``spec_width`` when the spec bus is empty."""
    return {name: getattr(v, name) for name in _PARTITION
            if name != "spec_width" or v.spec_width}


def _cmd_compile(args) -> int:
    g = parse_graph(_read(args.graph))
    en = enumerate_graph(g)
    pv = path_verifier(g, en, args.length)
    metadata = {"kind": "kp", "k": args.length, **_partition(pv), **_enumeration_metadata(g, en)}
    _emit(pv.circuit, metadata, args.format, args.out)
    return 0


def _cmd_compile_universal(args) -> int:
    m, n, k = args.max_edges, args.max_vertices, args.length
    uv = universal_verifier(m, n, k)
    metadata = {"kind": "zkp", "k": k, "max_edges": m, "max_vertices": n, **_partition(uv)}
    _emit(uv.circuit, metadata, args.format, args.out)
    return 0


def _wire_partition(meta: dict, kind: str) -> dict[str, int]:
    """The verifier widths a compiled document's metadata declares, the
    fields of ``_PARTITION`` that :func:`_partition` wrote.

    Each is a JSON integer (not a bool, float or string), at least 0,
    and ``out_width`` at least 1. A ``kp`` verifier has no spec bus.
    """
    widths = {"spec_width": 0}
    for name in _PARTITION:
        if name == "spec_width" and kind == "kp":
            continue
        if name not in meta:
            raise ParseError(f"circuit metadata lacks the wire partition field {name!r}")
        widths[name] = json_int(meta[name], 1 if name == "out_width" else 0,
                                f"circuit metadata field {name!r}")
    return widths


def _cmd_snarkize(args) -> int:
    doc = document_from_json(_read(args.circuit))
    meta = dict(doc.metadata or {})
    verifier = Verifier(circuit=doc.circuit, **_wire_partition(meta, args.kind))
    meta["kind"] = f"snark-{args.kind}"
    meta["claim_width"] = verifier.out_width
    _emit(snarkize(verifier), meta, args.format, args.out)
    return 0


def _cmd_eval(args) -> int:
    doc = document_from_json(_read(args.circuit))
    try:
        bits = BitVector.from_string(args.input)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    print(doc.circuit.evaluate(bits))
    return 0


def _parse_steps(g: Graph, text: str) -> list:
    steps = []
    for token in filter(None, text.split(",")):
        if token.startswith("id:"):
            steps.append(IdStep(g.vertex_index(token[3:])))
        else:
            steps.append(EdgeStep(g.edge_index(token)))
    return steps


def _cmd_verify_path(args) -> int:
    g = parse_graph(_read(args.graph))
    en = enumerate_graph(g)
    start = en.vertex_code(g.vertex_index(args.start))
    steps = _parse_steps(g, args.path)
    step_codes = [en.step_code(s) for s in steps]
    valid, end = path_oracle(g, en, start, step_codes)
    if args.end is not None:
        claim = en.vertex_code(g.vertex_index(args.end))
    else:
        claim = end if valid else en.zero_vertex()
    oracle_accepts = valid and claim == end

    pv = path_verifier(g, en, len(steps))
    wrapped = snarkize(pv)
    witness = BitVector(tuple(b for code in step_codes for b in code.bits))
    circuit_accepts = wrapped.evaluate(start + witness + claim).bits[0] == 1

    if oracle_accepts:
        end_name = g.vertices[en.decode_vertex(end.value)]
        print(f"oracle: valid (end {end_name})")
    else:
        print("oracle: invalid")
    print(f"circuit: {'valid' if circuit_accepts else 'invalid'}")
    if oracle_accepts != circuit_accepts:
        print("error: oracle and circuit disagree", file=sys.stderr)
        return 1
    return 0 if oracle_accepts else 1


def _cmd_encode_graph(args) -> int:
    g = parse_graph(_read(args.graph))
    enc = encode_graph(g, args.max_edges, args.max_vertices)
    digits = (enc.bits.width + 3) // 4
    print(f"({args.max_edges},{args.max_vertices}) {enc.bits.value:0{digits}x}")
    return 0


def _cmd_equiv(args) -> int:
    a = document_from_json(_read(args.a)).circuit
    b = document_from_json(_read(args.b)).circuit
    equal = ext_equal(a, b)
    print("equal" if equal else "not equal")
    return 0 if equal else 1


def _circuit_stats(c: Circuit) -> dict:
    """What a circuit costs: its boundary, gates by kind, wires, NAND
    count and depth, and the gate count of its Bristol Fashion form, in
    total and by operator (AND is the gate an MPC protocol pays for)."""
    by_kind = {kind: c.kinds.count(code) for kind, code in CODE.items()}
    bristol = to_bristol(c).splitlines()
    by_op = Counter(line.rsplit(" ", 1)[1] for line in bristol[4:])
    return {
        "inputs": c.n_inputs,
        "outputs": c.n_outputs,
        "gates": c.gate_count,
        "gates_by_kind": by_kind,
        "wires": c.wire_count,
        "nand_gates": by_kind[NAND],
        "nand_depth": nand_depth(c),
        "bristol_gates": int(bristol[0].split(" ", 1)[0]),
        "bristol_by_op": {op: by_op[op] for op in ("AND", "XOR", "INV", "EQ", "EQW")},
    }


def _cmd_stats(args) -> int:
    print(json.dumps(_circuit_stats(document_from_json(_read(args.circuit)).circuit)))
    return 0


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcirc",
        description="Compile finite-state-machine graphs into path-verifying "
                    "boolean circuits.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("json", "bristol"), default="json")
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("compile", help="compile a fixed-graph path verifier")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--length", type=_at_least(0), required=True,
                   help="number of steps verified")
    add_output_flags(p)
    p.set_defaults(run=_cmd_compile)

    p = sub.add_parser("compile-universal",
                       help="compile a verifier taking the graph encoding as input")
    p.add_argument("--max-vertices", type=_at_least(1), required=True)
    p.add_argument("--max-edges", type=_at_least(0), required=True)
    p.add_argument("--length", type=_at_least(0), required=True)
    add_output_flags(p)
    p.set_defaults(run=_cmd_compile_universal)

    p = sub.add_parser("snarkize", help="wrap a compiled verifier into a single-output circuit")
    p.add_argument("--circuit", required=True, help="circuit JSON file with metadata")
    p.add_argument("--kind", choices=("kp", "zkp"), required=True)
    add_output_flags(p)
    p.set_defaults(run=_cmd_snarkize)

    p = sub.add_parser("eval", help="evaluate a circuit on a bitstring")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="input bits, MSB first")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("verify-path", help="check a claimed path with oracle and circuit")
    p.add_argument("--graph", required=True)
    p.add_argument("--start", required=True, help="start vertex name")
    p.add_argument("--path", default="",
                   help="comma-separated edge names (id:VERTEX for identity steps)")
    p.add_argument("--end", help="claimed end vertex name (default: oracle's end)")
    p.set_defaults(run=_cmd_verify_path)

    p = sub.add_parser("encode-graph", help="print a graph's encoding at capacity")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-vertices", type=_at_least(1), required=True)
    p.add_argument("--max-edges", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_encode_graph)

    p = sub.add_parser("equiv", help="exhaustive extensional equivalence of two circuits")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=_cmd_equiv)

    p = sub.add_parser("stats", help="print a circuit's size, depth and Bristol gate counts")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.set_defaults(run=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (PathcircError, LookupError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
