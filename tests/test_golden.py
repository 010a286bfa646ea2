"""Byte-identity guard: the JSON and Bristol text of a few verifiers,
pinned by sha256, and the size of each.

A refactor that claims no behaviour change must leave these hashes
alone. A change that alters the emitted circuits on purpose updates
them and says so in CHANGES.md; one that only reorders their gates
leaves the sizes alone.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from random import Random

import pytest

from helpers import de_bruijn, random_multigraph
from pathcirc import (
    BitVector,
    EdgeStep,
    IdStep,
    TruthTable,
    and_gate,
    bus_copy,
    edge_evaluator,
    enumerate_graph,
    match_circuit,
    parse_graph,
    path_verifier,
    seq,
    snarkize,
    synth,
    tensor,
    to_bristol,
    to_json,
    universal_verifier,
    xor_gate,
)
from pathcirc import universal
from pathcirc.circuits import CODE, NAND, nand_depth
from pathcirc.universal import universal_source

ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)


def sha256(circuit) -> str:
    return text_sha256(to_json(circuit))


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("k, digest", [
    (0, "5dda80f3921027b4e247f9cec1f21736a46f0f4ecca7850b1e15fcd29fe1af45"),
    (1, "eb5ec11308f20daf77ecbcb6ed3f4c7b87300392b23173e0c8142c2a331bccae"),
    (3, "43456fc3bc72a5f6c84641ee781d05aad14b42bcafe3fb2c6b99d23ca360ce17"),
], ids=["k0", "k1", "k3"])
def test_path_verifier(k, digest):
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), k).circuit) == digest


def test_path_verifier_long_fold():
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), 8).circuit) == \
        "00cd4f8360e33d79f26bdf96ac04a01aab6cae7d54674872193e1356351a12ea"


def test_snarkized_path_verifier():
    pv = path_verifier(ABC, enumerate_graph(ABC), 3)
    assert sha256(snarkize(pv)) == \
        "964ff1269c36a630f8e9300639d1ac839d893d877e35b689c6e79fd8ff62a68a"


@pytest.mark.parametrize("k, digest", [
    (0, "dff34d36779f46876ccacac406ffbd4e7c792494a2d181bb9f6bfcbbf20f771e"),
    (2, "5b76515068be717a7aff836ad3c1101eba5655ba155ec515649d271934384022"),
], ids=["k0", "k2"])
def test_universal_verifier(k, digest):
    assert sha256(universal_verifier(1, 1, k).circuit) == digest


# k = 3 is the smallest fold that is not a single compose: one three-way
# spec fan-out, and both flag ANDs after the last step.
@pytest.mark.parametrize("m, n, digest", [
    (1, 1, "e2c918cc603dafc8a837994ac5a9187704f9b82c8b47784e3cdda5923a886189"),
    (2, 2, "0de135e3e5c65bb38b7e2944798ef04312840bc1f0a6c4f23da85865934665e5"),
], ids=["m1-n1", "m2-n2"])
def test_universal_verifier_nested_fold(m, n, digest):
    assert sha256(universal_verifier(m, n, 3).circuit) == digest


@pytest.mark.parametrize("step, digest", [
    (EdgeStep(0), "514b9774a42b56359f7fdecbfc062b00585dd9c8b76e430ff98266fabeb91b28"),
    (IdStep(1), "eb02f3722b6177807aa193fc92917e9cb89e3dd9c9d62e2a5792dfa6c7106518"),
], ids=["edge0", "id1"])
def test_edge_evaluator(step, digest):
    assert sha256(edge_evaluator(ABC, enumerate_graph(ABC), step).circuit) == digest


def test_seq():
    assert sha256(seq(bus_copy(2), tensor(and_gate(), xor_gate()))) == \
        "1f160b4618638d350bb849a44801736afa5d8ac6726e94db8bd3c889fceb557e"


def test_tensor():
    assert sha256(tensor(xor_gate(), match_circuit(2))) == \
        "85e980f82b6c5ec414eaf822f701960e2ee9a934cd1009ac5dcb7f862b291ec7"


def fixed_graph_verifier(doc: dict, k: int):
    g = parse_graph(json.dumps(doc))
    return path_verifier(g, enumerate_graph(g), k)


# The benchmark's three workloads (perfbench/workloads.py): the snark
# circuit's JSON and its Bristol text.
BENCHMARK_VERIFIERS = {
    "long-walk": lambda: fixed_graph_verifier(de_bruijn(3), 8),
    "wide-graph": lambda: fixed_graph_verifier(random_multigraph(32, 64, Random(1909)), 1),
    "universal": lambda: universal_verifier(2, 2, 2),
}


@pytest.mark.parametrize("workload, json_digest, bristol_digest", [
    ("long-walk",
     "a86ce35b3b7b982c92e4d4a9225159ae841f55abfea5ed22c0e8993708d53fd8",
     "50ecf6ecea743e4d83f551e662f59d57309e53fef74fb084e2d00432c1b06d02"),
    ("wide-graph",
     "f190da1edf354f0f59122361ba57bbf2d2a0edf86c03ac5d52d1e8a1397112d9",
     "791e6959f68c015873a3df7832deee31fc88b30b7d4853d599e73b5566141eb9"),
    ("universal",
     "37a0b9c5e86fb26941e596adf5839e5e827b611f8cb093b6a8c5eb18e4a9ee40",
     "8bbf1bdb053d7b5a4683752d3b947a37c222f38d91076a758743acbd229e4b07"),
], ids=["long-walk", "wide-graph", "universal"])
def test_benchmark_snark(workload, json_digest, bristol_digest):
    snark = snarkize(BENCHMARK_VERIFIERS[workload]())
    assert (sha256(snark), text_sha256(to_bristol(snark))) == (json_digest, bristol_digest)


def test_universal_source():
    assert sha256(universal_source(8, 8)) == \
        "c5265b8e34b3e5c24c8690abcb8a20afd59b5271eb23a1009739e8f1a74d6021"


def table_lowerings() -> dict:
    """Seeded tables at widths 1-12 with 1 and 3 outputs, the universal
    source lookup at capacity (32, 32) and the assigned-vertex check at
    (2, 300), by name."""
    rng = Random(22)
    circuits = {}
    for width in range(1, 13):
        for outs in (1, 3):
            rows = [BitVector.from_int(rng.randrange(1 << outs), outs) for _ in range(1 << width)]
            circuits[f"synth-{width}-{outs}"] = synth(TruthTable(width, outs, rows))
    circuits["universal_source-32-32"] = universal_source(32, 32)
    circuits["assigned-2-300"] = universal._assigned(2, 300)
    return circuits


def test_table_lowerings():
    """``synth.robdd`` from one select to twelve and from no leaves to
    hundreds: the seeded tables, the universal source lookup at capacity
    (32, 32) (384 leaves) and the assigned-vertex check at (2, 300); one
    hash over their JSON text."""
    texts = [to_json(c) for c in table_lowerings().values()]
    assert text_sha256("".join(texts)) == \
        "b473e0c528b6219d1bcf9d5a003a36a04b38003baa50ec888d6916c8b816e777"


# Two larger snarks, pinned by their Bristol text only: a seeded 64 V /
# 128 E graph at k = 2 (3,097 gates) and the universal (4,3) at k = 1
# (1,030 gates).
@pytest.mark.parametrize("verifier, digest", [
    (lambda: fixed_graph_verifier(random_multigraph(64, 128, Random(1909)), 2),
     "c75daa548d100352ee2aca12f68d4ef4f11fa85160e501db28ac8cdf4d3cdf37"),
    (lambda: universal_verifier(4, 3, 1),
     "f62b1e9a2735083563e7a00af95a704643aaf6a15a4927046bb65bda8aedf154"),
], ids=["fixed-64-128-k2", "universal-4-3-k1"])
def test_bristol_snark(verifier, digest):
    assert text_sha256(to_bristol(snarkize(verifier()))) == digest


def size(c) -> tuple[int, ...]:
    """Gate count, NAND count, NAND depth, and the Bristol gate count of
    each operator: AND, XOR, INV, EQ, EQW."""
    ops = Counter(line.rsplit(" ", 1)[1] for line in to_bristol(c).splitlines()[4:])
    return (c.gate_count, c.kinds.count(CODE[NAND]), nand_depth(c),
            *(ops[op] for op in ("AND", "XOR", "INV", "EQ", "EQW")))


def sized() -> dict:
    """Every circuit this file pins by hash, by name."""
    pv = {k: path_verifier(ABC, enumerate_graph(ABC), k) for k in (0, 1, 3, 8)}
    return {
        **{f"path_verifier-{k}": v.circuit for k, v in pv.items()},
        "snarkized_path_verifier-3": snarkize(pv[3]),
        **{f"universal_verifier-1-1-{k}": universal_verifier(1, 1, k).circuit
           for k in (0, 2)},
        **{f"universal_verifier-{m}-{m}-3": universal_verifier(m, m, 3).circuit
           for m in (1, 2)},
        **{f"edge_evaluator-{name}": edge_evaluator(ABC, enumerate_graph(ABC), step).circuit
           for name, step in (("step0", EdgeStep(0)), ("step1", IdStep(1)))},
        "seq": seq(bus_copy(2), tensor(and_gate(), xor_gate())),
        "tensor": tensor(xor_gate(), match_circuit(2)),
        **{f"{name}-snark": snarkize(build()) for name, build in BENCHMARK_VERIFIERS.items()},
        "universal_source-8-8": universal_source(8, 8),
        "fixed-64-128-k2-snark": snarkize(
            fixed_graph_verifier(random_multigraph(64, 128, Random(1909)), 2)),
        "universal-4-3-k1-snark": snarkize(universal_verifier(4, 3, 1)),
        **table_lowerings(),
    }


# (gates, NAND gates, NAND depth, Bristol AND, XOR, INV, EQ, EQW) of each circuit
SIZES = {
    "path_verifier-0": (7, 3, 2, 1, 0, 3, 0, 2),
    "path_verifier-1": (78, 40, 13, 12, 7, 10, 0, 0),
    "path_verifier-3": (240, 124, 17, 38, 21, 30, 0, 0),
    "path_verifier-8": (645, 334, 19, 103, 56, 80, 0, 0),
    "snarkized_path_verifier-3": (274, 143, 19, 42, 23, 35, 0, 0),
    "universal_verifier-1-1-0": (31, 17, 9, 5, 2, 1, 0, 1),
    "universal_verifier-1-1-2": (179, 92, 17, 23, 18, 3, 0, 0),
    "universal_verifier-1-1-3": (272, 139, 19, 35, 27, 4, 0, 0),
    "universal_verifier-2-2-3": (1529, 775, 29, 299, 126, 101, 0, 0),
    "edge_evaluator-step0": (81, 40, 13, 10, 7, 8, 2, 0),
    "edge_evaluator-step1": (81, 40, 13, 12, 7, 9, 2, 0),
    "seq": (12, 6, 3, 1, 1, 0, 0, 0),
    "tensor": (38, 21, 8, 3, 3, 5, 0, 0),
    "long-walk-snark": (2027, 1037, 26, 311, 292, 137, 0, 0),
    "wide-graph-snark": (950, 484, 27, 162, 190, 52, 0, 0),
    "universal-snark": (1047, 535, 29, 203, 86, 77, 0, 0),
    "universal_source-8-8": (2564, 1346, 31, 546, 312, 272, 0, 0),
    "fixed-64-128-k2-snark": (3097, 1563, 31, 549, 721, 137, 0, 0),
    "universal-4-3-k1-snark": (1030, 534, 29, 213, 76, 123, 0, 0),
    "synth-1-1": (1, 0, 0, 0, 0, 0, 1, 0),
    "synth-1-3": (2, 0, 0, 0, 0, 0, 0, 3),
    "synth-2-1": (5, 3, 3, 1, 0, 1, 0, 0),
    "synth-2-3": (13, 6, 3, 2, 1, 2, 0, 2),
    "synth-3-1": (14, 8, 5, 3, 2, 2, 0, 0),
    "synth-3-3": (34, 17, 5, 6, 6, 3, 0, 0),
    "synth-4-1": (29, 16, 6, 6, 6, 4, 0, 0),
    "synth-4-3": (69, 35, 7, 15, 14, 6, 0, 0),
    "synth-5-1": (54, 29, 9, 11, 10, 5, 0, 0),
    "synth-5-3": (136, 69, 9, 27, 31, 7, 0, 0),
    "synth-6-1": (97, 51, 11, 17, 25, 7, 0, 0),
    "synth-6-3": (223, 113, 11, 43, 55, 11, 0, 0),
    "synth-7-1": (182, 94, 13, 36, 46, 9, 0, 0),
    "synth-7-3": (424, 214, 13, 78, 120, 13, 0, 0),
    "synth-8-1": (315, 161, 15, 61, 84, 12, 0, 0),
    "synth-8-3": (767, 386, 15, 132, 234, 15, 0, 0),
    "synth-9-1": (566, 287, 17, 98, 170, 17, 0, 0),
    "synth-9-3": (1382, 694, 17, 243, 424, 25, 0, 0),
    "synth-10-1": (1009, 509, 19, 166, 318, 20, 0, 0),
    "synth-10-3": (2487, 1247, 19, 449, 757, 39, 0, 0),
    "synth-11-1": (1804, 907, 21, 314, 560, 24, 0, 0),
    "synth-11-3": (4350, 2179, 21, 797, 1336, 42, 0, 0),
    "synth-12-1": (3155, 1583, 23, 572, 965, 37, 0, 0),
    "synth-12-3": (7605, 3807, 23, 1286, 2466, 47, 0, 0),
    "universal_source-32-32": (23708, 12238, 43, 4674, 4588, 1664, 0, 0),
    "assigned-2-300": (109744, 59484, 61, 25758, 1770, 12907, 0, 0),
}


def test_sizes():
    assert {name: size(c) for name, c in sized().items()} == SIZES
