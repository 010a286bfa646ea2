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
    (0, "ead314decb06a01f6e4a79b2d9e66f97766786a6a9feda600075a5762702df3f"),
    (1, "adc828881cd566828c2ecbde70ba4cd4582e45d533b5f658676e217db4e375fb"),
    (3, "10a5e1fc7d7621d615f29c387a3028c910385495904e9ac0aa5212a1529d376e"),
], ids=["k0", "k1", "k3"])
def test_path_verifier(k, digest):
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), k).circuit) == digest


def test_path_verifier_long_fold():
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), 8).circuit) == \
        "324ff92ec0ce882f4a9aa55b7608e123f3cda68ee0ecb02cc202a04c01262d92"


def test_snarkized_path_verifier():
    pv = path_verifier(ABC, enumerate_graph(ABC), 3)
    assert sha256(snarkize(pv)) == \
        "c377de1cf50e6d72af3b1dfb0caae438db0ffd68238c8a7a9150757c070983c7"


@pytest.mark.parametrize("k, digest", [
    (0, "41faf8161d9160d21bbb939c9fe02267dbca7ee3443b8dbdce29963f25ee3dcb"),
    (2, "9d0722aaf422725c34a69cc722afa983ead8c16f963b2093c360731577014b28"),
], ids=["k0", "k2"])
def test_universal_verifier(k, digest):
    assert sha256(universal_verifier(1, 1, k).circuit) == digest


# k = 3 is the smallest fold that is not a single compose: one three-way
# spec fan-out, and both flag ANDs after the last step.
@pytest.mark.parametrize("m, n, digest", [
    (1, 1, "e1f67365cf06c2a19ab2e1183e2e6f35671292b9052fba9748930bd05a6d5863"),
    (2, 2, "d7be80776e14b718005b86d0465f4ba3e70ea258b9198647d70e7e07c1a022c1"),
], ids=["m1-n1", "m2-n2"])
def test_universal_verifier_nested_fold(m, n, digest):
    assert sha256(universal_verifier(m, n, 3).circuit) == digest


@pytest.mark.parametrize("step, digest", [
    (EdgeStep(0), "968e3292d152a9115b987c3e64fc733d91a2030e0553a29b301ee9ce14afbdf8"),
    (IdStep(1), "3b3840f6728671773f7a7498d54e0af8fd8d66818c662e9327dfb79c02ac651a"),
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
     "09c7622d286f7b674de8497fbc7ee0dba82f2f0c50fb71562804b840c994ccb0",
     "ed87892c8ea080798d192f4d99206074aca93339e1546195f9cbae75fcc163b6"),
    ("wide-graph",
     "570b02396b6860dd8d7f0e7a7d7d046541cfffba0a007bf3ddfa31fc243326f5",
     "ab8299dbf61ea348f686d0a7e11997f3fbcf2a0552e0658cf275dcdb2a4b60f8"),
    ("universal",
     "cb185d96b7a721c94108eeb404b6bca7097b6640a6355089d6d74c84c212aa03",
     "8bbf1bdb053d7b5a4683752d3b947a37c222f38d91076a758743acbd229e4b07"),
], ids=["long-walk", "wide-graph", "universal"])
def test_benchmark_snark(workload, json_digest, bristol_digest):
    snark = snarkize(BENCHMARK_VERIFIERS[workload]())
    assert (sha256(snark), text_sha256(to_bristol(snark))) == (json_digest, bristol_digest)


def test_universal_source():
    assert sha256(universal_source(8, 8)) == \
        "f88aeef624f8ebe87a18ee57858bbb262a00ddb1d57fb986f72cef4fff5ec152"


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
        "b25e3d060740808830e966f6799bc229a1829b36b632ad398d7f9d5665baf4c5"


# Two larger snarks, pinned by their Bristol text only: a seeded 64 V /
# 128 E graph at k = 2 (3,937 gates) and the universal (4,3) at k = 1
# (1,094 gates).
@pytest.mark.parametrize("verifier, digest", [
    (lambda: fixed_graph_verifier(random_multigraph(64, 128, Random(1909)), 2),
     "cb5eaf1bac2bcaf4672d74bd19832b9e810d643d3c633ff80bbb90f8994c208c"),
    (lambda: universal_verifier(4, 3, 1),
     "0cc7d97f26c840bc1779abb4871ef628cbed2af8cbc00aedc55484a0ed40e8a6"),
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
    "path_verifier-1": (88, 45, 13, 12, 10, 10, 0, 0),
    "path_verifier-3": (270, 139, 17, 38, 30, 30, 0, 0),
    "path_verifier-8": (725, 374, 19, 103, 80, 80, 0, 0),
    "snarkized_path_verifier-3": (304, 158, 19, 42, 32, 35, 0, 0),
    "universal_verifier-1-1-0": (31, 17, 9, 5, 2, 1, 0, 1),
    "universal_verifier-1-1-2": (179, 92, 17, 23, 18, 3, 0, 0),
    "universal_verifier-1-1-3": (272, 139, 19, 35, 27, 4, 0, 0),
    "universal_verifier-2-2-3": (1529, 775, 29, 299, 126, 101, 0, 0),
    "edge_evaluator-step0": (91, 45, 13, 9, 10, 9, 2, 0),
    "edge_evaluator-step1": (91, 45, 13, 12, 10, 9, 2, 0),
    "seq": (12, 6, 3, 1, 1, 0, 0, 0),
    "tensor": (38, 21, 8, 3, 3, 5, 0, 0),
    "long-walk-snark": (2123, 1085, 27, 335, 292, 137, 0, 0),
    "wide-graph-snark": (1136, 577, 27, 190, 238, 62, 0, 0),
    "universal-snark": (1047, 535, 29, 203, 86, 77, 0, 0),
    "universal_source-8-8": (2748, 1438, 31, 592, 312, 272, 0, 0),
    "fixed-64-128-k2-snark": (3937, 1983, 31, 687, 929, 151, 0, 0),
    "universal-4-3-k1-snark": (1094, 566, 29, 229, 76, 123, 0, 0),
    "synth-1-1": (1, 0, 0, 0, 0, 0, 1, 0),
    "synth-1-3": (2, 0, 0, 0, 0, 0, 0, 3),
    "synth-2-1": (5, 3, 3, 1, 0, 1, 0, 0),
    "synth-2-3": (15, 7, 3, 2, 2, 2, 0, 1),
    "synth-3-1": (18, 10, 5, 3, 2, 2, 0, 0),
    "synth-3-3": (36, 18, 5, 6, 6, 3, 0, 0),
    "synth-4-1": (35, 19, 7, 6, 6, 4, 0, 0),
    "synth-4-3": (87, 44, 7, 15, 20, 6, 0, 0),
    "synth-5-1": (68, 36, 9, 12, 14, 4, 0, 0),
    "synth-5-3": (168, 85, 9, 30, 40, 7, 0, 0),
    "synth-6-1": (113, 59, 11, 20, 26, 7, 0, 0),
    "synth-6-3": (269, 136, 11, 48, 68, 12, 0, 0),
    "synth-7-1": (218, 112, 13, 38, 58, 11, 0, 0),
    "synth-7-3": (548, 276, 13, 95, 158, 16, 0, 0),
    "synth-8-1": (397, 202, 15, 70, 108, 16, 0, 0),
    "synth-8-3": (1025, 515, 15, 176, 310, 22, 0, 0),
    "synth-9-1": (754, 381, 17, 131, 220, 21, 0, 0),
    "synth-9-3": (1890, 948, 17, 325, 578, 45, 0, 0),
    "synth-10-1": (1369, 689, 19, 236, 414, 34, 0, 0),
    "synth-10-3": (3387, 1697, 19, 581, 1050, 76, 0, 0),
    "synth-11-1": (2436, 1223, 21, 417, 756, 48, 0, 0),
    "synth-11-3": (5896, 2952, 21, 1002, 1874, 95, 0, 0),
    "synth-12-1": (4225, 2118, 23, 722, 1324, 82, 0, 0),
    "synth-12-3": (10515, 5262, 23, 1775, 3400, 135, 0, 0),
    "universal_source-32-32": (25444, 13106, 43, 5096, 4588, 1664, 0, 0),
    "assigned-2-300": (125652, 67438, 61, 29262, 1770, 12907, 0, 0),
}


def test_sizes():
    assert {name: size(c) for name, c in sized().items()} == SIZES
