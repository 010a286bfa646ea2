"""Byte-identity guard: the JSON and Bristol text of a few verifiers,
pinned by sha256.

A refactor that claims no behaviour change must leave these hashes
alone. A change that alters the emitted circuits on purpose updates
them and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
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
    (1, "000c7b236ddce0144db12557ddd9d87b92d37343da175ffebf1330c9c3fd8ebd"),
    (3, "8fb83931f1e18ece759319cd7ae4a10fa887ee9607590f0e652d96018e703827"),
])
def test_path_verifier(k, digest):
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), k).circuit) == digest


def test_path_verifier_long_fold():
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), 8).circuit) == \
        "81a58ddb43737d3f4554070e9482b1d323d2942433b55863c0c384b4ad8ef241"


def test_snarkized_path_verifier():
    pv = path_verifier(ABC, enumerate_graph(ABC), 3)
    assert sha256(snarkize(pv)) == \
        "0ee843c667629428859e8cb4fa4d99e8f58370f2d70a15cda495849c3ab4ef30"


@pytest.mark.parametrize("k, digest", [
    (0, "41faf8161d9160d21bbb939c9fe02267dbca7ee3443b8dbdce29963f25ee3dcb"),
    (2, "9d0722aaf422725c34a69cc722afa983ead8c16f963b2093c360731577014b28"),
])
def test_universal_verifier(k, digest):
    assert sha256(universal_verifier(1, 1, k).circuit) == digest


# k = 3 is the smallest fold that is not a single compose: one three-way
# spec fan-out, and both flag ANDs after the last step.
@pytest.mark.parametrize("m, n, digest", [
    (1, 1, "e1f67365cf06c2a19ab2e1183e2e6f35671292b9052fba9748930bd05a6d5863"),
    (2, 2, "f739ef8a0a4d6cb080d2e1519a72950a9461c3628ba749ffff473a9aac563c9c"),
])
def test_universal_verifier_nested_fold(m, n, digest):
    assert sha256(universal_verifier(m, n, 3).circuit) == digest


@pytest.mark.parametrize("step, digest", [
    (EdgeStep(0), "f4ca2e82d73b67af3e83cbfa979a14be81831aad6bf5ae4b1b0e26ea13d42df1"),
    (IdStep(1), "0a8599ba62eef528f867f97c4a389507650d24a398b3951c9bd9f7b79da86082"),
])
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
     "b5741e237ea0d2944b2b24e218e7f3e5789f747403d6deb240554189ff07ad47",
     "5471c22d17779e74cacf062564400a44b2ff5fe4ce3f923d9a168ea42be59278"),
    ("wide-graph",
     "987dc17cd613112994618691a03a2fc217aa822b766bfdafe0967d3df75b37ff",
     "ed976c97f1d1130fe15091f24b4f2d1faca8dd2a032a35e2382d0b0ac68d4cb4"),
    ("universal",
     "4949f24d430c9705b6d849e0ea19607d9a15b2df881a24739fcf6b509551d3ed",
     "18789d946d00284f39ae6d49637f0c89a381f1307616d3383cc72322906e1cbc"),
])
def test_benchmark_snark(workload, json_digest, bristol_digest):
    snark = snarkize(BENCHMARK_VERIFIERS[workload]())
    assert (sha256(snark), text_sha256(to_bristol(snark))) == (json_digest, bristol_digest)


def test_universal_source():
    assert sha256(universal_source(8, 8)) == \
        "f13f836ee09b8113da09de231531c4502fcb464e1814402523fe26b7b964ddc6"


def test_table_lowerings():
    """Every packing of ``synth.robdd``: seeded tables at widths 1-12 with
    1 and 3 outputs (one-byte terminals), the universal source lookup
    at capacity (32, 32) (384 leaves, so two-byte terminals) and the
    assigned-vertex check at (2, 300); one hash over their JSON text."""
    rng = Random(22)
    texts = []
    for width in range(1, 13):
        for outs in (1, 3):
            rows = [BitVector.from_int(rng.randrange(1 << outs), outs) for _ in range(1 << width)]
            texts.append(to_json(synth(TruthTable(width, outs, rows))))
    texts.append(to_json(universal_source(32, 32)))
    texts.append(to_json(universal._assigned(2, 300)))
    assert text_sha256("".join(texts)) == \
        "170ec707009dc3d37e526242f40b79dab305567c63d529956fb8a59e65565e95"


# Two larger snarks, pinned by their Bristol text only: a seeded 64 V /
# 128 E graph at k = 2 (3,937 gates) and the universal (4,3) at k = 1
# (1,094 gates).
@pytest.mark.parametrize("verifier, digest", [
    (lambda: fixed_graph_verifier(random_multigraph(64, 128, Random(1909)), 2),
     "fa595836e05ced69846e1608ce792dcea17e85d078d60789410ba480b9702119"),
    (lambda: universal_verifier(4, 3, 1),
     "74454d35b8a239b7adab0a0b8a93269b02af0f24194ab43f2b89f136ac5294d2"),
], ids=["fixed-64-128-k2", "universal-4-3-k1"])
def test_bristol_snark(verifier, digest):
    assert text_sha256(to_bristol(snarkize(verifier()))) == digest
