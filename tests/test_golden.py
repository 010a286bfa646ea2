"""Byte-identity guard: the JSON of a few verifiers, pinned by sha256.

A refactor that claims no behaviour change must leave these hashes
alone. A change that alters the emitted circuits on purpose updates
them and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from pathcirc import (
    EdgeStep,
    IdStep,
    and_gate,
    bus_copy,
    edge_evaluator,
    enumerate_graph,
    match_circuit,
    parse_graph,
    path_verifier,
    seq,
    snarkize,
    tensor,
    to_json,
    universal_verifier,
    xor_gate,
)

ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)


def sha256(circuit) -> str:
    return hashlib.sha256(to_json(circuit).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("k, digest", [
    (0, "048da66c64cd28b3671cd851807900cb5a20da5319d43f51cbf1a665d2351c8c"),
    (1, "3d163a4e6b4eccf5cd70808358ffe7c56e8ea9eb493af5a9164b7b8cc36699ae"),
    (3, "d4de235e064a91355ef781d9b63188c69b037d1a13228411b73fc05a761e34c5"),
])
def test_path_verifier(k, digest):
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), k).circuit) == digest


def test_path_verifier_long_fold():
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), 8).circuit) == \
        "f8d8ae1ad6bd17eeb0a683018023afd291c999a72044ffdbd95b88c2837c8d57"


def test_snarkized_path_verifier():
    pv = path_verifier(ABC, enumerate_graph(ABC), 3)
    assert sha256(snarkize(pv)) == \
        "fd85d32b7003bb420b891303d1e218021cd643d419b9c6853382497db42cb34d"


@pytest.mark.parametrize("k, digest", [
    (0, "1a6e972ea09e604a78d23f1fa0a56f70aad89321e5dfeed1ac90d90d33dd078a"),
    (2, "9de8cd51bbd3342c0bbc2396836b0bba3f91d02f4fd6687c67a52fb78b6c86ba"),
])
def test_universal_verifier(k, digest):
    assert sha256(universal_verifier(1, 1, k).circuit) == digest


# k = 3 nests one spec fan-out inside another, which k = 2 does not.
@pytest.mark.parametrize("m, n, digest", [
    (1, 1, "ac5bd956f802bb8680b2bf8a12ea6ff7f3bfe63cd0aab5ffae2f2b9edecd499d"),
    (2, 2, "36e5f585ecf6cf3ca4a0cc278eea85cb102340a4f4fbdf90666de125c63f97b4"),
])
def test_universal_verifier_nested_fold(m, n, digest):
    assert sha256(universal_verifier(m, n, 3).circuit) == digest


@pytest.mark.parametrize("step, digest", [
    (EdgeStep(0), "cf3a561b3b9249e962347779880770cfee417c487288d4bb9e7a94438054dcb3"),
    (IdStep(1), "307f24274bec709d4ddf1358d38cee3ddd0cd3fea99e74278e39b4a3f4e16c73"),
])
def test_edge_evaluator(step, digest):
    assert sha256(edge_evaluator(ABC, enumerate_graph(ABC), step).circuit) == digest


def test_seq():
    assert sha256(seq(bus_copy(2), tensor(and_gate(), xor_gate()))) == \
        "1f160b4618638d350bb849a44801736afa5d8ac6726e94db8bd3c889fceb557e"


def test_tensor():
    assert sha256(tensor(xor_gate(), match_circuit(2))) == \
        "85e980f82b6c5ec414eaf822f701960e2ee9a934cd1009ac5dcb7f862b291ec7"
