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
    (0, "36439e5db2dee52f41758a5e53cc1ec79e2011ecd6a55cc9193506627111388a"),
    (1, "e1b2acefdf6a7dbc97db0102869fc44dae6824582361971a0c7dc19d228ef107"),
    (3, "905399538e104be73edd9b092301b79e920546e842fd147582fa41bc014ea68f"),
])
def test_path_verifier(k, digest):
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), k).circuit) == digest


def test_path_verifier_long_fold():
    assert sha256(path_verifier(ABC, enumerate_graph(ABC), 8).circuit) == \
        "899a67560826e05a21d48770887dcbc7fd5009fd6b6e96d02b07896169a67d2d"


def test_snarkized_path_verifier():
    pv = path_verifier(ABC, enumerate_graph(ABC), 3)
    assert sha256(snarkize(pv)) == \
        "6f99536cc23a7daae33a899631d0c2b9fea45841b83cdc0d204101aadd31e6c0"


@pytest.mark.parametrize("k, digest", [
    (0, "bfb3c961bc62aa077c383c15dcd81a4e22536706d852bddf3bd6427d96561ff9"),
    (2, "9723f08e9e291615bde032b82517d46bae592acb88d69b732a615fe7e496b166"),
])
def test_universal_verifier(k, digest):
    assert sha256(universal_verifier(1, 1, k).circuit) == digest


# k = 3 is the smallest fold that is not a single compose: one three-way
# spec fan-out, and both flag ANDs after the last step.
@pytest.mark.parametrize("m, n, digest", [
    (1, 1, "9bddcf7f52f89be28480c0c497b98f30391f943ddced5ae7637847fba55e9b0f"),
    (2, 2, "a08edd945ebee0a98979b59e1f0cf3f83fdc1e26257c96ab781f0351f8aa559b"),
])
def test_universal_verifier_nested_fold(m, n, digest):
    assert sha256(universal_verifier(m, n, 3).circuit) == digest


@pytest.mark.parametrize("step, digest", [
    (EdgeStep(0), "56da2c2f2972eddbede40b47fb5892f20534c6158e66654a6aef0e31b7560a46"),
    (IdStep(1), "531acc23b48f1c2b8c9cf74d614141f14977b0d08d52467e22eaa2a08256b5f3"),
])
def test_edge_evaluator(step, digest):
    assert sha256(edge_evaluator(ABC, enumerate_graph(ABC), step).circuit) == digest


def test_seq():
    assert sha256(seq(bus_copy(2), tensor(and_gate(), xor_gate()))) == \
        "1f160b4618638d350bb849a44801736afa5d8ac6726e94db8bd3c889fceb557e"


def test_tensor():
    assert sha256(tensor(xor_gate(), match_circuit(2))) == \
        "85e980f82b6c5ec414eaf822f701960e2ee9a934cd1009ac5dcb7f862b291ec7"
