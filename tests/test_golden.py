"""Byte-identity guard: the JSON of a few verifiers, pinned by sha256.

A refactor that claims no behaviour change must leave these hashes
alone. A change that alters the emitted circuits on purpose updates
them and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from pathcirc import (
    enumerate_graph,
    parse_graph,
    path_verifier,
    snarkize,
    to_json,
    universal_verifier,
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


def test_snarkized_path_verifier():
    pv = path_verifier(ABC, enumerate_graph(ABC), 3)
    assert sha256(snarkize(pv)) == \
        "fd85d32b7003bb420b891303d1e218021cd643d419b9c6853382497db42cb34d"


@pytest.mark.parametrize("k, digest", [
    (0, "d05b9cb34d9ca1095dd1d00364027975a3bb673ead0c0f63ea5bf433036b1433"),
    (2, "9de8cd51bbd3342c0bbc2396836b0bba3f91d02f4fd6687c67a52fb78b6c86ba"),
])
def test_universal_verifier(k, digest):
    assert sha256(universal_verifier(1, 1, k).circuit) == digest
