"""The k-fold is the left fold of compose up to wiring: the same gates
and the same function, and at k <= 2 the same bytes. Its flags are
joined in a balanced tree, so its NAND depth grows as log k."""

from __future__ import annotations

from collections import Counter
from functools import reduce

import pytest

from pathcirc import (
    compose,
    encode_graph,
    enumerate_graph,
    ext_equal,
    parse_graph,
    step_verifier,
    truth_columns,
    universal_step,
    valid_graphs,
)
from pathcirc.circuits import nand_depth
from pathcirc.formats import to_json
from pathcirc.verifiers import fold

ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)

STEPS = {
    "fixed": lambda: step_verifier(ABC, enumerate_graph(ABC)),
    "universal": lambda: universal_step(1, 2),
}


def same_function(step, c1, c2) -> bool:
    """Exhaustive for the fixed-graph step; the universal step's inputs
    are over the eval budget, so its spec is pinned to each valid
    encoding of its capacity, (1, 2), and to all zeros."""
    if not step.spec_width:
        return ext_equal(c1, c2)
    specs = [encode_graph(g, 1, 2).bits.bits for g in valid_graphs(1, 2)]
    for spec in specs + [(0,) * step.spec_width]:
        fixed = {step.in_width + i: bit for i, bit in enumerate(spec)}
        if truth_columns(c1, fixed) != truth_columns(c2, fixed):
            return False
    return True


@pytest.mark.parametrize("kind", sorted(STEPS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fold_is_the_left_fold_of_compose(kind, k):
    step = STEPS[kind]()
    folded = fold(step, k)
    left = reduce(compose, [step] * (k - 1), step)
    if k <= 2:
        assert folded == left
    assert folded.circuit.gate_count == left.circuit.gate_count
    assert Counter(folded.circuit.kinds) == Counter(left.circuit.kinds)
    assert same_function(step, folded.circuit, left.circuit)


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_compose_of_k_steps_is_the_fold(kind):
    step = STEPS[kind]()
    assert to_json(compose(step, step, step).circuit) == to_json(fold(step, 3).circuit)


FLAT_STEPS = {
    "fixed": STEPS["fixed"],
    "universal-1-1": lambda: universal_step(1, 1),
    "universal-2-2": lambda: universal_step(2, 2),
}


@pytest.mark.parametrize("kind", sorted(FLAT_STEPS))
def test_fold_depth_is_logarithmic_and_size_is_the_preview(kind):
    step = FLAT_STEPS[kind]()
    depth, gates = nand_depth(step.circuit), step.circuit.gate_count
    violations = []
    for k in range(1, 65):
        c = fold(step, k).circuit
        if nand_depth(c) > depth + 2 * (k - 1).bit_length():
            violations.append((k, "depth", nand_depth(c)))
        if c.gate_count != k * gates + (k - 1) * (3 + step.spec_width):
            violations.append((k, "gates", c.gate_count))
    assert violations == []
