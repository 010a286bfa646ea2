"""The k-fold builds, gate for gate, the left-associated composite."""

from __future__ import annotations

from functools import reduce

import pytest

from pathcirc import compose, enumerate_graph, parse_graph, step_verifier, universal_step
from pathcirc.verifiers import fold

ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)

STEPS = {
    "fixed": lambda: step_verifier(ABC, enumerate_graph(ABC)),
    "universal": lambda: universal_step(1, 2),
}


@pytest.mark.parametrize("kind", sorted(STEPS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fold_is_the_left_fold_of_compose(kind, k):
    step = STEPS[kind]()
    folded = fold(step, k)
    left = reduce(compose, [step] * (k - 1), step)
    assert folded.circuit == left.circuit
    assert folded == left
