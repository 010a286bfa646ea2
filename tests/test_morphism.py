"""The one verifier shape: a fixed-graph verifier is a universal one
with an empty spec bus, and both kinds share the gate-budget guard."""

from __future__ import annotations

import pytest

from pathcirc import (
    BudgetError,
    CapacityError,
    EdgeStep,
    KpMorphism,
    Verifier,
    ZkpMorphism,
    assigned_vertex_circuit,
    capacity_enumeration,
    compose,
    edge_evaluator,
    encode_graph,
    enumerate_graph,
    kp_compose,
    kp_identity,
    parse_graph,
    path_verifier,
    seq,
    snarkize,
    source_circuit,
    step_verifier,
    tensor,
    universal_source,
    universal_step,
    universal_verifier,
    valid_graphs,
    verifier_identity,
    zkp_compose,
    zkp_identity,
    zkp_snarkize,
)
from pathcirc import verifiers

ABC = parse_graph(
    '{"vertices":["a","b","c"],"edges":[["e1","a","b"],["e2","b","c"]]}'
)


class TestOneShape:
    def test_old_names_are_aliases(self):
        assert ZkpMorphism is Verifier
        assert kp_compose is compose and zkp_compose is compose
        assert kp_identity is verifier_identity and zkp_identity is verifier_identity
        assert zkp_snarkize is snarkize

    def test_fixed_graph_verifier_has_an_empty_spec_bus(self):
        pv = path_verifier(ABC, enumerate_graph(ABC), 2)
        assert pv.spec_width == 0
        assert KpMorphism(pv.in_width, pv.witness_width, pv.out_width, pv.circuit) == pv


def build(kind: str, k: int) -> Verifier:
    if kind == "fixed":
        return path_verifier(ABC, enumerate_graph(ABC), k)
    return universal_verifier(1, 1, k)


def fold_gates(kind: str, k: int) -> int:
    """k steps, plus the spec fan-out and one AND per composition."""
    step = build(kind, 1)
    return k * step.circuit.gate_count + (k - 1) * (3 + step.spec_width)


EN = enumerate_graph(ABC)
STEP = step_verifier(ABC, EN)
# constructions with no size preview: only their builder bounds them
UNPREVIEWED = {
    "seq": lambda: seq(source_circuit(ABC, EN), assigned_vertex_circuit(EN)),
    "tensor": lambda: tensor(source_circuit(ABC, EN), assigned_vertex_circuit(EN)),
    "edge_evaluator": lambda: edge_evaluator(ABC, EN, EdgeStep(1)).circuit,
}


def no_builder(n_inputs: int):
    raise AssertionError("made a builder for a verifier over the gate budget")


class TestGateBudget:
    @pytest.mark.parametrize("kind", ["fixed", "universal"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_exact_fold_size_fits(self, kind, k, monkeypatch):
        n = fold_gates(kind, k)
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={n}")
        assert build(kind, k).circuit.gate_count == n

    @pytest.mark.parametrize("kind", ["fixed", "universal"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_one_gate_less_is_refused_before_composing(self, kind, k, monkeypatch):
        step = build(kind, 1)
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={fold_gates(kind, k) - 1}")
        monkeypatch.setattr(verifiers, "CircuitBuilder", no_builder)
        with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=gates="):
            verifiers.fold(step, k)

    @pytest.mark.parametrize("kind", ["fixed", "universal"])
    @pytest.mark.parametrize("limit, k", [(1 << 20, 2 ** 61), (2, 4)])
    def test_a_fold_whose_joins_alone_pass_the_budget_lists_no_copy(self, kind, limit, k,
                                                                     monkeypatch):
        step = build(kind, 1)
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={limit}")
        monkeypatch.setattr(verifiers, "compose", lambda *parts: pytest.fail("listed copies"))
        with pytest.raises(BudgetError, match=f"^a composite of {k} verifiers has more than "
                                              f"{limit} gates"):
            verifiers.fold(step, k)

    @pytest.mark.parametrize("kind", ["fixed", "universal"])
    def test_compose_one_gate_over_is_refused_before_building(self, kind, monkeypatch):
        f = build(kind, 1)
        g = verifier_identity(f.out_width, f.spec_width)
        size = compose(f, g).circuit.gate_count
        assert size == f.circuit.gate_count + g.circuit.gate_count + 3 + f.spec_width
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={size - 1}")
        monkeypatch.setattr(verifiers, "CircuitBuilder", no_builder)
        with pytest.raises(BudgetError, match="composite of 2 verifiers has"):
            compose(f, g)

    def test_compose_needs_a_part(self):
        with pytest.raises(ValueError, match="at least one verifier"):
            compose()

    @pytest.mark.parametrize("kind", ["fixed", "universal"])
    def test_empty_walk_check_is_guarded(self, kind, monkeypatch):
        n = build(kind, 0).circuit.gate_count
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={n}")
        build(kind, 0)
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={n - 1}")
        with pytest.raises(BudgetError):
            build(kind, 0)

    @pytest.mark.parametrize("name", sorted(UNPREVIEWED))
    def test_builder_refuses_one_gate_below_the_size(self, name, monkeypatch):
        size = UNPREVIEWED[name]().gate_count
        monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={size - 1}")
        with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=gates=N"):
            UNPREVIEWED[name]()


class TestCapacity:
    @pytest.mark.parametrize("m, n", [(1, 0), (0, 0), (-1, 1), (2, -3)])
    def test_bad_capacity_refused(self, m, n):
        with pytest.raises(CapacityError):
            valid_graphs(m, n)
        with pytest.raises(CapacityError):
            universal_source(m, n)
        with pytest.raises(CapacityError):
            universal_step(m, n)
        for k in (0, 1):
            with pytest.raises(CapacityError):
                universal_verifier(m, n, k)

    def test_zero_edges_is_a_real_capacity(self):
        # walks made only of identity steps
        single = parse_graph('{"vertices":["a"],"edges":[]}')
        en = capacity_enumeration(single, 0, 1)
        spec = encode_graph(single, 0, 1).bits
        ident = en.identity_code(0)
        uv = universal_verifier(0, 1, 2)
        assert uv.run(en.vertex_code(0), spec, ident + ident) == (1, en.vertex_code(0))
