"""The universal lookups as a multiplexer over the spec bus, against the
per-graph dispatch they replace (``universal_ref``), the fixed-graph
verifiers and the oracle; their gate budget; their reach."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import universal_ref
from helpers import reads
from pathcirc import (
    BitVector,
    BudgetError,
    capacity_enumeration,
    encode_graph,
    encoding_width,
    ext_equal,
    path_verifier,
    source_table,
    target_table,
    truth_columns,
    universal_source,
    universal_step,
    universal_target,
    universal_verifier,
    valid_graphs,
    zkp_snarkize,
)
from pathcirc.circuits import CircuitBuilder, nand_depth
from pathcirc.graphs import Edge, Graph, edge_width, vertex_width
from pathcirc.universal import _row, _spec_valid
from pathcirc.verifiers import empty_walk

SRC = Path(__file__).resolve().parents[1] / "src"


def pinned(width: int, spec: BitVector) -> dict[int, int]:
    """Pins of a circuit whose first `width` inputs are state, then the spec."""
    return {width + i: bit for i, bit in enumerate(spec.bits)}


def columns(table) -> list[int]:
    """A table's output columns, in the bit order of ``truth_columns``."""
    return [sum(row.bits[j] << x for x, row in enumerate(table.rows))
            for j in range(table.out_width)]


def assigned_columns(en) -> int:
    return sum(1 << (i + 1) for i in range(en.n_vertices))


def k0_check(m: int, n: int):
    """The reference k = 0 verifier: the empty-walk check around the dispatch."""
    return empty_walk(vertex_width(n), encoding_width(m, n), universal_ref.assigned(m, n))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 2)])
def test_equal_to_the_dispatch_on_every_input(m, n):
    assert ext_equal(universal_source(m, n), universal_ref.source(m, n))
    assert ext_equal(universal_target(m, n), universal_ref.target(m, n))
    assert ext_equal(universal_verifier(m, n, 0).circuit, k0_check(m, n).circuit)


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3)])
def test_every_valid_spec_and_code(m, n):
    lookups = universal_source(m, n), universal_target(m, n)
    k0 = universal_verifier(m, n, 0)
    for g in valid_graphs(m, n):
        en = capacity_enumeration(g, m, n)
        spec = encode_graph(g, m, n).bits
        for lookup, table in zip(lookups, (source_table(en, g), target_table(en, g))):
            assert truth_columns(lookup, pinned(0, spec)) == columns(table)
        assert truth_columns(k0.circuit, pinned(k0.in_width, spec))[0] == assigned_columns(en)


def invalid_specs(m: int, n: int, count: int, rng: Random) -> list[BitVector]:
    """Seeded specs that encode no graph: half uniformly random, half a
    valid encoding with one table cell overwritten."""
    valid = {encode_graph(g, m, n).bits for g in valid_graphs(m, n)}
    graphs = valid_graphs(m, n)
    width, v_bits = encoding_width(m, n), vertex_width(n)
    specs = []
    while len(specs) < count:
        if len(specs) % 2:
            bits = list(encode_graph(rng.choice(graphs), m, n).bits.bits)
            cell = rng.randrange(width // v_bits) * v_bits
            bits[cell:cell + v_bits] = BitVector.from_int(rng.randrange(1 << v_bits), v_bits).bits
            spec = BitVector(tuple(bits))
        else:
            spec = BitVector.from_int(rng.randrange(1 << width), width)
        if spec not in valid:
            specs.append(spec)
    return specs


def test_invalid_specs_give_zeros():
    m, n = 3, 2
    lookups = universal_source(m, n), universal_target(m, n)
    k0 = universal_verifier(m, n, 0)
    for spec in invalid_specs(m, n, 200, Random(6)):
        for lookup in lookups:
            assert truth_columns(lookup, pinned(0, spec)) == [0] * vertex_width(n)
        assert truth_columns(k0.circuit, pinned(k0.in_width, spec))[0] == 0


def test_pinned_verifier_is_the_fixed_graph_verifier():
    m, n = 3, 2
    uv = universal_verifier(m, n, 1)
    graphs = valid_graphs(m, n)
    assert len(graphs) == 89
    for g in graphs:
        pv = path_verifier(g, capacity_enumeration(g, m, n), 1)
        assert truth_columns(uv.circuit, pinned(uv.in_width, encode_graph(g, m, n).bits)) == \
            truth_columns(pv.circuit)


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("n", range(1, 9))
def test_step_gates_is_exact(m, n, monkeypatch):
    """The step's built gate count is the exact budget threshold: it
    builds, unchanged, at that limit and is refused one gate below."""
    monkeypatch.delenv("PATHCIRC_BUDGET", raising=False)
    step = universal_step(m, n).circuit
    monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={step.gate_count}")
    assert universal_step(m, n).circuit == step
    monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={step.gate_count - 1}")
    with pytest.raises(BudgetError, match=f"has {step.gate_count} gates"):
        universal_step(m, n)


@pytest.mark.parametrize("m, n, gates, depth", [
    (2, 2, 497, 25), (4, 3, 996, 27), (8, 8, 5_327, 41), (16, 16, 15_882, 49)])
def test_step_size_with_the_lookups_as_one_robdd(m, n, gates, depth):
    """The step's size and NAND depth with both lookups lowered by
    ``synth.robdd`` over the edge code, the table cells as leaves, and
    each cell of the spec check by ``synth.robdd`` over its wires."""
    step = universal_step(m, n).circuit
    assert (step.gate_count, nand_depth(step)) == (gates, depth)


@pytest.mark.parametrize("m, n", [(10 ** 30, 1), (0, 1 << 40)])
def test_huge_capacities_are_refused_before_any_gate(m, n, monkeypatch):
    def no_builder(self, n_inputs):
        raise AssertionError("a circuit was started over the gate budget")

    monkeypatch.setattr(CircuitBuilder, "__init__", no_builder)
    with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=gates=N"):
        universal_verifier(m, n, 1)
    with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=gates=N"):
        universal_verifier(m, n, 0)


@pytest.mark.parametrize("build, capacity", [
    (lambda: universal_source(100000, 1), r"a universal lookup at capacity \(100000, 1\)"),
    (lambda: universal_verifier(70000, 3, 0), r"the spec validity check at capacity \(70000, 3\)"),
], ids=["lookup", "empty walk"])
def test_an_edge_code_over_synth_width_is_refused_before_any_gate(build, capacity, monkeypatch):
    """A universal circuit lowers a table of a row per edge code, so an
    edge code wider than synth-width is refused as such, not by a table
    of the spec check."""
    def no_builder(self, n_inputs):
        raise AssertionError("a circuit was started over the synth-width budget")

    monkeypatch.setattr(CircuitBuilder, "__init__", no_builder)
    with pytest.raises(BudgetError, match=capacity + " has 17 edge-code bits, over the "
                                          "synth-width budget 16"):
        build()


def flag(m: int, n: int):
    """The validity flag alone: spec in, one bit out."""
    b = CircuitBuilder(encoding_width(m, n))
    valid, _ = _spec_valid(b, b.inputs(), m, n)
    return b.finish([valid])


# every capacity with at most 16 spec bits; m = 0 and m = 1 imply rules
# that larger capacities build
SMALL = [(m, 1) for m in range(8)] + [(m, 2) for m in range(3)] + [(0, 3), (1, 3)]


@pytest.mark.parametrize("m, n", SMALL)
def test_flag_is_the_referee_on_every_spec(m, n):
    width = encoding_width(m, n)
    assert width <= 16
    (column,) = truth_columns(flag(m, n))
    for x in range(1 << width):
        spec = BitVector.from_int(x, width).bits
        assert column >> x & 1 == universal_ref.spec_is_valid(spec, m, n), (m, n, spec)


def random_graph(m: int, n: int, rng: Random) -> Graph:
    nv, ne = rng.randint(1, n), rng.randint(0, m)
    return Graph(tuple(f"v{i}" for i in range(nv)),
                 tuple(Edge(f"e{j}", rng.randrange(nv), rng.randrange(nv)) for j in range(ne)))


@pytest.mark.parametrize("m, n", [(4, 3), (3, 4), (8, 8)])
def test_flag_is_the_referee_on_seeded_specs(m, n):
    rng, c, v_bits = Random(m * 10 + n), flag(m, n), vertex_width(n)
    for _ in range(100):
        bits = list(encode_graph(random_graph(m, n, rng), m, n).bits.bits)
        assert c.evaluate(BitVector(tuple(bits))).bits == (1,)
        cell = rng.randrange(len(bits) // v_bits) * v_bits
        bits[cell:cell + v_bits] = BitVector.from_int(rng.randrange(1 << v_bits), v_bits).bits
        expected = universal_ref.spec_is_valid(bits, m, n)
        assert c.evaluate(BitVector(tuple(bits))).bits == (int(expected),)


@pytest.mark.parametrize("m, n", [(4, 3), (3, 4), (8, 8)])
def test_an_edge_code_needs_its_identity_row(m, n):
    """For each code x that row r checks, a graph on x - 1 vertices whose
    last edge row is r: x in either cell of row r encodes no graph, and
    any code in 1..x - 1 there keeps the spec valid."""
    c, v_bits, rows = flag(m, n), vertex_width(n), 1 << edge_width(m, n)
    for r in range(rows):
        for x in _row(r, m, n)[1]:
            nv = x - 1
            g = Graph(tuple(f"v{i}" for i in range(nv)),
                      tuple(Edge(f"e{j}", j % nv, (j + 1) % nv) for j in range(r - nv + 1)))
            bits = encode_graph(g, m, n).bits.bits
            for cell in (r, rows + r):
                for code in range(1, x + 1):
                    spec = (bits[:cell * v_bits] + BitVector.from_int(code, v_bits).bits
                            + bits[(cell + 1) * v_bits:])
                    valid = code < x
                    assert universal_ref.spec_is_valid(spec, m, n) == valid, (r, x, cell, code)
                    assert c.evaluate(BitVector(spec)).bits == (valid,), (r, x, cell, code)


def test_step_over_a_lowered_budget_is_refused_with_its_size(monkeypatch):
    """The builder's threshold is the built gate count: each circuit
    builds at its size and is refused, naming that size, one gate below."""
    for build in (universal_step, lambda m, n: universal_verifier(m, n, 0)):
        for m, n in [(2, 2), (4, 3), (8, 8)]:
            monkeypatch.delenv("PATHCIRC_BUDGET", raising=False)
            size = build(m, n).circuit.gate_count
            monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={size}")
            assert build(m, n).circuit.gate_count == size
            monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={size - 1}")
            with pytest.raises(BudgetError, match=f"has {size} gates.*PATHCIRC_BUDGET=gates=N"):
                build(m, n)


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (3, 2)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_every_wire_is_read_once(m, n, k):
    uv = universal_verifier(m, n, k)
    for c in (uv.circuit, zkp_snarkize(uv)):
        assert reads(c) == Counter(range(c.wire_count))


def test_large_capacity_fits_the_default_budget():
    uv = universal_verifier(8, 8, 16)
    assert zkp_snarkize(uv).n_outputs == 1
    assert uv.spec_width == encoding_width(8, 8) and uv.witness_width == 16 * edge_width(8, 8)


# A child's peak RSS counts its parent's at the fork, so a small launcher
# process runs the CLI and reports the peak RSS of that grandchild.
LAUNCHER = ("import resource, subprocess, sys\n"
            "cli = [sys.executable, '-m', 'pathcirc.cli'] + sys.argv[1:]\n"
            "rc = subprocess.run(cli).returncode\n"
            "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def test_compile_universal_at_four_edges_and_three_vertices(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PATHCIRC_BUDGET", None)
    argv = ["compile-universal", "--max-edges", "4", "--max-vertices", "3", "--length", "1",
            "--out", str(tmp_path / "uv.json")]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, peak_kb = map(int, done.stdout.split())
    assert rc == 0
    assert peak_kb < 100 * 1024


@pytest.mark.parametrize("length", [1, 0])
def test_over_budget_capacity_is_refused_in_bounded_memory(length, tmp_path):
    """(1000, 1000) passes the spec-wire check and is refused by the
    builder once it reaches the gate budget, so the refusal's time and
    memory are bounded by the budget."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PATHCIRC_BUDGET", None)
    argv = ["compile-universal", "--max-edges", "1000", "--max-vertices", "1000",
            "--length", str(length), "--out", str(tmp_path / "uv.json")]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    rc, peak_kb = map(int, done.stdout.split())
    assert rc == 1
    assert done.stderr.count("\n") == 1 and "PATHCIRC_BUDGET=gates=N" in done.stderr
    assert f"capacity (1000, 1000), k = {length}:" in done.stderr
    assert peak_kb < 256 * 1024
    assert not (tmp_path / "uv.json").exists()
