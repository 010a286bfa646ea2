"""Tests for the benchmark's own helpers.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from random import Random

import pytest

from pathcirc import (
    CircuitBuilder,
    enumerate_graph,
    parse_graph,
    path_verifier,
    snarkize,
    source_circuit,
    target_circuit,
    universal_source,
    universal_target,
    universal_verifier,
    zkp_snarkize,
)
from pathcirc.graphs import edge_width, vertex_width
from pathcirc.universal import encoding_width

from corpus import WITNESS_KINDS, de_bruijn, make_witnesses
from run import unit_of
from tracing import INTERNAL, LAYER, STAGES, Tracer, traced_run
from workloads import (
    CLI_STAGES,
    Run,
    Tally,
    Workload,
    check_witnesses,
    end_to_end,
    nand_depth,
    regions,
)

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TWO_VERTICES = json.dumps({"vertices": ["a", "b"],
                           "edges": [["ab", "a", "b"], ["ba", "b", "a"], ["bb", "b", "b"]]})
TINY_KP = Workload("tiny-kp", k=2, graph=lambda: json.loads(TWO_VERTICES))
TINY_ZKP = Workload("tiny-zkp", k=2, capacity=(1, 2))


def test_nand_depth_counts_nands_on_the_longest_path():
    b = CircuitBuilder(3)
    n1 = b.nand(0, 1)
    c1, c2 = b.copy(n1)
    n2 = b.nand(c1, c2)
    n3 = b.nand(n2, 2)
    assert nand_depth(b.finish([n3, 2, b.true()])) == 3
    assert nand_depth(b.finish([c1])) == 1
    assert nand_depth(b.finish([0])) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_regions_sum_to_gates_on_a_two_vertex_graph(k):
    g = parse_graph(TWO_VERTICES)
    en = enumerate_graph(g)
    snark = snarkize(path_verifier(g, en, k))
    parts = regions(k, en.v_bits, en.e_bits, source_circuit(g, en).gate_count,
                    target_circuit(g, en).gate_count)
    assert sum(parts.values()) == snark.gate_count


def test_regions_sum_to_gates_on_a_universal_verifier():
    m, n, k = 1, 2, 2
    snark = zkp_snarkize(universal_verifier(m, n, k))
    parts = regions(k, vertex_width(n), edge_width(m, n), universal_source(m, n).gate_count,
                    universal_target(m, n).gate_count, encoding_width(m, n))
    assert sum(parts.values()) == snark.gate_count


def test_witnesses_repeat_for_a_seed_and_mix_verdicts():
    en = enumerate_graph(parse_graph(json.dumps(de_bruijn(3))))
    first = make_witnesses(en, 4, 12, Random(7))
    again = make_witnesses(en, 4, 12, Random(7))
    assert [(w.bits, w.expected) for w in first] == [(w.bits, w.expected) for w in again]
    assert {w.kind for w in first} == set(WITNESS_KINDS)
    by_kind = {w.kind: w.expected for w in first}
    assert by_kind["valid"] and by_kind["short"]
    assert not (by_kind["wrong-end"] or by_kind["zero-claim"] or by_kind["unassigned"])


def test_a_wrong_expected_verdict_raises_error_rate():
    g = parse_graph(TWO_VERTICES)
    en = enumerate_graph(g)
    circuit = snarkize(path_verifier(g, en, 2))
    witnesses = make_witnesses(en, 2, 6, Random(1))
    tally = Tally()
    check_witnesses(circuit, witnesses, tally)
    assert tally.error_rate == 0
    witnesses[0] = dataclasses.replace(witnesses[0], expected=not witnesses[0].expected)
    tally = Tally()
    check_witnesses(circuit, witnesses, tally)
    assert tally.failed == 1
    assert tally.error_rate == 1 / 6


def _run(workload, seed, workdir):
    workdir.mkdir()
    run = Run(workload, seed, workdir)
    run.measure(0)
    return run


@pytest.mark.parametrize("workload", [TINY_KP, TINY_ZKP])
def test_sizes_and_hashes_repeat_for_a_seed(workload, tmp_path):
    first = _run(workload, 3, tmp_path / "a")
    again = _run(workload, 3, tmp_path / "b")
    assert first.tally.failed == 0
    assert first.sizes == again.sizes
    assert first.hashes == again.hashes
    tally = Tally()
    metrics = end_to_end([first.raw(), again.raw()], tally)
    assert tally.failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_stage_metrics_are_median_reference_ratios_and_setup_the_median():
    def raw(samples):
        return {"samples": samples, "sizes": {"gates": 7}, "hashes": {"json_sha256": "a"},
                "peak_rss_mb": 1.0}
    raws = [raw({"setup_s": [1, 2, 9], "compile_ref": [50, 30], "snarkize_ref": [20],
                 "bristol_ref": [40], "check_paths_per_ref": [5, 2.5]}),
            raw({"setup_s": [3, 4], "compile_ref": [40], "snarkize_ref": [10, 60],
                 "bristol_ref": [30], "check_paths_per_ref": [4]})]
    metrics = end_to_end(raws, Tally())
    assert {name: value for name, (value, _) in metrics.items()} == {
        "setup_s": 3, "compile_ref": 40, "snarkize_ref": 20, "bristol_ref": 35,
        "check_paths_per_ref": 4, "peak_rss_mb": 1.0, "gates": 7}


def test_a_pass_times_every_stage_against_the_reference(tmp_path):
    run = _run(TINY_KP, 3, tmp_path / "r")
    for stage in CLI_STAGES:
        seconds, ratios = run.samples[f"{stage}_s"], run.samples[f"{stage}_ref"]
        assert len(seconds) == len(ratios) >= 1
        assert all(r > 0 for r in ratios)
    passes = len(run.samples["check_paths_per_ref"])
    assert len(run.samples["compile_s"]) == passes >= 1
    assert len(run.samples["reference_s"]) == len(CLI_STAGES) * passes


@pytest.mark.parametrize("workload", [TINY_KP, TINY_ZKP])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    workdir = tmp_path / "t"
    workdir.mkdir()
    run = Run(workload, 5, workdir)
    run.setup()
    traced = traced_run(run, 0)
    assert run.tally.failed == 0
    assert {name: unit_of(name) for name in traced["metrics"]} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert traced["metrics"]["region.unattributed_gates"] == 0
    assert traced["metrics"]["trace.overhead_s"] > 0
    # calls made inside the package are nested spans of their own ...
    spans = traced["spans"]
    inner = {s["name"] for s in spans
             if s["parent"] is not None and spans[s["parent"]]["name"] not in STAGES}
    assert {"circuits.Circuit", "graphs.source_table"} <= inner
    # ... and the wrappers are gone once the run is over
    assert all(getattr(owner, attr).__name__ != "traced" for owner, attr, _ in INTERNAL)
    compile_layers = traced["self_times"]["compile"]
    assert max(compile_layers, key=compile_layers.get) in LAYER.values()


def test_self_times_subtract_child_spans():
    tr = Tracer()
    tr.spans = [{"name": "compile", "start": 0.0, "end": 10.0, "parent": None},
                {"name": "a", "start": 1.0, "end": 7.0, "parent": 0},
                {"name": "b", "start": 2.0, "end": 5.0, "parent": 1},
                {"name": "b", "start": 8.0, "end": 9.0, "parent": 0}]
    assert tr.self_times() == {"compile": 3.0, "a": 3.0, "b": 4.0}
    assert tr.totals() == {"compile": 10.0, "a": 6.0, "b": 4.0}
    assert tr.direct("compile") == {"a": 6.0, "b": 1.0}
