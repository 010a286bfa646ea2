"""The traced run: passes over the pipeline with a span per call.

A traced pass calls each module's public functions directly, in the
order the CLI calls them, and records one span (name, start, end,
parent) per call in memory. For the pass, the calls those functions
make inside the package (``INTERNAL``: the lookup tables and their
circuits, step builds, compositions, graph enumeration and every
``Circuit`` validation) are wrapped as well, so they show up as nested
spans. A per-layer time is the inclusive time of the layer's calls,
summed over the pass: the compile stage builds the step twice, as the
CLI does. The breakdown that names each stage's dominant layer sums
self times. The tracing overhead is the cost of one span, measured in
the same process, times the number of spans in a pass.
"""

from __future__ import annotations

import gc
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from time import perf_counter

from pathcirc import (
    Circuit,
    document_from_json,
    enumerate_graph,
    from_json,
    match_circuit,
    parse_graph,
    path_oracle,
    path_verifier,
    source_circuit,
    step_verifier,
    target_circuit,
    to_bristol,
    to_json,
    universal_source,
    universal_step,
    universal_target,
    universal_verifier,
    valid_graphs,
)
from pathcirc.graphs import edge_width, vertex_width
from pathcirc.universal import encoding_width

from workloads import SNARKIZE, Inputs, Run, Tally, regions, verifier_morphism

STAGES = ("setup", "compile", "snarkize", "bristol", "check")

#: The layer expected to have the largest self time, and the stage it is
#: in, for each workload.
DOMINANT = {
    "long-walk": ("compile", "verifiers.compose_s"),
    "wide-graph": ("compile", "synth.lookup_s"),
    "universal": ("compile", "universal.lookup_s"),
}

_synth, _verifiers, _universal = (import_module(f"pathcirc.{name}")
                                  for name in ("synth", "verifiers", "universal"))

#: Calls made inside the package that a traced pass wraps in spans: the
#: owner the caller looks the name up in, the attribute, the span name.
INTERNAL = (
    (_synth, "source_table", "graphs.source_table"),
    (_synth, "target_table", "graphs.target_table"),
    (_verifiers, "source_circuit", "synth.source_circuit"),
    (_verifiers, "target_circuit", "synth.target_circuit"),
    (_verifiers, "step_verifier", "verifiers.step_verifier"),
    (_verifiers, "kp_compose", "verifiers.kp_compose"),
    (_universal, "enumerate_graph", "graphs.enumerate_graph"),
    (_universal, "source_table", "graphs.source_table"),
    (_universal, "target_table", "graphs.target_table"),
    (_universal, "valid_graphs", "universal.valid_graphs"),
    (_universal, "universal_source", "universal.universal_source"),
    (_universal, "universal_target", "universal.universal_target"),
    (_universal, "universal_step", "universal.universal_step"),
    (_universal, "zkp_compose", "universal.zkp_compose"),
    (Circuit, "__post_init__", "circuits.Circuit"),
)

#: The layer each span's self time belongs to.
LAYER = {
    "cli.read": "cli.io_s",
    "cli.write": "cli.io_s",
    "graphs.parse_graph": "graphs.parse_s",
    "graphs.enumerate_graph": "graphs.enumerate_s",
    "graphs.source_table": "graphs.tables_s",
    "graphs.target_table": "graphs.tables_s",
    "graphs.path_oracle": "graphs.oracle_s",
    "synth.source_circuit": "synth.lookup_s",
    "synth.target_circuit": "synth.lookup_s",
    "verifiers.step_verifier": "verifiers.step_assembly_s",
    "verifiers.path_verifier": "verifiers.compose_s",
    "verifiers.kp_compose": "verifiers.compose_s",
    "verifiers.snarkize": "verifiers.snarkize_s",
    "universal.valid_graphs": "universal.valid_graphs_s",
    "universal.universal_source": "universal.lookup_s",
    "universal.universal_target": "universal.lookup_s",
    "universal.universal_step": "universal.step_assembly_s",
    "universal.universal_verifier": "universal.compose_s",
    "universal.zkp_compose": "universal.compose_s",
    "universal.zkp_snarkize": "universal.snarkize_s",
    "circuits.Circuit": "circuits.validate_s",
    "circuits.evaluate": "circuits.evaluate_s",
    "formats.to_json": "formats.to_json_s",
    "formats.document_from_json": "formats.from_json_s",
    "formats.from_json": "formats.from_json_s",
    "formats.to_bristol": "formats.to_bristol_s",
}

#: The library calls the compile command makes once; the rest of its
#: time is the command's own overhead.
COMPILE_ONCE = ("graphs.parse_graph", "graphs.enumerate_graph", "verifiers.path_verifier",
                "universal.universal_verifier", "formats.to_json")


class Tracer:
    """Spans (name, start, end, parent) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = perf_counter()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def nested(self):
        """Wrap the package's internal calls (``INTERNAL``) in spans while
        the block runs."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in INTERNAL]
        try:
            for (owner, attr, fn), (_, _, name) in zip(saved, INTERNAL):
                setattr(owner, attr, self.wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _root(self, index: int) -> str:
        while self.spans[index]["parent"] is not None:
            index = self.spans[index]["parent"]
        return self.spans[index]["name"]

    def totals(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def direct(self, stage: str) -> dict[str, float]:
        """Inclusive time per span name of the calls made directly in a stage."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and self.spans[s["parent"]]["name"] == stage:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def self_times(self, roots=None) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover,
        over the spans under the given roots."""
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if roots is not None and self._root(i) not in roots:
                continue
            out[s["name"]] += s["end"] - s["start"]
            if s["parent"] is not None:
                out[self.spans[s["parent"]]["name"]] -= s["end"] - s["start"]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def span_cost() -> float:
    """Median time a span adds to one call, over five batches of 5,000
    calls in this process."""
    tr = Tracer()
    calls = 5000

    def bare():
        return None

    traced = tr.wrap("span_cost", bare)
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            bare()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tr.spans.clear()
    return statistics.median(costs)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _snarkize_stage(tr: Tracer, inp: Inputs, verifier_path: str, emit, out_path: str):
    doc = tr.call("formats.document_from_json", document_from_json,
                  tr.call("cli.read", _read, verifier_path))
    name, snarkizator = SNARKIZE[inp.workload.kind]
    snark = tr.call(name, snarkizator, verifier_morphism(doc, inp.workload.kind))
    tr.call("cli.write", _write, out_path, emit(tr, snark, doc.metadata))
    return doc.circuit, snark


def traced_pass(inp: Inputs, tr: Tracer, tally: Tally) -> dict:
    """Run all stages with spans; return the sizes the metrics need.

    Each circuit is dropped as soon as it has been checked, so the pass
    keeps no more circuits alive than the CLI does.
    """
    w = inp.workload
    files = {key: path if key == "graph" else str(Path(path).with_name("traced-" + Path(path).name))
             for key, path in inp.files.items()}
    out: dict = {}
    gc.collect()
    with tr.nested():
        with tr.span("setup"):
            for wit in inp.witnesses:
                valid, end = tr.call("graphs.path_oracle", path_oracle,
                                     wit.en.graph, wit.en, wit.start, wit.steps)
                tally.check((valid and wit.claim == end) == wit.expected,
                            "traced oracle verdict differs from set-up")
        with tr.span("compile"):
            if w.capacity:
                m, n = w.capacity
                step = tr.call("universal.universal_step", universal_step, m, n)
                verifier = tr.call("universal.universal_verifier", universal_verifier, m, n, w.k)
                meta = {"spec_width": verifier.spec_width}
            else:
                text = tr.call("cli.read", _read, files["graph"])
                g = tr.call("graphs.parse_graph", parse_graph, text)
                en = tr.call("graphs.enumerate_graph", enumerate_graph, g)
                out.update(v_bits=en.v_bits, e_bits=en.e_bits)
                step = tr.call("verifiers.step_verifier", step_verifier, g, en)
                verifier = tr.call("verifiers.path_verifier", path_verifier, g, en, w.k)
                meta = {}
            meta.update(in_width=verifier.in_width, witness_width=verifier.witness_width,
                        out_width=verifier.out_width)
            tr.call("cli.write", _write, files["verifier"],
                    tr.call("formats.to_json", to_json, verifier.circuit, meta))
        out.update(step_gates=step.circuit.gate_count, verifier_gates=verifier.circuit.gate_count)
        del step
        with tr.span("snarkize"):
            loaded, snark = _snarkize_stage(
                tr, inp, files["verifier"],
                lambda tr, c, meta: tr.call("formats.to_json", to_json, c, meta), files["json"])
        tally.check(loaded == verifier.circuit, "from_json(to_json(c)) differs from c")
        del loaded, verifier
        with tr.span("bristol"):
            _snarkize_stage(tr, inp, files["verifier"],
                            lambda tr, c, meta: tr.call("formats.to_bristol", to_bristol, c),
                            files["bristol"])
        with tr.span("check"):
            circuit = tr.call("formats.from_json", from_json,
                              tr.call("cli.read", _read, files["json"]))
            for wit in inp.witnesses:
                verdict = tr.call("circuits.evaluate", circuit.evaluate, wit.bits).bits[0] == 1
                tally.check(verdict == wit.expected, f"traced {wit.kind} walk: wrong verdict")
    tally.check(circuit == snark, "from_json(to_json(c)) differs from c")
    out["snark_gates"] = snark.gate_count
    return out


def lookup_sizes(inp: Inputs) -> dict:
    """Gate counts of the step's two lookups, and the universal graph
    count, built once, untimed, outside the passes."""
    w = inp.workload
    if w.capacity:
        m, n = w.capacity
        lookups = universal_source(m, n), universal_target(m, n)
        graph_count = len(valid_graphs(m, n))
    else:
        g = parse_graph(_read(inp.files["graph"]))
        en = enumerate_graph(g)
        lookups = source_circuit(g, en), target_circuit(g, en)
        graph_count = 0
    return {"source_gates": lookups[0].gate_count, "target_gates": lookups[1].gate_count,
            "graph_count": graph_count}


def layer_metrics(inp: Inputs, tr: Tracer, out: dict, cli_compile_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``cli_compile_s`` is the
    time of the untraced compile command run just before it in the same
    process."""
    w = inp.workload
    t = tr.totals()
    own = tr.self_times()
    once = tr.direct("compile")
    composed = w.k > 1
    if w.capacity:
        m, n = w.capacity
        v_bits, e_bits, spec_bits = vertex_width(n), edge_width(m, n), encoding_width(m, n)
        step_s = t["universal.universal_step"]
        compose_s = t["universal.zkp_compose"] + own["universal.universal_verifier"]
    else:
        v_bits, e_bits, spec_bits = out["v_bits"], out["e_bits"], 0
        step_s = t["verifiers.step_verifier"]
        compose_s = t["verifiers.kp_compose"] + own["verifiers.path_verifier"]
    if not composed:
        compose_s = 0.0
    compose_gates = out["verifier_gates"] - out["step_gates"]
    lookup_s = (t["synth.source_circuit"] + t["synth.target_circuit"]
                + t["universal.universal_source"] + t["universal.universal_target"])
    lookup_gates = out["source_gates"] + out["target_gates"]
    metrics = {
        "graphs.parse_s": t["graphs.parse_graph"],
        "graphs.enumerate_s": t["graphs.enumerate_graph"],
        "graphs.tables_s": t["graphs.source_table"] + t["graphs.target_table"],
        "graphs.oracle_s": t["graphs.path_oracle"],
        "synth.lookup_s": 0.0 if w.capacity else lookup_s,
        "synth.lookup_gates": 0 if w.capacity else lookup_gates,
        "synth.match_gates": match_circuit(v_bits).gate_count,
        "verifiers.step_s": 0.0 if w.capacity else step_s,
        "verifiers.step_gates": 0 if w.capacity else out["step_gates"],
        "verifiers.compose_s": 0.0 if w.capacity else compose_s,
        "verifiers.compose_us_per_gate":
            compose_s / compose_gates * 1e6 if composed and not w.capacity else 0.0,
        "verifiers.snarkize_s": t["verifiers.snarkize"],
        "universal.valid_graphs_s": t["universal.valid_graphs"],
        "universal.graph_count": out["graph_count"],
        "universal.lookup_s": lookup_s if w.capacity else 0.0,
        "universal.lookup_gates": lookup_gates if w.capacity else 0,
        "universal.step_s": step_s if w.capacity else 0.0,
        "universal.compose_s": compose_s if w.capacity else 0.0,
        "universal.snarkize_s": t["universal.zkp_snarkize"],
        "circuits.evaluate_s": t["circuits.evaluate"],
        "circuits.evaluate_ns_per_gate":
            t["circuits.evaluate"] / (len(inp.witnesses) * out["snark_gates"]) * 1e9,
        "circuits.validate_s": t["circuits.Circuit"],
        "formats.to_json_s": t["formats.to_json"],
        "formats.from_json_s": t["formats.document_from_json"] + t["formats.from_json"],
        "formats.to_bristol_s": t["formats.to_bristol"],
        "cli.compile_overhead_s": cli_compile_s - sum(once[name] for name in COMPILE_ONCE),
    }
    region = regions(w.k, v_bits, e_bits, out["source_gates"], out["target_gates"], spec_bits)
    metrics.update(region)
    metrics["region.unattributed_gates"] = out["snark_gates"] - sum(region.values())
    return metrics


def breakdown(tr: Tracer) -> dict[str, dict[str, float]]:
    """Self time per layer in each stage of one traced pass."""
    out = {}
    for stage in STAGES:
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in tr.self_times((stage,)).items():
            if name != stage:
                layers[LAYER[name]] += seconds
        out[stage] = dict(layers)
    return out


def _medians(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def traced_run(run: Run, seconds: float) -> dict:
    """Alternate an untraced build through the CLI and a traced pass in
    this process until ``seconds`` have passed, at least once each. Each
    build warms the process up for the pass after it, and its compile
    time, taken seconds apart from the pass, is what the CLI's overhead
    is measured against. Report the median of each per-layer metric and
    of each stage's self-time breakdown over the passes, and the last
    pass's spans."""
    inp = run.inputs
    sizes = lookup_sizes(inp)
    metrics, breakdowns = [], []
    t0 = perf_counter()
    while True:
        run.build()
        run.snark = None
        tr = Tracer()
        out = traced_pass(inp, tr, run.tally)
        metrics.append(layer_metrics(inp, tr, {**out, **sizes}, run.samples["compile_s"][-1]))
        breakdowns.append(breakdown(tr))
        if perf_counter() - t0 >= seconds:
            break
    cost = span_cost()
    for m in metrics:
        m["trace.overhead_s"] = cost * len(tr.spans)
    return {
        "metrics": _medians(metrics),
        "self_times": {stage: _medians([b[stage] for b in breakdowns]) for stage in STAGES},
        "passes": len(metrics),
        "span_cost_s": cost,
        "spans": tr.spans,
    }
