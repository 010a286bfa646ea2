"""The benchmark's workloads and their untraced measurement.

Each worker process compiles a verifier with ``pathcirc.cli.main`` in process,
snarkizes it to JSON and to Bristol Fashion the same way, and checks a
seeded batch of claimed walks against the loaded snark circuit. One
caller drives the loop and waits for each step (a closed loop), with no
extra threads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable

from pathcirc import (
    Circuit,
    CircuitDocument,
    KpMorphism,
    ZkpMorphism,
    and_gate,
    bus_copy,
    capacity_enumeration,
    cli,
    document_from_json,
    encode_graph,
    enumerate_graph,
    from_json,
    match_circuit,
    parse_graph,
    snarkize,
    to_json,
    valid_graphs,
    zkp_snarkize,
)
from pathcirc.circuits import COPY, NAND

from corpus import (
    WITNESS_KINDS,
    Witness,
    de_bruijn,
    make_witness,
    make_witnesses,
    random_multigraph,
)

#: Set-up repeats until this much time has passed (at least once), in
#: each pass of the loop, so that its repetitions are spread over the run
#: like every other stage's; the reported set-up time is the median
#: repetition.
SETUP_MIN_S = 0.05
#: Each pass of the loop checks its walk batch repeatedly for at least
#: this long, so the check rate is taken over many walks.
CHECK_MIN_S = 0.4
#: Claimed walks in every workload's batch.
WALKS = 16
#: Calls of ``reference`` timed on each side of a timed stage.
REFERENCE_CALLS = 2
#: The stages built through the CLI, in order, with their metric stems.
CLI_STAGES = ("compile", "snarkize", "bristol")


def reference() -> int:
    """A fixed piece of pure-Python work that does not touch pathcirc:
    integer and dict arithmetic, then building, grouping, sorting and
    serialising small tuples, the kinds of work the stages do.

    The stages and the checks are reported in multiples of its time,
    taken right before and right after each of them, so that a change in
    the speed of the CPU the process runs on cancels out while a change
    in pathcirc does not.
    """
    total = 0
    counts: dict[int, int] = {}
    for i in range(15000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += i * i % 7
    rows = [(i, i * 3 % 97, (i, i + 1)) for i in range(6000)]
    groups: dict[int, list] = {}
    for _, key, pair in rows:
        groups.setdefault(key, []).append(pair)
    rows.sort(key=lambda row: row[1])
    return total + len(groups) + len(json.dumps(rows[:500]))


def time_reference() -> float:
    """Seconds per call of ``reference``, over REFERENCE_CALLS calls."""
    t0 = perf_counter()
    for _ in range(REFERENCE_CALLS):
        reference()
    return (perf_counter() - t0) / REFERENCE_CALLS


@dataclass(frozen=True)
class Workload:
    """One benchmark input family; why each was chosen is recorded in
    BENCHMARK.json."""

    name: str
    k: int
    graph: Callable[[], dict] | None = None  # fixed-graph (kp) verifier
    capacity: tuple[int, int] | None = None  # (max edges, max vertices): universal

    @property
    def kind(self) -> str:
        return "zkp" if self.capacity else "kp"


# The run's seed draws the walks (and, for universal, their graphs), never
# the compiled graph: circuit sizes and hashes then do not depend on it.
WORKLOADS = {w.name: w for w in (
    Workload("long-walk", k=8, graph=lambda: de_bruijn(3)),
    Workload("wide-graph", k=1, graph=lambda: random_multigraph(32, 64, Random(1909))),
    Workload("universal", k=2, capacity=(2, 2)),
)}


class StageFailed(Exception):
    """A CLI command exited non-zero; the run cannot go on."""


@dataclass
class Tally:
    """Correctness checks made and failed; failures include wrong
    verdicts and CLI commands that exited non-zero."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", flush=True)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Inputs:
    workload: Workload
    files: dict[str, str]
    witnesses: list[Witness]


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's graph file and witness batch from the seed."""
    rng = Random(seed)
    files = {name: str(workdir / f"{name}.{ext}") for name, ext in
             (("graph", "json"), ("verifier", "json"), ("json", "json"), ("bristol", "txt"))}
    if w.capacity:
        m, n = w.capacity
        family = valid_graphs(m, n)
        witnesses = []
        for i in range(WALKS):
            g = rng.choice(family)
            witnesses.append(make_witness(capacity_enumeration(g, m, n), w.k,
                                          WITNESS_KINDS[i % len(WITNESS_KINDS)], rng,
                                          spec=encode_graph(g, m, n).bits))
        return Inputs(w, files, witnesses)
    text = json.dumps(w.graph())
    Path(files["graph"]).write_text(text, encoding="utf-8")
    en = enumerate_graph(parse_graph(text))
    return Inputs(w, files, make_witnesses(en, w.k, WALKS, rng))


def compile_argv(inp: Inputs) -> list[str]:
    w = inp.workload
    if w.capacity:
        m, n = w.capacity
        head = ["compile-universal", "--max-vertices", str(n), "--max-edges", str(m)]
    else:
        head = ["compile", "--graph", inp.files["graph"]]
    return head + ["--length", str(w.k), "--out", inp.files["verifier"]]


def snarkize_argv(inp: Inputs, fmt: str) -> list[str]:
    return ["snarkize", "--circuit", inp.files["verifier"], "--kind", inp.workload.kind,
            "--format", fmt, "--out", inp.files[fmt]]


def run_cli(argv: list[str], tally: Tally) -> float:
    """Run one pathcirc command in process; return its wall time."""
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    elapsed = perf_counter() - t0
    if not tally.check(rc == 0, f"pathcirc {argv[0]} exited {rc}"):
        raise StageFailed(argv[0])
    return elapsed


def check_witnesses(circuit: Circuit, witnesses: list[Witness], tally: Tally) -> list[float]:
    """Evaluate every witness, compare with the oracle's verdict, and
    return the per-walk times."""
    times = []
    for w in witnesses:
        t0 = perf_counter()
        verdict = circuit.evaluate(w.bits).bits[0] == 1
        times.append(perf_counter() - t0)
        tally.check(verdict == w.expected,
                    f"{w.kind} walk: circuit says {verdict}, oracle says {w.expected}")
    return times


#: Span name and function of the snarkizator for each verifier kind.
SNARKIZE = {"kp": ("verifiers.snarkize", snarkize),
            "zkp": ("universal.zkp_snarkize", zkp_snarkize)}


def verifier_morphism(doc: CircuitDocument, kind: str) -> KpMorphism | ZkpMorphism:
    """The verifier a compiled document holds, split as the CLI's
    ``snarkize`` command splits it."""
    meta = doc.metadata
    if kind == "zkp":
        return ZkpMorphism(meta["in_width"], meta["spec_width"], meta["witness_width"],
                           meta["out_width"], doc.circuit)
    return KpMorphism(meta["in_width"], meta["witness_width"], meta["out_width"], doc.circuit)


def nand_depth(c: Circuit) -> int:
    """Longest input-to-output path, counted in NAND gates."""
    depth = [0] * c.wire_count
    for g in c.gates:
        if g.kind == NAND:
            depth[g.out_wires[0]] = 1 + max(depth[g.in_wires[0]], depth[g.in_wires[1]])
        elif g.kind == COPY:
            depth[g.out_wires[0]] = depth[g.out_wires[1]] = depth[g.in_wires[0]]
    return max((depth[w] for w in c.output_map), default=0)


def regions(k: int, v_bits: int, e_bits: int, source_gates: int, target_gates: int,
            spec_bits: int = 0) -> dict[str, int]:
    """Gates per region of a k-step snark circuit, from the constructors
    it is built of. A universal step also copies the spec bus, once per
    step and once per composition."""
    match = match_circuit(v_bits).gate_count
    flag_and = and_gate().gate_count
    return {
        "region.fanout_gates": k * bus_copy(e_bits).gate_count,
        "region.source_gates": k * source_gates,
        "region.target_gates": k * target_gates,
        "region.match_gates": k * match,
        "region.flag_and_gates": (k - 1) * flag_and,
        "region.spec_copy_gates": (2 * k - 1) * bus_copy(spec_bits).gate_count if spec_bits else 0,
        "region.claim_gates": match + flag_and,
    }


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Run:
    """One workload run: set-up, the measured loop, and its checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.hashes: dict[str, str] = {}
        self.sizes: dict[str, int] = {}
        self.inputs: Inputs | None = None
        self.snark: Circuit | None = None

    def build(self) -> None:
        """Stages 1-3 through the CLI, then load the snark circuit and
        check, untimed, what the build wrote: every build writes the same
        bytes, and the first one is checked in full.

        Each stage is timed in seconds and, with the reference timed
        right before and right after it, in multiples of the reference's
        time. The previous circuit is dropped and garbage collected before
        each stage, so its collection does not fall inside a timed stage.
        """
        inp = self.inputs
        self.snark = None
        for stage, argv in zip(CLI_STAGES, (compile_argv(inp), snarkize_argv(inp, "json"),
                                        snarkize_argv(inp, "bristol"))):
            gc.collect()
            before = time_reference()
            elapsed = run_cli(argv, self.tally)
            ref = (before + time_reference()) / 2
            self.samples[f"{stage}_s"].append(elapsed)
            self.samples[f"{stage}_ref"].append(elapsed / ref)
            self.samples["reference_s"].append(ref)
        t0 = perf_counter()
        self.snark = from_json(Path(inp.files["json"]).read_text(encoding="utf-8"))
        self.samples["load_s"].append(perf_counter() - t0)
        hashes = {"json_sha256": _sha256(inp.files["verifier"]),
                  "bristol_sha256": _sha256(inp.files["bristol"])}
        if not self.hashes:
            self.hashes = hashes
            self._first_build_checks()
        else:
            self.tally.check(hashes == self.hashes, "a rebuild emitted different bytes")

    def _first_build_checks(self) -> None:
        """Check the loaded snark circuit against one that ``snarkize``
        builds in process from the compiled verifier, check that
        circuit's JSON round trip, and record the sizes."""
        c = self.snark
        kind = self.workload.kind
        doc = document_from_json(Path(self.inputs.files["verifier"]).read_text(encoding="utf-8"))
        _, snarkizator = SNARKIZE[kind]
        built = snarkizator(verifier_morphism(doc, kind))
        del doc
        self.tally.check(c == built, "the CLI's snark circuit differs from snarkize of its verifier")
        self.tally.check(from_json(to_json(built)) == built, "from_json(to_json(c)) differs from c")
        del built
        bristol = Path(self.inputs.files["bristol"]).read_text(encoding="utf-8").splitlines()
        bristol_gates = int(bristol[0].split()[0])
        self.tally.check(bristol_gates == len(bristol) - 4,
                         "Bristol header gate count differs from its gate lines")
        self.sizes = {
            "gates": c.gate_count,
            "nand_gates": sum(1 for g in c.gates if g.kind == NAND),
            "nand_depth": nand_depth(c),
            "bristol_gates": bristol_gates,
            "json_bytes": Path(self.inputs.files["verifier"]).stat().st_size,
        }

    def setup(self) -> None:
        """Generate the inputs, repeated for a stable median. Every
        repetition writes the same files and witnesses."""
        times: list[float] = []
        while sum(times) < SETUP_MIN_S:
            t0 = perf_counter()
            self.inputs = prepare(self.workload, self.seed, self.workdir)
            times.append(perf_counter() - t0)
        self.samples["setup_s"] += times

    def measure(self, seconds: float) -> None:
        """Closed loop: set up, build and check, until `seconds` have
        passed; at least one pass."""
        t0 = perf_counter()
        while True:
            self.setup()
            self.build()
            # the reference is timed between batches, so each batch's
            # time is set against the CPU's speed within tens of ms of it
            refs = [time_reference()]
            walk_times: list[float] = []
            in_refs = 0.0
            while sum(walk_times) < CHECK_MIN_S:
                times = check_witnesses(self.snark, self.inputs.witnesses, self.tally)
                refs.append(time_reference())
                walk_times += times
                in_refs += sum(times) / ((refs[-2] + refs[-1]) / 2)
            self.samples["walk_s"].extend(walk_times)
            self.samples["check_paths_per_ref"].append(len(walk_times) / in_refs)
            if perf_counter() - t0 >= seconds:
                break

    def raw(self) -> dict:
        """What a worker process reports back for pooling."""
        ws = self.inputs.witnesses
        return {
            "samples": dict(self.samples),
            "sizes": self.sizes,
            "hashes": self.hashes,
            "valid_share": sum(w.expected for w in ws) / len(ws),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def end_to_end(raws: list[dict], tally: Tally) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as (value, unit), over the samples of all
    worker processes, which must have emitted the same circuits.

    Set-up time is the median repetition. A stage's metric is the median
    repetition in multiples of the reference timed around it: on a shared
    machine, a CPU's speed can halve for spells of a second to tens of
    seconds, which a stage's time in seconds follows but its ratio to the
    reference does not. The check rate is, likewise, the
    median pass's walks checked per reference time, with the reference
    timed between the pass's batches.
    """
    first = raws[0]
    for raw in raws[1:]:
        tally.check((raw["sizes"], raw["hashes"]) == (first["sizes"], first["hashes"]),
                    "two worker processes emitted different circuits")
    samples: dict[str, list[float]] = defaultdict(list)
    for raw in raws:
        for key, values in raw["samples"].items():
            samples[key] += values
    m = {"setup_s": (statistics.median(samples["setup_s"]), "s")}
    m.update({f"{stage}_ref": (statistics.median(samples[f"{stage}_ref"]), "ref")
              for stage in CLI_STAGES})
    m["check_paths_per_ref"] = (statistics.median(samples["check_paths_per_ref"]), "1/ref")
    m["peak_rss_mb"] = (statistics.median(raw["peak_rss_mb"] for raw in raws), "MB")
    m.update({key: (value, "bytes" if key == "json_bytes" else "count")
              for key, value in first["sizes"].items()})
    return m
