"""Benchmark for pathcirc: compile, snarkize and witness checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-walk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A run measures for ``--seconds`` in all, split over fresh worker
processes that run one after another. Each sets up its seeded inputs,
then compiles a verifier, snarkizes it to JSON and to Bristol Fashion,
all through ``pathcirc.cli.main`` in that process, and checks the
claimed walks against the loaded snark circuit, each verdict against
``graphs.path_oracle``. With ``--trace 1`` a single fresh worker instead
alternates untraced builds and traced passes for ``--seconds``, and the
run reports per-layer metrics. The last line of standard output is the
result as JSON. ``--workload all`` runs every workload this way, one at
a time, prints a table of the metrics, and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh worker processes per run, one at a time. Each has its own string
#: hash seed, so their circuits are compared byte for byte; every metric is
#: taken over the samples of them all.
WORKERS = 2


def environment(budget: str | None) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "PATHCIRC_BUDGET": budget,
        "PATHCIRC_BUDGET_cleared": True,
    }


def unit_of(name: str) -> str:
    if name.endswith("_us_per_gate"):
        return "us"
    if name.endswith("_ns_per_gate"):
        return "ns"
    return "s" if name.endswith("_s") else "count"


def in_worker(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run perfbench/worker.py in a fresh process and wait for it to end;
    pass its other output through and return its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds),
         str(int(traced))],
        stdout=subprocess.PIPE, text=True, check=False)
    *lines, last = proc.stdout.splitlines() or [""]
    for line in lines:
        print(line)
    try:
        return json.loads(last)
    except json.JSONDecodeError:  # the worker died before it could report
        return {"attempted": 1, "failed": 1}


def run_one(name: str, seed: int, seconds: float, trace: int,
            budget: str | None) -> tuple[dict, dict]:
    """Run one workload; return its result and its report."""
    from workloads import WORKLOADS, Tally, end_to_end
    workload = WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    report = {"workload": workload.name, "why": why, "seed": seed,
              "trace": trace, "environment": environment(budget)}
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        from tracing import DOMINANT, Tracer
        traced = in_worker(workload.name, seed, seconds, True)
        tally.attempted += traced["attempted"]
        tally.failed += traced["failed"]
        if "metrics" in traced:
            metrics = {key: (value, unit_of(key)) for key, value in traced["metrics"].items()}
            stage, expected = DOMINANT[workload.name]
            layers = traced["self_times"][stage]
            tr = Tracer()
            tr.spans = traced["spans"]
            trace_path = HERE / "traces" / f"{workload.name}-seed{seed}.json"
            tr.dump(trace_path)
            report.update(
                self_times=traced["self_times"],
                dominant={"stage": stage, "expected": expected,
                          "measured": max(layers, key=layers.get)},
                passes=traced["passes"], span_cost_s=traced["span_cost_s"],
                spans=len(tr.spans), trace_file=str(trace_path.relative_to(ROOT)))
    else:
        raws = []
        for _ in range(WORKERS):
            raw = in_worker(workload.name, seed, seconds / WORKERS, False)
            tally.attempted += raw["attempted"]
            tally.failed += raw["failed"]
            raws.append(raw)
        if all("samples" in raw for raw in raws):
            metrics = end_to_end(raws, tally)
            pooled = {key: [v for raw in raws for v in raw["samples"][key]]
                      for key in raws[0]["samples"]}
            report.update(raws[0]["hashes"], valid_share=raws[0]["valid_share"],
                          sample_counts={key: len(values) for key, values in pooled.items()},
                          median_s={key: statistics.median(pooled[key]) for key in
                                    ("compile_s", "snarkize_s", "bristol_s", "walk_s",
                                     "reference_s")})
    report["error_rate"] = tally.error_rate
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, report


def run_all(args, budget: str | None) -> int:
    from workloads import WORKLOADS
    ok = True
    rows = []
    for name in WORKLOADS:
        result, report = run_one(name, args.seed, args.seconds, args.trace, budget)
        print(json.dumps(report, indent=1))
        ok = ok and result["correct"]
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        rows.append((name, "error_rate", report["error_rate"], "1"))
    print(f"\n{'workload':14s} {'metric':34s} {'value':>16s} unit")
    for row in rows:
        print(f"{row[0]:14s} {row[1]:34s} {row[2]:>16.6g} {row[3]}")
    print("all workloads correct" if ok else "FAILED: a workload failed a check")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathcirc" / "__init__.py").is_file():
        print(f"error: no pathcirc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pathcirc
    if Path(pathcirc.__file__).resolve().parent != ROOT / "src" / "pathcirc":
        print(f"error: imported pathcirc from {pathcirc.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    budget = os.environ.pop("PATHCIRC_BUDGET", None)
    if args.workload == "all":
        return run_all(args, budget)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    result, report = run_one(args.workload, args.seed, args.seconds, args.trace, budget)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(report, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
