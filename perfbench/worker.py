"""One worker process of a benchmark run.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACED

Sets up the workload's inputs and measures for SECONDS, or, with TRACED
set to 1, makes traced passes for SECONDS instead. The last line of standard
output is the result as JSON, for the parent run to pool.
"""

from __future__ import annotations

import json
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Run, StageFailed  # noqa: E402


def work(name: str, seed: int, seconds: float, traced: bool) -> dict:
    result: dict = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        run = Run(WORKLOADS[name], seed, Path(workdir))
        try:
            if traced:
                from tracing import traced_run
                run.setup()
                result = traced_run(run, seconds)
            else:
                run.measure(seconds)
                result = run.raw()
        except StageFailed:
            pass
        except Exception:  # reported as a failed check, with its traceback
            traceback.print_exc()
            run.tally.check(False, "the run raised an exception")
    result.update(attempted=run.tally.attempted, failed=run.tally.failed)
    return result


if __name__ == "__main__":
    name, seed, seconds, traced = sys.argv[1:]
    print(json.dumps(work(name, int(seed), float(seconds), traced == "1")), flush=True)
