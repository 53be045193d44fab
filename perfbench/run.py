"""Benchmark of the relate toolkit: one workload per invocation.

    python3 perfbench/run.py --workload lrt-macro --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. With ``--trace 0`` the workload runs as a closed loop, one
operation after the other on fresh inputs, until ``--seconds`` of
operation time are spent, and the end-to-end metrics are printed. With
``--trace 1`` a fixed number of inputs runs twice, once plain and once
with spans and counters installed around the layers, and the per-layer
metrics are printed. Every output is checked right after its operation,
outside the timed span. The last line of standard output is the JSON
result; details of each operation go to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the program is single-threaded
# and the runs must not compete with each other's helper threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_RUNS = 3
SETUP_CODE = "import relate; relate.default_alphabet()"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``relate`` from this checkout's sources, or exit non-zero."""
    if not (SRC / "relate" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC / 'relate'}")
    sys.path.insert(0, str(SRC))
    import relate

    if Path(relate.__file__).resolve().parent != (SRC / "relate").resolve():
        sys.exit(f"error: imported relate from {relate.__file__}, not from {SRC}")
    relate.default_alphabet()
    return relate


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that import the program and
    load its class table, as every command-line call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Loop:
    """Runs operations one after another. Each output is checked as soon as
    its operation has been timed and then dropped, so that memory does not
    grow with the number of operations a run holds."""

    def __init__(self, workload, seed: int):
        from workloads import input_seed

        self.workload = workload
        self.seed = seed
        self.input_seed = input_seed
        self.records = []

    def run_one(self, index: int) -> float:
        inp = self.workload.make_input(self.input_seed(self.seed, index))
        record = {"input": index}
        start = time.perf_counter()
        try:
            out = self.workload.operation(inp)
        except Exception:
            record["error"] = traceback.format_exc()
            out = None
        record["seconds"] = time.perf_counter() - start
        if out is not None:
            record["problems"] = self.workload.check(inp, out)
            record["verdict"] = self.workload.verdict(out)
        self.records.append(record)
        return record["seconds"]

    def counts(self) -> tuple[int, int]:
        """(attempted, failed): an operation fails by raising or by output
        that does not pass its check."""
        failed = sum(1 for r in self.records if r.get("error") or r.get("problems"))
        return len(self.records), failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    loop = Loop(workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import tracing

        # Each input runs plain and traced back to back, in alternating
        # order, so that drift in machine speed does not enter the overhead.
        tracer = tracing.Tracer()
        plain, traced = [], []
        for i in range(workload.trace_ops):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    undo = tracing.install(tracer)
                    traced.append(loop.run_one(i))
                    tracing.uninstall(undo)
                else:
                    plain.append(loop.run_one(i))
        attempted, failed = loop.counts()
        tracer.write(stem.with_suffix(".spans.tsv.gz"))
        per_op = len(traced)
        metrics = {
            name: metric(value / per_op, unit)
            for name, (unit, value) in tracing.layer_metrics(tracer).items()
        }
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(plain), "s"
        )
    else:
        spent = 0.0
        index = 0
        while spent < args.seconds:
            spent += loop.run_one(index)
            index += 1
        rss = peak_rss_mb()
        attempted, failed = loop.counts()
        ok = [r["seconds"] for r in loop.records if not r.get("error")]
        metrics = {
            "setup_s": metric(setup_seconds(), "s"),
            "op_s": metric(statistics.median(ok or [r["seconds"] for r in loop.records]), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }

    correct = not any(r.get("problems") for r in loop.records)
    for record in loop.records:
        if record.get("error") or record.get("problems"):
            print(f"input {record['input']}: {record.get('error') or record['problems']}", file=sys.stderr)
    stem.with_suffix(".json").write_text(json.dumps(loop.records, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
