"""bchlab benchmark: batch jobs as a CLI user runs them, one pass at a time.

    python3 perfbench/run.py --workload verify|sweep|distance|all \\
        --seed N --seconds S --trace 0|1

Each pass runs the workload's jobs in a fresh interpreter (child.py), so
the field, leader and subfield caches start empty as they do for a CLI
user.  Passes repeat, closed loop with one client, until the next one
would end after S seconds; the job order of each pass is shuffled from
--seed.  Every job's output is checked against reference.json.

--trace 0 reports the end-to-end metrics: wall_rel (median over passes
of the jobs' wall time in units of the probe loop timed around each job
in the same process, see child.py), setup_s (median time of `import
bchlab.cli` over five import-only children and every pass; the first
import-only child is not counted, since it may compile bytecode) and
peak_rss_mb (median peak RSS of a pass).  The report lines before the
result also print wall_s, the median pass time in seconds.  Failed jobs
over attempted jobs is the `failed`/`attempted` pair of the result line.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracing.py (medians over traced passes), plus
trace.wall_s (median traced pass time) and trace.overhead_s (that minus
the median untraced pass time).  The last traced pass writes its spans
to perfbench/out/<workload>-spans.json.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  `--workload all` runs the three workloads in turn and prefixes
each metric with its workload.  The exit code is 1, with no result line,
when bchlab cannot be imported from ../src or a pass crashes or runs
past the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import jobs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_IMPORTS = 5
TIME_LIMIT_S = 170  # the whole run, children included

END_TO_END = {"wall_rel": "probe", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracing.UNITS, "trace.wall_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    """A pass that could not produce a result."""


def _child(job_ids: list[str], trace: bool, spans_file: str,
           deadline: float) -> dict:
    cmd = [sys.executable, CHILD, "1" if trace else "0", spans_file,
           *job_ids]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {job_ids} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {job_ids} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(job_ids: list[str], seed: int, seconds: float, trace: bool,
                 label: str) -> dict:
    """Measure one workload; returns the result object plus a report."""
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    spans_file = "-"
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"{label}-spans.json")
    imports = []
    if not trace:
        imports = [_child([], False, "-", deadline)["setup_s"]
                   for _ in range(SETUP_IMPORTS)][1:]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    last_s: dict[bool, float] = {}
    kind = False
    while True:
        order = list(job_ids)
        rng.shuffle(order)
        began = time.monotonic()
        passes[kind].append(_child(order, kind, spans_file, deadline))
        last_s[kind] = time.monotonic() - began
        if trace:
            kind = not kind
        need_more = trace and not passes[True]
        next_s = last_s[kind] if kind in last_s else last_s[not kind]
        if not need_more and time.monotonic() + next_s > start + seconds:
            break

    results = [job for runs in passes.values() for p in runs
               for job in p["jobs"]]
    errors = [job["error"] for job in results if job["error"]]

    def median_wall(kind: bool, key: str = "wall_s") -> float:
        return statistics.median(sum(job[key] for job in p["jobs"])
                                 for p in passes[kind])

    if trace:
        traced = passes[True]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in tracing.UNITS}
        metrics["trace.wall_s"] = median_wall(True)
        metrics["trace.overhead_s"] = median_wall(True) - median_wall(False)
        units = PER_LAYER
    else:
        plain = passes[False]
        metrics = {
            "wall_rel": median_wall(False, "rel"),
            "setup_s": statistics.median(imports
                                         + [p["setup_s"] for p in plain]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in plain),
        }
        units = END_TO_END
    return {
        "correct": not errors,
        "attempted": len(results),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "report": {"passes": {"untraced": len(passes[False]),
                              "traced": len(passes[True])},
                   "wall_s": median_wall(False), "errors": errors},
    }


def _print_report(label: str, seed: int, result: dict) -> None:
    report = result["report"]
    passes = report["passes"]
    print(f"{label}: seed {seed}, {passes['untraced']} untraced and "
          f"{passes['traced']} traced passes, {result['attempted']} jobs, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / result['attempted']:.4f})")
    print(f"  {'wall_s (untraced, not bounded)':46s} "
          f"{report['wall_s']:16.6f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:46s} {metric['value']:16.6f} {metric['unit']}")
    for error in report["errors"]:
        print(f"  FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*jobs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(jobs.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(jobs.WORKLOADS[name], args.seed,
                                  args.seconds, bool(args.trace), name)
            _print_report(name, args.seed, result)
            prefix = f"{name}." if args.workload == "all" else ""
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
