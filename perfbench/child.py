"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py TRACE SPANS_FILE JOB_ID...

TRACE is 0 or 1; SPANS_FILE is where a traced pass writes its spans
(`-` for none).  The pass times `import bchlab.cli` (the set-up a CLI
user pays), runs the jobs in the order given, reads the peak RSS, and
only then loads the reference and checks every output.  It prints one
JSON object as its last stdout line.  With no job ids it only times the
import.  Exits 2 when bchlab cannot be imported from this checkout.

The machine this runs on is shared, and its speed drifts by 20% and
more over minutes.  So a fixed pure-Python loop (the probe) is timed
before the first job and after each job, and each job also reports its
wall time divided by the mean of the two probes around it.
"""

import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_ITERATIONS = 1_000_000  # about 0.15 s on a quiet 2-core host


def probe() -> float:
    """Seconds for a fixed loop of Python bytecode, independent of bchlab."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    trace, spans_file, job_ids = argv[0] == "1", argv[1], argv[2:]
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    try:
        import bchlab.cli
    except ImportError as exc:
        print(f"perfbench: cannot import bchlab from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - start
    if not os.path.abspath(bchlab.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: bchlab was imported from {bchlab.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    # imported only now, so that setup_s is what a CLI user pays
    import json

    import jobs
    import tracing

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    runs = []
    probes = [probe()] if job_ids else []
    for job_id in job_ids:
        start = time.perf_counter()
        try:
            output, error = jobs.run(job_id), None
        except Exception as exc:  # a job that raises counts as failed
            traceback.print_exc()
            output, error = None, f"{job_id}: {type(exc).__name__}: {exc}"
        runs.append((job_id, time.perf_counter() - start, output, error))
        probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = jobs.load_reference() if job_ids else {}
    results = []
    for i, (job_id, wall_s, output, error) in enumerate(runs):
        if error is None:
            error = jobs.check(job_id, output, reference)
        rel = wall_s / ((probes[i] + probes[i + 1]) / 2)
        results.append({"id": job_id, "wall_s": wall_s, "rel": rel,
                        "error": error})
    layers = {}
    if trace:
        layers = tracing.layer_metrics(tracer.spans)
        if spans_file != "-":
            with open(spans_file, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "count"],
                           "spans": tracer.spans}, fh)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                      "jobs": results, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
