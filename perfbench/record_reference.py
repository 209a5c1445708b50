"""Record reference.json: the output of every job in jobs.JOBS.

    python3 perfbench/record_reference.py

The reference was recorded on the seed commit of the benchmark, and
the benchmark checks every later commit against it.  Re-recording it
turns a changed output into the new truth, so do it only together with
a change that is meant to alter an output, and say which in the log.
"""

import json
import os
import sys

import jobs

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    reference = {job_id: jobs.run(job_id) for job_id in jobs.JOBS}
    with open(jobs.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
