"""Jobs of the bchlab benchmark and the check of their outputs.

A job is one thing a bchlab user asks for: a CLI call (run through
`bchlab.cli.main`, stdout captured) or one exact distance (through
`examples.true_distance` / `examples.dual_distance`, which pick the
route).  Every job's output is compared with `reference.json`, recorded
on the seed commit by `record_reference.py`.

The comparison goes by field and column name: the reference must be
contained in the output, so an added JSON field or CSV column passes and
a changed or missing value fails.  The reference of `verify --all`
includes its exit code 1 and the two `BAD` claims of `negacyclic-q3-m4`,
a failure by design that a correct run reproduces.

This module imports only the standard library at import time, so the
child process can time `import bchlab` on its own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

CYC, NEG = "cyclic", "negacyclic"

# job id -> ("cli", argv) or ("true" | "dual", (q, m, family, delta))
JOBS: dict[str, tuple[str, tuple]] = {
    "verify-all": ("cli", ("verify", "--all")),
    "sweep-grid": ("cli", ("sweep", "3,5,7,11", "2,3,4,5", "both")),
    "sweep-q3-m10-11": ("cli", ("sweep", "3", "10,11", "both")),
    "sweep-q7-m6": ("cli", ("sweep", "7", "6", "both")),
    "true-q7-m2-neg-4": ("true", (7, 2, NEG, 4)),
    "dual-q9-m2-cyc-32": ("dual", (9, 2, CYC, 32)),
    "true-q9-m2-cyc-32": ("true", (9, 2, CYC, 32)),
    "true-q3-m5-neg-23": ("true", (3, 5, NEG, 23)),
    # cut-down jobs for selftest.py
    "verify-negacyclic-q3-m4": ("cli", ("verify", "negacyclic-q3-m4")),
    "sweep-q3-m2-3": ("cli", ("sweep", "3", "2,3", "both")),
    "true-q3-m3-neg-2": ("true", (3, 3, NEG, 2)),
    "dual-q7-m2-neg-6": ("dual", (7, 2, NEG, 6)),
}

WORKLOADS: dict[str, list[str]] = {
    "verify": ["verify-all"],
    "sweep": ["sweep-grid", "sweep-q3-m10-11", "sweep-q7-m6"],
    "distance": ["true-q7-m2-neg-4", "dual-q9-m2-cyc-32",
                 "true-q9-m2-cyc-32", "true-q3-m5-neg-23"],
}

SMOKE: dict[str, list[str]] = {
    "verify": ["verify-negacyclic-q3-m4"],
    "sweep": ["sweep-q3-m2-3"],
    "distance": ["true-q3-m3-neg-2", "dual-q7-m2-neg-6"],
}


def run(job_id: str) -> dict:
    """Run one job in this process and return its raw output."""
    kind, args = JOBS[job_id]
    if kind == "cli":
        from bchlab import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(args))
        return {"exit": code, "stdout": buf.getvalue()}
    from bchlab import code_core, examples
    spec = code_core.CodeSpec(*args)
    if kind == "true":
        return {"distance": examples.true_distance(code_core.realize(spec))}
    return {"distance": examples.dual_distance(spec)}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _parsed(job_id: str, output: dict):
    """The output with CLI stdout parsed into fields or CSV rows."""
    kind, args = JOBS[job_id]
    if kind != "cli":
        return output
    text = output["stdout"]
    if args[0] == "sweep":
        body = list(csv.DictReader(io.StringIO(text)))
    else:
        body = json.loads(text)
    return {"exit": output["exit"], "stdout": body}


def mismatch(ref, out, where: str = "") -> str | None:
    """First place where `out` does not contain `ref`, or None.

    Objects match when every reference key is present and matches, so
    extra keys pass; lists must have the same length and match item by
    item; scalars must be equal and of the same type.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{where}: expected an object"
        for key, val in ref.items():
            if key not in out:
                return f"{where}.{key}: missing"
            bad = mismatch(val, out[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for i, (r, o) in enumerate(zip(ref, out)):
            bad = mismatch(r, o, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if type(ref) is not type(out) or ref != out:
        return f"{where}: expected {ref!r}, got {out!r}"
    return None


def check(job_id: str, output: dict, reference: dict) -> str | None:
    """None when the job's output agrees with its reference, else why not."""
    if job_id not in reference:
        return f"{job_id}: no reference recorded"
    try:
        got = _parsed(job_id, output)
    except (ValueError, csv.Error) as exc:
        return f"{job_id}: unparsable output ({exc})"
    return mismatch(_parsed(job_id, reference[job_id]), got, job_id)
