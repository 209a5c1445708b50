"""Smoke self-test of the benchmark on cut-down job lists.

    python3 perfbench/selftest.py      (or: python3 -m pytest perfbench/selftest.py)

Runs every workload's jobs.SMOKE list untraced and traced (one pass
each) and checks that every metric named in BENCHMARK.json is produced,
that no job fails, and that traced counts repeat exactly across seeds.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_reference_check_goes_by_name():
    ref = {"exit": 1, "stdout": [{"q": "3", "bound": "4"}]}
    assert jobs.mismatch(ref, {"exit": 1, "stdout": [
        {"q": "3", "bound": "4", "bound_source": "run"}]}) is None
    assert jobs.mismatch(ref, {"exit": 1, "stdout": [
        {"q": "3", "bound": "5"}]})
    assert jobs.mismatch(ref, {"exit": 1, "stdout": [{"q": "3"}]})
    assert jobs.mismatch(ref, {"exit": 0, "stdout": [
        {"q": "3", "bound": "4"}]})
    assert jobs.mismatch({"ok": True}, {"ok": 1})


def _smoke(workload: str, trace: bool, seed: int = 1) -> dict:
    result = run.run_workload(jobs.SMOKE[workload], seed, 0, trace,
                              f"smoke-{workload}")
    assert result["correct"] and result["failed"] == 0, result["report"]
    assert result["attempted"] >= len(jobs.SMOKE[workload])
    return result["metrics"]


def test_workloads_produce_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for workload in jobs.WORKLOADS:
        plain = _smoke(workload, False)
        assert sorted(plain) == sorted(end_to_end), workload
        assert all(m["value"] > 0 for m in plain.values()), plain
        traced = _smoke(workload, True)
        assert sorted(traced) == sorted(per_layer), workload
        again = _smoke(workload, True, seed=2)
        for name, metric in traced.items():
            if metric["unit"] == "count":
                assert again[name] == metric, (workload, name)
        if workload == "sweep":
            for name in ("finite_field.FieldCtx.calls",
                         "code_core.realize.calls",
                         "oracle.min_distance.calls",
                         "oracle.min_distance_via_checks.calls"):
                assert traced[name]["value"] == 0, name


if __name__ == "__main__":
    test_reference_check_goes_by_name()
    test_workloads_produce_every_metric()
    print("perfbench selftest: ok")
