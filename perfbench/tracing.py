"""Per-layer spans for the traced benchmark run, kept in the benchmark.

Each module of `src/bchlab` is a layer.  `install` replaces every public
function of the eight layer modules, and the `FieldCtx` constructor,
with a wrapper that records a span (name, start, end, parent, count).
It also rebinds the names other modules imported with `from ... import`
(such as `code_core.get_field` and `oracle.get_field`), so those calls
are recorded too.  Per-element methods (`FieldCtx.mul`, `add`, ...) are
not wrapped: their time is the self time of the caller.

Spans stay in memory; `layer_metrics` folds them into the per-layer
metrics once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("finite_field", "poly_linalg", "cyclotomic", "code_core",
          "closed_forms", "oracle", "examples", "cli")

# per-layer metric -> unit; run.py adds the two trace.* metrics
UNITS: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "finite_field.get_field.calls": "count",
    "finite_field.get_field.hit_ratio": "ratio",
    "finite_field.FieldCtx.calls": "count",
    "finite_field.FieldCtx.self_s": "s",
    "finite_field.FieldCtx.table_elems": "count",
    "poly_linalg.minimal_polynomial.calls": "count",
    "poly_linalg.minimal_polynomial.self_s": "s",
    "cyclotomic.leader_map.calls": "count",
    "cyclotomic.leader_map.self_s": "s",
    "cyclotomic.leader_map.residues": "count",
    "cyclotomic.sets.self_s": "s",
    "code_core.realize.calls": "count",
    "code_core.realize.self_s": "s",
    "code_core.dual_code.calls": "count",
    "code_core.dual_code.self_s": "s",
    "closed_forms.calls": "count",
    "oracle.gap_profile.calls": "count",
    "oracle.gap_profile.self_s": "s",
    "oracle.dually_sweep.calls": "count",
    "oracle.dually_sweep.deltas": "count",
    "oracle.dually_sweep.self_s": "s",
    "oracle.check_bound_report.self_s": "s",
    "oracle.min_distance.calls": "count",
    "oracle.min_distance.words": "count",
    "oracle.min_distance.self_s": "s",
    "oracle.min_distance.words_per_s": "1/s",
    "oracle.min_distance_via_checks.calls": "count",
    "oracle.min_distance_via_checks.nodes": "count",
    "oracle.min_distance_via_checks.self_s": "s",
    "oracle.min_distance_via_checks.nodes_per_s": "1/s",
    "examples.verify_example.self_s": "s",
    "examples.route.enum": "count",
    "examples.route.checks": "count",
    "cli.main.self_s": "s",
}

# span name -> the count a span records, from (args, result)
_COUNTS = {
    "finite_field.FieldCtx": lambda args, _: len(args[0].exp or ()),
    "cyclotomic.leader_map": lambda _, result: len(result),
    "oracle.dually_sweep": lambda _, result: len(result),
    "oracle.min_distance": lambda _, result: result.enumerated,
    "oracle.min_distance_via_checks": lambda _, result: result.enumerated,
}

_NAME, _START, _END, _PARENT, _COUNT = range(5)


class Tracer:
    """Spans of one process, as [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, 0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                open_.pop()
            if count is not None:
                span[_COUNT] = count(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported bchlab package."""
    # keyed by id: each wrapper holds its function, so the ids stay unique
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"bchlab.{layer}")
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == module.__name__):
                wrapped[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for name, module in list(sys.modules.items()):
        if name != "bchlab" and not name.startswith("bchlab."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    ctx = importlib.import_module("bchlab.finite_field").FieldCtx
    ctx.__init__ = tracer.wrap("finite_field.FieldCtx", ctx.__init__)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Fold one pass's spans into the metrics named in UNITS."""
    inner = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            inner[span[_PARENT]] += span[_END] - span[_START]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - inner[i])
        counts[name] = counts.get(name, 0) + count

    def parent_name(span) -> str | None:
        return spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else None

    built_in = {span[_PARENT] for span in spans
                if span[_NAME] == "finite_field.FieldCtx"}
    lookups = [i for i, span in enumerate(spans)
               if span[_NAME] == "finite_field.get_field"]
    hits = sum(1 for i in lookups if i not in built_in)
    routes = {"oracle.min_distance": 0, "oracle.min_distance_via_checks": 0}
    for span in spans:
        if span[_NAME] in routes and parent_name(span) in (
                "examples.true_distance", "examples.dual_distance"):
            routes[span[_NAME]] += 1

    def total(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def per_s(n: int, secs: float) -> float:
        return n / secs if secs > 0 else 0.0

    out: dict[str, float] = {f"{layer}.self_s": total(layer + ".")
                             for layer in LAYERS}
    out["finite_field.get_field.calls"] = len(lookups)
    for name in ("finite_field.FieldCtx",
                 "poly_linalg.minimal_polynomial", "cyclotomic.leader_map",
                 "code_core.realize", "code_core.dual_code",
                 "oracle.gap_profile", "oracle.dually_sweep",
                 "oracle.min_distance", "oracle.min_distance_via_checks"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["finite_field.get_field.hit_ratio"] = (hits / len(lookups)
                                               if lookups else 0.0)
    out["finite_field.FieldCtx.table_elems"] = counts.get(
        "finite_field.FieldCtx", 0)
    out["cyclotomic.leader_map.residues"] = counts.get(
        "cyclotomic.leader_map", 0)
    out["cyclotomic.sets.self_s"] = (
        self_s.get("cyclotomic.defining_set", 0.0)
        + self_s.get("cyclotomic.dual_defining_set", 0.0))
    out["closed_forms.calls"] = sum(v for k, v in calls.items()
                                    if k.startswith("closed_forms."))
    out["oracle.dually_sweep.deltas"] = counts.get("oracle.dually_sweep", 0)
    out["oracle.check_bound_report.self_s"] = self_s.get(
        "oracle.check_bound_report", 0.0)
    words = counts.get("oracle.min_distance", 0)
    nodes = counts.get("oracle.min_distance_via_checks", 0)
    out["oracle.min_distance.words"] = words
    out["oracle.min_distance.words_per_s"] = per_s(
        words, out["oracle.min_distance.self_s"])
    out["oracle.min_distance_via_checks.nodes"] = nodes
    out["oracle.min_distance_via_checks.nodes_per_s"] = per_s(
        nodes, out["oracle.min_distance_via_checks.self_s"])
    out["examples.verify_example.self_s"] = self_s.get(
        "examples.verify_example", 0.0)
    out["examples.route.enum"] = routes["oracle.min_distance"]
    out["examples.route.checks"] = routes["oracle.min_distance_via_checks"]
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return out
