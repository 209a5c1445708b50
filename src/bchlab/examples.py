"""Pinned worked examples, re-verified from scratch on every run.

Each fixture records published claims for one parameter set: dual
bounds and true dual distances, or the exact delta-range on which the
code is dually-BCH.  verify_example recomputes every claim with the
closed forms on one side and the oracles (gap scans, coverage search,
codeword enumeration) on the other, and reports each comparison.  A
failing claim is reported, never patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import closed_forms, code_core, oracle
from .cyclotomic import CYCLIC, NEGACYCLIC
from .errors import BCHLabError, SearchBudgetExceeded, UnknownExample


@dataclass
class Claim:
    name: str
    expected: str
    computed: str
    ok: bool


@dataclass
class ExampleReport:
    example_id: str
    claims: list[Claim]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.claims)


# fixture: (q, m, family, [(delta, claimed bound, claimed dual distance)])
_BOUND_FIXTURES: dict[str, tuple] = {
    "cyclic-q3-m2": (3, 2, CYCLIC, [(2, 4, 4), (3, 2, 2)]),
    "cyclic-q5-m2": (5, 2, CYCLIC, [(2, 16, 16), (8, 4, 4)]),
    "negacyclic-q3-m3": (3, 3, NEGACYCLIC, [(2, 5, 6), (4, 2, 2)]),
    "negacyclic-q3-m4": (3, 4, NEGACYCLIC, [(2, 22, 23), (7, 4, 5)]),
    "negacyclic-q7-m2": (7, 2, NEGACYCLIC, [(2, 18, 19), (6, 4, 6)]),
    "negacyclic-q7-m3": (7, 3, NEGACYCLIC, [(2, 123, 138)]),
}

# fixture: (q, m, family, max delta, claimed ranges, spot_check); the
# cyclic claims are about the even-like subcode
_DUALLY_FIXTURES: dict[str, tuple] = {
    "cyclic-q5-m2-dually": (5, 2, CYCLIC, 13, [(2, 2), (8, 13)], False),
    "cyclic-q3-m3-dually": (3, 3, CYCLIC, 14, [(8, 14)], False),
    "negacyclic-q3-m3-dually": (3, 3, NEGACYCLIC, 4, [(2, 4)], False),
    "negacyclic-q3-m5-dually": (3, 5, NEGACYCLIC, 31,
                                [(2, 3), (25, 31)], False),
    "negacyclic-q3-m4-dually": (3, 4, NEGACYCLIC, 21, [(7, 21)], False),
    "negacyclic-q7-m3-dually": (7, 3, NEGACYCLIC, 65, [(63, 65)], False),
    "negacyclic-q7-m2-dually": (7, 2, NEGACYCLIC, 13,
                                [(2, 2), (10, 13)], False),
    "negacyclic-q7-m4-dually": (7, 4, NEGACYCLIC, 601, [(430, 601)], True),
}

EXAMPLE_IDS: tuple[str, ...] = (
    "cyclic-q3-m2",
    "cyclic-q5-m2",
    "cyclic-q5-m2-dually",
    "cyclic-q3-m3-dually",
    "negacyclic-q3-m3",
    "negacyclic-q3-m3-dually",
    "negacyclic-q3-m5-dually",
    "negacyclic-q3-m4",
    "negacyclic-q3-m4-dually",
    "negacyclic-q7-m3",
    "negacyclic-q7-m3-dually",
    "negacyclic-q7-m2",
    "negacyclic-q7-m2-dually",
    "negacyclic-q7-m4-dually",
)


def all_example_ids() -> tuple[str, ...]:
    return EXAMPLE_IDS


def _ranges_str(deltas: list[int]) -> str:
    if not deltas:
        return "(none)"
    parts = []
    lo = prev = deltas[0]
    for d in deltas[1:]:
        if d == prev + 1:
            prev = d
            continue
        parts.append(f"{lo}..{prev}")
        lo = prev = d
    parts.append(f"{lo}..{prev}")
    return ",".join(parts)


def _expand_ranges(ranges: list[tuple[int, int]]) -> list[int]:
    out: list[int] = []
    for lo, hi in ranges:
        out.extend(range(lo, hi + 1))
    return out


def true_distance(inst: code_core.CodeInstance) -> int:
    """True minimum distance of a realized code.

    Walks the code's words by information weight on one cyclic
    information set (`oracle.min_distance(..., shift_invariant=True)`),
    at most `oracle.MIN_DISTANCE_CAP` of them.  Past that budget the
    walk returns the interval [low, best] it proved, and a
    shift-normalised search for a dependent column subset of a
    parity-check matrix (a generator matrix of the dual code) tries the
    support sizes low, ..., best - 1.  If its node budget leaves the
    interval open, SearchBudgetExceeded names it.
    """
    return _distance(inst, lambda: code_core.dual_code(inst))


def dual_distance(spec: code_core.CodeSpec) -> int:
    """True minimum distance of the dual code, routed as true_distance.

    The dual is (nega)cyclic too; past the word budget the search runs on
    the primal generator matrix, which is a parity-check matrix of the
    dual.
    """
    inst = code_core.realize(spec)
    return _distance(code_core.dual_code(inst), lambda: inst)


def _distance(code: code_core.CodeInstance, dual) -> int:
    """The distance of code; dual() gives its dual, built only if needed."""
    got = oracle.min_distance(code_core.generator_matrix(code), code.field,
                              cap=oracle.MIN_DISTANCE_CAP,
                              shift_invariant=True)
    if got.low < got.distance:
        got = oracle.min_distance_via_checks(
            code_core.generator_matrix(dual()), code.field, got,
            shift_invariant=True)
    if got.low < got.distance:
        raise SearchBudgetExceeded(
            f"the word walk and the check-matrix search (MAX_CHECK_NODES = "
            f"{oracle.MAX_CHECK_NODES}) leave the distance in "
            f"[{got.low}, {got.distance}]")
    return got.distance


def _verify_bounds(example_id: str) -> ExampleReport:
    q, m, family, rows = _BOUND_FIXTURES[example_id]
    claims: list[Claim] = []
    for delta, want_bound, want_dist in rows:
        report = closed_forms.dual_bound(q, m, family, delta)
        oracle.check_bound_report(report)
        claims.append(Claim(f"bound(delta={delta})", str(want_bound),
                            str(report.lower_bound),
                            report.lower_bound == want_bound))
        claims.append(Claim(f"gaps-agree(delta={delta})", "True",
                            str(report.agrees), report.agrees))
        spec = code_core.CodeSpec(q, m, family, delta)
        dist = dual_distance(spec)
        claims.append(Claim(f"dual-distance(delta={delta})", str(want_dist),
                            str(dist), dist == want_dist))
        claims.append(Claim(f"bound-holds(delta={delta})",
                            f"bound <= {dist}", str(report.lower_bound),
                            report.lower_bound <= dist))
    return ExampleReport(example_id, claims)


def _spot_deltas(domain_hi: int, ranges: list[tuple[int, int]]) -> list[int]:
    picks = set(range(2, domain_hi + 1, max(1, (domain_hi - 1) // 20)))
    for lo, hi in ranges:
        picks.update({lo - 1, lo, hi, hi + 1})
    return sorted(d for d in picks if 2 <= d <= domain_hi)


def _verify_dually(example_id: str) -> ExampleReport:
    q, m, family, domain_hi, ranges, spot = _DUALLY_FIXTURES[example_id]
    claims: list[Claim] = []
    want = _ranges_str(_expand_ranges(ranges))
    got = [d for d in range(2, domain_hi + 1)
           if closed_forms.dually_bch(q, m, family, d)]
    got_str = _ranges_str(got)
    claims.append(Claim("formula-range", want, got_str, got_str == want))
    check = (_spot_deltas(domain_hi, ranges) if spot
             else list(range(2, domain_hi + 1)))
    verdicts = oracle.dually_sweep(oracle.gap_profile(q, m, family), check)
    claimed = set(_expand_ranges(ranges))
    bad = [d for d, v in zip(check, verdicts) if v != (d in claimed)]
    claims.append(Claim(
        "oracle-agreement",
        f"{len(check)}/{len(check)} deltas agree",
        (f"{len(check) - len(bad)}/{len(check)} deltas agree"
         + (f"; mismatches at {bad[:5]}" if bad else "")),
        not bad))
    return ExampleReport(example_id, claims)


def verify_example(example_id: str) -> ExampleReport:
    """Recompute all pinned claims for one example."""
    try:
        if example_id in _BOUND_FIXTURES:
            return _verify_bounds(example_id)
        if example_id in _DUALLY_FIXTURES:
            return _verify_dually(example_id)
    except BCHLabError as exc:
        return ExampleReport(example_id, [
            Claim("computable", "no error", f"{type(exc).__name__}: {exc}",
                  False)])
    raise UnknownExample(
        f"unknown example id {example_id!r}; known ids: "
        + ", ".join(EXAMPLE_IDS))
