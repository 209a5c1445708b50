"""Shared, memoized helpers for the formula-vs-oracle grid and acceptance tests.

Heavy artifacts (gap profiles, verification reports, distance computations)
are cached at module level so the grid tests and the acceptance suite can
consume the same results without recomputing them.  `checkout_env` is the
environment for CLI subprocesses.
"""

import functools
import os

from bchlab import closed_forms, code_core, cyclotomic, examples, oracle
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import BCHLabError, Phi3Unavailable, UnsupportedM

GRID_QS = (3, 5, 7, 9, 11)
GRID_MS = (2, 3, 4, 5)

# above this rn * #deltas budget the dually grid samples deltas instead of
# sweeping all of them
DUALLY_EXHAUSTIVE_BUDGET = 10_000_000

# narrow-sense instances realized by the bound examples; the structural
# invariant suite runs over exactly these
STRUCTURAL_INSTANCES = (
    (3, 2, CYCLIC, 2), (3, 2, CYCLIC, 3),
    (5, 2, CYCLIC, 2), (5, 2, CYCLIC, 8),
    (3, 3, CYCLIC, 2), (9, 2, CYCLIC, 2), (11, 2, CYCLIC, 2),
    (3, 3, NEGACYCLIC, 2), (3, 3, NEGACYCLIC, 4),
    (3, 4, NEGACYCLIC, 2), (3, 4, NEGACYCLIC, 7),
    (7, 2, NEGACYCLIC, 2), (7, 2, NEGACYCLIC, 6),
    (7, 3, NEGACYCLIC, 2), (11, 2, NEGACYCLIC, 2),
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def checkout_env() -> dict[str, str]:
    """The caller's environment with this checkout's src first on PYTHONPATH.

    A `python -m bchlab.cli` subprocess then runs the code under test,
    not whatever bchlab the caller's environment would import.
    """
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


@functools.lru_cache(maxsize=None)
def profile(q: int, m: int, family: str) -> oracle.GapProfile:
    return oracle.gap_profile(q, m, family)


@functools.lru_cache(maxsize=None)
def verify_cached(example_id: str) -> examples.ExampleReport:
    return examples.verify_example(example_id)


@functools.lru_cache(maxsize=None)
def realized(q: int, m: int, family: str, delta: int) -> code_core.CodeInstance:
    return code_core.realize(code_core.CodeSpec(q, m, family, delta))


@functools.lru_cache(maxsize=None)
def true_distance(q: int, m: int, family: str, delta: int) -> int:
    return examples.true_distance(realized(q, m, family, delta))


def grid_points():
    for q in GRID_QS:
        for m in GRID_MS:
            yield q, m


@functools.lru_cache(maxsize=None)
def leader_discrepancies() -> tuple[str, ...]:
    """delta/phi closed forms vs the brute-force leader sweep on the grid."""
    bad: list[str] = []

    def check(tag, got, want):
        if got != want:
            bad.append(f"{tag}: formula {got} != sweep {want}")

    for q, m in grid_points():
        rn = q**m + 1
        leaders = cyclotomic.coset_leaders(q, rn)
        sweep1 = cyclotomic.kth_largest_leader(leaders, 1)
        check(f"delta1({q},{m})",
              closed_forms.delta_leaders_formula(q, m, count=1)[0], sweep1)
        if m % 4 == 0:
            try:
                closed_forms.delta_leaders_formula(q, m)
                bad.append(f"delta2({q},{m}): expected UnsupportedM")
            except UnsupportedM:
                pass
        else:
            sweep2 = cyclotomic.kth_largest_leader(leaders, 2)
            check(f"delta12({q},{m})",
                  closed_forms.delta_leaders_formula(q, m), (sweep1, sweep2))
        if q % 4 != 3:
            continue
        odd_leaders = cyclotomic.coset_leaders(q, rn, odd_only=True)
        odd = tuple(cyclotomic.kth_largest_leader(odd_leaders, k)
                    for k in (1, 2))
        check(f"phi12({q},{m})",
              closed_forms.phi_leaders_formula(q, m, count=2), odd)
        if q**m >= 25:
            odd3 = odd + (cyclotomic.kth_largest_leader(odd_leaders, 3),)
            check(f"phi123({q},{m})",
                  closed_forms.phi_leaders_formula(q, m), odd3)
        else:
            try:
                closed_forms.phi_leaders_formula(q, m)
                bad.append(f"phi3({q},{m}): expected Phi3Unavailable")
            except Phi3Unavailable:
                pass
    return tuple(bad)


@functools.lru_cache(maxsize=None)
def cyclic_gap_discrepancies() -> tuple[str, ...]:
    """i_delta_cyclic vs the oracle gap profile, every delta on the grid."""
    bad: list[str] = []
    for q, m in grid_points():
        prof = profile(q, m, CYCLIC)
        for d in range(2, prof.max_delta + 1):
            try:
                got = closed_forms.i_delta_cyclic(q, m, d).value
            except BCHLabError as e:
                bad.append(f"I({q},{m},{d}): raised {type(e).__name__}")
                continue
            want = prof.low(d)
            if got != want:
                bad.append(f"I({q},{m},{d}): formula {got} != oracle {want}")
    return tuple(bad)


@functools.lru_cache(maxsize=None)
def neg_gap_discrepancies() -> tuple[str, ...]:
    """neg_gaps vs the oracle gap profile, every delta, q = 3 mod 4 only."""
    bad: list[str] = []
    for q, m in grid_points():
        if q % 4 != 3:
            continue
        prof = profile(q, m, NEGACYCLIC)
        for d in range(2, prof.max_delta + 1):
            try:
                pair = closed_forms.neg_gaps(q, m, d)
            except BCHLabError as e:
                bad.append(f"neg({q},{m},{d}): raised {type(e).__name__}")
                continue
            got = (pair.low.value, pair.high.value if pair.high else None)
            want = (prof.low(d), prof.high(d) if m % 2 else None)
            if got != want:
                bad.append(f"neg({q},{m},{d}): formula {got} != oracle {want}")
    return tuple(bad)


def _sampled_deltas(md: int, flips: list[int]) -> list[int]:
    picks = {2, 3, md}
    for d in flips:
        picks.update((d - 1, d, d + 1))
    step = max(1, (md - 1) // 20)
    picks.update(range(2, md + 1, step))
    return sorted(p for p in picks if 2 <= p <= md)


@functools.lru_cache(maxsize=None)
def dually_discrepancies() -> tuple[str, ...]:
    """Closed-form dually-BCH predicates vs the coset-coverage oracle.

    Exhaustive over every delta while rn * #deltas stays within budget,
    otherwise sampled at the formula's flip points plus a spread.
    """
    bad: list[str] = []
    for q, m in grid_points():
        for family in (CYCLIC, NEGACYCLIC):
            if family == NEGACYCLIC and q % 4 != 3:
                continue
            if family == CYCLIC:
                fn = lambda d: closed_forms.dually_bch_even_like(q, m, d)
                unsupported = m % 4 == 0
            else:
                fn = lambda d: closed_forms.dually_bch_negacyclic(q, m, d)
                unsupported = q**m < 25
            if unsupported:
                try:
                    fn(2)
                    bad.append(f"dually({q},{m},{family}): "
                               "expected UnsupportedM")
                except UnsupportedM:
                    pass
                continue
            prof = profile(q, m, family)
            md = prof.max_delta
            want = {d: fn(d) for d in range(2, md + 1)}
            if prof.rn * (md - 1) <= DUALLY_EXHAUSTIVE_BUDGET:
                deltas = list(range(2, md + 1))
            else:
                flips = [d for d in range(3, md + 1)
                         if want[d] != want[d - 1]]
                deltas = _sampled_deltas(md, flips)
            got = oracle.dually_sweep(prof, deltas,
                                      even_like=family == CYCLIC)
            for d, v in zip(deltas, got):
                if v != want[d]:
                    bad.append(f"dually({q},{m},{family},{d}): "
                               f"formula {want[d]} != oracle {v}")
    return tuple(bad)
