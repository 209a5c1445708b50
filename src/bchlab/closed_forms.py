"""Closed-form coset-leader, gap, bound, and dually-BCH formulas.

All functions here are pure integer arithmetic — no field or coset is ever
materialized.  They cover narrow-sense BCH-type codes at two lengths:

* cyclic, n = q^m + 1 (q an odd prime power, m >= 2);
* negacyclic, n = (q^m + 1)/2 (q = 3 mod 4).

Conventions.  delta1/delta2 denote the largest and second largest
q-cyclotomic coset leaders mod q^m + 1; phi1/phi2/phi3 the three largest
odd coset leaders mod q^m + 1.  "Gap" values are the edges of the runs of
consecutive class residues adjacent to the extreme leader inside the dual
defining set T_perp: gap_low is the largest class residue below the anchor
that falls outside T_perp, gap_high (only meaningful when the extreme
coset has two elements, i.e. odd m negacyclic) the smallest one above.

Every piecewise dispatcher asserts that exactly one row matches
(raising NoCaseMatched / MultipleCasesMatched otherwise); the rows of each
table partition the stated delta window.  Residual deltas in the window
[(phi2+3)/2, (phi1+3)/2), where T_perp collapses to the single extreme
coset, are handled by an explicit "phi1-window" row whose values
phi1 -/+ 2 follow from leader maximality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import CYCLIC, NEGACYCLIC, check_qm
from .errors import (
    BadFamilyParams,
    DeltaOutOfRange,
    MultipleCasesMatched,
    NoCaseMatched,
    Phi3Unavailable,
    UnsupportedM,
    UnsupportedQ,
)


@dataclass
class FormulaCase:
    """One matched row of a piecewise table."""

    table: str
    row: str
    params: dict[str, int]
    value: int


@dataclass
class GapPair:
    """Formula gap(s) for one (q, m, family, delta)."""

    low: FormulaCase
    high: FormulaCase | None = None


@dataclass
class BoundReport:
    """Dual-distance lower bound with its supporting formula cases.

    oracle_* fields stay None until an oracle cross-check fills them in
    (see oracle.check_bound_report).  The oracle is authoritative: when it
    disagrees, `agrees` goes False and `warning` explains.
    """

    q: int
    m: int
    family: str
    delta: int
    n: int
    lower_bound: int
    cases: list[FormulaCase] = field(default_factory=list)
    gap_low: int | None = None
    gap_high: int | None = None
    oracle_gap_low: int | None = None
    oracle_gap_high: int | None = None
    agrees: bool | None = None
    warning: str | None = None


def _div(a: int, b: int) -> int:
    assert a % b == 0, f"non-integer formula value {a}/{b}"
    return a // b


# ---------------------------------------------------------------------------
# leader formulas


def delta_leaders_formula(q: int, m: int, count: int = 2) -> tuple[int, ...]:
    """The `count` largest coset leaders mod q^m + 1 (count in 1..2).

    delta1 = (q^m+1)/2 for every m; delta2 depends on m mod 4 and has no
    closed form when m = 0 (mod 4) (UnsupportedM).
    """
    check_qm(q, m)
    if count not in (1, 2):
        raise ValueError(f"count must be 1 or 2, got {count}")
    n = q**m + 1
    delta1 = _div(n, 2)
    if count == 1:
        return (delta1,)
    if m % 2 == 1:
        delta2 = _div((q - 1) * n, 2 * (q + 1))
    elif m % 4 == 2:
        delta2 = _div((q - 1) ** 2 * n, 2 * (q**2 + 1))
    else:
        raise UnsupportedM(f"no second-leader closed form for m = {m} "
                           f"(m = 0 mod 4)")
    return delta1, delta2


def phi_leaders_formula(q: int, m: int, count: int = 3) -> tuple[int, ...]:
    """The `count` largest odd coset leaders mod q^m + 1 (count in 1..3).

    Requires q = 3 (mod 4) (UnsupportedQ).  The third leader formula only
    exists for q^m >= 25 (Phi3Unavailable).
    """
    check_qm(q, m)
    if q % 4 != 3:
        raise UnsupportedQ(f"odd-leader formulas need q = 3 (mod 4), got {q}")
    if count not in (1, 2, 3):
        raise ValueError(f"count must be 1, 2 or 3, got {count}")
    N = q**m + 1
    if m % 2 == 0:
        phi1 = _div(N, 2)
        phi2 = _div(N - 2, 2) - q ** (m - 1)
        phi3 = phi2 - q + 1
    else:
        phi1 = _div((q - 1) * N, 2 * (q + 1))
        phi2 = _div((q - 1) * (q**m - 2 * q ** (m - 2) - 1), 2 * (q + 1))
        if m == 3:
            phi3 = phi2 - q - 1
        else:
            phi3 = phi2 - (q - 1) ** 2
    out = (phi1, phi2, phi3)[:count]
    if count == 3 and q**m < 25:
        raise Phi3Unavailable(f"third odd leader needs q^m >= 25, "
                              f"got q^m = {q**m}")
    return out


# ---------------------------------------------------------------------------
# piecewise dispatch helper


def _dispatch(table: str, delta: int, rows: list[tuple[str, dict, int]]) \
        -> FormulaCase:
    """rows: (row_id, params, value) entries that matched delta."""
    if not rows:
        raise NoCaseMatched(f"{table}: no row covers delta = {delta}")
    if len(rows) > 1:
        ids = [r[0] for r in rows]
        raise MultipleCasesMatched(f"{table}: delta = {delta} matched {ids}")
    row_id, params, value = rows[0]
    return FormulaCase(table=table, row=row_id, params=params, value=value)


# ---------------------------------------------------------------------------
# cyclic gap formula and bound


def i_delta_cyclic(q: int, m: int, delta: int) -> FormulaCase:
    """Largest residue I < delta1 with (I, delta1] inside T_perp.

    Defined for 2 <= delta <= delta1; the four-row table partitions that
    window for every odd prime power q and m >= 2.
    """
    check_qm(q, m)
    n = q**m + 1
    delta1 = n // 2
    if not 2 <= delta <= delta1:
        raise DeltaOutOfRange(f"delta must be in [2, {delta1}], got {delta}")
    matches: list[tuple[str, dict, int]] = []
    for ell0 in range(1, m):
        base = (q**ell0 - q) // 2 + 2
        for ell1 in range((q - 1) // 2):
            if delta == base + ell1:
                value = (q**m - q ** (m - ell0 + 1)) // 2 \
                    + (ell1 + 1) * q ** (m - ell0)
                matches.append(("isolated", {"ell0": ell0, "ell1": ell1},
                                value))
    for ell0 in range(1, m):
        step = q**ell0
        lo0 = (step + 3) // 2
        for ell1 in range((q - 3) // 2):
            if ell1 * step + lo0 <= delta < (ell1 + 1) * step + lo0:
                value = (q**m - q ** (m - ell0)) // 2 + ell1 + 1
                matches.append(("plateau", {"ell0": ell0, "ell1": ell1},
                                value))
    for ell0 in range(1, m - 1):
        lo = (q ** (ell0 + 1) - 2 * q**ell0 + 3) // 2
        hi = (q ** (ell0 + 1) - q) // 2 + 2
        if lo <= delta < hi:
            value = (q**m - q ** (m - ell0) + q - 1) // 2
            matches.append(("shelf", {"ell0": ell0}, value))
    if (q**m - 2 * q ** (m - 1) + 3) // 2 <= delta <= delta1:
        matches.append(("top", {}, (q**m - 1) // 2))
    return _dispatch("cyclic-gap", delta, matches)


def dual_bound_cyclic(q: int, m: int, delta: int) -> BoundReport:
    """Lower bound n - 2*I(delta) on the minimum distance of the dual."""
    case = i_delta_cyclic(q, m, delta)
    n = q**m + 1
    return BoundReport(q=q, m=m, family=CYCLIC, delta=delta, n=n,
                       lower_bound=n - 2 * case.value, cases=[case],
                       gap_low=case.value)


def dually_bch_even_like(q: int, m: int, delta: int) -> bool:
    """Is the dual of the even-like subcode itself a BCH code?

    Even-like subcode: defining set grown by the zero coset.  True exactly
    on a delta window anchored at delta2; no closed form for m = 0 (mod 4).
    """
    delta1, delta2 = delta_leaders_formula(q, m)  # UnsupportedM for 0 mod 4
    if not 2 <= delta <= delta1:
        raise DeltaOutOfRange(f"delta must be in [2, {delta1}], got {delta}")
    if m == 2:
        return delta == 2 or delta2 <= delta <= delta1
    return delta2 + 1 <= delta <= delta1


# ---------------------------------------------------------------------------
# negacyclic gap formulas


def _window_check(q: int, m: int, delta: int) -> tuple[int, int]:
    """Validate delta against [2, (phi1+3)/2); return (phi1, phi2)."""
    phi1, phi2 = phi_leaders_formula(q, m, count=2)
    hi = (phi1 + 3) // 2
    if not 2 <= delta < hi:
        raise DeltaOutOfRange(f"delta must be in [2, {hi}), got {delta}")
    return phi1, phi2


def _q3_odd_low(q3m: int, m: int, delta: int, phi1: int, phi2: int) \
        -> list[tuple[str, dict, int]]:
    """q = 3, odd m: rows for gap_low on 2 <= delta < (phi2+3)/2."""
    p = 3
    matches = []
    for ell in range(1, (m - 3) // 2 + 1):
        if (p ** (2 * ell) + 7) // 8 <= delta <= (p ** (2 * ell + 1) - 3) // 8:
            matches.append(("band-a", {"ell": ell},
                            (p**m - 5 * p ** (m - 2 * ell)) // 4))
        if delta == (p ** (2 * ell + 1) + 5) // 8:
            matches.append(("band-b", {"ell": ell},
                            (p**m - 7 * p ** (m - 2 * ell - 1)) // 4))
        if (p ** (2 * ell + 1) + 13) // 8 <= delta \
                <= (p ** (2 * ell + 2) - 1) // 8:
            matches.append(("band-c", {"ell": ell},
                            (p**m - p ** (m - 2 * ell) + 4) // 4))
    if (p ** (m - 1) + 7) // 8 <= delta <= (19 * p ** (m - 3) + 5) // 8:
        matches.append(("band-d", {}, (p**m - 15) // 4))
    if (19 * p ** (m - 3) + 13) // 8 <= delta:
        matches.append(("band-e", {}, (p**m - 7) // 4))
    return matches


def _q3_odd_high(m: int, delta: int) -> list[tuple[str, dict, int]]:
    """q = 3, odd m: rows for gap_high on 2 <= delta < (phi1+3)/2."""
    p = 3
    matches = []
    for ell in range(1, (m - 1) // 2 + 1):
        if (p ** (2 * ell - 1) + 13) // 8 <= delta \
                <= (p ** (2 * ell + 1) + 5) // 8:
            matches.append(("band", {"ell": ell},
                            (p**m + p ** (m - 2 * ell + 1)) // 4))
    return matches


def _q3_even(m: int, delta: int) -> list[tuple[str, dict, int]]:
    """q = 3, even m: rows for the single gap on 2 <= delta < (phi2+3)/2."""
    p = 3
    matches = []
    for ell in range(1, (m - 2) // 2 + 1):
        if (p ** (2 * ell - 1) + 5) // 4 <= delta <= (p ** (2 * ell) + 3) // 4:
            matches.append(("band-a", {"ell": ell},
                            (p**m - p ** (m - 2 * ell + 1)) // 2))
        if (p ** (2 * ell) + 7) // 4 <= delta <= (p ** (2 * ell + 1) + 1) // 4:
            matches.append(("band-b", {"ell": ell},
                            (p**m - p ** (m - 2 * ell) + 2) // 2))
    return matches


def _deltas_for(q: int, ell0: int) -> tuple[int, int, int]:
    """The three window constants for big-q odd-m rows at depth ell0."""
    d = _div((q - 1) * (q ** (2 * ell0 - 1) + 1), 2 * (q + 1))
    d_prime = _div((q + 3) * (q ** (2 * ell0 - 1) + 1), 2 * (q + 1))
    d_next = _div((q - 1) * (q ** (2 * ell0 + 1) + 1), 2 * (q + 1))
    return d, d_prime, d_next


def _bigq_odd_low(q: int, m: int, delta: int) -> list[tuple[str, dict, int]]:
    """q > 3 (q = 3 mod 4), odd m: gap_low rows, 2 <= delta < (phi2+3)/2."""
    matches = []
    for ell0 in range(1, (m - 1) // 2 + 1):
        d, dp, dn = _deltas_for(q, ell0)
        hi_pow = q ** (m - 2 * ell0 + 1)
        lo_pow = q ** (m - 2 * ell0)
        step1 = q ** (2 * ell0 - 1)
        step2 = q ** (2 * ell0)
        for ell1 in range((q - 7) // 4):
            if delta == (2 * d - q + 9) // 4 + ell1:
                matches.append(("low-1", {"ell0": ell0, "ell1": ell1},
                                (d - (q - 3) // 2 + 2 * ell1) * hi_pow))
        if (d + 1) // 2 <= delta <= (dp + 1) // 2:
            matches.append(("low-2", {"ell0": ell0}, (d - 2) * hi_pow))
        for ell1 in range((q - 7) // 4):
            if ell1 * step1 + (dp + 3) // 2 <= delta \
                    <= (ell1 + 1) * step1 + (dp + 1) // 2:
                matches.append(("low-3", {"ell0": ell0, "ell1": ell1},
                                (step1 - dp) * hi_pow + 2 * ell1 + 1))
        if ((q - 7) * step1 + 2 * dp + 6) // 4 <= delta \
                <= (q * d - q + 2) // 2:
            matches.append(("low-4", {"ell0": ell0},
                            (step1 - dp) * hi_pow + (q - 5) // 2))
        for ell1 in range((q - 3) // 4):
            if delta == (q * d - q + 4) // 2 + ell1:
                matches.append(("low-5", {"ell0": ell0, "ell1": ell1},
                                (q * d - q + 2 * ell1 + 1) * lo_pow))
        if (2 * q * d - q + 5) // 4 <= delta <= (2 * q * dp - q + 1) // 4:
            matches.append(("low-6", {"ell0": ell0},
                            (q * d - (q + 1) // 2) * lo_pow))
        for ell1 in range((q - 7) // 4):
            if ell1 * step2 + (2 * q * dp - q + 5) // 4 <= delta \
                    <= (ell1 + 1) * step2 + (2 * q * dp - q + 1) // 4:
                matches.append(("low-7", {"ell0": ell0, "ell1": ell1},
                                (step2 - q * dp + (q + 1) // 2) * lo_pow
                                + 2 * ell1 + 1))
        if ((q - 7) * step2 + 2 * q * dp - q + 5) // 4 <= delta \
                <= (2 * dn - q + 5) // 4:
            matches.append(("low-8", {"ell0": ell0},
                            (step2 - q * dp + (q + 1) // 2) * lo_pow
                            + (q - 5) // 2))
    return matches


def _bigq_odd_high(q: int, m: int, delta: int) -> list[tuple[str, dict, int]]:
    """q > 3 (q = 3 mod 4), odd m: gap_high rows, 2 <= delta < (phi2+3)/2."""
    matches = []
    qm = q**m
    for ell1 in range((q - 7) // 4 + 1):
        if delta == ell1 + 2:
            matches.append(("high-1", {"ell1": ell1},
                            (q - 2 * ell1 - 1) * q ** (m - 1) + 1))
        if ell1 * q + (q + 5) // 4 <= delta <= (ell1 + 1) * q + (q + 1) // 4:
            matches.append(("high-2", {"ell1": ell1},
                            (qm - q ** (m - 1)) // 2 - 2 * ell1))
    if delta == (q * q - 2 * q + 5) // 4:
        matches.append(("high-3", {}, (qm - q ** (m - 1) - q + 3) // 2))
    for ell0 in range(1, (m - 3) // 2 + 1):
        d, dp, dn = _deltas_for(q, ell0)
        lo_pow = q ** (m - 2 * ell0)
        step2 = q ** (2 * ell0)
        step3 = q ** (2 * ell0 + 1)
        for ell1 in range((q - 7) // 4 + 1):
            if ell1 * step2 + (2 * q * d - q + 9) // 4 <= delta \
                    <= (ell1 + 1) * step2 + (2 * q * d - q + 5) // 4:
                matches.append(("high-4", {"ell0": ell0, "ell1": ell1},
                                (q * d - (q - 3) // 2) * lo_pow - 2 * ell1))
        if ((q - 3) * step2 + 2 * q * d - q + 9) // 4 <= delta \
                <= (dn + 1) // 2:
            matches.append(("high-5", {"ell0": ell0},
                            (q * d - (q - 3) // 2) * lo_pow - (q - 3) // 2))
        for ell1 in range((q - 7) // 4 + 1):
            if ell1 * step3 + (dn + 3) // 2 <= delta \
                    <= (ell1 + 1) * step3 + (dn + 1) // 2:
                matches.append(("high-6", {"ell0": ell0, "ell1": ell1},
                                q ** (m - 2 * ell0 - 1) * dn - 2 * ell1))
        if ((q - 3) * step3 + 2 * dn + 6) // 4 <= delta \
                <= (2 * q * dn - q + 5) // 4:
            matches.append(("high-7", {"ell0": ell0},
                            q ** (m - 2 * ell0 - 1) * dn - (q - 3) // 2))
    qm1 = q ** (m - 1)
    four = 4 * (q + 1)
    two = 2 * (q + 1)
    for ell1 in range((q - 7) // 4):
        lo = ell1 * qm1 + _div(qm - qm1 + 7 * q + 9, four)
        hi = (ell1 + 1) * qm1 + _div(qm - qm1 + 3 * q + 5, four)
        if lo <= delta <= hi:
            matches.append(("high-8", {"ell1": ell1},
                            _div(qm * q - qm + q * q + 3 * q, two)
                            - 2 * ell1))
    lo9 = _div(qm * q - 5 * qm - 8 * q ** (m - 1) + 7 * q + 9, four)
    hi9 = _div(qm * q - qm - 4 * q ** (m - 1) - 4 * q ** (m - 2) + 3 * q + 1,
               four)
    if lo9 <= delta <= hi9:
        matches.append(("high-9", {}, _div(qm * q - qm + 9 * q + 7, two)))
    lo10 = _div(qm * q - qm - 4 * q ** (m - 1) - 4 * q ** (m - 2) + 7 * q + 5,
                four)
    if lo10 <= delta:
        matches.append(("high-10", {}, _div(qm * q - qm + 5 * q + 3, two)))
    return matches


def _bigq_even(q: int, m: int, delta: int) -> list[tuple[str, dict, int]]:
    """q > 3 (q = 3 mod 4), even m: single-gap rows, delta < (phi2+3)/2."""
    matches = []
    qm = q**m
    for ell0 in range(1, m // 2 + 1):
        step1 = q ** (2 * ell0 - 1)
        hi_pow = q ** (m - 2 * ell0 + 1)
        for ell1 in range(1, (q - 3) // 4 + 1):
            if delta == (step1 - q + 4) // 4 + ell1:
                matches.append(("even-1", {"ell0": ell0, "ell1": ell1},
                                ((step1 - q - 2) // 2 + 2 * ell1) * hi_pow))
        if (step1 + 5) // 4 <= delta <= (3 * step1 + 3) // 4:
            matches.append(("even-2", {"ell0": ell0}, (qm - hi_pow) // 2))
        for ell1 in range(1, (q - 3) // 4):
            if ((4 * ell1 - 1) * step1 + 7) // 4 <= delta \
                    <= ((4 * ell1 + 3) * step1 + 3) // 4:
                matches.append(("even-3", {"ell0": ell0, "ell1": ell1},
                                (qm - hi_pow) // 2 + 2 * ell1))
        if ((q - 4) * step1 + 7) // 4 <= delta \
                <= (q * step1 - q + 6) // 4:
            matches.append(("even-4", {"ell0": ell0},
                            (qm - hi_pow + q - 3) // 2))
    for ell0 in range(1, m // 2):
        step2 = q ** (2 * ell0)
        lo_pow = q ** (m - 2 * ell0)
        for ell1 in range(1, (q - 3) // 4 + 1):
            if delta == (step2 - q + 6) // 4 + ell1:
                matches.append(("even-5", {"ell0": ell0, "ell1": ell1},
                                ((step2 - q) // 2 + 2 * ell1) * lo_pow))
        for ell1 in range((q - 3) // 4):
            if ((4 * ell1 + 1) * step2 + 7) // 4 <= delta \
                    <= ((4 * ell1 + 5) * step2 + 3) // 4:
                matches.append(("even-6", {"ell0": ell0, "ell1": ell1},
                                (qm - lo_pow + 2) // 2 + 2 * ell1))
        if ((q - 2) * step2 + 7) // 4 <= delta \
                <= (q * step2 - q + 4) // 4:
            matches.append(("even-7", {"ell0": ell0},
                            (qm - lo_pow + q - 1) // 2))
    return matches


def neg_gaps(q: int, m: int, delta: int) -> GapPair:
    """Formula gap(s) around the largest odd leader, negacyclic family.

    For odd m the extreme coset has two elements and both edges matter
    (gap_low, gap_high); for even m it is a singleton and only gap_low is
    defined.  Valid window: 2 <= delta < (phi1+3)/2; beyond (phi2+3)/2 the
    dual defining set is exactly the extreme coset, handled by the
    analytic phi1-window row.
    """
    check_qm(q, m)
    if q % 4 != 3:
        raise UnsupportedQ(f"negacyclic gap formulas need q = 3 (mod 4), "
                           f"got {q}")
    phi1, phi2 = _window_check(q, m, delta)
    in_rows = delta < (phi2 + 3) // 2
    two_sided = m % 2 == 1
    if q == 3 and two_sided:
        if in_rows:
            low = _dispatch("q3-odd-low", delta,
                            _q3_odd_low(q, m, delta, phi1, phi2))
        else:
            low = FormulaCase("q3-odd-low", "phi1-window", {}, phi1 - 2)
        high = _dispatch("q3-odd-high", delta, _q3_odd_high(m, delta))
        return GapPair(low=low, high=high)
    if q == 3:
        if in_rows:
            low = _dispatch("q3-even", delta, _q3_even(m, delta))
        else:
            low = FormulaCase("q3-even", "phi1-window", {}, phi1 - 2)
        return GapPair(low=low)
    if two_sided:
        if in_rows:
            low = _dispatch("bigq-odd-low", delta, _bigq_odd_low(q, m, delta))
            high = _dispatch("bigq-odd-high", delta,
                             _bigq_odd_high(q, m, delta))
        else:
            low = FormulaCase("bigq-odd-low", "phi1-window", {}, phi1 - 2)
            high = FormulaCase("bigq-odd-high", "phi1-window", {}, phi1 + 2)
        return GapPair(low=low, high=high)
    if in_rows:
        low = _dispatch("bigq-even", delta, _bigq_even(q, m, delta))
    else:
        low = FormulaCase("bigq-even", "phi1-window", {}, phi1 - 2)
    return GapPair(low=low)


# ---------------------------------------------------------------------------
# negacyclic bounds


def _q3_odd_bound(m: int, delta: int, phi1: int) -> FormulaCase:
    """Bound table for q = 3, odd m.

    The explicit delta in {2,3} row takes precedence: at m = 3 its range
    coincides with the range of the bound-3 row, and it is the sharper of
    the two (both are valid run bounds).
    """
    p = 3
    if delta in (2, 3):
        return FormulaCase("q3-odd-bound", "first-two", {},
                           (p ** (m - 1) + 1) // 2)
    matches = []
    for ell in range(1, (m - 3) // 2 + 1):
        if delta == (p ** (2 * ell + 1) + 5) // 8:
            matches.append(("spike", {"ell": ell},
                            2 * p ** (m - 2 * ell - 1)))
        if (p ** (2 * ell + 1) + 13) // 8 <= delta \
                <= (p ** (2 * ell + 2) - 1) // 8:
            matches.append(("wide", {"ell": ell},
                            (p ** (m - 2 * ell) - 1) // 2))
    for ell in range(2, (m - 3) // 2 + 1):
        if (p ** (2 * ell) + 7) // 8 <= delta <= (p ** (2 * ell + 1) - 3) // 8:
            matches.append(("power", {"ell": ell}, p ** (m - 2 * ell)))
    if (p ** (m - 1) + 7) // 8 <= delta <= (19 * p ** (m - 3) + 5) // 8:
        matches.append(("three", {}, 3))
    if (19 * p ** (m - 3) + 13) // 8 <= delta:
        matches.append(("two", {}, 2))
    return _dispatch("q3-odd-bound", delta, matches)


def dual_bound_negacyclic(q: int, m: int, delta: int) -> BoundReport:
    """Lower bound on the minimum distance of the dual, negacyclic family.

    q = 3, odd m: dedicated bound table (its wide rows exploit runs away
    from the extreme-leader window, so they can beat the naive
    (gap_high - gap_low)/2).  q > 3, odd m: (gap_high - gap_low)/2.
    Even m: n - gap_low.
    """
    gaps = neg_gaps(q, m, delta)
    n = (q**m + 1) // 2
    phi1, _ = phi_leaders_formula(q, m, count=2)
    cases = [gaps.low] + ([gaps.high] if gaps.high else [])
    if m % 2 == 0:
        bound = n - gaps.low.value
    elif q == 3:
        bcase = _q3_odd_bound(m, delta, phi1)
        cases.append(bcase)
        bound = bcase.value
    else:
        bound = (gaps.high.value - gaps.low.value) // 2
    return BoundReport(q=q, m=m, family=NEGACYCLIC, delta=delta, n=n,
                       lower_bound=bound, cases=cases,
                       gap_low=gaps.low.value,
                       gap_high=gaps.high.value if gaps.high else None)


def dually_bch_negacyclic(q: int, m: int, delta: int) -> bool:
    """Is the dual of the negacyclic code itself a BCH code of its family?

    True exactly on a window whose left edge depends on (q, m):
    (phi2+3)/2 for odd m and for q > 3 with even m > 2; additionally
    delta = 2 alone for q > 3, m = 2, and delta in {2, 3} for q = 3 with
    odd m; (phi3+3)/2 for q = 3 with even m (UnsupportedM at m = 2 where
    no third odd leader exists).
    """
    check_qm(q, m)
    if q % 4 != 3:
        raise UnsupportedQ(f"negacyclic dually-BCH needs q = 3 (mod 4), "
                           f"got {q}")
    phi1, phi2 = _window_check(q, m, delta)
    hi = (phi1 + 3) // 2
    if m % 2 == 1:
        if q == 3:
            return delta in (2, 3) or (phi2 + 3) // 2 <= delta < hi
        return (phi2 + 3) // 2 <= delta < hi
    if q == 3:
        if q**m < 25:
            raise UnsupportedM("q = 3, m = 2 has no third odd leader, "
                               "no dually-BCH closed form")
        (_, _, phi3) = phi_leaders_formula(q, m, count=3)
        return (phi3 + 3) // 2 <= delta < hi
    if m == 2:
        return delta == 2 or (phi2 + 3) // 2 <= delta < hi
    return (phi2 + 3) // 2 <= delta < hi


def dual_bound(q: int, m: int, family: str, delta: int) -> BoundReport:
    """dual_bound_cyclic or dual_bound_negacyclic, by family."""
    if family == CYCLIC:
        return dual_bound_cyclic(q, m, delta)
    if family == NEGACYCLIC:
        return dual_bound_negacyclic(q, m, delta)
    raise BadFamilyParams(f"unknown family {family!r}")


def dually_bch(q: int, m: int, family: str, delta: int) -> bool:
    """dually_bch_even_like (the cyclic closed form is for the even-like
    subcode) or dually_bch_negacyclic, by family."""
    if family == CYCLIC:
        return dually_bch_even_like(q, m, delta)
    if family == NEGACYCLIC:
        return dually_bch_negacyclic(q, m, delta)
    raise BadFamilyParams(f"unknown family {family!r}")
