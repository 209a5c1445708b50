"""Brute-force oracles: every closed form has an independent check here.

Nothing in this module evaluates a piecewise formula.  The oracles work
directly from coset sweeps (gap profile, dually-BCH sweep) or from
codeword enumeration (minimum distance), so agreement with closed_forms
is meaningful evidence.  The tests compare the gap profile and the
dually sweep with naive per-set references in tests/reference.py.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from . import code_core, cyclotomic
from .cyclotomic import CYCLIC
from .errors import EmptySet, TooManyCodewords
from .finite_field import get_field

MIN_DISTANCE_CAP = 20_000_000

_LEADER_CACHE: dict[tuple[int, int, bool], dict[int, int]] = {}


def _leaders(q: int, modulus: int, odd_only: bool) -> dict[int, int]:
    key = (q, modulus, odd_only)
    if key not in _LEADER_CACHE:
        _LEADER_CACHE[key] = cyclotomic.leader_map(q, modulus, odd_only)
    return _LEADER_CACHE[key]


# ---------------------------------------------------------------------------
# gap profile


class GapProfile:
    """All gap values for one (q, m, family), from a single leader sweep.

    A class residue x joins the defining set T(delta) exactly when delta
    exceeds a per-residue threshold computed from x's coset leader
    (leader <= delta - 1 for the cyclic class; leader <= 2*delta - 3 for
    the odd class).  gap_low(delta) is therefore the largest x below the
    anchor whose threshold is met and gap_high(delta) the smallest one
    above, so one bucketed prefix-extremum pass answers every delta.
    """

    def __init__(self, q: int, m: int, family: str):
        n, r, rn = cyclotomic.family_parameters(q, m, family)
        lm = _leaders(q, rn, r == 2)
        anchor = max(lm.values())
        self.q, self.m, self.family = q, m, family
        self.n, self.r, self.rn = n, r, rn
        self.anchor = anchor
        if family == CYCLIC:
            self.max_delta = anchor  # delta ranges over [2, delta1]
        else:
            self.max_delta = (anchor + 3) // 2 - 1
        size = self.max_delta + 2
        low = [-1] * size
        high = [rn + 1] * size
        start = 1 if r == 2 else 0
        for x in range(start, rn, r):
            lead = lm[x]
            if lead == 0 or lead == anchor:
                continue
            d = lead + 1 if family == CYCLIC else (lead + 3) // 2
            if d >= size:
                continue
            if x < anchor and x > low[d]:
                low[d] = x
            if x > anchor and x < high[d]:
                high[d] = x
        for d in range(1, size):
            low[d] = max(low[d], low[d - 1])
            high[d] = min(high[d], high[d - 1])
        self._low, self._high = low, high

    def low(self, delta: int) -> int | None:
        v = self._low[min(delta, self.max_delta + 1)]
        return None if v < 0 else v

    def high(self, delta: int) -> int | None:
        v = self._high[min(delta, self.max_delta + 1)]
        return None if v > self.rn else v


def gap_profile(q: int, m: int, family: str) -> GapProfile:
    return GapProfile(q, m, family)


# ---------------------------------------------------------------------------
# dually-BCH sweep


def dually_sweep(q: int, m: int, family: str, deltas: list[int],
                 even_like: bool = False) -> list[bool]:
    """Oracle dually-BCH verdicts for many deltas, sharing one leader map.

    The defining set grows one coset per delta step, and each verdict is
    a single coverage pass over the runs of its complement.  even_like
    additionally seeds the coset of 0 (the even-like cyclic subcode).
    """
    n, r, rn = cyclotomic.family_parameters(q, m, family)
    lm = _leaders(q, rn, r == 2)
    start = 1 if r == 2 else 0
    k_total = len({lm[x] for x in range(start, rn, r)})
    in_t = [False] * n  # position p <-> residue start + r*p
    t_leaders: set[int] = set()

    def add_coset(exponent: int) -> None:
        lead = lm[exponent % rn]
        if lead in t_leaders:
            return
        t_leaders.add(lead)
        x = lead
        while True:
            in_t[(x - start) // r] = True
            x = x * q % rn
            if x == lead:
                break

    if even_like:
        add_coset(0)
    grown = 0  # narrow-sense cosets C_{1+r*i} with i < grown are in
    out: dict[int, bool] = {}
    for delta in sorted(set(deltas)):
        while grown < delta - 1:
            add_coset(1 + r * grown)
            grown += 1
        out[delta] = _coverage_verdict(in_t, lm, k_total - len(t_leaders),
                                       start, r, n)
    return [out[d] for d in deltas]


def _coverage_verdict(in_t: list[bool], lm: dict[int, int], k: int,
                      start: int, r: int, n: int) -> bool:
    if k == 0:
        raise EmptySet("dual defining set is empty at this delta")
    if True not in in_t:
        return True  # dual is the whole class: one run covers everything
    off = in_t.index(True)
    cur: set[int] = set()
    for i in range(n):
        p = (off + i) % n
        if in_t[p]:
            if len(cur) == k:
                return True
            if cur:
                cur = set()
        else:
            cur.add(lm[start + r * p])
    return len(cur) == k


# ---------------------------------------------------------------------------
# minimum distance by Gray-walk enumeration


@dataclass
class DistanceResult:
    distance: int
    word: tuple[int, ...]
    enumerated: int


def _gray_word(idx: int, q: int, k: int) -> list[int]:
    """Message k-tuple at position idx of the reflected base-q Gray walk."""
    digits = []
    x = idx
    for _ in range(k + 1):
        digits.append(x % q)
        x //= q
    return [(digits[j] - digits[j + 1]) % q for j in range(k)]


def _distance_block(p: int, kf: int, rows: list[list[int]], start: int,
                    stop: int) -> tuple[int, int, list[int]]:
    """Best (weight, index, word) over Gray positions [start, stop).

    Consecutive Gray messages differ in one digit by +1, so each step is
    a single row addition to the running codeword.  The changed digit at
    step i is the number of trailing q-1 digits of i - 1.
    """
    q = p ** kf
    k = len(rows)
    n = len(rows[0])
    word = _gray_word(start, q, k)
    if kf == 1:
        # prime field: int codes add like integers mod p, so a digit
        # increment is one row addition
        mat = np.array(rows, dtype=np.int64)
        cw = np.zeros(n, dtype=np.int64)
        for j, gj in enumerate(word):
            if gj:
                cw = (cw + gj * mat[j]) % p
    else:
        # extension field: digit c means the field multiple mul(c, row),
        # so a digit step c -> c+1 adds the precomputed difference vector
        ctx = get_field(p, kf)
        add = np.zeros((q, q), dtype=np.int16)
        for a in range(q):
            for b in range(q):
                add[a, b] = ctx.add(a, b)
        scaled = np.zeros((k, q, n), dtype=np.int16)
        diff = np.zeros((k, q, n), dtype=np.int16)
        for r in range(k):
            for c in range(q):
                scaled[r, c] = [ctx.mul(c, x) for x in rows[r]]
        for r in range(k):
            for c in range(q):
                diff[r, c] = [ctx.sub(int(a), int(b)) for a, b in
                              zip(scaled[r, (c + 1) % q], scaled[r, c])]
        cw = np.zeros(n, dtype=np.int16)
        for j, gj in enumerate(word):
            if gj:
                cw = add[cw, scaled[j, gj]]
    best_w = int(np.count_nonzero(cw))
    best_i = start
    best_word = cw.copy()
    for idx in range(start + 1, stop):
        x = idx - 1
        t = 0
        while x % q == q - 1:
            x //= q
            t += 1
        if kf == 1:
            cw += mat[t]
            cw %= p
        else:
            old = word[t]
            word[t] = (old + 1) % q
            cw = add[cw, diff[t, old]]
        w = int(np.count_nonzero(cw))
        if w < best_w:
            best_w = w
            best_i = idx
            best_word = cw.copy()
    return best_w, best_i, [int(c) for c in best_word]


def min_distance(gen: np.ndarray, field, cap: int = MIN_DISTANCE_CAP,
                 workers: int = 1) -> DistanceResult:
    """Exact minimum distance by enumerating all q^k - 1 nonzero words.

    The Gray walk makes each codeword one vector addition from its
    predecessor.  Blocks of the walk are independent (a block's first
    word is reconstructed from its index), so workers > 1 splits the
    range across processes; the merged result is deterministic, keyed by
    (weight, first achieving index).
    """
    k, _ = gen.shape
    if k == 0:
        raise EmptySet("zero code has no nonzero codewords")
    q = field.order
    total = q ** k - 1
    if total > cap:
        raise TooManyCodewords(
            f"{total} codewords exceeds cap {cap}; "
            "enumerate the dual side instead")
    rows = [[int(c) for c in row] for row in gen]
    blocks: list[tuple[int, int]] = []
    if workers <= 1 or total < 4096:
        blocks.append((1, total + 1))
    else:
        per = -(-total // workers)
        lo = 1
        while lo <= total:
            hi = min(lo + per, total + 1)
            blocks.append((lo, hi))
            lo = hi
    if len(blocks) == 1:
        results = [_distance_block(field.p, field.k, rows, *blocks[0])]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(blocks)) as pool:
            futures = [pool.submit(_distance_block, field.p, field.k, rows,
                                   lo, hi) for lo, hi in blocks]
            results = [f.result() for f in futures]
    best_w, best_i, best_word = min(results, key=lambda t: (t[0], t[1]))
    assert best_w > 0, "independent generator rows cannot hit zero"
    return DistanceResult(best_w, tuple(best_word), total)


# ---------------------------------------------------------------------------
# minimum distance through a parity-check matrix


def min_distance_via_checks(checks: np.ndarray, field,
                            max_weight: int | None = None) -> DistanceResult:
    """Exact minimum distance of the null space of `checks`.

    Iterative deepening on the support size w: depth-first search over
    index-increasing column subsets, keeping the chosen columns linearly
    independent via incremental elimination.  The first dependent subset
    found is a minimum-weight support; the returned word is solved from
    it and re-verified against the checks.
    """
    rows, n = checks.shape
    p, kf = field.p, field.k
    cols = [[int(checks[i][j]) for i in range(rows)] for j in range(n)]
    limit = max_weight if max_weight is not None else n
    nodes = 0
    for w in range(1, limit + 1):
        pivots: list[tuple[int, list[int]]] = []
        support: list[int] = []

        def dfs(lo: int) -> list[int] | None:
            nonlocal nodes
            depth = len(support)
            for idx in range(lo, n - (w - depth) + 1):
                nodes += 1
                col = _reduce_col(cols[idx], pivots, field)
                lead = next((i for i, c in enumerate(col) if c), None)
                if lead is None:
                    support.append(idx)
                    return list(support)
                if depth + 1 < w:
                    inv = field.inv(col[lead])
                    norm = [field.mul(inv, c) for c in col]
                    pivots.append((lead, norm))
                    support.append(idx)
                    found = dfs(idx + 1)
                    if found is not None:
                        return found
                    support.pop()
                    pivots.pop()
            return None

        found = dfs(0)
        if found is not None:
            word = _dependency_word(found, cols, field, n)
            prod = [0] * rows
            for j in found:
                for i in range(rows):
                    prod[i] = field.add(prod[i],
                                        field.mul(cols[j][i], word[j]))
            assert not any(prod), "reconstructed word fails the checks"
            return DistanceResult(w, tuple(word), nodes)
    raise EmptySet(f"no dependent column subset of size <= {limit}")


def _reduce_col(col: list[int], pivots: list[tuple[int, list[int]]],
                field) -> list[int]:
    out = list(col)
    if field.k == 1:
        p = field.p
        for lead, piv in pivots:
            f = out[lead]
            if f:
                out = [(a - f * b) % p for a, b in zip(out, piv)]
    else:
        for lead, piv in pivots:
            f = out[lead]
            if f:
                out = [field.sub(a, field.mul(f, b))
                       for a, b in zip(out, piv)]
    return out


def _dependency_word(support: list[int], cols: list[list[int]], field,
                     n: int) -> list[int]:
    """Solve for coefficients putting the support columns in dependence."""
    w = len(support)
    rows = len(cols[0])
    mat = [[cols[j][i] for j in support] for i in range(rows)]
    # eliminate to row echelon, tracking pivot columns
    pivots: list[int] = []
    rank = 0
    for j in range(w):
        sel = next((i for i in range(rank, rows) if mat[i][j]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = field.inv(mat[rank][j])
        mat[rank] = [field.mul(inv, c) for c in mat[rank]]
        for i in range(rows):
            if i != rank and mat[i][j]:
                f = mat[i][j]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[rank])]
        pivots.append(j)
        rank += 1
    free = next(j for j in range(w) if j not in pivots)
    coeff = [0] * w
    coeff[free] = 1
    for i, j in enumerate(pivots):
        coeff[j] = field.neg(mat[i][free])
    word = [0] * n
    for j, c in zip(support, coeff):
        word[j] = c
    return word


# ---------------------------------------------------------------------------
# closing the loop on bound reports


def check_bound_report(report) -> None:
    """Fill a BoundReport's oracle fields from the gap profile.

    The high edge is checked only in the two-sided case (negacyclic, odd
    m).  On disagreement the report keeps the formula values in its cases
    but the lower_bound is replaced by the run bound computed directly on
    T_perp, which is authoritative.
    """
    spec_set = cyclotomic.defining_set(report.q, report.m, report.family,
                                       report.delta)
    tperp = cyclotomic.dual_defining_set(spec_set)
    profile = gap_profile(report.q, report.m, report.family)
    low = profile.low(report.delta)
    high = None
    if report.family != CYCLIC and report.m % 2 == 1:
        high = profile.high(report.delta)
    report.oracle_gap_low = low
    report.oracle_gap_high = high
    run_bound = code_core.bch_bound(tperp)
    agrees = (low == report.gap_low and high == report.gap_high
              and report.lower_bound <= run_bound)
    report.agrees = agrees
    if not agrees:
        report.warning = (
            f"formula gaps ({report.gap_low}, {report.gap_high}) or bound "
            f"{report.lower_bound} disagree with oracle gaps ({low}, {high})"
            f" / run bound {run_bound}; lower_bound replaced by run bound")
        report.lower_bound = run_bound
