"""Brute-force oracles: every closed form has an independent check here.

Nothing in this module evaluates a piecewise formula.  The oracles work
directly from coset sweeps (gap profile, dually-BCH sweep) or from
codeword enumeration (minimum distance), so agreement with closed_forms
is meaningful evidence.  The tests compare the gap profile, the dually
sweep, the information-set walk and the check-matrix search with naive
references in tests/reference.py, among them the Gray walk of every
codeword.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import code_core, cyclotomic, poly_linalg
from .cyclotomic import CYCLIC
from .errors import (
    BadDelta,
    BadFamilyParams,
    EmptySet,
    SearchBudgetExceeded,
    TooManyCodewords,
)

MIN_DISTANCE_CAP = 1_000_000  # words walked by min_distance
MAX_CHECK_NODES = 50_000_000  # columns tried by min_distance_via_checks
BLOCK_SYMBOLS = 1 << 16  # digits in one numpy step of the word walk

# ---------------------------------------------------------------------------
# gap profile


class GapProfile:
    """T(delta) and its gap edges for one (q, m, family), from one leader map.

    A class position whose coset leader l is nonzero lies in T(delta) = C_1
    u C_{1+r} u ... u C_{1+r(delta-2)} exactly when l <= 1 + r(delta - 2):
    it enters at delta = 2 + ceil((l - 1) / r), its entry (int32, as n <=
    MAX_CLASS_RESIDUES), and stays.  T = -T, so lead and entry cover the
    residues x <= rn / 2 only (cyclotomic.unfold mirrors them).
    gap_low(delta) is the largest residue of T(delta) below the anchor
    (the largest leader) and gap_high(delta) the smallest above, the
    anchor coset left out: each is a new minimum of entry walking away
    from the anchor, or gap_high is rn - gap_low if the half has none.
    """

    def __init__(self, q: int, m: int, family: str):
        n, r, rn = cyclotomic.family_parameters(q, m, family)
        self.q, self.m, self.family = q, m, family
        self.n, self.r, self.rn = n, r, rn
        self.lead = _leader_map(q, m, rn, r == 2)
        self.anchor = anchor = int(self.lead.max())
        # the division by r as a shift: l is odd when r = 2
        entry = ((self.lead.astype(np.int32) + (r - 2)) >> (r - 1)) + 2
        self.max_delta = int(entry.max()) - 1  # T_perp is empty beyond
        if r == 1:
            entry[0] = n + 1  # {0} is in no narrow-sense T
        self.entry = entry
        at = anchor >> (r - 1)
        self._edges = []  # low, high: (entries, residues) of new minima
        for scan, step in ((entry[:at][::-1], -1), (entry[at + 1:], 1)):
            low = np.minimum.accumulate(scan)
            i = np.flatnonzero(np.diff(low, prepend=low[:1] + 1))[::-1]
            self._edges.append((low[i].tolist(),  # by ascending entry
                                (r * (at + step * (i + 1)) + r - 1).tolist()))

    def defining_mask(self, delta: int) -> np.ndarray:
        """T(delta) over class positions; T_perp(delta) is the rest."""
        if not 2 <= delta <= self.n:
            raise BadDelta(f"delta must be in [2, {self.n}], got {delta}")
        return cyclotomic.unfold(self.entry <= delta, self.rn, self.r == 2)

    def low(self, delta: int) -> int | None:
        return self._edge(0, delta)

    def high(self, delta: int) -> int | None:
        high, low = self._edge(1, delta), self.low(delta)
        return self.rn - low if high is None and low is not None else high

    def _edge(self, side: int, delta: int) -> int | None:
        # beyond max_delta only the anchor coset joins T, and edges skip it
        entries, residues = self._edges[side]
        i = bisect.bisect_right(entries, min(delta, self.max_delta))
        return residues[i - 1] if i else None


def gap_profile(q: int, m: int, family: str) -> GapProfile:
    return GapProfile(q, m, family)


# the last full (cyclic) leader map built, by its (q, m)
_last_full_map: dict[tuple[int, int], np.ndarray] = {}


def _leader_map(q: int, m: int, rn: int, odd_only: bool) -> np.ndarray:
    """The leader map of the class, the odd one read off a kept full map.

    Both families work mod rn = q^m + 1, and the odd residues are closed
    under multiplication by the odd q, so the odd-class map is the full
    map at its odd positions, value for value.  The last full map built
    is kept, read-only, as profiles share it.  An odd class whose full
    map is not kept builds its own, so MAX_CLASS_RESIDUES still admits an
    odd class whose full map would not fit.
    """
    if odd_only:
        full = _last_full_map.get((q, m))
        return cyclotomic.leader_map(q, rn, True) if full is None \
            else full[1::2]
    _last_full_map.clear()  # before the build: one full map at a time
    lead = _last_full_map[q, m] = cyclotomic.leader_map(q, rn)
    lead.flags.writeable = False
    return lead


# ---------------------------------------------------------------------------
# dually-BCH sweep


def dually_sweep(profile: GapProfile, deltas: list[int],
                 even_like: bool = False) -> list[bool]:
    """Oracle dually-BCH verdicts for many deltas of one profile.

    T(delta) is the profile's defining mask; even_like also puts the
    coset {0} (position 0) in T, the even-like cyclic subcode.  The dual
    is BCH exactly when one circular run of positions outside T meets
    all k(delta) cosets outside T.  Beyond max_delta, T_perp is {0}
    (cyclic, not even_like: one coset, so BCH) or empty.  Up to
    max_delta such a run meets the anchor coset (largest leader), at
    one of its <= 2m positions, the seeds.

    A run and its mirror meet the same cosets (T = -T, and -x is in
    C_x), so only runs from the profile's half are scanned: its seeds
    cut it into arcs, each scanned once for every delta (_arc_edges).
    Arc 0 holds C_1, so a run through a seed starts after the last
    member of T in the nearest nonempty arc before it and ends at the
    first member after it, or crosses the middle and ends at the mirror
    of its start.  Each run at least k long has its coset ids counted.
    Raises BadDelta outside 2 <= delta <= n and EmptySet where T_perp
    is empty.
    """
    if even_like and profile.r == 2:
        raise BadFamilyParams("even_like applies to the cyclic family only")
    n, r, lead = profile.n, profile.r, profile.lead
    lone_zero = r == 1 and not even_like  # T_perp is {0} beyond max_delta
    for delta in deltas:
        if not 2 <= delta <= n:
            raise BadDelta(f"delta must be in [2, {n}], got {delta}")
        if delta > profile.max_delta and not lone_zero:
            raise EmptySet("dual defining set is empty at this delta")
    swept = sorted({d for d in deltas if d <= profile.max_delta})
    if not swept:
        return [True] * len(deltas)
    ds = np.array(swept, dtype=np.int32)
    half = len(lead)
    is_leader = lead == np.arange(r - 1, r * half, r)
    entries = np.sort(profile.entry[is_leader])  # one per coset
    k = (len(entries) - even_like
         - np.searchsorted(entries, ds, "right")).tolist()
    # dense coset ids from 1; the leader of residue x sits at position x // r
    ids = np.cumsum(is_leader, dtype=np.int32)[lead >> (r - 1)]
    seeds = np.flatnonzero(lead == profile.anchor)
    assert profile.entry[2 - r] == 2 and 2 - r < seeds[0], "arc 0 holds C_1"
    starts, ends = np.append(0, seeds + 1), np.append(seeds, half)
    first, last = _arc_edges(profile.entry, starts, ends, ds)
    filled = first < ends[:, None]
    # the first member of T after each arc, or half where the run from
    # its last member crosses the middle (it ends at n + 1 - r - last)
    hi = np.minimum.accumulate(np.where(filled, first, half)[:0:-1])[::-1]
    hi = np.append(hi, np.full((1, len(ds)), half), axis=0)
    length = np.where(hi == half, n - r - 2 * last, hi - last - 1)
    verdicts = dict.fromkeys(swept, False)
    for i, j in zip(*np.nonzero(filled & (length >= k))):
        if not verdicts[swept[j]]:
            run = np.bincount(ids[last[i, j] + 1:hi[i, j]])
            verdicts[swept[j]] = int(np.count_nonzero(run)) == k[j]
    return [verdicts.get(d, True) for d in deltas]


def _arc_edges(entry: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and last member of T(delta) in each arc, for every delta.

    Arc i is the positions [starts[i], ends[i]).  Row i of the two
    (arcs, len(ds)) results holds, per delta of the sorted int32 ds, the
    position of the arc's first member (ends[i] when it has none) and of
    its last (starts[i] - 1 when none).  One int32 buffer takes each
    arc's prefix minima of entry, last first, then its suffix minima:
    both ascend, so one search per delta finds the edge.
    """
    buf = np.empty(int((ends - starts).max()), dtype=np.int32)
    first = np.empty((len(starts), len(ds)), dtype=np.int64)
    last = np.empty_like(first)
    for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        seg, scan = entry[a:b], buf[:b - a]
        np.minimum.accumulate(seg, out=scan[::-1])  # prefix minima
        first[i] = b - np.searchsorted(scan, ds, "right")
        np.minimum.accumulate(seg[::-1], out=scan[::-1])  # suffix minima
        last[i] = a - 1 + np.searchsorted(scan, ds, "right")
    return first, last


# ---------------------------------------------------------------------------
# minimum distance by information weight


@dataclass
class DistanceResult:
    distance: int
    word: tuple[int, ...]
    enumerated: int


def _digit_planes(p: int, kf: int, mul: np.ndarray, rows) -> np.ndarray:
    """scaled[j, c]: the kf base-p digit planes of mul(c, rows[j]), end to end.

    On these digits field addition is digit-wise addition mod p.
    """
    prod = mul[:, np.asarray(rows)].transpose(1, 0, 2)  # mul(c, row_j)
    sym = np.min_scalar_type(2 * p - 2)
    return np.concatenate([prod // p ** i % p for i in range(kf)],
                          axis=2).astype(sym)


def _unrank_supports(binom: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Supports of the given colex ranks, as (len(ranks), t) positions.

    binom[i, x] = C(x, i) for i <= t and x < k; the support
    {x_1 < ... < x_t} has rank sum_i C(x_i, i), and x_i is the largest x
    with C(x, i) at most what is left of the rank.
    """
    t = len(binom) - 1
    out = np.empty((len(ranks), t), dtype=np.int64)
    for i in range(t, 0, -1):
        out[:, i - 1] = x = np.searchsorted(binom[i], ranks, "right") - 1
        ranks = ranks - binom[i, x]
    return out


class _LevelWalk:
    """The words of each information weight, digit-major, level by level.

    Word i of level t (its index) has the support of colex rank
    i // (q-1)^(t-1) on the information positions, coefficient 1 at its
    first position and, at the others, the base-(q-1) digits of
    i % (q-1)^(t-1) plus 1: one word per scalar class.  Only its parity
    part is held, as a column of width = kf (n - k) base-p digits (kf
    planes of the n - k parity positions); a run of words is a (width,
    words) array.

    In colex order the level-t words whose largest position is c form
    one block: each of the below[t][c] = C(c, t-1) (q-1)^(t-2) level-
    (t-1) words under c plus each of the q-1 multiples of parity row c.
    A block is laid out multiple-major, (q-1, below[t][c]), so it is
    one broadcast addition of the parity columns of row c to one run of
    the level below; index() maps a position back to the index.  One
    level is kept: level 1 (the parity rows) at first, then the last
    level walk() was asked to store, which drops every lower one.  A run
    of any other level is built from the kept level below it, one
    addition per level, at most BLOCK_SYMBOLS digits per numpy step.
    """

    def __init__(self, p: int, kf: int, scaled: np.ndarray):
        self.p, self.kf = p, kf
        k, q, self.width = scaled.shape
        self.q1 = q - 1
        # mults[c] = the (width, q-1) digit columns of 1..q-1 times row c
        self.mults = np.ascontiguousarray(scaled[:, 1:].transpose(0, 2, 1))
        self.kept = {1: np.ascontiguousarray(scaled[:, 1].T)}
        # block c of level t: positions [starts[t][c], starts[t][c + 1])
        self.starts = {1: list(range(k + 1))}
        self.below: dict[int, list[int]] = {}

    def add_level(self, t: int) -> None:
        """below[t] and starts[t] of a level t >= 2."""
        per = self.q1 ** (t - 2)
        below = [math.comb(c, t - 1) * per for c in range(len(self.mults))]
        self.below[t] = below
        self.starts[t] = [0, *itertools.accumulate(x * self.q1
                                                   for x in below)]

    def words(self, t: int, a: int, b: int) -> np.ndarray:
        """The (width, b - a) digit columns at positions [a, b) of level t."""
        kept = self.kept.get(t)
        if kept is not None:
            return kept[:, a:b]
        starts, below = self.starts[t], self.below[t]
        out = np.empty((self.width, b - a), dtype=self.mults.dtype)
        c = bisect.bisect_right(starts, a) - 1
        at = 0  # columns of out filled
        while at < b - a:
            while starts[c + 1] <= a + at:
                c += 1
            n = below[c]
            m, x = divmod(a + at - starts[c], n)
            mult = self.mults[c]
            if x == 0 and b - a - at >= n:  # whole multiples m, m + 1, ...
                cols = min(self.q1 - m, (b - a - at) // n)
                dst = out[:, at:at + cols * n].reshape(self.width, cols, n)
                np.add(self.words(t - 1, 0, n)[:, None, :],
                       mult[:, m:m + cols, None], out=dst)
                at += cols * n
            else:
                y = min(n, x + b - a - at)
                np.add(self.words(t - 1, x, y), mult[:, m:m + 1],
                       out=out[:, at:at + y - x])
                at += y - x
        return np.minimum(out, out - self.p, out=out)  # digits mod p

    def index(self, t: int, pos: np.ndarray) -> np.ndarray:
        """The colex index of the level-t words at positions pos.

        Position starts[c] + m below[c] + x is the level-(t-1) word at x
        plus m + 1 times row c.  With that word's index split as
        (row, u) by (q-1)^(t-2), one row per support, the index is
        starts[c] + (row (q-1) + m) (q-1)^(t-2) + u.
        """
        if t == 1:
            return pos
        starts = np.array(self.starts[t], dtype=np.int64)
        below = np.array(self.below[t], dtype=np.int64)
        c = np.searchsorted(starts, pos, "right") - 1
        m, x = np.divmod(pos - starts[c], below[c])
        per = self.q1 ** (t - 2)
        row, u = np.divmod(self.index(t - 1, x), per)
        return starts[c] + (row * self.q1 + m) * per + u

    def walk(self, t: int, keep: bool, low: int) -> tuple[int, int, int]:
        """(parity weight, index) of the first lightest word of level t,
        and the words walked.

        A chunk of at most BLOCK_SYMBOLS digits is weighed by one
        add.reduce over the nonzero digits, after OR-ing the kf planes.
        Blocks follow each other in index order, so a chunk can only
        tie the best if that was found in the chunk's first block.  No
        word has a parity weight below low, so the walk ends with the
        block of the first word that meets it: its multiples interleave
        in index order, and that block's end is what is walked.  keep
        stores the level, if walked whole, for the levels above it.
        """
        width, r = self.width, self.width // self.kf
        step = max(1, BLOCK_SYMBOLS // max(1, width))
        starts = self.starts[t]
        size = starts[-1]
        store = np.empty((width, size), dtype=self.mults.dtype) \
            if keep else None
        count = np.min_scalar_type(r)
        best = None
        end = size  # or the end of the block of the first word of weight low
        a = 0
        while a < end:
            b = min(a + step, end)
            planes = self.words(t, a, b)
            if keep:
                store[:, a:b] = planes
            nonzero = planes[:r]
            for i in range(1, self.kf):
                nonzero = nonzero | planes[i * r:(i + 1) * r]
            weights = np.add.reduce(nonzero != 0, axis=0, dtype=count)
            w = int(weights.min())
            first = starts[bisect.bisect_right(starts, a) - 1]
            if best is None or w < best[0] or \
                    w == best[0] and first <= best[1]:
                hits = a + np.flatnonzero(weights == w)
                best = min(best or (w, math.inf),
                           (w, int(self.index(t, hits).min())))
                if w <= low:
                    end = starts[bisect.bisect_right(starts, hits[0])]
            a = b
        if keep and end == size:
            self.kept = {t: store}
        return (*best, end)


def min_distance(gen: np.ndarray, field, cap: int = MIN_DISTANCE_CAP, *,
                 shift_invariant: bool = False) -> DistanceResult:
    """Exact minimum distance of the row space of gen, by information weight.

    gen must have independent rows (ValueError otherwise).  Its reduced
    row-echelon form is the systematic form [I | P] on the pivot columns,
    an information set: a word is its message u there plus u P on the
    other columns, and level t walks every u of weight t whose first
    nonzero digit is 1, C(k, t) (q - 1)^(t - 1) words (see _LevelWalk).

    Stopping rules: once every level below t has been walked, any word
    not yet seen has at least t nonzeros on the information set, so it
    weighs at least low = t.  The walk stops before level t when low
    reaches the best weight found, and inside level t at the first word
    of weight low: no word is lighter, and the earlier levels were all
    heavier.  That level still ends with the block of that word, so the
    result stays the first minimum by (level, index).  `enumerated`
    counts the words walked: whole levels, and the last one up to the
    end of the block where it stopped.  A level that would take the words
    walked past cap raises TooManyCodewords with low and best instead.

    shift_invariant asserts, as in min_distance_via_checks, that the code
    is cyclic or negacyclic in natural coordinate order; the pivots must
    then be [0, k), as they are for the rows x^i g(x) (ValueError
    otherwise).  The n rotations of a word w put wt(w) k nonzeros into
    [0, k), so one of them has at most floor(wt(w) k / n) there; a
    rotation is a word of the same weight (a negacyclic one flips a
    sign), so low = ceil(t n / k).

    A level t > 1 is stored for the levels above it only when level
    t + 1 may still run (within cap, and its low below the best weight
    found before level t) and it fits in 16 BLOCK_SYMBOLS digits; it then
    replaces every lower kept level.
    """
    k, n = gen.shape
    if k == 0:
        raise EmptySet("zero code has no nonzero codewords")
    q, p, kf = field.order, field.p, field.k
    add, mul = field.symbol_tables()[:2]
    pivots, echelon = poly_linalg.row_reduce(gen, field)
    if len(pivots) < k:
        raise ValueError(f"the {k} generator rows have rank {len(pivots)}")
    if shift_invariant and pivots != list(range(k)):
        raise ValueError("shift_invariant needs the information set [0, k), "
                         f"as the rows x^i g(x) have; the pivots are {pivots}")
    others = np.delete(np.arange(n), pivots)  # the parity columns
    parity = echelon[:, others]
    walk = _LevelWalk(p, kf, _digit_planes(p, kf, mul, parity))

    def level(t: int) -> tuple[int, int]:  # (low, words) of level t
        low = -(-t * n // k) if shift_invariant else t
        return low, math.comb(k, t) * (q - 1) ** (t - 1)

    best_w, best_at = None, None  # best_at: (level, index)
    walked = 0
    for t in range(1, k + 1):
        low, size = level(t)
        if best_w is not None and low >= best_w:
            break
        if walked + size > cap:
            raise TooManyCodewords(
                f"information weight {t} would take the words walked "
                f"to {walked + size}, over cap {cap}; the distance lies "
                f"in [{low}, {best_w or n}]", low=low, best=best_w)
        keep = 1 < t < k and size * walk.width <= 16 * BLOCK_SYMBOLS
        if keep:  # only if level t + 1 may still run
            next_low, next_size = level(t + 1)
            keep = walked + size + next_size <= cap and \
                (best_w is None or next_low < best_w)
        if t > 1:
            walk.add_level(t)
        weight, index, words = walk.walk(t, keep, low - t)
        if best_w is None or t + weight < best_w:
            best_w, best_at = t + weight, (t, index)
        walked += words
    t, index = best_at
    binom = np.array([[math.comb(x, i) for x in range(k)]
                      for i in range(t + 1)], dtype=np.int64)
    rank, rest = divmod(index, (q - 1) ** (t - 1))
    word = np.zeros(n, dtype=np.int64)
    coef = 1
    for pos in _unrank_supports(binom, np.array([rank]))[0].tolist():
        word[pivots[pos]] = coef
        word[others] = add[word[others], mul[coef, parity[pos]]]
        rest, digit = divmod(rest, q - 1)
        coef = digit + 1
    assert np.count_nonzero(word) == best_w, "rebuilt word's weight differs"
    assert poly_linalg.rank(np.vstack([gen, word]), field) == k, \
        "rebuilt word is not in the span of the generator rows"
    return DistanceResult(best_w, tuple(word.tolist()), walked)


# ---------------------------------------------------------------------------
# minimum distance through a parity-check matrix


def min_distance_via_checks(checks: np.ndarray, field,
                            max_weight: int | None = None, *,
                            shift_invariant: bool = False) -> DistanceResult:
    """Exact minimum distance of the null space of `checks`.

    Iterative deepening on the support size w: depth-first search over
    index-increasing column subsets, keeping the chosen columns linearly
    independent via incremental elimination.  The first dependent subset
    found is a minimum-weight support; the returned word is solved from
    it and re-verified against the checks.

    Each level holds the later columns already reduced against its
    pivots, so a column is reduced once per level, not once per node.
    The last two levels are settled by hashing: with r(j) column j
    reduced against the support, {support, i, j} is dependent exactly
    when r(j) = 0 or r(j) is a multiple of r(i), so columns scaled to a
    unit leading entry are compared as keys, and each i costs O(1).
    Their leaves are counted, not walked: `enumerated` is the number of
    nodes a one-column-at-a-time search visits.

    shift_invariant asserts that the null space is closed under the
    cyclic coordinate shift, up to one sign per coordinate (a cyclic or
    negacyclic code in natural coordinate order).  A rotation of a word
    is then a word of the same weight, and every support has a rotation
    {0 = s_0 < ... < s_{w-1}} whose wrap gap n - s_{w-1} is at least
    every inner gap s_{j+1} - s_j: rotate the element after a largest
    cyclic gap to 0.  The search visits only these canonical supports.
    The caller must know the symmetry; nothing here checks it.

    The search visits at most MAX_CHECK_NODES columns in total and
    raises SearchBudgetExceeded beyond that.
    """
    rows, n = checks.shape
    cols = [[int(checks[i][j]) for i in range(rows)] for j in range(n)]
    add, mul, neg, inv = (t.tolist() for t in field.symbol_tables())
    limit = max_weight if max_weight is not None else n
    nodes = 0
    for w in range(1, limit + 1):
        support: list[int] = []

        def visit(count: int) -> None:
            nonlocal nodes
            if nodes + count > MAX_CHECK_NODES:
                raise SearchBudgetExceeded(
                    f"check-matrix search visited {MAX_CHECK_NODES + 1} "
                    f"nodes, over MAX_CHECK_NODES = {MAX_CHECK_NODES}, at "
                    f"support size w = {w} (of at most {limit})")
            nodes += count

        def dfs(lo: int, gap: int, red: list[list[int]]) -> list[int] | None:
            # gap: the largest inner gap of the support so far;
            # red[j - lo]: column j reduced against the support's pivots
            depth = len(support)
            rem = w - depth - 1  # columns still to choose after this one
            stop = n - rem
            if shift_invariant:
                if depth == 0:
                    stop = min(stop, 1)
                else:
                    prev = support[-1]
                    # the wrap gap n - s_{w-1} <= n - idx - rem must reach
                    # both the largest gap so far and idx - prev
                    stop = min(stop, n - rem - gap + 1,
                               (n + prev - rem) // 2 + 1)
            if rem == 1:
                return pairs(lo, stop, gap, red)
            for idx in range(lo, stop):
                visit(1)
                col = red[idx - lo]
                f = next(filter(None, col), 0)  # the leading entry
                if not f:
                    support.append(idx)
                    return list(support)
                if rem:
                    lead = col.index(f)
                    scale = mul[inv[f]]
                    piv = [scale[c] for c in col]
                    new_gap = max(gap, idx - support[-1]) if support else 0
                    # every deeper stop is at most n - new_gap + 1
                    end = n - new_gap + 1 if shift_invariant else n
                    child = []
                    for col in red[idx + 1 - lo:end - lo]:
                        if col[lead]:
                            s = mul[neg[col[lead]]]
                            col = [add[a][s[b]] for a, b in zip(col, piv)]
                        child.append(col)
                    support.append(idx)
                    found = dfs(idx + 1, new_gap, child)
                    if found is not None:
                        return found
                    support.pop()
            return None

        def pairs(lo: int, stop: int, gap: int,
                  red: list[list[int]]) -> list[int] | None:
            # the last two columns i < j; keys[p] is red[p] scaled to a
            # unit leading entry (None if zero), next_same[p] the next
            # index with the same key and next_zero[p] the first zero
            # column at index >= lo + p
            if stop <= lo:
                return None
            if shift_invariant:  # no leaf index reaches (n + stop + 1) // 2
                red = red[:(n + stop + 1) // 2 - lo]
            keys: list[tuple[int, ...] | None] = []
            for col in red:
                lead = next(filter(None, col), 0)
                keys.append(tuple(map(mul[inv[lead]].__getitem__, col))
                            if lead else None)
            next_same = [n] * len(red)
            next_zero = [n] * (len(red) + 1)
            seen: dict[tuple[int, ...], int] = {}
            for p in range(len(red) - 1, -1, -1):
                key = keys[p]
                if key is None:
                    next_zero[p] = lo + p
                else:
                    next_zero[p] = next_zero[p + 1]
                    next_same[p] = seen.get(key, n)
                    seen[key] = lo + p
            prev = support[-1] if support else None
            for i in range(lo, stop):
                p = i - lo
                if keys[p] is None:
                    visit(1)
                    support.append(i)
                    return list(support)
                # node i and its leaves i + 1, ..., j (on a hit) or
                # i + 1, ..., leaf_stop - 1, the leaf level's loop range
                leaf_stop = n
                if shift_invariant:
                    g = max(gap, i - prev) if support else 0
                    leaf_stop = min(n - g + 1, (n + i) // 2 + 1)
                j = min(next_same[p], next_zero[p + 1])
                if j < leaf_stop:
                    visit(1 + j - i)
                    return support + [i, j]
                visit(max(leaf_stop - i, 1))
            return None

        found = dfs(0, 0, cols)
        if found is not None:
            word = _dependency_word(found, checks, field)
            prod = [0] * rows
            for j in found:
                scale = mul[word[j]]
                prod = [add[a][scale[c]] for a, c in zip(prod, cols[j])]
            assert not any(prod), "reconstructed word fails the checks"
            return DistanceResult(w, tuple(word), nodes)
    raise EmptySet(f"no dependent column subset of size <= {limit}")


def _dependency_word(support: list[int], checks: np.ndarray,
                     field) -> list[int]:
    """A word on the support in the null space of checks: a null vector of
    the support columns, read off their reduced row-echelon form.

    The first free column gets coefficient 1 and each pivot column the
    negated entry of the free column in its pivot row.
    """
    pivots, rref = poly_linalg.row_reduce(checks[:, support], field)
    neg = field.symbol_tables()[2]
    free = next(j for j in range(len(support)) if j not in pivots)
    word = [0] * checks.shape[1]
    word[support[free]] = 1
    for i, j in enumerate(pivots):
        word[support[j]] = int(neg[rref[i, free]])
    return word


# ---------------------------------------------------------------------------
# closing the loop on bound reports


def check_bound_report(report) -> None:
    """Fill a BoundReport's oracle fields from the gap profile.

    The high edge is checked only in the two-sided case (negacyclic, odd
    m).  On disagreement the report keeps the formula values in its cases
    but the lower_bound is replaced by the run bound of T_perp, which is
    authoritative.
    """
    profile = gap_profile(report.q, report.m, report.family)
    low = profile.low(report.delta)
    high = None
    if report.family != CYCLIC and report.m % 2 == 1:
        high = profile.high(report.delta)
    report.oracle_gap_low = low
    report.oracle_gap_high = high
    tperp = np.flatnonzero(~profile.defining_mask(report.delta))
    run_bound = code_core.run_bound(tperp, profile.n)
    agrees = (low == report.gap_low and high == report.gap_high
              and report.lower_bound <= run_bound)
    report.agrees = agrees
    if not agrees:
        report.warning = (
            f"formula gaps ({report.gap_low}, {report.gap_high}) or bound "
            f"{report.lower_bound} disagree with oracle gaps ({low}, {high})"
            f" / run bound {run_bound}; lower_bound replaced by run bound")
        report.lower_bound = run_bound
