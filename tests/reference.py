"""Naive reference oracles that the production engines are tested against.

`bchlab.oracle` answers each question with one engine: `GapProfile` for
gap edges, `dually_sweep` for dually-BCH verdicts and the level walk of
`min_distance` (words by information weight, each level built from a
kept lower one) for minimum distances.  The functions here answer the
same questions the slow, obvious way: directly on one dual defining set,
with certificates (the witness window (b, delta') or an uncovered
counterexample residue), or one codeword per step of the Gray walk over
every message (`gray_walk_reference`).  They deliberately share no code
with `bchlab.oracle`, nor with the array leader map of
`bchlab.cyclotomic`: `leader_map_reference` walks each orbit once into a
dict, and the references read that.  Nor do they share its defining sets,
which are sorted arrays of class positions: `defining_set_reference` is
the naive union of one orbit walk per exponent, kept as a frozenset of
residues (`DefiningSetReference`, with its leaders), and
`dual_defining_set_reference` is the class complement of -T.  Only the
family names and coprimality check of `bchlab.cyclotomic` and
`bchlab.finite_field.factorize` are common.  The field arithmetic is
`ScalarField`, which reads only p, k and the modulus of a `FieldCtx`: one
element at a time, a product being the schoolbook product of two digit
polynomials reduced by the modulus, where `FieldCtx` multiplies batches of
digit vectors through its product matrix W and reads its symbol tables
off W.  `padd`, `pdivmod`, `peval` and `x_pow_minus` are polynomials on
it, for the tests that check generator polynomials by division and
evaluation.  `irreducible_reference` tests a modulus by trial division,
with no `bchlab` code at all, where `finite_field` runs Ben-Or's gcd
test.  `generator_reference`, `embed_table_reference` and
`generator_poly_reference` find the generator, the subfield embedding
(from the `FieldCtx` generator, the one other attribute read) and the
generator polynomial of a code one scalar multiplication at a time,
where `FieldCtx` and `code_core` work on batches of digit vectors.
`rank_reference` reduces rows with scalar calls instead of the symbol
tables, and `pmul_reference` multiplies polynomials one scalar `mul` and
`add` per coefficient pair, where `poly_linalg.pmul` is one convolution
on them.
`check_search_reference` is the check-matrix search with every node
reducing its column against every pivot and every leaf walked, where
`min_distance_via_checks` reduces each column once per level and settles
the last two levels by hashing.
`coverage_verdict_reference` is the dually verdict as one sort over all
runs outside T(delta), where `dually_sweep` counts the cosets of the few
runs through one seed coset that start on the half class x <= rn / 2; the
tests feed it a profile's leader map, unfolded to the whole class.
`info_set_reference` multiplies out every message against the generator
rows as they are, where the information-set walk of `min_distance` walks
the systematic form by information weight and stops early.
`info_set_walk_reference` is that walk one word per index, unranked from
the index and summed from its parity rows, where `min_distance` builds
each level from a kept lower level, a block of largest position at a
time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from bchlab import cyclotomic
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import BadFamilyParams, CoefficientNotInSubfield, EmptySet
from bchlab.finite_field import factorize


class AnchorNotInDual(ValueError):
    """Gap scan anchor residue is not in the dual defining set."""


class NotACosetUnion(ValueError):
    """A residue set that should be a union of cyclotomic cosets is not."""


# ---------------------------------------------------------------------------
# leader maps, one orbit walk per coset


def _orbit(x: int, q: int, n: int) -> list[int]:
    """x, x q, x q^2, ... mod n, until the walk is back at x."""
    x %= n
    orbit = [x]
    y = x * q % n
    while y != x:
        orbit.append(y)
        y = y * q % n
    return orbit


def leader_map_reference(q: int, n: int,
                         odd_only: bool = False) -> dict[int, int]:
    """Map each residue of the class to its coset leader, one O(n) sweep.

    odd_only restricts to the class 1 + 2 Z_n (n must then be even).
    """
    cyclotomic._check_coprime(q, n)
    if odd_only and n % 2:
        raise BadFamilyParams("odd residue class needs an even modulus")
    leaders: dict[int, int] = {}
    start, step = (1, 2) if odd_only else (0, 1)
    for x in range(start, n, step):
        if x in leaders:
            continue
        orbit = _orbit(x, q, n)
        lead = min(orbit)
        for y in orbit:
            leaders[y] = lead
    return leaders


# ---------------------------------------------------------------------------
# defining sets as frozensets of residues, one coset at a time


@dataclass(frozen=True)
class DefiningSetReference:
    """A union of q-cyclotomic cosets inside one residue class mod rn.

    r = 1 means the class is all of Z_rn (cyclic); r = 2 means the odd
    class 1 + 2 Z_rn (negacyclic).
    """

    q: int
    modulus: int  # rn
    r: int  # 1 or 2
    residues: frozenset[int] = frozenset()

    @property
    def family(self) -> str:
        return CYCLIC if self.r == 1 else NEGACYCLIC

    @property
    def n(self) -> int:
        """Code length: class size (modulus / r)."""
        return self.modulus // self.r

    def class_residues(self) -> range:
        return range(self.r - 1, self.modulus, self.r)

    def __contains__(self, x: int) -> bool:
        return x % self.modulus in self.residues

    def __len__(self) -> int:
        return len(self.residues)

    def positions(self) -> list[int]:
        """Sorted class positions: residue x sits at x // r."""
        return sorted(x // self.r for x in self.residues)

    def is_symmetric(self) -> bool:
        """True when -T = T modulo rn."""
        return all((-x) % self.modulus in self.residues for x in self.residues)

    def leaders(self) -> list[int]:
        """Sorted leaders of the cosets making up the set."""
        seen: set[int] = set()
        out: list[int] = []
        for x in sorted(self.residues):
            if x in seen:
                continue
            orbit = _orbit(x, self.q, self.modulus)
            if not all(y in self.residues for y in orbit):
                raise NotACosetUnion(
                    f"residues are not a union of cosets near {x}")
            seen.update(orbit)
            out.append(min(orbit))
        return out


def defining_set_reference(q: int, m: int, family: str, delta: int,
                           b: int | None = None) -> DefiningSetReference:
    """T = C_b u C_{b+r} u ... u C_{b+r(delta-2)} mod rn = q^m + 1.

    One orbit walk for every exponent, also where it is already in T; the
    narrow-sense default is b = 1.  Parameters are taken as valid.
    """
    r = 1 if family == CYCLIC else 2
    rn = q ** m + 1
    start = 1 if b is None else b
    residues: set[int] = set()
    for i in range(delta - 1):
        residues.update(_orbit(start + r * i, q, rn))
    return DefiningSetReference(q, rn, r, frozenset(residues))


def dual_defining_set_reference(
        t: DefiningSetReference) -> DefiningSetReference:
    """The class residues outside -T."""
    negated = {(-x) % t.modulus for x in t.residues}
    return DefiningSetReference(
        t.q, t.modulus, t.r,
        frozenset(x for x in t.class_residues() if x not in negated))


# ---------------------------------------------------------------------------
# gap scans


def gap_scan(tperp: DefiningSetReference, anchor: int | None = None,
             two_sided: bool = False) -> tuple[int | None, int | None]:
    """Directly scan for the gap edges next to the anchor residue.

    Walks down (and, when two_sided, up) from the anchor in class steps
    until the first residue outside T_perp.  Returns (gap_low,
    gap_high); an edge is None when the scan wraps all the way around
    without leaving T_perp (no gap), and gap_high is None unless
    two_sided.  AnchorNotInDual if the anchor is not in T_perp.
    """
    if anchor is None:
        anchor = max(leader_map_reference(tperp.q, tperp.modulus,
                                          tperp.r == 2).values())
    if anchor not in tperp.residues:
        raise AnchorNotInDual(f"anchor {anchor} is not in the dual set")
    rn, r = tperp.modulus, tperp.r
    low = None
    x = (anchor - r) % rn
    for _ in range(tperp.n):
        if x not in tperp.residues:
            low = x
            break
        x = (x - r) % rn
    high = None
    if two_sided:
        x = (anchor + r) % rn
        for _ in range(tperp.n):
            if x not in tperp.residues:
                high = x
                break
            x = (x + r) % rn
    return low, high


# ---------------------------------------------------------------------------
# dually-BCH oracle


@dataclass
class DuallyVerdict:
    """Outcome of the dually-BCH search.

    Exactly one of witness / counterexample is set: witness = (b,
    delta_prime) reconstructs T_perp as the union of the delta_prime - 1
    cosets C_b, C_{b+r}, ...; counterexample is a residue of T_perp
    whose coset is missed by the best-covering run (no run covers more
    cosets, so no consecutive window can reproduce T_perp).
    """

    is_dually: bool
    witness: tuple[int, int] | None = None
    counterexample: int | None = None


def dually_bch_oracle(tperp: DefiningSetReference) -> DuallyVerdict:
    """Exhaustive search for a BCH window equal to T_perp.

    For each candidate first exponent b (ascending through the class),
    extend i = 0, 1, 2, ... while C_{b+ri} stays inside T_perp, checking
    after each step whether the accumulated union covers every coset of
    T_perp.  First success gives the deterministic witness (smallest b,
    then smallest delta_prime for that b).
    """
    if not tperp.residues:
        raise EmptySet("dually-BCH search needs a nonempty dual set")
    lm = leader_map_reference(tperp.q, tperp.modulus, tperp.r == 2)
    in_set = tperp.residues
    k = len({lm[x] for x in in_set})
    rn, r = tperp.modulus, tperp.r
    start = 1 if r == 2 else 0
    for b in range(start, rn, r):
        if b not in in_set:
            continue
        seen: set[int] = set()
        j = b
        steps = 0
        while j in in_set and steps < tperp.n:
            steps += 1
            seen.add(lm[j])
            if len(seen) == k:
                return DuallyVerdict(True, witness=(b, steps + 1))
            j = (j + r) % rn
    return DuallyVerdict(False,
                         counterexample=_best_run_counterexample(tperp, lm))


def _runs(tperp: DefiningSetReference) -> list[list[int]]:
    """Maximal circular runs of consecutive class residues inside T_perp."""
    rn, r, n = tperp.modulus, tperp.r, tperp.n
    start = 1 if r == 2 else 0
    in_pos = [(start + r * p) in tperp.residues for p in range(n)]
    if all(in_pos):
        return [[start + r * p for p in range(n)]]
    off = in_pos.index(False)  # rotate here so no run wraps
    runs: list[list[int]] = []
    cur: list[int] = []
    for i in range(n):
        p = (off + i) % n
        if in_pos[p]:
            cur.append(start + r * p)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


def _best_run_counterexample(tperp: DefiningSetReference,
                             lm: dict[int, int]) -> int:
    best_cover: set[int] = set()
    for run in _runs(tperp):
        cover = {lm[x] for x in run}
        if len(cover) > len(best_cover):
            best_cover = cover
    missed = [x for x in sorted(tperp.residues) if lm[x] not in best_cover]
    assert missed, "counterexample requested for a coverable dual set"
    return missed[0]


def coverage_verdict_reference(lead: np.ndarray, is_leader: np.ndarray,
                               in_t: np.ndarray, rn: int) -> bool:
    """Does one circular run of positions outside T meet every coset there?

    The sort-based verdict over every run: lead is a class's leader per
    position, is_leader marks the leaders, in_t the positions of T.
    """
    outside = ~in_t
    k = int(np.count_nonzero(is_leader & outside))
    if k == 0:
        raise EmptySet("dual defining set is empty at this delta")
    members = len(in_t) - int(np.count_nonzero(outside))
    if members == 0:
        return True  # dual is the whole class: one run covers everything
    # label each run by the T positions before it; the tail wraps to run 0
    run = np.cumsum(in_t) % members
    pairs = np.sort(run[outside] * rn + lead[outside])
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return int(np.bincount(pairs[first] // rn).max()) == k


# ---------------------------------------------------------------------------
# Gray-walk enumeration, one codeword per step


def _gray_word(idx: int, q: int, k: int) -> list[int]:
    """Message k-tuple at position idx of the reflected base-q Gray walk."""
    digits = []
    x = idx
    for _ in range(k + 1):
        digits.append(x % q)
        x //= q
    return [(digits[j] - digits[j + 1]) % q for j in range(k)]


def gray_walk_reference(ctx, rows: list[list[int]], start: int,
                        stop: int) -> tuple[int, int, list[int]]:
    """Best (weight, index, word) over Gray positions [start, stop).

    Symbols are codes of the field ctx, with its own modulus.
    Consecutive Gray messages differ in one digit by +1, so each step is
    a single row addition to the running codeword.  The changed digit at
    step i is the number of trailing q-1 digits of i - 1.
    """
    f = scalar_field(ctx)
    p, kf, q = f.p, f.k, f.order
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
        add, mul, neg = (np.array(t, dtype=np.int16) for t in f.tables[:3])
        # scaled[r, c]: c times row r
        scaled = mul[:, np.array(rows)].transpose(1, 0, 2)
        diff = add[np.roll(scaled, -1, axis=1), neg[scaled]]
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


# ---------------------------------------------------------------------------
# information weight, every message walked


def info_set_reference(ctx, rows: list[list[int]]) -> list[int | None]:
    """best[t]: least weight of a word with 1..t nonzeros on [0, k).

    Every one of the q^k messages is multiplied out against the rows, as
    they are (no systematic form), with the q x q tables of the scalar
    field; a word's information weight is its number of nonzeros on the
    first k coordinates.  best[0] is None, and best[k] is the minimum
    distance.
    """
    f = scalar_field(ctx)
    q, k = f.order, len(rows)
    add, mul = (np.array(t) for t in f.tables[:2])
    mat = np.array(rows)
    best: list[int | None] = [None] * (k + 1)
    for lo in range(1, q ** k, 4096):
        msgs = np.arange(lo, min(lo + 4096, q ** k))
        words = np.zeros((len(msgs), mat.shape[1]), dtype=np.int64)
        for j in range(k):
            words = add[words, mul[(msgs // q ** j % q)[:, None], mat[j]]]
        info = np.count_nonzero(words[:, :k], axis=1)
        weight = np.count_nonzero(words, axis=1)
        for t in range(1, k + 1):
            seen = weight[info <= t]
            if seen.size and (best[t] is None or seen.min() < best[t]):
                best[t] = int(seen.min())
    return best


# ---------------------------------------------------------------------------
# information weight, every word unranked from its index

_BLOCK_SYMBOLS = 1 << 16  # digits in one numpy step of the unranking walk


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


def _digit_add(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    s = a + b
    return np.minimum(s, s - p, out=s)


def _info_set_block(p: int, kf: int, scaled: np.ndarray, binom: np.ndarray,
                    lo: int, hi: int, low: int) -> tuple[int, int]:
    """First (parity weight, index) of least parity weight in [lo, hi),
    up to the first chunk that holds a parity weight of at most low.

    Word i of level t = len(binom) - 1 has the support of colex rank
    i // (q-1)^(t-1) on the information positions, coefficient 1 at its
    first position and, at the others, the base-(q-1) digits of
    i % (q-1)^(t-1) plus 1: one word per scalar class.  scaled[j, c]
    holds the digit planes of c times parity row j, so a word is t
    additions on the planes of the n - k parity columns, and a chunk of
    at most BLOCK_SYMBOLS digits takes one count_nonzero.
    """
    t = len(binom) - 1
    _, q, width = scaled.shape
    ncoef = (q - 1) ** (t - 1)
    r = width // kf
    flat = scaled.reshape(len(scaled) * q, width)  # row j q + c: [j, c]
    step = max(1, _BLOCK_SYMBOLS // max(1, width))
    best = None
    for a in range(lo, hi, step):
        ranks, rest = np.divmod(np.arange(a, min(a + step, hi)), ncoef)
        support = _unrank_supports(binom, ranks) * q
        acc = np.take(flat, support[:, 0] + 1, axis=0)
        for j in range(1, t):
            rest, digit = np.divmod(rest, q - 1)
            acc = _digit_add(acc, np.take(flat, support[:, j] + digit + 1,
                                          axis=0), p)
        nonzero = acc[:, :r]
        for i in range(1, kf):
            nonzero = nonzero | acc[:, i * r:(i + 1) * r]
        weights = np.count_nonzero(nonzero, axis=1)
        j = int(np.argmin(weights))
        if best is None or weights[j] < best[0]:
            best = (int(weights[j]), a + j)
        if best[0] <= low:
            break
    return best


def info_set_walk_reference(ctx, echelon, in_level_stop: bool = True
                            ) -> tuple[int, tuple[int, ...], int]:
    """(distance, word, words walked) of the walk by information weight.

    echelon is (pivots, [I | P]): the pivot columns, which must be
    [0, k), and the reduced row-echelon form of a generator matrix, as
    `poly_linalg.row_reduce` returns them.  Level t walks its
    C(k, t) (q - 1)^(t - 1) words in index order, each one
    unranked from its index and summed from t scaled parity rows; the
    walk stops as min_distance(..., shift_invariant=True) does, once
    ceil(t n / k) reaches the best weight.  With in_level_stop it also
    stops inside level t at the first index of weight ceil(t n / k), and
    counts the words up to the end of that word's block: the C(c + 1, t)
    (q - 1)^(t - 1) words whose largest position is at most the word's
    largest position c.  The word is rebuilt with scalar field calls.
    """
    f = scalar_field(ctx)
    p, kf, q = f.p, f.k, f.order
    pivots, form = echelon
    k = len(pivots)
    assert list(pivots) == list(range(k)), "the information set is [0, k)"
    parity = np.asarray(form, dtype=np.int64)[:, k:]
    r = parity.shape[1]
    n = k + r
    mul = np.array(f.tables[1])
    prod = mul[:, parity].transpose(1, 0, 2)  # [j, c]: c times row j
    scaled = np.concatenate([prod // p ** i % p for i in range(kf)],
                            axis=2).astype(np.uint8)
    binom = np.ones((1, k), dtype=np.int64)  # binom[i, x] = C(x, i)
    best, walked = None, 0
    for t in range(1, k + 1):
        low = -(-t * n // k)
        if best is not None and low >= best[0]:
            break
        row = np.zeros(k, dtype=np.int64)
        np.cumsum(binom[-1, :-1], out=row[1:])
        binom = np.vstack([binom, row])
        size = math.comb(k, t) * (q - 1) ** (t - 1)
        weight, index = _info_set_block(p, kf, scaled, binom, 0, size,
                                        low - t if in_level_stop else -1)
        if best is None or t + weight < best[0]:
            best = (t + weight, binom, index)
        if t + weight <= low and in_level_stop:
            rank = index // (q - 1) ** (t - 1)
            c = int(_unrank_supports(binom, np.array([rank]))[0, -1])
            walked += math.comb(c + 1, t) * (q - 1) ** (t - 1)
            break
        walked += size
    distance, binom, index = best
    rank, rest = divmod(index, (q - 1) ** (len(binom) - 2))
    word, coef = [0] * n, 1
    for pos in _unrank_supports(binom, np.array([rank]))[0].tolist():
        word[pos] = coef
        for x in range(r):
            word[k + x] = f.add(word[k + x],
                                f.mul(coef, int(parity[pos, x])))
        rest, digit = divmod(rest, q - 1)
        coef = digit + 1
    return distance, tuple(word), walked


# ---------------------------------------------------------------------------
# irreducibility by trial division


def irreducible_reference(f: list[int], p: int) -> bool:
    """Monic f over F_p (ascending coefficients) has no monic divisor of
    degree 1..deg(f)//2: long division by every one of them."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for v in range(p ** d):
            g = [v // p ** j % p for j in range(d)] + [1]
            rem = list(f)
            for s in range(k - d, -1, -1):
                lead = rem[s + d]
                for j in range(d + 1):
                    rem[s + j] = (rem[s + j] - lead * g[j]) % p
            if not any(rem[:d]):
                return False
    return True


# ---------------------------------------------------------------------------
# scalar field arithmetic, one schoolbook product at a time

class ScalarField:
    """F_{p^k} one int-coded element at a time, from p, k and the modulus.

    A code is the base-p digit string of a polynomial, constant term
    first, as in `bchlab.finite_field`.  Sums and negatives go digit by
    digit mod p; a product is the schoolbook product of two digit
    polynomials, reduced by long division by the monic modulus; an
    inverse is a^(q - 2).
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p, self.k, self.modulus = p, k, modulus
        self.order = p ** k

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def undigits(self, ds: list[int]) -> int:
        a = 0
        for d in reversed(ds):
            a = a * self.p + d % self.p
        return a

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self.undigits([x + y for x, y in
                              zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.undigits([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        k, f = self.k, self.modulus
        prod = [0] * (2 * k - 1)
        db = self.digits(b)
        for i, x in enumerate(self.digits(a)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        for s in range(k - 2, -1, -1):  # clear x^(s+k) with x^s f
            lead = prod[s + k] % self.p
            for j in range(k + 1):
                prod[s + j] -= lead * f[j]
        return self.undigits(prod[:k])

    def pow(self, a: int, e: int) -> int:
        """a^e, e >= 0, by square-and-multiply."""
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    @functools.cached_property
    def tables(self) -> tuple[list[list[int]], list[list[int]], list[int],
                              list[int]]:
        """(add, mul, neg, inv) as nested lists, one call per entry;
        inv[0] = 0."""
        q = range(self.order)
        return ([[self.add(a, b) for b in q] for a in q],
                [[self.mul(a, b) for b in q] for a in q],
                [self.neg(a) for a in q],
                [self.inv(a) if a else 0 for a in q])


@functools.cache
def _scalar_field(p: int, k: int, modulus: tuple[int, ...]) -> ScalarField:
    return ScalarField(p, k, modulus)


def scalar_field(ctx) -> ScalarField:
    """The ScalarField of a FieldCtx's p, k and modulus, one per field."""
    return _scalar_field(ctx.p, ctx.k, tuple(ctx.modulus))


# ---------------------------------------------------------------------------
# polynomials over the scalar field (int codes, lowest degree first)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a: list[int], b: list[int], ctx) -> list[int]:
    f = scalar_field(ctx)
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return _trim(out)


def pdivmod(a: list[int], b: list[int], ctx) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b != 0, by long division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    f = scalar_field(ctx)
    a = a[:]
    db = len(b) - 1
    lead_inv = f.inv(b[-1])
    if len(a) - 1 < db:
        return [], _trim(a)
    quot = [0] * (len(a) - db)
    while a and len(a) - 1 >= db:
        c = f.mul(a[-1], lead_inv)
        shift = len(a) - 1 - db
        quot[shift] = c
        for j in range(db + 1):
            a[shift + j] = f.sub(a[shift + j], f.mul(c, b[j]))
        _trim(a)
    return _trim(quot), a


def peval(a: list[int], x: int, ctx) -> int:
    """a(x) by Horner's rule."""
    f = scalar_field(ctx)
    acc = 0
    for c in reversed(a):
        acc = f.add(f.mul(acc, x), c)
    return acc


def x_pow_minus(n: int, const: int, ctx) -> list[int]:
    """x^n - const."""
    out = [0] * (n + 1)
    out[0] = scalar_field(ctx).neg(const)
    out[n] = 1
    return out


# ---------------------------------------------------------------------------
# scalar field constructions, one polynomial multiplication per step: the
# generator search, the subfield embedding and minimal polynomials that
# `FieldCtx` and `code_core` compute on batches of digit vectors


def generator_reference(ctx) -> int:
    """First code in code order whose order is p^k - 1."""
    f = scalar_field(ctx)
    n1 = f.order - 1
    primes = sorted(factorize(n1))
    for g in range(1, f.order):
        if all(f.pow(g, n1 // rho) != 1 for rho in primes):
            return g
    raise AssertionError("F_q* is cyclic")


def embed_table_reference(small, big) -> list[int]:
    """Codes of small's elements in big: x goes to the smallest root (in
    code order) of small's modulus among the powers of g^((Q-1)/(q-1))."""
    sf, bf = scalar_field(small), scalar_field(big)
    if sf.k == 1:
        return list(range(sf.p))
    sub_order = sf.order - 1
    h = bf.pow(big.generator, (bf.order - 1) // sub_order)
    roots = []
    x = 1
    for _ in range(sub_order):
        acc = 0
        for c in reversed(sf.modulus):
            acc = bf.add(bf.mul(acc, x), c)
        if acc == 0:
            roots.append(x)
        x = bf.mul(x, h)
    rho_pows = [1]
    for _ in range(sf.k - 1):
        rho_pows.append(bf.mul(rho_pows[-1], min(roots)))
    table = []
    for a in range(sf.order):
        img = 0
        for d, rp in zip(sf.digits(a), rho_pows):
            img = bf.add(img, bf.mul(d, rp))
        table.append(img)
    return table


def minimal_polynomial_reference(elem: int, big, small) -> list[int]:
    """Minimal polynomial of elem over small, as codes of small.

    The product of (x - e) over the Frobenius orbit e, e^q, e^{q^2}, ...
    (q = small.order), lifted through embed_table_reference; raises
    CoefficientNotInSubfield when a coefficient is not in small.
    """
    bf = scalar_field(big)
    q = scalar_field(small).order
    orbit = [elem]
    y = bf.pow(elem, q)
    while y != elem:
        orbit.append(y)
        y = bf.pow(y, q)
    poly = [1]
    for e in orbit:  # poly *= x - e
        shifted = [0] + poly
        for i, c in enumerate(poly):
            shifted[i] = bf.sub(shifted[i], bf.mul(e, c))
        poly = shifted
    lift = {img: a for a, img in enumerate(embed_table_reference(small, big))}
    if any(c not in lift for c in poly):
        raise CoefficientNotInSubfield(
            f"{poly} has a coefficient outside F_{q}")
    return [lift[c] for c in poly]


def generator_poly_reference(t: DefiningSetReference, extension, field,
                             beta: int) -> list[int]:
    """Product over the leaders j of the minimal polynomial of beta^j."""
    gen = [1]
    for j in t.leaders():
        mp = minimal_polynomial_reference(
            scalar_field(extension).pow(beta, j), extension, field)
        gen = pmul_reference(gen, mp, field)
    return gen


# ---------------------------------------------------------------------------
# rank, one scalar field operation per entry


def pmul_reference(a: list[int], b: list[int], ctx) -> list[int]:
    """a * b, one scalar mul and add per coefficient pair."""
    if not a or not b:
        return []
    f = scalar_field(ctx)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return _trim(out)


def rank_reference(rows: list[list[int]], ctx) -> int:
    f = scalar_field(ctx)
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, v) for v in rows[r]]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            if factor:
                rows[i] = [f.sub(vi, f.mul(factor, vr))
                           for vi, vr in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# check-matrix search, every node reducing its column against every pivot


def check_search_reference(checks: np.ndarray, field,
                           max_weight: int | None = None, *,
                           shift_invariant: bool = False) \
        -> tuple[int, tuple[int, ...], int]:
    """(distance, word, nodes) of the null space of `checks`, one node at
    a time.

    The same iterative deepening over index-increasing column subsets, with
    the same shift-normalised loop bounds, as
    `oracle.min_distance_via_checks`, but each node reduces its column from
    scratch against every pivot above it and each leaf is walked.  The
    production search must visit the same nodes in the same order, so the
    three values agree exactly.  There is no node budget.
    """
    rows, n = checks.shape
    cols = [[int(checks[i][j]) for i in range(rows)] for j in range(n)]
    add, mul, neg, inv = scalar_field(field).tables
    limit = max_weight if max_weight is not None else n
    nodes = 0
    for w in range(1, limit + 1):
        pivots: list[tuple[int, list[int]]] = []
        support: list[int] = []

        def dfs(lo: int, gap: int) -> list[int] | None:
            # gap: the largest inner gap of the support so far
            nonlocal nodes
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
            for idx in range(lo, stop):
                nodes += 1
                col = _reduce_col(cols[idx], pivots, add, mul, neg)
                lead = next((i for i, c in enumerate(col) if c), None)
                if lead is None:
                    support.append(idx)
                    return list(support)
                if depth + 1 < w:
                    scale = mul[inv[col[lead]]]
                    pivots.append((lead, [scale[c] for c in col]))
                    new_gap = max(gap, idx - support[-1]) if support else 0
                    support.append(idx)
                    found = dfs(idx + 1, new_gap)
                    if found is not None:
                        return found
                    support.pop()
                    pivots.pop()
            return None

        found = dfs(0, 0)
        if found is not None:
            word = _dependency_word(found, cols, (add, mul, neg, inv), n)
            prod = [0] * rows
            for j in found:
                scale = mul[word[j]]
                prod = [add[a][scale[c]] for a, c in zip(prod, cols[j])]
            assert not any(prod), "reconstructed word fails the checks"
            return w, tuple(word), nodes
    raise EmptySet(f"no dependent column subset of size <= {limit}")


def _reduce_col(col: list[int], pivots: list[tuple[int, list[int]]],
                add: list[list[int]], mul: list[list[int]],
                neg: list[int]) -> list[int]:
    """col minus its pivot-row multiples, by symbol-table lookups."""
    for lead, piv in pivots:
        f = col[lead]
        if f:
            scale = mul[neg[f]]
            col = [add[a][scale[b]] for a, b in zip(col, piv)]
    return col


def _dependency_word(support: list[int], cols: list[list[int]], tables,
                     n: int) -> list[int]:
    """Solve for coefficients putting the support columns in dependence.

    tables are the field's symbol tables (add, mul, neg, inv) as lists.
    """
    add, mul, neg, inv = tables
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
        scale = mul[inv[mat[rank][j]]]
        mat[rank] = [scale[c] for c in mat[rank]]
        for i in range(rows):
            if i != rank and mat[i][j]:
                scale = mul[neg[mat[i][j]]]
                mat[i] = [add[a][scale[b]]
                          for a, b in zip(mat[i], mat[rank])]
        pivots.append(j)
        rank += 1
    free = next(j for j in range(w) if j not in pivots)
    coeff = [0] * w
    coeff[free] = 1
    for i, j in enumerate(pivots):
        coeff[j] = neg[mat[i][free]]
    word = [0] * n
    for j, c in zip(support, coeff):
        word[j] = c
    return word
