"""Naive reference oracles that the production engines are tested against.

`bchlab.oracle` answers each question with one engine: `GapProfile` for
gap edges and `dually_sweep` for dually-BCH verdicts.  The functions here
answer the same questions the slow, obvious way, directly on one dual
defining set, and they also return certificates: the witness window
(b, delta') or an uncovered counterexample residue.  They deliberately
share no code with `bchlab.oracle`; only the coset combinatorics of
`bchlab.cyclotomic` is common.
"""

from __future__ import annotations

from dataclasses import dataclass

from bchlab import cyclotomic
from bchlab.cyclotomic import DefiningSet
from bchlab.errors import EmptySet


class AnchorNotInDual(ValueError):
    """Gap scan anchor residue is not in the dual defining set."""


# ---------------------------------------------------------------------------
# gap scans


def gap_scan(tperp: DefiningSet, anchor: int | None = None,
             two_sided: bool = False) -> tuple[int | None, int | None]:
    """Directly scan for the gap edges next to the anchor residue.

    Walks down (and, when two_sided, up) from the anchor in class steps
    until the first residue outside T_perp.  Returns (gap_low,
    gap_high); an edge is None when the scan wraps all the way around
    without leaving T_perp (no gap), and gap_high is None unless
    two_sided.  AnchorNotInDual if the anchor is not in T_perp.
    """
    if anchor is None:
        anchor = max(cyclotomic.leader_map(tperp.q, tperp.modulus,
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


def dually_bch_oracle(tperp: DefiningSet) -> DuallyVerdict:
    """Exhaustive search for a BCH window equal to T_perp.

    For each candidate first exponent b (ascending through the class),
    extend i = 0, 1, 2, ... while C_{b+ri} stays inside T_perp, checking
    after each step whether the accumulated union covers every coset of
    T_perp.  First success gives the deterministic witness (smallest b,
    then smallest delta_prime for that b).
    """
    if not tperp.residues:
        raise EmptySet("dually-BCH search needs a nonempty dual set")
    lm = cyclotomic.leader_map(tperp.q, tperp.modulus, tperp.r == 2)
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


def _runs(tperp: DefiningSet) -> list[list[int]]:
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


def _best_run_counterexample(tperp: DefiningSet, lm: dict[int, int]) -> int:
    best_cover: set[int] = set()
    for run in _runs(tperp):
        cover = {lm[x] for x in run}
        if len(cover) > len(best_cover):
            best_cover = cover
    missed = [x for x in sorted(tperp.residues) if lm[x] not in best_cover]
    assert missed, "counterexample requested for a coverable dual set"
    return missed[0]
