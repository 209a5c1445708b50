"""Brute-force oracles: gap profile, dually sweep, exact distances.

The gap profile and the dually sweep are checked against the naive
per-set references in reference.py, which also carry the witness and
counterexample certificates.
"""

import ast
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bchlab import cli
from bchlab import closed_forms as cf
from bchlab import code_core as cc
from bchlab import cyclotomic as cy
from bchlab import examples
from bchlab import finite_field as ff
from bchlab import oracle as orc
from bchlab import poly_linalg as pl
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import (BadDelta, ClassTooLarge, EmptySet,
                           SearchBudgetExceeded)

import reference as ref
from grid_utils import (DUALLY_EXHAUSTIVE_BUDGET, STRUCTURAL_INSTANCES,
                        profile, realized)


# every admissible (q, m, family) with q^m < 2000
SMALL_CELLS = [(q, m, family) for q in (3, 5, 7, 9, 11, 13, 19, 23, 27, 43)
               for m in range(2, 7) if q ** m < 2000
               for family in (CYCLIC, NEGACYCLIC)
               if family == CYCLIC or q % 4 == 3]


def tperp_of(q, m, family, delta, b=None):
    return ref.dual_defining_set_reference(
        ref.defining_set_reference(q, m, family, delta, b))


def even_like_tperp(q, m, delta):
    # even-like cyclic subcode: defining set C_0 u C_1 u ... u C_{delta-1}
    return tperp_of(q, m, CYCLIC, delta + 1, b=0)


def test_gap_scan_hand_cases():
    tp = tperp_of(3, 3, CYCLIC, 2)
    assert ref.gap_scan(tp) == (9, None)
    assert max(tp.leaders()) == 14
    tp = tperp_of(3, 3, NEGACYCLIC, 2)
    assert ref.gap_scan(tp, two_sided=True) == (3, 9)
    assert ref.gap_scan(tp, anchor=7, two_sided=True) == (3, 9)
    with pytest.raises(ref.AnchorNotInDual):
        ref.gap_scan(tp, anchor=1)  # 1 is in T, not in the dual set


def test_gap_scan_no_gap():
    # T-perp = whole odd class: the scan wraps without leaving the set
    whole = ref.DefiningSetReference(3, 28, 2, frozenset(range(1, 28, 2)))
    assert ref.gap_scan(whole, anchor=7, two_sided=True) == (None, None)


def full_lead(prof):
    """The profile's leader map over the whole class."""
    return cy.unfold(prof.lead, prof.rn, prof.r == 2)


def tperps(q, m, family, hi):
    """(delta, T_perp(delta)) for delta = 2, ..., hi, one orbit off each."""
    r = 1 if family == CYCLIC else 2
    rn = q**m + 1
    rest = set(range(r - 1, rn, r))
    for d in range(2, hi + 1):
        rest.difference_update(ref._orbit(1 + r * (d - 2), q, rn))
        yield d, ref.DefiningSetReference(q, rn, r, frozenset(rest))


def test_gap_profile_matches_gap_scan():
    # both edges on every small cell at every delta; beyond max_delta only
    # the anchor coset joins T, and the edges skip it
    mirrored = 0  # deltas whose high edge is the mirror of the low one
    for q, m, family in SMALL_CELLS:
        prof = profile(q, m, family)
        for d, tp in tperps(q, m, family, prof.max_delta):
            if d in (2, prof.max_delta):
                assert tp == tperp_of(q, m, family, d)
            low, high = ref.gap_scan(tp, anchor=prof.anchor, two_sided=True)
            assert (prof.low(d), prof.high(d)) == (low, high), \
                (q, m, family, d)
            mirrored += high is not None and high > prof.rn // 2
        for d in range(prof.max_delta + 1, prof.n + 1):
            assert (prof.low(d), prof.high(d)) == (low, high), \
                (q, m, family, d)
    assert mirrored


def test_gap_profile_fields():
    prof = profile(3, 4, NEGACYCLIC)
    assert (prof.n, prof.r, prof.rn) == (41, 2, 82)
    assert prof.anchor == 41
    assert prof.max_delta == 21
    prof = profile(3, 2, CYCLIC)
    assert prof.anchor == 5 and prof.max_delta == 5


# every (q, m, family) of q in {3, 5, 7, 9, 11}, m in 2..5 where the
# family is defined
MEMBERSHIP_GRID = [(q, m, family) for q in (3, 5, 7, 9, 11)
                   for m in (2, 3, 4, 5) for family in (CYCLIC, NEGACYCLIC)
                   if family == CYCLIC or q % 4 == 3]


def membership_deltas(max_delta):
    """Every delta in [2, max_delta] up to 200, else about ten spread."""
    if max_delta <= 200:
        return range(2, max_delta + 1)
    return sorted({2, 3, max_delta - 1, max_delta}
                  | set(range(2, max_delta, max_delta // 7)))


def test_defining_mask_is_the_coset_union():
    # the profile's one membership rule against the constructive coset
    # union, and check_bound_report's run bound against the run bound of
    # the constructed dual, on the whole grid
    for q, m, family in MEMBERSHIP_GRID:
        prof = profile(q, m, family)
        for d in membership_deltas(prof.max_delta):
            t = cy.defining_set(q, m, family, d)
            tperp = cy.dual_defining_set(t, prof.n, prof.r)
            mask = prof.defining_mask(d)
            assert np.array_equal(np.flatnonzero(mask), t), (q, m, family, d)
            assert np.array_equal(np.flatnonzero(~mask), tperp), \
                (q, m, family, d)
            # a bound above n never agrees, so the report ends up holding
            # the oracle's run bound
            rep = cf.BoundReport(q, m, family, d, prof.n, prof.n + 1)
            orc.check_bound_report(rep)
            assert rep.lower_bound == cc.run_bound(tperp, prof.n), \
                (q, m, family, d)


def test_defining_mask_domain():
    prof = profile(7, 2, NEGACYCLIC)
    for d in (-2, 0, 1, prof.n + 1):
        with pytest.raises(BadDelta):
            prof.defining_mask(d)
        with pytest.raises(BadDelta):
            orc.dually_sweep(prof, [d])
    assert prof.defining_mask(prof.n).all()


# machine-verified verdicts; witness = (offset b, designed distance delta')
# of the dual as a BCH code, counterexample = an uncovered dual coset leader
DUALLY_PINS = [
    (3, 4, NEGACYCLIC, 7, True, (39, 3), None),
    (7, 2, NEGACYCLIC, 2, True, (9, 10), None),
    (7, 3, NEGACYCLIC, 2, False, None, 43),
]
DUALLY_EVEN_PINS = [
    (5, 2, 8, True, (12, 3), None),
    (5, 2, 2, True, (6, 9), None),
    (5, 2, 7, False, None, 13),
    (3, 3, 8, True, (14, 2), None),
    (3, 3, 7, False, None, 14),
    (3, 2, 2, True, (4, 3), None),
]


def assert_witness_consistent(tp, verdict):
    if verdict.is_dually:
        b, dp = verdict.witness
        assert verdict.counterexample is None
        got = frozenset()
        for i in range(dp - 1):
            got |= frozenset(cy.coset(b + tp.r * i, tp.q, tp.modulus))
        assert got == tp.residues  # the witness really tiles T-perp
    else:
        assert verdict.witness is None
        assert verdict.counterexample in tp.residues


def test_dually_engines_and_witnesses():
    for q, m, fam, d, want, witness, cx in DUALLY_PINS:
        tp = tperp_of(q, m, fam, d)
        verdict = ref.dually_bch_oracle(tp)
        assert (verdict.is_dually, verdict.witness, verdict.counterexample) \
            == (want, witness, cx), (q, m, fam, d)
        assert_witness_consistent(tp, verdict)
        assert orc.dually_sweep(profile(q, m, fam), [d]) == [want], \
            (q, m, fam, d)
    for q, m, d, want, witness, cx in DUALLY_EVEN_PINS:
        tp = even_like_tperp(q, m, d)
        verdict = ref.dually_bch_oracle(tp)
        assert (verdict.is_dually, verdict.witness, verdict.counterexample) \
            == (want, witness, cx), (q, m, d)
        assert_witness_consistent(tp, verdict)
        assert orc.dually_sweep(profile(q, m, CYCLIC), [d]) == [want], \
            (q, m, d)


def test_dually_engines_agree_exhaustively():
    # narrow-sense sets, and the even-like (3, 3, cyclic) sets
    for q, m, family in [(3, 3, NEGACYCLIC), (3, 4, NEGACYCLIC),
                         (7, 2, NEGACYCLIC), (3, 3, CYCLIC)]:
        deltas = list(range(2, profile(q, m, family).max_delta + 1))
        swept = orc.dually_sweep(profile(q, m, family), deltas)
        for d, got in zip(deltas, swept):
            tp = even_like_tperp(q, m, d) if family == CYCLIC \
                else tperp_of(q, m, family, d)
            verdict = ref.dually_bch_oracle(tp)
            assert got == verdict.is_dually, (q, m, family, d)
            assert_witness_consistent(tp, verdict)


def test_dually_sweep_matches_fast_engine():
    # one sweep over many deltas gives what one-delta sweeps give
    prof = profile(3, 4, NEGACYCLIC)
    deltas = list(range(2, prof.max_delta + 1))
    swept = orc.dually_sweep(prof, deltas)
    assert swept == [orc.dually_sweep(prof, [d])[0]
                     for d in deltas]
    # even-like sets, against the per-set reference
    deltas = list(range(2, 14))
    swept = orc.dually_sweep(profile(5, 2, CYCLIC), deltas)
    assert swept == [ref.dually_bch_oracle(even_like_tperp(5, 2, d)).is_dually
                     for d in deltas]
    # order of requested deltas must not matter
    assert orc.dually_sweep(profile(5, 2, CYCLIC), [13, 2, 8]) == \
        [swept[11], swept[0], swept[6]]


def test_dually_sweep_empty_dual():
    with pytest.raises(EmptySet):
        orc.dually_sweep(profile(3, 2, CYCLIC), [10])


def test_coverage_verdict_wraps_the_tail_run():
    # T is position 2 alone, so positions 3, 4, 0, 1 form one circular
    # run; the sets built here are symmetric, so no sweep needs the wrap
    lead = np.array([10, 11, 12, 13, 14])
    in_t = np.arange(5) == 2
    assert ref.coverage_verdict_reference(lead, np.ones(5, dtype=bool),
                                          in_t, 15)


def toy_profile(lead, r, rn, entry):
    """A profile set by hand: the half x <= rn / 2 of a class whose
    cosets are closed under x -> -x, as at every q^m + 1."""
    prof = object.__new__(orc.GapProfile)
    prof.lead, prof.r, prof.rn, prof.n = np.array(lead), r, rn, rn // r
    prof.entry = np.array(entry, dtype=np.int32)
    # the anchor coset enters last; entry[0] is n + 1 on the cyclic class
    prof.anchor, prof.max_delta = max(lead), max(entry[1:]) - 1
    return prof


def assert_toy_verdicts(prof, want):
    """dually_sweep against the sort over every run of the whole class,
    {0} in T on the cyclic class (the even-like subcode)."""
    lead = full_lead(prof)
    is_leader = lead == np.arange(prof.r - 1, prof.rn, prof.r)
    deltas = list(range(2, 2 + len(want)))
    assert orc.dually_sweep(prof, deltas) == want
    for d, verdict in zip(deltas, want):
        in_t = prof.defining_mask(d)
        in_t[0] |= prof.r == 1
        assert ref.coverage_verdict_reference(
            lead, is_leader, in_t, prof.rn) == verdict, d


def test_dually_sweep_reads_the_run_across_the_middle():
    # q = -1 makes every coset {x, -x}.  Mod 10 the half is 0..5 and the
    # anchor 5 its last position: T(2) = {1, 9}, and the run 2..8 after
    # position 1 runs on to its mirror 9, meeting all cosets but {0}
    prof = toy_profile(cy.leader_map(9, 10), 1, 10, [11, 2, 3, 4, 5, 6])
    assert list(prof.lead) == [0, 1, 2, 3, 4, 5] and prof.max_delta == 5
    assert_toy_verdicts(prof, [True] * 4)
    # the odd class mod 12 (1, 3, 5 | 7, 9, 11) has no middle position:
    # the run 3..9 of T(2) = {1, 11} crosses between 5 and 7
    prof = toy_profile(cy.leader_map(11, 12, True), 2, 12, [2, 3, 4])
    assert list(prof.lead) == [1, 3, 5] and prof.max_delta == 3
    assert_toy_verdicts(prof, [True, True])


def test_dually_sweep_at_the_lone_zero_coset():
    # beyond max_delta the cyclic T_perp is {0}: a one-coset BCH set,
    # and nothing at all for the even-like subcode
    for q, m in [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]:
        prof = profile(q, m, CYCLIC)
        for d in (prof.max_delta + 1, prof.n):
            assert ref.dually_bch_oracle(tperp_of(q, m, CYCLIC, d)) \
                .is_dually
            with pytest.raises(EmptySet):
                orc.dually_sweep(prof, [d])


def test_plain_cyclic_dual_is_never_bch():
    # why the cyclic sweep asks about the even-like subcode: {0} is a
    # coset of T_perp whose neighbours 1 and n - 1 lie in C_1, so up to
    # max_delta, where T_perp holds more than {0}, no run meets them all
    for q, m, family in SMALL_CELLS:
        if family == CYCLIC and q ** m < 200:
            for d in range(2, profile(q, m, CYCLIC).max_delta + 1):
                assert not ref.dually_bch_oracle(
                    tperp_of(q, m, CYCLIC, d)).is_dually, (q, m, d)


def test_dually_sweep_with_an_arc_after_the_seed():
    # mod 14 the cosets {0}, {1, 13}, {2, 12}, {3, 5, 7, 9, 11}, {4, 10}
    # and {6, 8}: the anchor 6 is the one seed on the half 0..7, with
    # arc 0 = 0..5 (position 0 in it, in the even-like T) before it and
    # arc 1 = {7} after it.  T(3) leaves arc 1 empty, so the run from 3
    # crosses the middle to 11 and meets every coset but {0}; T(4)
    # fills arc 1, so the run through the seed is {6} alone, and the
    # coset {4, 10} is cut off from it
    prof = toy_profile([0, 1, 2, 3, 4, 3, 6, 3], 1, 14,
                       [15, 2, 3, 4, 5, 4, 7, 4])
    assert prof.anchor == 6 and prof.max_delta == 6
    assert_toy_verdicts(prof, [True, True, False, True, True])


def sweep_deltas(prof, hi):
    """Every delta in [2, hi] within the budget, else a spread with edges."""
    if prof.rn * (hi - 1) <= DUALLY_EXHAUSTIVE_BUDGET:
        return list(range(2, hi + 1))
    edges = {2, 3, prof.max_delta, prof.max_delta + 1, hi}
    spread = range(2, hi, (hi - 2) // 20 + 1)
    return sorted(d for d in edges | set(spread) if d <= hi)


def test_dually_sweep_matches_sort_reference():
    # the seed-run verdicts against one sort over every run, on the
    # grid up to max_delta: even-like cyclic and negacyclic
    for q, m, family in MEMBERSHIP_GRID:
        prof = profile(q, m, family)
        lead = full_lead(prof)
        is_leader = lead == np.arange(prof.r - 1, prof.rn, prof.r)
        deltas = sweep_deltas(prof, prof.max_delta)
        swept = orc.dually_sweep(prof, deltas)
        for d, got in zip(deltas, swept):
            in_t = prof.defining_mask(d)
            in_t[0] |= family == CYCLIC
            want = ref.coverage_verdict_reference(lead, is_leader,
                                                  in_t, prof.rn)
            assert got == want, (q, m, family, d)


@st.composite
def sweep_requests(draw):
    """A profile and an unsorted delta list with repeats."""
    q, m, family = draw(st.sampled_from(SMALL_CELLS))
    prof = profile(q, m, family)
    hi = prof.n if draw(st.booleans()) else prof.max_delta
    edges = [d for d in (2, prof.max_delta, prof.max_delta + 1) if d <= hi]
    deltas = draw(st.lists(st.integers(2, hi) | st.sampled_from(edges),
                           min_size=1, max_size=10))
    deltas += draw(st.lists(st.sampled_from(deltas), max_size=3))
    return prof, deltas


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sweep_requests())
def test_dually_sweep_matches_sort_reference_on_random_requests(request):
    # the arc scan against one sort over every run, delta by delta; one
    # delta with an empty dual makes the whole call an EmptySet
    prof, deltas = request
    lead = full_lead(prof)
    is_leader = lead == np.arange(prof.r - 1, prof.rn, prof.r)
    want = []
    for d in deltas:
        in_t = prof.defining_mask(d)
        in_t[0] |= prof.r == 1
        try:
            want.append(ref.coverage_verdict_reference(lead, is_leader,
                                                       in_t, prof.rn))
        except EmptySet:
            with pytest.raises(EmptySet):
                orc.dually_sweep(prof, deltas)
            return
    got = orc.dually_sweep(prof, deltas)
    assert got == want
    assert all(type(v) is bool for v in got)


def test_negacyclic_profile_reads_the_full_map_of_its_q_m(monkeypatch):
    # one map per (q, m): the odd class is the full map at odd positions,
    # and only the last full map is kept
    calls = []
    leader_map = cy.leader_map

    def counted(*args):
        calls.append(args)
        return leader_map(*args)

    monkeypatch.setattr(cy, "leader_map", counted)
    orc._last_full_map.clear()
    full = orc.gap_profile(7, 3, CYCLIC).lead
    odd = orc.gap_profile(7, 3, NEGACYCLIC).lead
    assert calls == [(7, 344)]
    assert np.array_equal(odd, leader_map(7, 344, True))
    assert not full.flags.writeable  # the profiles share it
    orc.gap_profile(3, 3, NEGACYCLIC)  # builds its own odd map
    orc.gap_profile(7, 3, NEGACYCLIC)
    orc.gap_profile(3, 3, CYCLIC)  # replaces the kept map
    orc.gap_profile(7, 3, NEGACYCLIC)
    assert calls == [(7, 344), (3, 28, True), (3, 28), (7, 344, True)]


def test_negacyclic_profile_builds_without_its_full_map(monkeypatch):
    # the class cap admits the same (q, m) as with one map per family:
    # the odd class of 3^4 + 1 (41 residues) fits under a cap of 50 that
    # the full map (82 residues) does not
    monkeypatch.setattr(cy, "MAX_CLASS_RESIDUES", 50)
    orc._last_full_map.clear()
    with pytest.raises(ClassTooLarge):
        orc.gap_profile(3, 4, CYCLIC)
    prof = orc.gap_profile(3, 4, NEGACYCLIC)
    assert np.array_equal(prof.lead, profile(3, 4, NEGACYCLIC).lead)
    deltas = list(range(2, prof.max_delta + 1))
    assert orc.dually_sweep(prof, deltas) == \
        orc.dually_sweep(profile(3, 4, NEGACYCLIC), deltas)


def weight(word):
    return sum(1 for c in word if c)


def test_min_distance_tiny_codes():
    f3 = ff.get_field(3, 1)
    rep = orc.min_distance(np.array([[1, 1, 1]]), f3)
    assert rep.distance == 3 and rep.enumerated == 1
    # sum-zero code over F3: minimum weight 2
    parity = np.array([[1, 0, 2], [0, 1, 2]])
    rep = orc.min_distance(parity, f3)
    assert rep.distance == 2 and weight(rep.word) == 2
    assert rep.enumerated == 2  # level 2 weighs at least 2: not walked
    with pytest.raises(EmptySet):
        orc.min_distance(np.zeros((0, 3), dtype=int), f3)
    # level 1 is walked whatever the cap; past the cap the result is the
    # interval [low of the next level, best] with best's word
    rep = orc.min_distance(parity, f3, cap=1)
    assert (rep.low, rep.distance, rep.enumerated) == (2, 2, 2)
    heavy = np.array([[1, 0, 1, 1], [0, 1, 1, 2]])  # distance 3
    rep = orc.min_distance(heavy, f3, cap=1)
    assert (rep.low, rep.distance, rep.enumerated) == (2, 3, 2)
    assert_codeword(heavy, f3, rep.word, 3)
    rep = orc.min_distance(heavy, f3)
    assert (rep.low, rep.distance, rep.enumerated) == (3, 3, 4)


def test_min_distance_word_is_a_codeword():
    inst = realized(3, 3, NEGACYCLIC, 2)
    gen = cc.generator_matrix(inst)
    rep = orc.min_distance(gen, inst.field)
    assert rep.distance == 5
    assert weight(rep.word) == 5
    stacked = np.vstack([gen, np.array(rep.word)])
    assert pl.rank(stacked, inst.field) == inst.dim


def test_min_distance_walks_every_level():
    inst = realized(3, 4, NEGACYCLIC, 7)  # d = 20 > k = 9: every level
    gen = cc.generator_matrix(inst)
    got = orc.min_distance(gen, inst.field)
    assert got.distance == 20
    assert_codeword(gen, inst.field, got.word, 20)
    assert got.enumerated == (3**9 - 1) // 2
    # the first minimum lies below the level where the shift rule stops
    want = ref.info_set_walk_reference(inst.field,
                                       pl.row_reduce(gen, inst.field))
    assert want[:2] == (got.distance, got.word)


def test_min_distance_extension_field_symbols():
    # systematic [I | A] code over F9: the hand loop rebuilds every codeword
    # from scratch, independently of the oracle's walk
    fld = ff.get_field(3, 2)
    scalar = ref.scalar_field(fld)
    q = fld.order
    rng = random.Random(92)
    k, n = 3, 7
    a = [[rng.randrange(1, q) for _ in range(n - k)] for _ in range(k)]
    gen = [[1 if c == r else 0 for c in range(k)] + a[r] for r in range(k)]
    best = n + 1
    for idx in range(1, q ** k):
        msg = [(idx // q ** r) % q for r in range(k)]
        cw = [0] * n
        for r in range(k):
            for j in range(n):
                cw[j] = scalar.add(cw[j], scalar.mul(msg[r], gen[r][j]))
        best = min(best, weight(cw))
    rep = orc.min_distance(np.array(gen), fld)
    assert rep.distance == best
    assert weight(rep.word) == rep.distance
    chk = [[scalar.neg(a[r][j]) for r in range(k)]
           + [1 if c == j else 0 for c in range(n - k)]
           for j in range(n - k)]
    via = orc.min_distance_via_checks(np.array(chk), fld)
    assert via.distance == best


def test_min_distance_extension_field_realized():
    inst = realized(9, 2, CYCLIC, 2)
    gdual = cc.generator_matrix(cc.dual_code(inst))
    rep = orc.min_distance(gdual, inst.field)
    assert rep.distance == weight(rep.word)
    # rebuild each dual codeword by folding scaled rows, independently
    scalar = ref.scalar_field(inst.field)
    q = scalar.order
    kd, nd = gdual.shape
    add, mul = (np.array(t) for t in scalar.tables[:2])
    scaled = mul[:, gdual].transpose(1, 0, 2)  # [r, c]: c times row r
    best = nd + 1
    for idx in range(1, q ** kd):
        cw = np.zeros(nd, dtype=np.int64)
        for r in range(kd):
            cw = add[cw, scaled[r][(idx // q ** r) % q]]
        best = min(best, int(np.count_nonzero(cw)))
    assert rep.distance == best


# narrow-sense codes whose generator or dual generator matrices, over
# F_3, F_5, F_7, F_11 and F_9, are walked against the reference
WALK_CODES = [(3, 2, CYCLIC, 3), (3, 3, NEGACYCLIC, 2), (3, 3, NEGACYCLIC, 4),
              (5, 2, CYCLIC, 2), (5, 2, CYCLIC, 8), (7, 2, CYCLIC, 2),
              (7, 2, NEGACYCLIC, 2), (11, 2, NEGACYCLIC, 2),
              (9, 2, CYCLIC, 2), (9, 2, CYCLIC, 32)]


def walk_matrices():
    """(field, rows) of every matrix with at most 600k words, plus k = 1."""
    out = []
    for q, m, fam, d in WALK_CODES:
        inst = realized(q, m, fam, d)
        fld = inst.field
        for code in (inst, cc.dual_code(inst)):
            rows = cc.generator_matrix(code).tolist()
            if q ** len(rows) <= 600_000:
                out.append((fld, rows))
        out.append((fld, rows[:1]))
    return out


def check_against_gray_walk(cases):
    """The walk of each matrix of independent rows returns the distance of
    the Gray walk over every word, a word of that weight in the row span,
    and at most one word per scalar class."""
    for fld, rows in cases:
        q, k = fld.order, len(rows)
        want = ref.gray_walk_reference(fld, rows, 1, q ** k)[0]
        gen = np.array(rows)
        got = orc.min_distance(gen, fld)
        assert got.distance == want, (q, k)
        assert_codeword(gen, fld, got.word, want)
        assert got.enumerated <= (q ** k - 1) // (q - 1)


def test_block_walk_matches_reference(monkeypatch):
    # the level walk, built block by block, on the code matrices of
    # walk_matrices() without the shift rule
    cases = walk_matrices()
    assert {len(rows) for _, rows in cases} >= {1, 2, 4, 6, 8, 12}
    check_against_gray_walk(cases)
    # a small block budget: many chunks per level, few levels kept
    monkeypatch.setattr(orc, "BLOCK_SYMBOLS", 1 << 10)
    check_against_gray_walk([(fld, rows) for fld, rows in cases
                             if fld.order ** len(rows) <= 20_000])


def test_projective_walk_is_the_full_walk():
    # min_distance walks one word per scalar class and must find the
    # distance of the full Gray walk
    cases = []
    for q, m, fam, d in STRUCTURAL_INSTANCES:
        inst = realized(q, m, fam, d)
        for code in (inst, cc.dual_code(inst)):
            rows = cc.generator_matrix(code).tolist()
            if q ** len(rows) <= 600_000:
                cases.append((inst.field, rows))
    # the F_9 = F_3[x]/(x^2 + 2x + 2) matrices of the modulus test
    fld = ff.FieldCtx(3, 2, modulus=(2, 2, 1))
    rng = random.Random(0)
    for _ in range(60):
        cases.append((fld, [[rng.randrange(9) for _ in range(6)]
                            for _ in range(2)]))
    cases.append((fld, [[0, 4, 1, 7, 0]]))  # k = 1
    check_against_gray_walk(cases)


def test_info_set_needs_the_shift_rows():
    # a cyclic code with the support of a lightest word moved last: no
    # word vanishes on an information set, so it is not [0, k) any more,
    # and the shift rule refuses it
    inst = realized(3, 3, NEGACYCLIC, 2)  # [14, 8, 5]
    gen, fld = cc.generator_matrix(inst), inst.field
    want = orc.min_distance(gen, fld, shift_invariant=True)
    mixed = gen[:, np.argsort(np.array(want.word) != 0, kind="stable")]
    pivots, _ = pl.row_reduce(mixed, fld)
    assert pivots != list(range(inst.dim))
    got = orc.min_distance(mixed, fld)
    assert got.distance == 5
    assert_codeword(mixed, fld, got.word, 5)
    with pytest.raises(ValueError):
        orc.min_distance(mixed, fld, shift_invariant=True)
    # the rows in another order have the same reduced row-echelon form
    got = orc.min_distance(gen[::-1], fld, shift_invariant=True)
    assert (got.distance, got.word, got.enumerated) == \
        (want.distance, want.word, want.enumerated)
    dependent = np.vstack([gen, (gen[0] + gen[1]) % 3])
    for shift_invariant in (False, True):
        with pytest.raises(ValueError):
            orc.min_distance(dependent, fld, shift_invariant=shift_invariant)


def test_min_distance_uses_the_fields_own_modulus():
    # F_9 = F_3[x]/(x^2 + 2x + 2), not the default modulus x^2 + 1: the
    # returned word must lie in the brute-force span over this field and
    # have its minimum weight
    fld = ff.FieldCtx(3, 2, modulus=(2, 2, 1))
    assert fld.modulus != ff.get_field(3, 2).modulus
    scalar = ref.scalar_field(fld)
    q, k, n = fld.order, 2, 6
    rng = random.Random(0)
    for _ in range(60):
        gen = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        span = set()
        for a in range(q):
            for b in range(q):
                span.add(tuple(scalar.add(scalar.mul(a, x), scalar.mul(b, y))
                               for x, y in zip(*gen)))
        assert len(span) == q ** k  # independent rows
        best = min(weight(w) for w in span if any(w))
        rep = orc.min_distance(np.array(gen), fld)
        assert rep.word in span, gen
        assert rep.distance == weight(rep.word) == best, gen
        assert ref.gray_walk_reference(fld, gen, 1, q ** k)[0] == best, gen


def test_via_checks_cross_validates_enumeration():
    for q, m, fam, d in [(3, 3, NEGACYCLIC, 2), (3, 3, NEGACYCLIC, 4),
                         (3, 2, CYCLIC, 3)]:
        inst = realized(q, m, fam, d)
        enum = orc.min_distance(cc.generator_matrix(inst), inst.field)
        dual = cc.dual_code(inst)
        via = orc.min_distance_via_checks(cc.generator_matrix(dual),
                                          inst.field)
        assert via.distance == enum.distance, (q, m, fam, d)
        assert weight(via.word) == via.distance
        assert (enum.low, via.low) == (enum.distance, via.distance)
        # no support below the distance is dependent: the interval
        # [1, d] closes at d, with its word
        got = orc.min_distance_via_checks(cc.generator_matrix(dual),
                                          inst.field, replace(via, low=1))
        assert (got.low, got.distance, got.word) == \
            (via.distance, via.distance, via.word)


# sides of STRUCTURAL_INSTANCES whose distance (9 to 22) is out of reach
# of the plain check-matrix search; every other side takes it under 130k
# nodes.  "primal" is the code's own distance, "dual" its dual's.
PLAIN_SEARCH_TOO_SLOW = {
    ((5, 2, CYCLIC, 2), "dual"), ((5, 2, CYCLIC, 8), "primal"),
    ((3, 3, CYCLIC, 2), "dual"), ((9, 2, CYCLIC, 2), "dual"),
    ((11, 2, CYCLIC, 2), "dual"), ((3, 4, NEGACYCLIC, 2), "dual"),
    ((3, 4, NEGACYCLIC, 7), "primal"), ((7, 2, NEGACYCLIC, 2), "dual"),
    ((7, 2, NEGACYCLIC, 6), "primal"), ((7, 3, NEGACYCLIC, 2), "dual"),
    ((11, 2, NEGACYCLIC, 2), "dual"),
}


def plain_search_cases():
    cases = [(spec, side) for spec in STRUCTURAL_INSTANCES
             for side in ("primal", "dual")
             if (spec, side) not in PLAIN_SEARCH_TOO_SLOW]
    cases.append(((9, 2, CYCLIC, 32), "dual"))  # F_9, distance 4
    return cases


def side_and_checks(spec, side):
    """The code on `side` of spec, its check matrix and its field."""
    inst = realized(*spec)
    dual = cc.dual_code(inst)
    code, other = (inst, dual) if side == "primal" else (dual, inst)
    return code, cc.generator_matrix(other), inst.field


def test_shift_normalised_search_matches_plain():
    cases = plain_search_cases()
    plain_nodes = normalised_nodes = 0
    for spec, side in cases:
        code, checks, fld = side_and_checks(spec, side)
        plain = orc.min_distance_via_checks(checks, fld)
        got = orc.min_distance_via_checks(checks, fld, shift_invariant=True)
        d = got.distance
        assert d == plain.distance, (spec, side)
        assert weight(got.word) == d and got.word[0] != 0, (spec, side)
        scalar = ref.scalar_field(fld)
        for row in checks.tolist():
            acc = 0
            for c, x in zip(row, got.word):
                acc = scalar.add(acc, scalar.mul(c, x))
            assert acc == 0, (spec, side)
        if fld.order ** code.dim <= 60_000:
            rows = cc.generator_matrix(code).tolist()
            walk = ref.gray_walk_reference(fld, rows, 1, fld.order ** code.dim)
            assert walk[0] == d, (spec, side)
        closed = orc.min_distance_via_checks(checks, fld, replace(got, low=1),
                                             shift_invariant=True)
        assert (closed.low, closed.distance) == (d, d), (spec, side)
        plain_nodes += plain.enumerated
        normalised_nodes += got.enumerated
    assert len(cases) == 20
    assert {s[2] for s, _ in cases} == {CYCLIC, NEGACYCLIC}
    # the normalisation is in force: about 20x fewer nodes over these cases
    assert normalised_nodes * 10 < plain_nodes


def test_check_search_matches_reference():
    # the same nodes in the same order as the one-node-at-a-time search:
    # the same distance, word and node count
    searches = {(spec, side): side_and_checks(spec, side)[1:]
                for spec, side in plain_search_cases()}
    fld = ff.FieldCtx(3, 2, modulus=(2, 2, 1))
    custom = cc.realize(cc.CodeSpec(9, 2, CYCLIC, 32), field=fld)
    searches["F_3[x]/(x^2 + 2x + 2)", "dual"] = (
        cc.generator_matrix(custom), fld)
    big = ((7, 2, NEGACYCLIC, 4), "primal")  # [25, 13, 9]
    searches[big] = side_and_checks(*big)[1:]
    nodes = {}
    for key, (checks, field) in searches.items():
        # the plain search of `big` takes 2.5 M nodes
        for si in (True,) if key == big else (False, True):
            got = orc.min_distance_via_checks(checks, field,
                                              shift_invariant=si)
            want = ref.check_search_reference(checks, field,
                                              shift_invariant=si)
            assert (got.distance, got.word, got.enumerated) == want, key
            nodes[key, si] = got.enumerated
    assert nodes[big, True] == 119_303
    assert nodes[((9, 2, CYCLIC, 32), "dual"), True] == 1_456


def test_check_search_budget(monkeypatch, capsys):
    inst = realized(5, 2, CYCLIC, 8)
    checks = cc.generator_matrix(inst)  # its dual has distance 4 (173 nodes)
    monkeypatch.setattr(orc, "MAX_CHECK_NODES", 100)
    with pytest.raises(SearchBudgetExceeded,
                       match=r"visited 101 nodes.* w = 3 "):
        orc.min_distance_via_checks(checks, inst.field, shift_invariant=True)
    # leaves counted in bulk neither overshoot nor undershoot the budget
    monkeypatch.setattr(orc, "MAX_CHECK_NODES", 173)
    got = orc.min_distance_via_checks(checks, inst.field, shift_invariant=True)
    assert (got.distance, got.enumerated) == (4, 173)
    monkeypatch.setattr(orc, "MAX_CHECK_NODES", 172)
    with pytest.raises(SearchBudgetExceeded,
                       match=r"visited 173 nodes.* w = 4 "):
        orc.min_distance_via_checks(checks, inst.field, shift_invariant=True)
    monkeypatch.setattr(orc, "MAX_CHECK_NODES", 100)
    # with an interval to narrow, the search returns it instead, its low
    # raised to the support size where the budget ran out
    dual = cc.generator_matrix(cc.dual_code(inst))
    within = orc.min_distance(dual, inst.field, cap=1, shift_invariant=True)
    assert (within.low, within.distance) == (3, 4)
    got = orc.min_distance_via_checks(checks, inst.field,
                                      replace(within, low=1),
                                      shift_invariant=True)
    assert (got.low, got.distance, got.word) == (3, 4, within.word)
    assert got.low <= 4 <= got.distance and got.enumerated <= 100
    # verify turns the error into one failed claim, and the CLI exits 1
    # with a JSON report instead of a traceback; a word budget of 1 walks
    # level 1 only and leaves each distance to the check-matrix search,
    # and the claim names the interval left open
    walk = orc.min_distance
    monkeypatch.setattr(orc, "min_distance",
                        lambda gen, field, cap, **kw:
                        walk(gen, field, 1, **kw))
    report = examples.verify_example("cyclic-q5-m2")
    assert not report.passed
    assert [c.name for c in report.claims] == ["computable"]
    assert report.claims[0].computed.startswith("SearchBudgetExceeded: ")
    assert report.claims[0].computed.endswith(" in [13, 16]")
    assert cli.main(["verify", "cyclic-q5-m2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["examples"][0]["claims"][0]["name"] == \
        "computable"
    assert "Traceback" not in err


# the codes of perfbench's distance workload; with STRUCTURAL_INSTANCES
# they give the sides the information-set route is checked on
DISTANCE_WORKLOAD_CODES = ((7, 2, NEGACYCLIC, 4), (9, 2, CYCLIC, 32),
                           (3, 5, NEGACYCLIC, 23))


def info_set_sides():
    """(spec, side) of both sides of every structural and workload code."""
    return [(spec, side)
            for spec in STRUCTURAL_INSTANCES + DISTANCE_WORKLOAD_CODES
            for side in ("primal", "dual")]


def level_caps(q, k):
    """caps[t]: the words of information weight at most t, one per class."""
    caps = [0]
    for t in range(1, k + 1):
        caps.append(caps[-1] + math.comb(k, t) * (q - 1) ** (t - 1))
    return caps


def assert_codeword(gen, fld, word, distance):
    assert weight(word) == distance
    assert pl.rank(np.vstack([gen, np.array(word)]), fld) == len(gen)


def test_info_set_levels_match_reference():
    # a word budget of caps[t] walks every information weight up to t and
    # refuses t + 1, unless the stopping rule ends the walk first
    cases = []
    for spec, side in info_set_sides():
        code, _, fld = side_and_checks(spec, side)
        if fld.order ** code.dim <= 20_000:
            cases.append((fld, cc.generator_matrix(code)))
    fld = ff.FieldCtx(3, 2, modulus=(2, 2, 1))  # not the default F_9
    custom = cc.realize(cc.CodeSpec(9, 2, CYCLIC, 2), field=fld)
    cases.append((fld, cc.generator_matrix(cc.dual_code(custom))))
    pruned = 0
    for fld, gen in cases:
        (k, n), q = gen.shape, fld.order
        best = ref.info_set_reference(fld, gen.tolist())
        caps = level_caps(q, k)
        for t in range(1, k + 1):
            got = orc.min_distance(gen, fld, cap=caps[t],
                                   shift_invariant=True)
            assert_codeword(gen, fld, got.word, got.distance)
            if got.low < got.distance:
                low = -(-(t + 1) * n // k)
                assert (got.low, got.distance) == (low, best[t]), (q, k, t)
                assert low < best[t] and low <= best[k], (q, k, t)
                assert got.enumerated == caps[t], (q, k, t)
                continue
            assert got.distance == best[t] == best[k], (q, k, t)
            assert caps[t - 1] < got.enumerated <= caps[t], (q, k, t)
            assert_codeword(gen, fld, got.word, got.distance)
            pruned += got.enumerated < caps[k]
            break
    assert len(cases) == 17
    assert pruned == len(cases)  # each walk stops before its last level


def test_info_set_distance_matches_other_routes():
    for spec, side in info_set_sides():
        code, checks, fld = side_and_checks(spec, side)
        gen = cc.generator_matrix(code)
        got = orc.min_distance(gen, fld, cap=orc.MIN_DISTANCE_CAP,
                               shift_invariant=True)
        assert_codeword(gen, fld, got.word, got.distance)
        words = fld.order ** code.dim
        found = {}
        if got.distance <= 10 and words > 5_000:
            found["checks"] = orc.min_distance_via_checks(
                checks, fld, shift_invariant=True).distance
        elif words <= 120_000:
            found["Gray walk"] = ref.gray_walk_reference(
                fld, gen.tolist(), 1, words)[0]
        # without the shift rule, up to 10^7 words
        walk = orc.min_distance(gen, fld, cap=10 ** 7)
        assert walk.low <= got.distance <= walk.distance, (spec, side)
        if walk.low == walk.distance:
            found["level walk"] = walk.distance
        assert found and set(found.values()) == {got.distance}, \
            (spec, side, found)


def test_level_walk_matches_unranking_reference(monkeypatch):
    # the level walk returns the first minimum of the unranking walk, its
    # word and its word count, with the default block and with 2^8 digits,
    # where chunks hold a few words and levels are built through two or
    # more levels that are not kept
    cases = []
    for spec, side in info_set_sides():
        code, _, fld = side_and_checks(spec, side)
        gen = cc.generator_matrix(code)
        parity = pl.row_reduce(gen, fld)
        cases.append((gen, fld, ref.info_set_walk_reference(fld, parity)))
    words = orc._LevelWalk.words
    depth = [0, 0]  # levels not kept on the call chain: now, at most

    def spy(self, t, a, b):
        built = t not in self.kept
        depth[0] += built
        depth[1] = max(depth)
        try:
            return words(self, t, a, b)
        finally:
            depth[0] -= built

    monkeypatch.setattr(orc._LevelWalk, "words", spy)
    for block, nested in ((orc.BLOCK_SYMBOLS, 2), (1 << 8, 5)):
        monkeypatch.setattr(orc, "BLOCK_SYMBOLS", block)
        depth[1] = 0
        for gen, fld, want in cases:
            got = orc.min_distance(gen, fld, shift_invariant=True)
            assert (got.distance, got.word, got.enumerated) == want, \
                (fld.order, gen.shape, block)
        assert depth[1] == nested, block


def test_in_level_stop_changes_no_answer():
    # a level ends with the block of its first word that meets the level's
    # lower bound; the walk run to the end of every level it starts finds
    # the same first minimum, over more words
    walked = {}
    for spec, side in info_set_sides():
        code, _, fld = side_and_checks(spec, side)
        gen = cc.generator_matrix(code)
        got = orc.min_distance(gen, fld, shift_invariant=True)
        want = ref.info_set_walk_reference(fld, pl.row_reduce(gen, fld),
                                           in_level_stop=False)
        assert (got.distance, got.word) == want[:2], (spec, side)
        assert got.enumerated <= want[2], (spec, side)
        walked[spec, side] = got.distance, got.enumerated, want[2]
    # level 6 of the (3, 5, neg, 23) primal ends with the block of its
    # first word of weight 61
    assert walked[(3, 5, NEGACYCLIC, 23), "primal"] == (61, 32_440, 47_224)


def test_level_walk_keeps_one_level(monkeypatch):
    # a level is stored only if the level above it could still run, as
    # judged before the level: within the word cap, and with a lower bound
    # below the best weight so far; it takes at most 16 BLOCK_SYMBOLS
    # digits and replaces every lower kept level.  At 2^18 the budget
    # admits level 6 of the (3, 5, neg, 23) primal, but level 7 could not
    # beat the weight found before level 6
    walk = orc._LevelWalk.walk
    calls = []  # (level, stored, least weight of the level)

    def spy(self, t, keep, low):
        got = walk(self, t, keep, low)
        calls.append((t, t in self.kept, t + got[0]))
        assert len(self.kept.keys() - {1}) <= 1, sorted(self.kept)
        for level, digits in self.kept.items():
            assert level == 1 or digits.size <= 16 * orc.BLOCK_SYMBOLS
        return got

    monkeypatch.setattr(orc._LevelWalk, "walk", spy)
    for block, stored in ((orc.BLOCK_SYMBOLS, [2, 3, 4]),
                          (1 << 18, [2, 3, 4, 5])):
        monkeypatch.setattr(orc, "BLOCK_SYMBOLS", block)
        for spec, side in info_set_sides():
            code, _, fld = side_and_checks(spec, side)
            gen = cc.generator_matrix(code)
            (k, n), caps = gen.shape, level_caps(fld.order, gen.shape[0])
            calls.clear()
            orc.min_distance(gen, fld, shift_invariant=True)
            assert [t for t, _, _ in calls] == list(range(1, len(calls) + 1))
            for t, kept, _ in calls[1:]:
                best = min(w for _, _, w in calls[:t - 1])
                assert not kept or t < k and -(-(t + 1) * n // k) < best \
                    and caps[t + 1] <= orc.MIN_DISTANCE_CAP, \
                    (spec, side, block, t)
            if (spec, side) == ((3, 5, NEGACYCLIC, 23), "primal"):
                assert [t for t, kept, _ in calls[1:] if kept] == stored
                assert len(calls) == 6


SMALL_CLASSES = ((3, 2, CYCLIC), (3, 3, CYCLIC), (5, 2, CYCLIC),
                 (3, 2, NEGACYCLIC), (3, 3, NEGACYCLIC), (7, 2, NEGACYCLIC))


@st.composite
def small_sides(draw):
    q, m, family = draw(st.sampled_from(SMALL_CLASSES))
    delta = draw(st.integers(2, cy.family_parameters(q, m, family)[0]))
    return (q, m, family, delta), draw(st.sampled_from(["primal", "dual"]))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_sides())
def test_distance_routes_agree(case):
    # every route within its budget finds the same distance: the Gray
    # walk of every word up to 20,000 words, the walk without the shift
    # rule up to 20,000 walked words, the check-matrix search up to
    # 20,000 nodes
    code, checks, fld = side_and_checks(*case)
    assume(code.dim > 0)
    gen = cc.generator_matrix(code)
    got = orc.min_distance(gen, fld, shift_invariant=True)
    assert_codeword(gen, fld, got.word, got.distance)
    found = {"information set": got.distance}
    words = fld.order ** code.dim
    if words <= 20_000:
        found["Gray walk"] = ref.gray_walk_reference(
            fld, gen.tolist(), 1, words)[0]
    walk = orc.min_distance(gen, fld, cap=20_000)
    assert walk.low <= got.distance <= walk.distance, (case, walk)
    if walk.low == walk.distance:
        found["level walk"] = walk.distance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orc, "MAX_CHECK_NODES", 20_000)
        try:
            found["checks"] = orc.min_distance_via_checks(
                checks, fld, shift_invariant=True).distance
        except SearchBudgetExceeded:
            pass
    assume(len(found) > 1)
    assert len(set(found.values())) == 1, (case, found)


def test_check_bound_report_defect_override():
    rep = cf.dual_bound_negacyclic(3, 5, 8)
    orc.check_bound_report(rep)
    assert rep.agrees is False
    assert rep.lower_bound == 7  # replaced by the run bound
    assert rep.warning and "replaced" in rep.warning
    assert (rep.oracle_gap_low, rep.oracle_gap_high) == (55, 63)


def test_check_bound_report_agreement():
    rep = cf.dual_bound_negacyclic(3, 4, 2)
    orc.check_bound_report(rep)
    assert rep.agrees is True and rep.lower_bound == 14
    assert (rep.oracle_gap_low, rep.oracle_gap_high) == (27, None)
    assert rep.warning is None
    rep = cf.dual_bound_cyclic(3, 2, 2)
    orc.check_bound_report(rep)
    assert rep.agrees is True and rep.lower_bound == 4
    assert rep.oracle_gap_low == 3


# the one known family of formula overclaims: the wide band of the
# q = 3, odd m bound table on its upper half; everywhere else the bound
# must agree with the oracle and stay within the exact run bound
EXPECTED_BOUND_DEFECTS = {
    (3, 3): set(),
    (3, 4): set(),
    (3, 5): {8, 9, 10},
    (3, 6): set(),
    (3, 7): set(range(8, 11)) | set(range(62, 92)),
    (7, 2): set(),
    (7, 3): set(),
    (11, 2): set(),
    (11, 3): set(),
}

# exact dual run bounds over the defective deltas, for the record
EXACT_RUN_BOUND_AT_DEFECTS = {
    (3, 5): {8: 7, 9: 7, 10: 7},
    (3, 7): {**{d: 79 for d in range(8, 11)},
             **{d: 9 for d in range(62, 89)},
             **{d: 6 for d in range(89, 92)}},
}


def test_bound_defect_sets_are_exactly_the_known_ones():
    for (q, m), want in EXPECTED_BOUND_DEFECTS.items():
        prof = profile(q, m, NEGACYCLIC)
        got = {}
        for d in range(2, prof.max_delta + 1):
            rep = cf.dual_bound_negacyclic(q, m, d)
            orc.check_bound_report(rep)
            if not rep.agrees:
                got[d] = rep.lower_bound
        assert set(got) == want, (q, m)
        for d, bound in got.items():
            assert bound == EXACT_RUN_BOUND_AT_DEFECTS[(q, m)][d], (q, m, d)


def test_check_bound_report_gaps_match_gap_scan():
    points = [(q, m, NEGACYCLIC) for q, m in EXPECTED_BOUND_DEFECTS]
    points += [(3, 3, CYCLIC), (5, 3, CYCLIC)]
    for q, m, family in points:
        two_sided = family == NEGACYCLIC and m % 2 == 1
        bound = (cf.dual_bound_cyclic if family == CYCLIC
                 else cf.dual_bound_negacyclic)
        for d in range(2, profile(q, m, family).max_delta + 1):
            rep = bound(q, m, d)
            orc.check_bound_report(rep)
            want = ref.gap_scan(tperp_of(q, m, family, d),
                                two_sided=two_sided)
            assert (rep.oracle_gap_low, rep.oracle_gap_high) == want, \
                (q, m, family, d)


def oracle_imports(source: str) -> list[str]:
    """Every way `source` reaches bchlab.oracle or the production leader
    map: import statements (a relative one read as inside bchlab),
    attribute access, and names given as strings (importlib, __import__,
    sys.modules, getattr)."""
    modules = ("bchlab.oracle", "bchlab.cyclotomic.leader_map")
    attrs = ("oracle", "leader_map")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["bchlab", node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            found += [ast.unparse(node)] if node.attr in attrs else []
            continue
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [node.value] if node.value in attrs else []
            names = [node.value]
        else:
            continue
        found += [name for name in names
                  if any(name == m or name.startswith(m + ".")
                         for m in modules)]
    return found


def test_oracle_import_guard_catches_every_form():
    for bad in ("import bchlab.oracle", "import bchlab.oracle as o",
                "from bchlab import oracle", "from bchlab import oracle as o",
                "from bchlab.oracle import GapProfile",
                "from . import oracle", "from .oracle import dually_sweep",
                "import bchlab\nbchlab.oracle.gap_profile(3, 2, 'cyclic')",
                "importlib.import_module('bchlab.oracle')",
                "__import__('bchlab.oracle')", "sys.modules['bchlab.oracle']",
                "import bchlab as b\nb.oracle", "getattr(bchlab, 'oracle')",
                "from bchlab.cyclotomic import leader_map",
                "cyclotomic.leader_map(3, 8)"):
        assert oracle_imports(bad), bad
    for good in ("from bchlab import cyclotomic", "import bchlab.errors",
                 "from bchlab.finite_field import FieldCtx",
                 "'the slow twin of `bchlab.oracle` searches'"):
        assert not oracle_imports(good), good


def test_reference_does_not_import_the_oracle():
    # nor the production leader map: the references build their own
    with open(ref.__file__) as fh:
        assert oracle_imports(fh.read()) == []
