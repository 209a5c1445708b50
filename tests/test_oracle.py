"""Brute-force oracles: gap profile, dually sweep, exact distances.

The gap profile and the dually sweep are checked against the naive
per-set references in reference.py, which also carry the witness and
counterexample certificates.
"""

import ast
import random

import numpy as np
import pytest

from bchlab import closed_forms as cf
from bchlab import code_core as cc
from bchlab import cyclotomic as cy
from bchlab import finite_field as ff
from bchlab import oracle as orc
from bchlab import poly_linalg as pl
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import EmptySet, TooManyCodewords

import reference as ref
from grid_utils import profile, realized


def tperp_of(q, m, family, delta, b=None):
    return cy.dual_defining_set(cy.defining_set(q, m, family, delta, b))


def even_like_tperp(q, m, delta):
    # even-like cyclic subcode: defining set C_0 u C_1 u ... u C_{delta-1}
    return cy.dual_defining_set(
        cy.defining_set(q, m, CYCLIC, delta + 1, b=0))


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
    whole = cy.DefiningSet(3, 28, 2, frozenset(range(1, 28, 2)))
    assert ref.gap_scan(whole, anchor=7, two_sided=True) == (None, None)


def test_gap_profile_matches_gap_scan():
    for q, m, family in [(3, 3, CYCLIC), (5, 3, CYCLIC), (3, 4, NEGACYCLIC),
                         (7, 3, NEGACYCLIC)]:
        prof = profile(q, m, family)
        two_sided = family == NEGACYCLIC and m % 2 == 1
        for d in range(2, prof.max_delta + 1):
            tp = tperp_of(q, m, family, d)
            low, high = ref.gap_scan(tp, anchor=prof.anchor,
                                     two_sided=two_sided)
            assert prof.low(d) == low, (q, m, family, d)
            if two_sided:
                assert prof.high(d) == high, (q, m, family, d)


def test_gap_profile_fields():
    prof = profile(3, 4, NEGACYCLIC)
    assert (prof.n, prof.r, prof.rn) == (41, 2, 82)
    assert prof.anchor == 41
    assert prof.max_delta == 21
    prof = profile(3, 2, CYCLIC)
    assert prof.anchor == 5 and prof.max_delta == 5


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
        assert orc.dually_sweep(q, m, fam, [d]) == [want], (q, m, fam, d)
    for q, m, d, want, witness, cx in DUALLY_EVEN_PINS:
        tp = even_like_tperp(q, m, d)
        verdict = ref.dually_bch_oracle(tp)
        assert (verdict.is_dually, verdict.witness, verdict.counterexample) \
            == (want, witness, cx), (q, m, d)
        assert_witness_consistent(tp, verdict)
        assert orc.dually_sweep(q, m, CYCLIC, [d], even_like=True) == \
            [want], (q, m, d)


def test_dually_engines_agree_exhaustively():
    # narrow-sense sets, (3, 3, cyclic) included
    for q, m, family in [(3, 3, NEGACYCLIC), (3, 4, NEGACYCLIC),
                         (7, 2, NEGACYCLIC), (3, 3, CYCLIC)]:
        deltas = list(range(2, profile(q, m, family).max_delta + 1))
        swept = orc.dually_sweep(q, m, family, deltas)
        for d, got in zip(deltas, swept):
            tp = tperp_of(q, m, family, d)
            verdict = ref.dually_bch_oracle(tp)
            assert got == verdict.is_dually, (q, m, family, d)
            assert_witness_consistent(tp, verdict)


def test_dually_sweep_matches_fast_engine():
    # one sweep over many deltas gives what one-delta sweeps give
    prof = profile(3, 4, NEGACYCLIC)
    deltas = list(range(2, prof.max_delta + 1))
    swept = orc.dually_sweep(3, 4, NEGACYCLIC, deltas)
    assert swept == [orc.dually_sweep(3, 4, NEGACYCLIC, [d])[0]
                     for d in deltas]
    # even-like sets, against the per-set reference
    deltas = list(range(2, 14))
    swept = orc.dually_sweep(5, 2, CYCLIC, deltas, even_like=True)
    assert swept == [ref.dually_bch_oracle(even_like_tperp(5, 2, d)).is_dually
                     for d in deltas]
    # order of requested deltas must not matter
    assert orc.dually_sweep(5, 2, CYCLIC, [13, 2, 8], even_like=True) == \
        [swept[11], swept[0], swept[6]]


def test_dually_sweep_empty_dual():
    with pytest.raises(EmptySet):
        orc.dually_sweep(3, 2, CYCLIC, [10], even_like=True)


def weight(word):
    return sum(1 for c in word if c)


def test_min_distance_tiny_codes():
    f3 = ff.get_field(3, 1)
    rep = orc.min_distance(np.array([[1, 1, 1]]), f3)
    assert rep.distance == 3 and rep.enumerated == 2
    # sum-zero code over F3: minimum weight 2
    parity = np.array([[1, 0, 2], [0, 1, 2]])
    rep = orc.min_distance(parity, f3)
    assert rep.distance == 2 and weight(rep.word) == 2
    with pytest.raises(EmptySet):
        orc.min_distance(np.zeros((0, 3), dtype=int), f3)
    with pytest.raises(TooManyCodewords):
        orc.min_distance(parity, f3, cap=5)


def test_min_distance_word_is_a_codeword():
    inst = realized(3, 3, NEGACYCLIC, 2)
    gen = cc.generator_matrix(inst)
    rep = orc.min_distance(gen, inst.field)
    assert rep.distance == 5
    assert weight(rep.word) == 5
    stacked = np.vstack([gen, np.array(rep.word)])
    assert pl.rank(stacked, inst.field) == inst.dim


def test_min_distance_workers_deterministic():
    inst = realized(3, 4, NEGACYCLIC, 7)  # 3^9 - 1 words, multiple blocks
    gen = cc.generator_matrix(inst)
    single = orc.min_distance(gen, inst.field, workers=1)
    multi = orc.min_distance(gen, inst.field, workers=3)
    assert single.distance == multi.distance == 20
    assert single.word == multi.word
    assert single.enumerated == multi.enumerated == 3**9 - 1


def test_min_distance_extension_field_symbols():
    # systematic [I | A] code over F9: the hand loop rebuilds every codeword
    # from scratch, independently of the oracle's block Gray walk
    fld = ff.get_field(3, 2)
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
                cw[j] = fld.add(cw[j], fld.mul(msg[r], gen[r][j]))
        best = min(best, weight(cw))
    rep = orc.min_distance(np.array(gen), fld)
    assert rep.distance == best
    assert weight(rep.word) == rep.distance
    chk = [[fld.sub(0, a[r][j]) for r in range(k)]
           + [1 if c == j else 0 for c in range(n - k)]
           for j in range(n - k)]
    via = orc.min_distance_via_checks(np.array(chk), fld)
    assert via.distance == best


def test_min_distance_extension_field_realized():
    inst = realized(9, 2, CYCLIC, 2)
    gdual = cc.generator_matrix(cc.dual_code(inst))
    rep = orc.min_distance(gdual, inst.field)
    assert rep.distance == weight(rep.word)
    # rebuild each dual codeword by folding scaled rows, no gray walk
    fld = inst.field
    q = fld.order
    kd, nd = gdual.shape
    add = np.array([[fld.add(x, y) for y in range(q)] for x in range(q)])
    scaled = np.array([[[fld.mul(c, int(x)) for x in row] for c in range(q)]
                       for row in gdual])
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


def test_block_walk_matches_reference(monkeypatch):
    rng = random.Random(4)
    cases = walk_matrices()
    one_block = 0
    for fld, rows in cases:
        end = fld.order ** len(rows)
        mul = orc._mul_table(fld)
        ranges = [(1, end)]
        for _ in range(3):
            lo = rng.randrange(1, end)
            ranges.append((lo, min(end, lo + rng.randrange(1, 20_000))))
        for lo, hi in ranges:
            got = orc._distance_block(fld.p, fld.k, mul, rows, lo, hi)
            want = ref.gray_walk_reference(fld, rows, lo, hi)
            assert got == want, (fld.order, len(rows), lo, hi)
        one_block += end * len(rows[0]) * fld.k <= orc.BLOCK_SYMBOLS
    assert {len(rows) for _, rows in cases} >= {1, 2, 4, 6, 8, 12}
    assert one_block and one_block < len(cases)
    # a small block budget: one Gray digit per block, many blocks
    monkeypatch.setattr(orc, "BLOCK_SYMBOLS", 1 << 10)
    for fld, rows in cases:
        end = fld.order ** len(rows)
        if end <= 20_000:
            got = orc._distance_block(fld.p, fld.k, orc._mul_table(fld),
                                      rows, 1, end)
            assert got == ref.gray_walk_reference(fld, rows, 1, end)


def test_min_distance_uses_the_fields_own_modulus():
    # F_9 = F_3[x]/(x^2 + 2x + 2), not the default modulus x^2 + 1: the
    # returned word must lie in the brute-force span over this field and
    # have its minimum weight
    fld = ff.FieldCtx(3, 2, modulus=(2, 2, 1))
    assert fld.modulus != ff.get_field(3, 2).modulus
    q, k, n = fld.order, 2, 6
    rng = random.Random(0)
    for _ in range(60):
        gen = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        span = set()
        for a in range(q):
            for b in range(q):
                span.add(tuple(fld.add(fld.mul(a, x), fld.mul(b, y))
                               for x, y in zip(*gen)))
        assert len(span) == q ** k  # independent rows
        best = min(weight(w) for w in span if any(w))
        rep = orc.min_distance(np.array(gen), fld)
        assert rep.word in span, gen
        assert rep.distance == weight(rep.word) == best, gen
        assert ref.gray_walk_reference(fld, gen, 1, q ** k)[2] == \
            list(rep.word)


def test_walk_split_is_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(orc.os, "cpu_count", lambda: 2)
    assert orc._walk_split(10**6, 1000) == [(1, 500_001),
                                            (500_001, 1_000_001)]
    assert orc._walk_split(10**6, 1) == [(1, 1_000_001)]
    assert orc._walk_split(4000, 2) == [(1, 4001)]
    monkeypatch.setattr(orc.os, "cpu_count", lambda: None)
    assert orc._walk_split(10**6, 1000) == [(1, 1_000_001)]
    monkeypatch.setattr(orc.os, "cpu_count", lambda: 64)
    blocks = orc._walk_split(10**6, 3)
    assert len(blocks) == 3 and blocks[0][0] == 1
    assert blocks[-1][1] == 10**6 + 1
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


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
        with pytest.raises(EmptySet):
            orc.min_distance_via_checks(cc.generator_matrix(dual),
                                        inst.field,
                                        max_weight=via.distance - 1)


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


def test_reference_does_not_import_the_oracle():
    with open(ref.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        assert not any(name == "bchlab.oracle"
                       or name.startswith("bchlab.oracle.")
                       for name in names), names
