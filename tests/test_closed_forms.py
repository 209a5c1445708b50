"""Piecewise closed forms pinned against machine-verified value tables.

Every vector below was cross-checked against the brute-force oracles (the
grid suite re-verifies formula-vs-oracle equality; this file additionally
pins the concrete values and table/row names so a regression in either side
is caught with an exact diff).
"""

import pytest

from bchlab import closed_forms as cf
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import (BadFamilyParams, DeltaOutOfRange, Phi3Unavailable,
                           UnsupportedM)


def expand(runs):
    """[(lo, hi, value)] -> {delta: value}."""
    out = {}
    for lo, hi, v in runs:
        for d in range(lo, hi + 1):
            out[d] = v
    return out


def test_delta_leaders_formula():
    assert cf.delta_leaders_formula(3, 2) == (5, 2)
    assert cf.delta_leaders_formula(3, 3) == (14, 7)
    assert cf.delta_leaders_formula(3, 5) == (122, 61)
    assert cf.delta_leaders_formula(5, 2) == (13, 8)
    assert cf.delta_leaders_formula(5, 3) == (63, 42)
    assert cf.delta_leaders_formula(7, 3) == (172, 129)
    assert cf.delta_leaders_formula(9, 3) == (365, 292)
    assert cf.delta_leaders_formula(11, 2) == (61, 50)
    # m = 0 (mod 4): no closed form for delta2, delta1 still available
    assert cf.delta_leaders_formula(3, 4, count=1) == (41,)
    with pytest.raises(UnsupportedM):
        cf.delta_leaders_formula(3, 4)
    with pytest.raises(UnsupportedM):
        cf.delta_leaders_formula(5, 4)


def test_phi_leaders_formula():
    assert cf.phi_leaders_formula(3, 3) == (7, 5, 1)
    assert cf.phi_leaders_formula(3, 4) == (41, 13, 11)
    assert cf.phi_leaders_formula(3, 5) == (61, 47, 43)
    assert cf.phi_leaders_formula(7, 2) == (25, 17, 11)
    assert cf.phi_leaders_formula(7, 3) == (129, 123, 115)
    assert cf.phi_leaders_formula(11, 2) == (61, 49, 39)
    assert cf.phi_leaders_formula(11, 3) == (555, 545, 533)
    # q^m < 25: no third odd leader
    assert cf.phi_leaders_formula(3, 2, count=2) == (5, 1)
    with pytest.raises(Phi3Unavailable):
        cf.phi_leaders_formula(3, 2)


CYCLIC_GAP_PINS = {
    (3, 2): [(2, 2, 3), (3, 5, 4)],
    (3, 3): [(2, 2, 9), (3, 4, 10), (5, 5, 12), (6, 14, 13)],
    (5, 2): [(2, 2, 5), (3, 3, 10), (4, 8, 11), (9, 13, 12)],
    (7, 2): [(2, 2, 7), (3, 3, 14), (4, 4, 21), (5, 11, 22),
             (12, 18, 23), (19, 25, 24)],
    (9, 2): [(2, 2, 9), (3, 3, 18), (4, 4, 27), (5, 5, 36), (6, 14, 37),
             (15, 23, 38), (24, 32, 39), (33, 41, 40)],
}


def test_i_delta_cyclic_vectors():
    for (q, m), runs in CYCLIC_GAP_PINS.items():
        want = expand(runs)
        delta1 = cf.delta_leaders_formula(q, m, count=1)[0]
        assert sorted(want) == list(range(2, delta1 + 1))
        for d, v in want.items():
            assert cf.i_delta_cyclic(q, m, d).value == v, (q, m, d)
        with pytest.raises(DeltaOutOfRange):
            cf.i_delta_cyclic(q, m, delta1 + 1)
        with pytest.raises(DeltaOutOfRange):
            cf.i_delta_cyclic(q, m, 1)


def test_i_delta_cyclic_rows():
    case = cf.i_delta_cyclic(5, 2, 8)
    assert (case.table, case.row, case.value) == ("cyclic-gap", "plateau", 11)
    assert case.params == {"ell0": 1, "ell1": 0}
    assert cf.i_delta_cyclic(3, 3, 2).row == "isolated"
    assert cf.i_delta_cyclic(3, 3, 14).row == "top"


def test_dual_bound_cyclic():
    rep = cf.dual_bound_cyclic(3, 2, 2)
    assert (rep.n, rep.lower_bound, rep.gap_low) == (10, 4, 3)
    assert rep.gap_high is None and rep.agrees is None
    assert cf.dual_bound_cyclic(3, 2, 3).lower_bound == 2
    assert cf.dual_bound_cyclic(5, 2, 2).lower_bound == 16
    assert cf.dual_bound_cyclic(5, 2, 8).lower_bound == 4
    assert cf.dual_bound(5, 2, CYCLIC, 8) == cf.dual_bound_cyclic(5, 2, 8)
    for fn in (cf.dual_bound, cf.dually_bch):
        with pytest.raises(BadFamilyParams):
            fn(3, 2, "quasicyclic", 2)


# negacyclic gap/bound vectors: (low runs, high runs, bound runs); a None
# high means the formula returns a one-sided gap (even m)
NEG_PINS = {
    (3, 3): ([(2, 3, 3), (4, 4, 5)], [(2, 4, 9)],
             [(2, 3, 5), (4, 4, 2)]),
    (3, 4): ([(2, 3, 27), (4, 7, 37), (8, 21, 39)], [(2, 21, None)],
             [(2, 3, 14), (4, 7, 4), (8, 21, 2)]),
    (3, 5): ([(2, 3, 27), (4, 4, 45), (5, 10, 55), (11, 22, 57),
              (23, 31, 59)],
             [(2, 4, 81), (5, 31, 63)],
             [(2, 3, 41), (4, 4, 18), (5, 10, 13), (11, 22, 3),
              (23, 31, 2)]),
    (7, 2): ([(2, 2, 7), (3, 6, 21), (7, 13, 23)], [(2, 13, None)],
             [(2, 2, 18), (3, 6, 4), (7, 13, 2)]),
    (7, 3): ([(2, 3, 49), (4, 8, 99), (9, 9, 105), (10, 16, 119),
              (17, 65, 127)],
             [(2, 2, 295), (3, 9, 147), (10, 10, 145), (11, 58, 133),
              (59, 65, 131)],
             [(2, 2, 123), (3, 3, 49), (4, 8, 24), (9, 9, 21), (10, 10, 13),
              (11, 16, 7), (17, 58, 3), (59, 65, 2)]),
    (11, 2): ([(2, 2, 11), (3, 3, 33), (4, 9, 55), (10, 20, 57),
               (21, 31, 59)],
              [(2, 31, None)],
              [(2, 2, 50), (3, 3, 28), (4, 9, 6), (10, 20, 4),
               (21, 31, 2)]),
}


def test_neg_gaps_vectors():
    for (q, m), (lows, highs, bounds) in NEG_PINS.items():
        want_low, want_high = expand(lows), expand(highs)
        want_bound = expand(bounds)
        assert sorted(want_low) == sorted(want_high) == sorted(want_bound)
        for d in sorted(want_low):
            pair = cf.neg_gaps(q, m, d)
            assert pair.low.value == want_low[d], (q, m, d)
            got_high = pair.high.value if pair.high else None
            assert got_high == want_high[d], (q, m, d)
            rep = cf.dual_bound_negacyclic(q, m, d)
            assert rep.lower_bound == want_bound[d], (q, m, d)
            assert (rep.gap_low, rep.gap_high) == (pair.low.value, got_high)
            assert cf.dual_bound(q, m, NEGACYCLIC, d) == rep
        top = max(want_low)
        with pytest.raises(DeltaOutOfRange):
            cf.neg_gaps(q, m, top + 1)
        with pytest.raises(DeltaOutOfRange):
            cf.dual_bound_negacyclic(q, m, top + 1)


def test_neg_gaps_smallest_case():
    # q^m = 9: the phi1 window collapses to deltas {2, 3}
    assert cf.neg_gaps(3, 2, 2).low.value == 3
    assert cf.dual_bound_negacyclic(3, 2, 2).lower_bound == 2
    with pytest.raises(DeltaOutOfRange):
        cf.neg_gaps(3, 2, 4)


def test_neg_bound_case_rows():
    rep = cf.dual_bound_negacyclic(3, 5, 8)
    assert [c.table for c in rep.cases] == \
        ["q3-odd-low", "q3-odd-high", "q3-odd-bound"]
    assert [c.row for c in rep.cases] == ["band-c", "band", "wide"]
    rep = cf.dual_bound_negacyclic(3, 5, 2)
    assert [c.row for c in rep.cases] == ["band-a", "band", "first-two"]
    rep = cf.dual_bound_negacyclic(7, 3, 2)
    assert [(c.table, c.row) for c in rep.cases] == \
        [("bigq-odd-low", "low-2"), ("bigq-odd-high", "high-1")]
    rep = cf.dual_bound_negacyclic(3, 4, 2)
    assert [(c.table, c.row) for c in rep.cases] == [("q3-even", "band-a")]
    assert cf.dual_bound_negacyclic(7, 2, 3).cases[0].table == "bigq-even"


DUALLY_EVEN_PINS = {
    (3, 2): [(2, 5)],
    (5, 2): [(2, 2), (8, 13)],
    (3, 3): [(8, 14)],
}

DUALLY_NEG_PINS = {
    (3, 3): [(2, 4)],
    (3, 4): [(7, 21)],
    (3, 5): [(2, 3), (25, 31)],
    (7, 2): [(2, 2), (10, 13)],
}


def test_dually_bch_even_like():
    for (q, m), true_ranges in DUALLY_EVEN_PINS.items():
        delta1 = cf.delta_leaders_formula(q, m, count=1)[0]
        want = {d: any(lo <= d <= hi for lo, hi in true_ranges)
                for d in range(2, delta1 + 1)}
        got = {d: cf.dually_bch_even_like(q, m, d) for d in want}
        assert got == want, (q, m)
        assert {d: cf.dually_bch(q, m, CYCLIC, d) for d in want} == want
        with pytest.raises(DeltaOutOfRange):
            cf.dually_bch_even_like(q, m, delta1 + 1)
    with pytest.raises(UnsupportedM):
        cf.dually_bch_even_like(3, 4, 2)


def test_dually_bch_negacyclic():
    tops = {(3, 3): 4, (3, 4): 21, (3, 5): 31, (7, 2): 13}
    for (q, m), true_ranges in DUALLY_NEG_PINS.items():
        top = tops[(q, m)]
        want = {d: any(lo <= d <= hi for lo, hi in true_ranges)
                for d in range(2, top + 1)}
        got = {d: cf.dually_bch_negacyclic(q, m, d) for d in want}
        assert got == want, (q, m)
        assert {d: cf.dually_bch(q, m, NEGACYCLIC, d) for d in want} == want
        with pytest.raises(DeltaOutOfRange):
            cf.dually_bch_negacyclic(q, m, top + 1)
    # q^m < 25: the predicate needs phi3, which does not exist
    with pytest.raises(UnsupportedM):
        cf.dually_bch_negacyclic(3, 2, 2)
