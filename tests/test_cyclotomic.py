"""Cyclotomic cosets, leaders, and defining sets against hand-checked cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchlab import code_core as cc
from bchlab import cyclotomic as cy
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import (BadDelta, BadFamilyParams, BCHLabError,
                           ClassTooLarge, EmptySet, NotCoprime,
                           NotEnoughCosets)

import reference as ref
from test_code_core import naive_bch_bound

# hand-checked: cosets of 3 mod 10 are {0}, {1,3,9,7}, {2,6,8,4}, {5}
MOD10_LEADERS = [0, 1, 2, 5]
# hand-checked: odd cosets of 3 mod 28 are C_1 (size 6), C_5 (size 6), C_7
ODD28 = {1: (1, 3, 9, 19, 25, 27), 5: (5, 11, 13, 15, 17, 23), 7: (7, 21)}


def odd_positions(*residues):
    """Sorted class positions of odd residues mod 28 (x sits at x // 2)."""
    return sorted(x // 2 for x in residues)


def negated(t, n, r):
    """Class positions of -T, through the residues x = r p + r - 1."""
    rn = r * n
    return np.sort((rn - (r * t + r - 1)) % rn // r)


def test_ord_mod_hand_values():
    assert cy.ord_mod(3, 10) == 4
    assert cy.ord_mod(2, 7) == 3
    assert cy.ord_mod(1, 5) == 1
    with pytest.raises(NotCoprime):
        cy.ord_mod(2, 10)
    with pytest.raises(NotCoprime):
        cy.ord_mod(3, 1)


def test_q_to_the_m_is_minus_one():
    # the defining property of these lengths: q^m = -1 mod q^m + 1,
    # which forces every cyclotomic coset to be symmetric
    for q in (3, 5, 7, 9, 11):
        for m in (2, 3, 4, 5):
            rn = q**m + 1
            assert pow(q, m, rn) == rn - 1


def test_coset_hand_values():
    assert cy.coset(1, 3, 10) == (1, 3, 7, 9)
    assert cy.coset(9, 3, 10) == (1, 3, 7, 9)
    assert cy.coset(5, 3, 10) == (5,)
    assert cy.coset(0, 3, 10) == (0,)
    assert cy.coset(5, 3, 28) == ODD28[5]
    with pytest.raises(NotCoprime):
        cy.coset(1, 2, 10)


def test_orbits_hand_values():
    leaders, sizes, table = cy.orbits(np.array([], dtype=np.int64), 3, 10)
    assert leaders.tolist() == sizes.tolist() == []
    assert table.shape == (4, 0)  # ord_10(3) rows
    # 0 and 5 are fixed by x -> 3 x mod 10; repeats come back once
    leaders, sizes, table = cy.orbits([5, 0, 5, 0], 3, 10)
    assert leaders.tolist() == [0, 5]
    assert sizes.tolist() == [1, 1]
    assert table.tolist() == [[0, 5]] * 4


def test_orbits_match_coset():
    # mixed sizes, residues unsorted and repeated, on both residue dtypes:
    # rn q < 2^63 at 3^38 + 1, not at 3^39 + 1
    big = [3 ** 38 + 1, 3 ** 39 + 1]
    for x, q, rn, dtype in [(range(10), 3, 10, np.int64),
                            ([27, 13, 21, 1, 7, 9, 7, 3], 3, 28, np.int64),
                            (range(28), 3, 28, np.int64),
                            (range(0, 126, 7), 5, 126, np.int64),
                            ([5, 1, big[0] // 2, 2, 1], 3, big[0], np.int64),
                            ([5, 1, big[1] // 2, 2, 1], 3, big[1], object)]:
        leaders, sizes, table = cy.orbits(np.array(x, dtype=dtype), q, rn)
        assert table.dtype == dtype
        lead = leaders.tolist()
        assert lead == sorted({min(cy.coset(y, q, rn)) for y in x})
        assert table.shape == (cy.ord_mod(q, rn), len(lead))
        for j, size in enumerate(sizes.tolist()):
            column = table[:, j].tolist()
            assert tuple(sorted(column[:size])) == cy.coset(lead[j], q, rn)
            assert column == column[:size] * (len(column) // size)
        assert len(set(sizes.tolist())) > 1, (q, rn)


def test_leader_map_matches_cosets():
    # position p of the cyclic class holds the leader of residue p
    for q, n in [(3, 10), (3, 28), (5, 26), (7, 50)]:
        lm = cy.unfold(cy.leader_map(q, n), n)
        assert lm.dtype == np.int64
        assert len(lm) == n
        for x in range(n):
            assert lm[x] == min(cy.coset(x, q, n))


def test_leader_map_odd_only():
    # position p of the odd class holds the leader of residue 1 + 2p
    lm = cy.unfold(cy.leader_map(3, 28, odd_only=True), 28, odd_only=True)
    assert len(lm) == 14
    for lead, orbit in ODD28.items():
        for x in orbit:
            assert lm[(x - 1) // 2] == lead
    with pytest.raises(BadFamilyParams):
        cy.leader_map(3, 13, odd_only=True)


def matches_reference(q, n, odd):
    """leader_map(q, n, odd), unfolded, against the orbit walk; returns
    the whole map."""
    want = ref.leader_map_reference(q, n, odd)
    residues = range(1, n, 2) if odd else range(n)
    got = cy.unfold(cy.leader_map(q, n, odd), n, odd)
    assert got.dtype == np.int64
    assert len(got) == len(want) == len(residues), (q, n, odd)
    assert np.array_equal(got, np.fromiter(map(want.__getitem__, residues),
                                           np.int64, len(residues))), \
        (q, n, odd)
    return got


def test_leader_map_matches_reference():
    cases = [(3, 10, False), (3, 28, True), (5, 26, False), (7, 50, False),
             (3, 1, False), (3, 2, False), (1, 10, False), (2, 1001, False),
             (10, 7, False)]
    cases += [(q, q**m + 1, odd) for q, m in [(3, 5), (7, 3), (11, 3)]
              for odd in (False, True)]
    for case in cases:
        matches_reference(*case)


def test_fold_test_terminates():
    # the fold needs n - 1 = q^m with m >= 1: q <= 1, n = 2 and q >= n
    # answer without a loop that never ends
    assert not cy._is_power_of(1, 1) and not cy._is_power_of(1, 9)
    assert not cy._is_power_of(0, 9) and not cy._is_power_of(3, 1)
    assert cy._is_power_of(3, 3) and cy._is_power_of(3, 243)
    assert not cy._is_power_of(13, 9) and not cy._is_power_of(10, 6)
    # q = 1, n = 2, m = 1 (n = q + 1), and q >= n (13 = 3 mod 10 does not
    # fold: 9 is no power of 13)
    for q, n in [(1, 2), (1, 10), (3, 2), (9, 2), (3, 4), (5, 6), (7, 8),
                 (11, 12), (2, 3), (10, 7), (13, 10), (29, 28)]:
        for odd in (False, True) if n % 2 == 0 else (False,):
            matches_reference(q, n, odd)


# every class mod q^m + 1 with q^m < 200,000: the leader map folds
FOLDED = [(q, q**m + 1) for q in (3, 5, 7, 9, 11, 13, 27)
          for m in range(1, 12) if q**m < 200_000]


def test_folded_leader_map_matches_reference():
    # x and n - x share their leader: the full map is symmetric about
    # n / 2 and the odd one (position p holds 1 + 2p) a palindrome; the
    # odd class, closed under q, is the reference at the odd residues.
    # leader_map returns the residues x <= n / 2 alone
    assert {n // 2 % 2 for q, n in FOLDED} == {0, 1}  # n / 2 odd and even
    for q, n in FOLDED:
        assert cy._is_power_of(q, n - 1)
        assert len(cy.leader_map(q, n)) == n // 2 + 1
        assert len(cy.leader_map(q, n, True)) == (n // 2 + 1) // 2
        lead = matches_reference(q, n, False)
        assert np.array_equal(lead[1:], lead[:0:-1]), (q, n)
        odd = cy.unfold(cy.leader_map(q, n, True), n, True)
        assert np.array_equal(odd, lead[1::2]), (q, n)
        assert np.array_equal(odd, odd[::-1]), (q, n)
    # divisors of q^m + 1 take the whole class, and are symmetric too
    for q, n, m in [(3, 41, 4), (3, 61, 5), (5, 13, 2)]:
        assert (q**m + 1) % n == 0 and not cy._is_power_of(q, n - 1)
        lead = matches_reference(q, n, False)
        assert np.array_equal(lead[1:], lead[:0:-1]), (q, n)


def test_class_too_large(monkeypatch):
    # the cap is checked before any array is allocated
    monkeypatch.setattr(cy, "MAX_CLASS_RESIDUES", 100)
    assert len(cy.leader_map(3, 100)) == 100
    assert len(cy.leader_map(3, 200, odd_only=True)) == 100

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "arange", no_alloc)
    for n, odd in [(101, False), (202, True)]:
        with pytest.raises(ClassTooLarge, match="101 residues"):
            cy.leader_map(3, n, odd)
    assert issubclass(ClassTooLarge, BCHLabError)


def test_coset_leaders_and_kth_largest():
    assert cy.coset_leaders(3, 10) == MOD10_LEADERS
    assert cy.coset_leaders(3, 28, odd_only=True) == [1, 5, 7]
    leaders = cy.coset_leaders(3, 10)
    assert cy.kth_largest_leader(leaders, 1) == 5
    assert cy.kth_largest_leader(leaders, 2) == 2
    assert cy.kth_largest_leader(leaders, 4) == 0
    with pytest.raises(NotEnoughCosets):
        cy.kth_largest_leader(leaders, 5)
    with pytest.raises(NotEnoughCosets):
        cy.kth_largest_leader(leaders, 0)


# pinned against the same sweep the grid test reruns; small enough to
# recheck by hand from the coset tables
LEADER_PINS = {
    (3, 2): (5, 2), (3, 3): (14, 7), (3, 5): (122, 61),
    (5, 2): (13, 8), (7, 2): (25, 18), (11, 2): (61, 50),
}
ODD_LEADER_PINS = {
    (3, 2): (5, 1), (3, 3): (7, 5), (3, 4): (41, 13),
    (7, 2): (25, 17), (7, 3): (129, 123), (11, 2): (61, 49),
}


def test_kth_largest_leader_pins():
    for (q, m), (k1, k2) in LEADER_PINS.items():
        leaders = cy.coset_leaders(q, q**m + 1)
        assert cy.kth_largest_leader(leaders, 1) == k1
        assert cy.kth_largest_leader(leaders, 2) == k2
    for (q, m), (k1, k2) in ODD_LEADER_PINS.items():
        leaders = cy.coset_leaders(q, q**m + 1, odd_only=True)
        assert cy.kth_largest_leader(leaders, 1) == k1
        assert cy.kth_largest_leader(leaders, 2) == k2


def test_defining_set_properties():
    # the frozenset reference form, and the production array of the same T
    t = ref.DefiningSetReference(3, 28, 2, frozenset(ODD28[1]))
    got = cy.defining_set(3, 3, NEGACYCLIC, 2)
    assert got.dtype == np.int64
    assert got.tolist() == t.positions() == odd_positions(*ODD28[1])
    assert t.family == NEGACYCLIC
    assert t.n == 14
    assert len(t) == len(got) == 6
    assert 3 in t and 31 in t and 5 not in t
    assert list(t.class_residues()) == list(range(1, 28, 2))
    assert t.is_symmetric()
    assert np.array_equal(negated(got, 14, 2), got)
    assert t.leaders() == cy.orbits(2 * got + 1, 3, 28)[0].tolist() \
        == [1]
    with pytest.raises(ref.NotACosetUnion):
        ref.DefiningSetReference(3, 28, 2, frozenset({1, 3})).leaders()


def test_family_parameters():
    assert cy.family_parameters(3, 2, CYCLIC) == (10, 1, 10)
    assert cy.family_parameters(3, 3, NEGACYCLIC) == (14, 2, 28)
    assert cy.family_parameters(7, 2, NEGACYCLIC) == (25, 2, 50)
    for bad in [(4, 2, CYCLIC), (2, 2, CYCLIC), (3, 1, CYCLIC),
                (5, 2, NEGACYCLIC), (9, 2, NEGACYCLIC), (3, 2, "foo")]:
        with pytest.raises(BadFamilyParams):
            cy.family_parameters(*bad)


def test_check_qm_is_memoized_with_the_same_messages():
    # the closed forms check (q, m) at every delta; a bad (q, m) is not
    # cached and raises the same message each time
    cy.check_qm.cache_clear()
    for _ in range(3):
        cy.check_qm(3, 5)
        for bad, message in [((15, 2), "q must be an odd prime power >= 3, "
                              "got 15"), ((3, 1), "m must be >= 2, got 1")]:
            with pytest.raises(BadFamilyParams) as exc:
                cy.check_qm(*bad)
            assert str(exc.value) == message
    info = cy.check_qm.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 7, 1)


def test_defining_set_parameters():
    # defining_set's checks, in its order, without building T
    assert cy.defining_set_parameters(3, 3, NEGACYCLIC, 4) == (14, 2, 28, 1)
    assert cy.defining_set_parameters(3, 2, CYCLIC, 2, b=-1) == (10, 1, 10, 9)
    with pytest.raises(BadDelta):
        cy.defining_set_parameters(3, 3, NEGACYCLIC, 2 ** 70, b=2)
    with pytest.raises(BadFamilyParams):
        cy.defining_set_parameters(3, 41, NEGACYCLIC, 2, b=2)
    with pytest.raises(ClassTooLarge):
        cy.defining_set_parameters(3, 41, NEGACYCLIC, 2)


def test_defining_set_construction():
    t = cy.defining_set(3, 3, NEGACYCLIC, 2)
    assert t.tolist() == odd_positions(*ODD28[1])
    # C_3 = C_1 (3 is in the orbit of 1), so delta = 3 adds nothing new
    t = cy.defining_set(3, 3, NEGACYCLIC, 3)
    assert t.tolist() == odd_positions(*ODD28[1])
    t = cy.defining_set(3, 3, NEGACYCLIC, 4)
    assert t.tolist() == odd_positions(*ODD28[1], *ODD28[5])
    # cyclic: residue x sits at position x
    t = cy.defining_set(3, 2, CYCLIC, 3)
    assert t.tolist() == [1, 2, 3, 4, 6, 7, 8, 9]
    # even-like offset includes the zero coset
    t = cy.defining_set(3, 2, CYCLIC, 2, b=0)
    assert t.tolist() == [0]
    with pytest.raises(BadDelta):
        cy.defining_set(3, 2, CYCLIC, 1)
    with pytest.raises(BadDelta):
        cy.defining_set(3, 2, CYCLIC, 11)
    with pytest.raises(BadFamilyParams):
        cy.defining_set(3, 3, NEGACYCLIC, 2, b=2)


def test_defining_sets_are_symmetric_on_grid():
    for q, m, family in [(3, 2, CYCLIC), (5, 3, CYCLIC), (9, 2, CYCLIC),
                         (3, 4, NEGACYCLIC), (7, 3, NEGACYCLIC),
                         (11, 2, NEGACYCLIC)]:
        n = cy.family_parameters(q, m, family)[0]
        for delta in (2, 3, min(7, n)):
            t = cy.defining_set(q, m, family, delta)
            assert np.array_equal(negated(t, n, 2 if family == NEGACYCLIC
                                          else 1), t), (q, m, family, delta)


def test_dual_defining_set():
    t = cy.defining_set(3, 3, NEGACYCLIC, 2)
    tp = cy.dual_defining_set(t, 14, 2)
    assert tp.tolist() == odd_positions(*ODD28[5], *ODD28[7])
    assert np.array_equal(negated(tp, 14, 2), tp)
    with pytest.raises(EmptySet):
        cy.dual_defining_set(np.array([], dtype=np.int64), 14, 2)
    # 3-coset {1,3,9} mod 13 is not closed under negation
    with pytest.raises(AssertionError, match="-T = T"):
        cy.dual_defining_set(np.array([1, 3, 9]), 13, 1)


def test_defining_set_matches_naive_coset_union():
    # defining_set keeps one orbit per distinct leader; the naive union
    # walks the orbit of every one of b, b + r, ..., b + r(delta - 2)
    for q, m, family in [(3, 2, CYCLIC), (5, 2, CYCLIC), (3, 3, CYCLIC),
                         (9, 2, CYCLIC), (3, 3, NEGACYCLIC),
                         (3, 4, NEGACYCLIC), (7, 2, NEGACYCLIC),
                         (11, 2, NEGACYCLIC)]:
        n, r, rn = cy.family_parameters(q, m, family)
        offsets = [None, 1, 3, 5, rn - 1]
        if family == CYCLIC:
            offsets += [0, 2, 7]
        for b in offsets:
            for delta in sorted({2, 3, 4, 5, 8, n // 3, n // 2, n - 1, n}):
                naive = ref.defining_set_reference(q, m, family, delta, b)
                got = cy.defining_set(q, m, family, delta, b)
                assert got.tolist() == naive.positions(), (q, m, family, b,
                                                            delta)


def test_defining_set_on_both_sides_of_the_int64_residues():
    # residues are int64 while rn q < 2^63 (m = 38) and Python ints past
    # it (m = 39); the class positions are int64 on both sides
    for m in (38, 39):
        rn = 3 ** m + 1
        assert (rn * 3 < 2 ** 63) == (m == 38)
        for family in (CYCLIC, NEGACYCLIC):
            for b in (None, rn - 3) + ((0,) if family == CYCLIC else ()):
                for delta in (2, 3, 6):
                    naive = ref.defining_set_reference(3, m, family, delta, b)
                    got = cy.defining_set(3, m, family, delta, b)
                    assert got.dtype == np.int64
                    assert got.tolist() == naive.positions(), (m, family, b,
                                                                delta)


# (q, m) with q^m + 1 <= 20,000, so the reference complement stays quick
PROPERTY_QM = [(q, m) for q in (3, 5, 7, 9, 11, 13, 19, 23, 25, 27)
               for m in range(2, 10) if q ** m < 20_000]


@st.composite
def coded_sets(draw):
    q, m = draw(st.sampled_from(PROPERTY_QM))
    families = [CYCLIC] + ([NEGACYCLIC] if q % 4 == 3 else [])
    family = draw(st.sampled_from(families))
    n, r, rn = cy.family_parameters(q, m, family)
    delta = draw(st.integers(2, n))
    b = draw(st.one_of(st.none(), st.integers(-rn, 2 * rn)))
    if b is not None and r == 2:
        b = 2 * (b // 2) + 1  # negacyclic offsets are odd
    return q, m, family, delta, b


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(coded_sets())
def test_defining_sets_match_the_reference(case):
    q, m, family, delta, b = case
    n, r, rn = cy.family_parameters(q, m, family)
    t = cy.defining_set(q, m, family, delta, b)
    want = ref.defining_set_reference(q, m, family, delta, b)
    assert t.dtype == np.int64
    assert t.tolist() == want.positions()
    assert np.array_equal(negated(t, n, r), t)
    tp = cy.dual_defining_set(t, n, r)
    want_p = ref.dual_defining_set_reference(want)
    assert tp.tolist() == want_p.positions()
    for got, naive in ((t, want), (tp, want_p)):
        assert cy.orbits(r * got + r - 1, q, rn)[0].tolist() \
            == naive.leaders()
        assert cc.run_bound(got, n) == naive_bch_bound(naive)
