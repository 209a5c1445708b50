"""Formula-vs-oracle grids over q in {3,5,7,9,11}, m in {2,3,4,5}.

Each grid test collects structured discrepancy strings and asserts the
list is empty, so a single run reports every mismatch at once.  Beyond
the grid, a property test draws (q, m, family, delta) with q up to 47.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bchlab import closed_forms as cf
from bchlab import oracle as orc
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC

import grid_utils


def test_leader_formulas_match_sweep():
    assert list(grid_utils.leader_discrepancies()) == []


def test_cyclic_gap_formula_matches_oracle():
    assert list(grid_utils.cyclic_gap_discrepancies()) == []


def test_negacyclic_gap_formulas_match_oracle():
    assert list(grid_utils.neg_gap_discrepancies()) == []


def test_dually_predicates_match_oracle():
    assert list(grid_utils.dually_discrepancies()) == []


def test_grid_covers_every_delta_when_small():
    # spot-check the profile domains the grids iterate over
    assert grid_utils.profile(3, 2, "cyclic").max_delta == 5
    assert grid_utils.profile(11, 5, "cyclic").max_delta == (11**5 + 1) // 2
    assert grid_utils.profile(3, 4, "negacyclic").max_delta == 21


# beyond the grid: q from 13 to 47, m in {2, 3}, every admissible family
BEYOND_GRID = [(q, m, family)
               for q in (13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47)
               for m in (2, 3) for family in (CYCLIC, NEGACYCLIC)
               if family == CYCLIC or q % 4 == 3]


@st.composite
def cells_and_deltas(draw):
    q, m, family = draw(st.sampled_from(BEYOND_GRID))
    prof = grid_utils.profile(q, m, family)
    return prof, draw(st.integers(2, prof.max_delta))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cells_and_deltas())
def test_closed_forms_match_oracle_beyond_the_grid(case):
    # the gap edges of the bound formula and the dually predicate (of the
    # even-like subcode, for cyclic codes) against the oracle
    prof, d = case
    q, m, family = prof.q, prof.m, prof.family
    rep = cf.dual_bound(q, m, family, d)
    two_sided = family == NEGACYCLIC and m % 2 == 1
    assert (rep.gap_low, rep.gap_high) == \
        (prof.low(d), prof.high(d) if two_sided else None), (q, m, family, d)
    assert cf.dually_bch(q, m, family, d) == orc.dually_sweep(
        prof, [d], even_like=family == CYCLIC)[0], (q, m, family, d)
