"""Bundled worked examples and their verification reports."""

import pytest

from bchlab import code_core, examples, oracle
from bchlab.errors import UnknownExample

from grid_utils import verify_cached

ALL_IDS = (
    "cyclic-q3-m2",
    "cyclic-q5-m2",
    "cyclic-q5-m2-dually",
    "cyclic-q3-m3-dually",
    "negacyclic-q3-m3",
    "negacyclic-q3-m3-dually",
    "negacyclic-q3-m5-dually",
    "negacyclic-q3-m4",
    "negacyclic-q3-m4-dually",
    "negacyclic-q7-m3",
    "negacyclic-q7-m3-dually",
    "negacyclic-q7-m2",
    "negacyclic-q7-m2-dually",
    "negacyclic-q7-m4-dually",
)

# the one example whose recorded expectations the computation does not
# reproduce: at delta = 2 the formula bound is 14 (not 22) and the exact
# dual distance is 22 (not 23); both recorded claims fail, loudly
KNOWN_FAILING = "negacyclic-q3-m4"
KNOWN_BAD_CLAIMS = {"bound(delta=2)", "dual-distance(delta=2)"}


def test_all_example_ids():
    assert examples.all_example_ids() == ALL_IDS


def test_unknown_example():
    with pytest.raises(UnknownExample):
        examples.verify_example("nope")


def test_passing_examples():
    for example_id in ALL_IDS:
        if example_id == KNOWN_FAILING:
            continue
        report = verify_cached(example_id)
        assert report.passed, (example_id,
                               [c for c in report.claims if not c.ok])
        assert report.claims  # every example checks something


def test_known_failing_example_fails_exactly_as_recorded():
    report = verify_cached(KNOWN_FAILING)
    assert not report.passed
    bad = {c.name: c for c in report.claims if not c.ok}
    assert set(bad) == KNOWN_BAD_CLAIMS
    assert bad["bound(delta=2)"].expected == "22"
    assert bad["bound(delta=2)"].computed == "14"
    assert bad["dual-distance(delta=2)"].expected == "23"
    assert bad["dual-distance(delta=2)"].computed == "22"
    # the delta = 7 claims of the same example hold
    ok_names = {c.name for c in report.claims if c.ok}
    assert "bound(delta=7)" in ok_names
    assert "dual-distance(delta=7)" in ok_names


def test_bound_example_reports_include_consistency_claims():
    report = verify_cached("cyclic-q3-m2")
    names = {c.name for c in report.claims}
    for delta in (2, 3):
        assert f"bound(delta={delta})" in names
        assert f"gaps-agree(delta={delta})" in names
        assert f"dual-distance(delta={delta})" in names
        assert f"bound-holds(delta={delta})" in names


def test_dually_example_reports():
    report = verify_cached("negacyclic-q7-m4-dually")
    names = [c.name for c in report.claims]
    assert "formula-range" in names
    assert "oracle-agreement" in names
    assert report.passed


def test_true_distance_routes_agree(monkeypatch):
    # both routes (the word walk / parity-check search) on one code: a
    # word budget of 1 walks level 1 only, and the search settles the rest
    inst = code_core.realize(code_core.CodeSpec(3, 3, "negacyclic", 2))
    by_enum = examples.true_distance(inst)
    calls = []
    search = oracle.min_distance_via_checks

    def spy(*args, **kwargs):
        got = search(*args, **kwargs)
        calls.append(got)
        return got

    monkeypatch.setattr(oracle, "min_distance_via_checks", spy)
    monkeypatch.setattr(oracle, "MIN_DISTANCE_CAP", 1)
    by_checks = examples.true_distance(inst)
    assert by_enum == by_checks == 5
    assert [(got.low, got.distance) for got in calls] == [(5, 5)]


def test_true_distance_searches_below_the_lightest_word(monkeypatch):
    # (9, 2, cyclic, delta=4) is [82, 70, 6]: information weight 3 would
    # walk 3.5 M words, past the budget, so the check-matrix search runs
    # once, and only below the lightest word the walk found
    inst = code_core.realize(code_core.CodeSpec(9, 2, "cyclic", 4))
    walk = oracle.min_distance(code_core.generator_matrix(inst), inst.field,
                               cap=oracle.MIN_DISTANCE_CAP,
                               shift_invariant=True)
    low, best = walk.low, walk.distance
    assert low < best and low <= 6 <= best
    calls = []
    search = oracle.min_distance_via_checks

    def spy(checks, field, within=None, **kwargs):
        calls.append((within.low, within.distance))
        return search(checks, field, within, **kwargs)

    monkeypatch.setattr(oracle, "min_distance_via_checks", spy)
    assert examples.true_distance(inst) == 6
    assert calls == [(low, best)]
