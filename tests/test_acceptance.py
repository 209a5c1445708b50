"""Acceptance suite: every top-level criterion, one pass/fail line each.

Each criterion collects all of its mismatches before failing, so a red run
shows the complete discrepancy list.

The published claims of the worked examples live in the fixtures of
bchlab.examples, and `bchlab verify` reports every one of them, including
the two at (q=3, m=4, delta=2) that the computation refutes (published
bound 22 and dual distance 23).  Criterion 3 asserts the certified values
there instead: bound 14 (n - gap_low, with the formula gap equal to the
scanned one) and dual distance 22, witnessed by a weight-22 word checked
to be orthogonal to the primal code.
"""

import json
import subprocess
import sys
from math import gcd

from bchlab import closed_forms as cf
from bchlab import code_core as cc
from bchlab import examples
from bchlab import oracle as orc
from bchlab.cyclotomic import (CYCLIC, NEGACYCLIC, defining_set,
                               dual_defining_set)

import grid_utils
import reference as ref


def finish(num, desc, errors):
    if errors:
        print(f"CRITERION {num} FAIL: {desc} -- {len(errors)} mismatch(es)")
        raise AssertionError(
            f"criterion {num} ({desc}): " + "; ".join(errors))
    print(f"CRITERION {num} PASS: {desc}")


def check(errors, tag, got, want):
    if got != want:
        errors.append(f"{tag}: expected {want}, computed {got}")


def dual_distance(q, m, family, delta):
    return examples.dual_distance(cc.CodeSpec(q, m, family, delta))


def test_criterion_1_cyclic_bound_examples():
    errors = []
    for q, m, delta, bound, dist in [(3, 2, 2, 4, 4), (3, 2, 3, 2, 2),
                                     (5, 2, 2, 16, 16), (5, 2, 8, 4, 4)]:
        check(errors, f"bound({q},{m},delta={delta})",
              cf.dual_bound_cyclic(q, m, delta).lower_bound, bound)
        check(errors, f"dual-distance({q},{m},delta={delta})",
              dual_distance(q, m, CYCLIC, delta), dist)
    finish(1, "cyclic dual bounds and exact dual distances", errors)


def test_criterion_2_cyclic_dually_ranges():
    errors = []
    cases = [(5, 2, 13, {2} | set(range(8, 14))),
             (3, 3, 14, set(range(8, 15)))]
    for q, m, hi, truth in cases:
        deltas = list(range(2, hi + 1))
        formula = [cf.dually_bch_even_like(q, m, d) for d in deltas]
        sweep = orc.dually_sweep(orc.gap_profile(q, m, CYCLIC), deltas,
                                 even_like=True)
        for d, f, s in zip(deltas, formula, sweep):
            check(errors, f"formula({q},{m},delta={d})", f, d in truth)
            check(errors, f"oracle({q},{m},delta={d})", s, d in truth)
    finish(2, "cyclic even-like dually-BCH ranges, formula == oracle", errors)


def _run_bound(residues, modulus):
    """1 + the longest circular run x, x+2, ... inside odd residues, <= n."""
    n = modulus // 2
    best = 0
    for x in residues:
        run = 0
        while run < n and (x + 2 * run) % modulus in residues:
            run += 1
        best = max(best, run)
    return min(best + 1, n)


def _multiplier_run_bounds(q, m, delta):
    """(plain, best) run bound on the negacyclic T_perp over units u mod 2n.

    beta^u is again a primitive 2n-th root with (beta^u)^n = -1 for odd u
    coprime to n, so a run in u * T_perp bounds d(C_perp) too (BCH bound
    with a step coprime to n).
    """
    n = (q ** m + 1) // 2
    tperp = dual_defining_set(defining_set(q, m, NEGACYCLIC, delta), n, 2)
    mod = 2 * n
    residues = [2 * p + 1 for p in tperp.tolist()]  # position p holds 2p + 1
    bounds = {u: _run_bound({u * x % mod for x in residues}, mod)
              for u in range(1, mod, 2) if gcd(u, mod) == 1}
    return bounds[1], max(bounds.values())


def _certify_q3_m4_delta2(errors):
    """Certify d(C_perp) = 22 and bound 14 at (3, 4, delta=2), and refute
    the published bound 22 and dual distance 23 of negacyclic-q3-m4."""
    rows = examples._BOUND_FIXTURES["negacyclic-q3-m4"][3]
    pub_bound, pub_dist = next((b, d) for delta, b, d in rows if delta == 2)
    inst = cc.realize(cc.CodeSpec(3, 4, NEGACYCLIC, 2))
    gen = cc.generator_matrix(inst)
    check(errors, "primal generator shape(3,4,delta=2)", gen.shape, (33, 41))
    dual_gen = cc.generator_matrix(cc.dual_code(inst))
    witness = orc.min_distance(dual_gen, inst.field).word
    weight = sum(1 for c in witness if c)
    check(errors, "witness length(3,4,delta=2)", len(witness), 41)
    check(errors, "witness weight(3,4,delta=2)", weight, 22)
    if not weight < pub_dist:
        errors.append(f"witness(3,4,delta=2): weight {weight} does not "
                      f"refute the published dual distance {pub_dist}")
    if any(_dot(row, witness, inst.field) for row in gen):
        errors.append("witness(3,4,delta=2): not orthogonal to the primal "
                      "code, so not in its dual")
    report = cf.dual_bound_negacyclic(3, 4, 2)
    orc.check_bound_report(report)
    check(errors, "formula gap_low(3,4,delta=2)", report.gap_low, 27)
    check(errors, "oracle gap_low(3,4,delta=2)", report.oracle_gap_low, 27)
    plain, best = _multiplier_run_bounds(3, 4, 2)
    check(errors, "plain run bound(3,4,delta=2)", plain, 14)
    check(errors, "best unit-multiplier run bound(3,4,delta=2)", best, 16)
    if not best < pub_bound:
        errors.append(f"run bounds(3,4,delta=2): best {best} does not stay "
                      f"below the published bound {pub_bound}")


def test_criterion_3_negacyclic_bound_examples():
    errors = []
    rows = [(3, 3, 2, 5, 6), (3, 3, 4, 2, 2),
            (3, 4, 2, 14, 22), (3, 4, 7, 4, 5),
            (7, 2, 2, 18, 19), (7, 2, 6, 4, 6),
            (7, 3, 2, 123, 138)]
    for q, m, delta, bound, dist in rows:
        got_bound = cf.dual_bound_negacyclic(q, m, delta).lower_bound
        got_dist = dual_distance(q, m, NEGACYCLIC, delta)
        check(errors, f"bound({q},{m},delta={delta})", got_bound, bound)
        check(errors, f"dual-distance({q},{m},delta={delta})", got_dist, dist)
        if not got_bound <= got_dist:
            errors.append(f"bound({q},{m},delta={delta}): {got_bound} "
                          f"exceeds the exact dual distance {got_dist}")
    _certify_q3_m4_delta2(errors)
    finish(3, "negacyclic dual bounds and exact dual distances", errors)


def test_criterion_4_negacyclic_dually_ranges():
    errors = []
    full_cases = [
        (3, 3, 4, set(range(2, 5))),
        (3, 5, 31, {2, 3} | set(range(25, 32))),
        (7, 2, 13, {2} | set(range(10, 14))),
        (7, 3, 65, set(range(63, 66))),
    ]
    for q, m, hi, truth in full_cases:
        deltas = list(range(2, hi + 1))
        formula = [cf.dually_bch_negacyclic(q, m, d) for d in deltas]
        sweep = orc.dually_sweep(orc.gap_profile(q, m, NEGACYCLIC), deltas)
        for d, f, s in zip(deltas, formula, sweep):
            check(errors, f"formula({q},{m},delta={d})", f, d in truth)
            check(errors, f"oracle({q},{m},delta={d})", s, d in truth)
    # (7,4): spot-checked at the range edges plus a spread of 20 points
    truth = set(range(430, 602))
    picks = {429, 430, 601}
    picks.update(range(2, 602, 30))
    deltas = sorted(picks)
    formula = [cf.dually_bch_negacyclic(7, 4, d) for d in deltas]
    sweep = orc.dually_sweep(orc.gap_profile(7, 4, NEGACYCLIC), deltas)
    for d, f, s in zip(deltas, formula, sweep):
        check(errors, f"formula(7,4,delta={d})", f, d in truth)
        check(errors, f"oracle(7,4,delta={d})", s, d in truth)
    finish(4, "negacyclic dually-BCH ranges, formula == oracle", errors)


def test_criterion_5_formula_vs_oracle_grids():
    errors = []
    errors += [f"leaders: {s}" for s in grid_utils.leader_discrepancies()]
    errors += [f"cyclic-gap: {s}"
               for s in grid_utils.cyclic_gap_discrepancies()]
    errors += [f"neg-gap: {s}" for s in grid_utils.neg_gap_discrepancies()]
    errors += [f"dually: {s}" for s in grid_utils.dually_discrepancies()]
    finish(5, "formula-vs-oracle grids on {3,5,7,9,11} x {2,3,4,5}", errors)


def _dot(row, col, ctx):
    scalar = ref.scalar_field(ctx)
    acc = 0
    for x, y in zip(row, col):
        acc = scalar.add(acc, scalar.mul(int(x), int(y)))
    return acc


def test_criterion_6_structural_invariants():
    errors = []
    for q, m, family, delta in grid_utils.STRUCTURAL_INSTANCES:
        tag = f"({q},{m},{family},delta={delta})"
        inst = grid_utils.realized(q, m, family, delta)
        gen = cc.generator_matrix(inst)
        dual = cc.dual_code(inst)
        dual_gen = cc.generator_matrix(dual)
        if len(inst.gen_poly) - 1 + inst.dim != inst.n:
            errors.append(f"{tag}: deg(g) + k != n")
        lam = 1 if family == CYCLIC else ref.scalar_field(inst.field).neg(1)
        xn = ref.x_pow_minus(inst.n, lam, inst.field)
        if ref.pdivmod(xn, inst.gen_poly, inst.field)[1]:
            errors.append(f"{tag}: g does not divide x^n - lambda")
        ok = all(
            not any(_dot(row, col, inst.field) for col in dual_gen)
            for row in gen)
        if not ok:
            errors.append(f"{tag}: G . dual(G)^T != 0")
        dist = grid_utils.true_distance(q, m, family, delta)
        bound = cc.run_bound(inst.t, inst.n)
        if not bound <= dist:
            errors.append(f"{tag}: bch_bound {bound} > true distance {dist}")
        if not cc.is_lcd(inst):
            errors.append(f"{tag}: not LCD")
    finish(6, "structural invariants on all realized instances", errors)


def test_criterion_7_determinism():
    base = [sys.executable, "-m", "bchlab.cli", "verify", "--all"]
    env = grid_utils.checkout_env()
    first = subprocess.run(base, capture_output=True, text=True, env=env)
    second = subprocess.run(base, capture_output=True, text=True, env=env)
    errors = []
    if first.stdout != second.stdout:
        errors.append("two identical runs differ")
    if first.returncode != second.returncode:
        errors.append("exit codes differ between runs")
    payload = json.loads(first.stdout)
    if "passed" not in payload:
        errors.append("verify --all payload missing 'passed'")
    finish(7, "verify --all is byte-identical across runs", errors)
