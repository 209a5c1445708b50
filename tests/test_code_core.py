"""Code realization: generator polynomials, matrices, duals, bounds, LCD."""

import numpy as np
import pytest

from bchlab import code_core as cc
from bchlab import cyclotomic as cy
from bchlab import examples
from bchlab import finite_field as ff
from bchlab import oracle as orc
from bchlab import poly_linalg as pl
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import BadDelta, ExtensionTooLarge

from grid_utils import STRUCTURAL_INSTANCES, grid_points, profile, realized

# (q, m, family, delta) -> (n, dim, bch_bound)
DIMENSION_PINS = {
    (3, 2, CYCLIC, 2): (10, 6, 2),
    (3, 2, CYCLIC, 3): (10, 2, 5),
    (5, 2, CYCLIC, 2): (26, 22, 2),
    (5, 2, CYCLIC, 8): (26, 6, 8),
    (3, 3, CYCLIC, 2): (28, 22, 2),
    (9, 2, CYCLIC, 2): (82, 78, 2),
    (11, 2, CYCLIC, 2): (122, 118, 2),
    (3, 3, NEGACYCLIC, 2): (14, 8, 5),
    (3, 3, NEGACYCLIC, 4): (14, 2, 7),
    (3, 4, NEGACYCLIC, 2): (41, 33, 5),
    (3, 4, NEGACYCLIC, 7): (41, 9, 13),
    (7, 2, NEGACYCLIC, 2): (25, 21, 3),
    (7, 2, NEGACYCLIC, 6): (25, 9, 11),
    (7, 3, NEGACYCLIC, 2): (172, 166, 3),
    (11, 2, NEGACYCLIC, 2): (61, 57, 3),
}


def test_dimension_pins():
    for (q, m, fam, d), (n, dim, bound) in DIMENSION_PINS.items():
        spec = cc.CodeSpec(q, m, fam, d)
        assert spec.n == n
        assert cc.dimension(spec) == dim
        assert cc.bch_bound(spec.defining_set()) == bound
    with pytest.raises(BadDelta):
        cc.dimension(cc.CodeSpec(3, 2, CYCLIC, 1))


def test_bch_bound_hand_cases():
    # T(3,2,cyclic,3) = {1,2,3,4,6,7,8,9} mod 10: longest run has 4 elements
    assert cc.bch_bound(cy.defining_set(3, 2, CYCLIC, 3)) == 5
    # T(3,3,neg,2) = C_1 = {1,3,9,19,25,27} mod 28: odd-step run 25,27,1,3
    assert cc.bch_bound(cy.defining_set(3, 3, NEGACYCLIC, 2)) == 5
    # T(3,3,neg,4) misses only C_7 = {7,21}: two runs of 6 odd residues
    assert cc.bch_bound(cy.defining_set(3, 3, NEGACYCLIC, 4)) == 7


def naive_bch_bound(t):
    """1 + the longest run of T's class positions, read off the class twice."""
    start = 1 if t.r == 2 else 0
    bits = "".join("1" if start + t.r * i in t.residues else "0"
                   for i in range(t.n))
    if "0" not in bits:
        return t.n
    return min(max(map(len, (bits + bits).split("0"))) + 1, t.n)


def test_bch_bound_matches_naive_scan_on_grid():
    checked = 0
    for q, m in grid_points():
        for fam in (CYCLIC, NEGACYCLIC):
            if fam == NEGACYCLIC and q % 4 != 3:
                continue
            n, r, rn = cy.family_parameters(q, m, fam)
            empty = cy.DefiningSet(q, rn, r)
            full = cy.DefiningSet(q, rn, r, frozenset(empty.class_residues()))
            assert cc.bch_bound(empty) == naive_bch_bound(empty) == 1
            assert cc.bch_bound(full) == naive_bch_bound(full) == n
            # every delta on small classes, five spread over the
            # delta range on large ones
            md = profile(q, m, fam).max_delta
            step = 1 if n * md <= 20_000 else md // 4
            for d in range(2, md + 1, step):
                t = cy.defining_set(q, m, fam, d)
                for s in (t, cy.dual_defining_set(t)):
                    assert cc.bch_bound(s) == naive_bch_bound(s), \
                        (q, m, fam, d, len(s))
                checked += 1
    assert checked > 400


def test_realize_structure():
    for q, m, fam, d in STRUCTURAL_INSTANCES:
        inst = realized(q, m, fam, d)
        n, r, rn = cy.family_parameters(q, m, fam)
        g = inst.gen_poly
        assert inst.n == n
        assert len(g) - 1 + inst.dim == n
        assert g[-1] == 1  # monic
        # g divides x^n - lambda over F_q
        lam = 1 if fam == CYCLIC else inst.field.neg(1)
        xn = pl.x_pow_minus(n, lam, inst.field)
        assert pl.pdivmod(xn, g, inst.field)[1] == []
        # beta has exact order rn
        assert inst.extension.pow(inst.beta, rn) == 1
        for p in ff.factorize(rn):
            assert inst.extension.pow(inst.beta, rn // p) != 1


def test_generator_roots_are_exactly_t():
    # g(beta^j) = 0 iff j is in the defining set
    for q, m, fam, d in [(3, 2, CYCLIC, 3), (3, 3, NEGACYCLIC, 2),
                         (5, 2, CYCLIC, 8), (9, 2, CYCLIC, 2)]:
        inst = realized(q, m, fam, d)
        sm = ff.get_subfield_map(inst.field, inst.extension)
        lifted = [sm.embed(c) for c in inst.gen_poly]
        for j in inst.t.class_residues():
            val = pl.peval(lifted, inst.extension.pow(inst.beta, j),
                           inst.extension)
            assert (val == 0) == (j in inst.t)


def test_generator_matrix_shape_and_rank():
    for q, m, fam, d in [(3, 2, CYCLIC, 2), (3, 3, NEGACYCLIC, 4),
                         (7, 2, NEGACYCLIC, 6)]:
        inst = realized(q, m, fam, d)
        gen = cc.generator_matrix(inst)
        assert gen.shape == (inst.dim, inst.n)
        assert pl.rank(gen, inst.field) == inst.dim
        if inst.dim >= 2:
            assert list(gen[1]) == [0] + list(gen[0][:-1])


def matrix_product_is_zero(a, b, ctx):
    for row in a:
        for col in b:
            acc = 0
            for x, y in zip(row, col):
                acc = ctx.add(acc, ctx.mul(int(x), int(y)))
            if acc:
                return False
    return True


def test_dual_code_orthogonality():
    for q, m, fam, d in [(3, 2, CYCLIC, 3), (3, 3, NEGACYCLIC, 2),
                         (5, 2, CYCLIC, 8), (9, 2, CYCLIC, 2),
                         (7, 2, NEGACYCLIC, 6)]:
        inst = realized(q, m, fam, d)
        dual = cc.dual_code(inst)
        assert dual.dim + inst.dim == inst.n
        assert dual.t.residues == cy.dual_defining_set(inst.t).residues
        assert dual.beta == inst.beta
        g = cc.generator_matrix(inst)
        h = cc.generator_matrix(dual)
        assert matrix_product_is_zero(g, h, inst.field)


def test_dual_code_has_no_spec():
    # the dual's defining set is a complement, not a (delta, b) window
    for q, m, fam, d in [(3, 3, NEGACYCLIC, 2), (9, 2, CYCLIC, 2),
                         (7, 2, NEGACYCLIC, 2)]:
        inst = realized(q, m, fam, d)
        dual = cc.dual_code(inst)
        assert dual.spec is None
        enum = orc.min_distance(cc.generator_matrix(dual), inst.field)
        assert examples.true_distance(dual) == enum.distance, (q, m, fam, d)


def test_is_lcd_on_narrow_sense():
    for q, m, fam, d in [(3, 2, CYCLIC, 2), (3, 3, NEGACYCLIC, 4),
                         (7, 2, NEGACYCLIC, 2), (9, 2, CYCLIC, 2)]:
        assert cc.is_lcd(realized(q, m, fam, d))


def test_extension_cap():
    with pytest.raises(ExtensionTooLarge):
        cc.realize(cc.CodeSpec(3, 5, CYCLIC, 2), max_ext=4)
    # explicit argument overrides the environment and the default
    assert cc.max_ext_degree(7) == 7


def test_max_ext_env(monkeypatch):
    monkeypatch.setenv(cc.ENV_MAX_EXT, "6")
    assert cc.max_ext_degree() == 6
    assert cc.max_ext_degree(30) == 30
    monkeypatch.delenv(cc.ENV_MAX_EXT)
    assert cc.max_ext_degree() == cc.DEFAULT_MAX_EXT
