"""Code realization: generator polynomials, matrices, duals, bounds, LCD."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchlab import code_core as cc
from bchlab import cyclotomic as cy
from bchlab import examples
from bchlab import finite_field as ff
from bchlab import oracle as orc
from bchlab import poly_linalg as pl
from bchlab.cyclotomic import CYCLIC, NEGACYCLIC
from bchlab.errors import BadDelta, CoefficientNotInSubfield, \
    ExtensionTooLarge

import reference as ref
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
        assert cc.run_bound(spec.defining_set, n) == bound
    with pytest.raises(BadDelta):
        cc.dimension(cc.CodeSpec(3, 2, CYCLIC, 1))


def test_bch_bound_hand_cases():
    # T(3,2,cyclic,3) = {1,2,3,4,6,7,8,9} mod 10: longest run has 4 elements
    assert cc.run_bound(cy.defining_set(3, 2, CYCLIC, 3), 10) == 5
    # T(3,3,neg,2) = C_1 = {1,3,9,19,25,27} mod 28: odd-step run 25,27,1,3
    assert cc.run_bound(cy.defining_set(3, 3, NEGACYCLIC, 2), 14) == 5
    # T(3,3,neg,4) misses only C_7 = {7,21}: two runs of 6 odd residues
    assert cc.run_bound(cy.defining_set(3, 3, NEGACYCLIC, 4), 14) == 7


def naive_bch_bound(t):
    """1 + the longest run of T's class positions, read off the class twice.

    t is the frozenset form of tests/reference.py.
    """
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
            empty = ref.DefiningSetReference(q, rn, r)
            full = ref.DefiningSetReference(
                q, rn, r, frozenset(empty.class_residues()))
            assert cc.run_bound(np.array([], dtype=np.int64), n) \
                == naive_bch_bound(empty) == 1
            assert cc.run_bound(np.arange(n), n) == naive_bch_bound(full) == n
            # every delta on small classes, five spread over the
            # delta range on large ones
            md = profile(q, m, fam).max_delta
            step = 1 if n * md <= 20_000 else md // 4
            for d in range(2, md + 1, step):
                t = cy.defining_set(q, m, fam, d)
                want = ref.defining_set_reference(q, m, fam, d)
                for s, naive in ((t, want),
                                 (cy.dual_defining_set(t, n, r),
                                  ref.dual_defining_set_reference(want))):
                    assert cc.run_bound(s, n) == naive_bch_bound(naive), \
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
        lam = 1 if fam == CYCLIC else ref.scalar_field(inst.field).neg(1)
        xn = ref.x_pow_minus(n, lam, inst.field)
        assert ref.pdivmod(xn, g, inst.field)[1] == []
        # beta has exact order rn
        ext = ref.scalar_field(inst.extension)
        assert ext.pow(inst.beta, rn) == 1
        for p in ff.factorize(rn):
            assert ext.pow(inst.beta, rn // p) != 1


def test_generator_roots_are_exactly_t():
    # g(beta^j) = 0 iff j is in the defining set
    for q, m, fam, d in [(3, 2, CYCLIC, 3), (3, 3, NEGACYCLIC, 2),
                         (5, 2, CYCLIC, 8), (9, 2, CYCLIC, 2)]:
        inst = realized(q, m, fam, d)
        sm = ff.get_subfield_map(inst.field, inst.extension)
        lifted = [sm.embed_table[c] for c in inst.gen_poly]
        ext = ref.scalar_field(inst.extension)
        want = ref.defining_set_reference(q, m, fam, d)
        assert inst.t.tolist() == want.positions()
        for j in want.class_residues():
            val = ref.peval(lifted, ext.pow(inst.beta, j), inst.extension)
            assert (val == 0) == (j in want)


def next_irreducible(p, k):
    """The second monic irreducible of degree k in find_irreducible's order."""
    polys = (tuple((v // p ** j) % p for j in range(k)) + (1,)
             for v in range(p ** k))
    irreducible = (f for f in polys if ff._is_irreducible(list(f), p))
    next(irreducible)
    return next(irreducible)


def test_generator_poly_matches_reference():
    # the batched orbit products against one minimal polynomial at a time,
    # on the default fields and with field= / extension= moduli of their own
    insts = [realized(*spec) for spec in STRUCTURAL_INSTANCES]
    f9 = ff.FieldCtx(3, 2, modulus=(2, 2, 1))
    e81 = ff.FieldCtx(3, 4, modulus=next_irreducible(3, 4))
    e38 = ff.FieldCtx(3, 8, modulus=next_irreducible(3, 8))
    for spec, kw in [((9, 2, CYCLIC, 2), dict(field=f9)),
                     ((9, 2, CYCLIC, 5), dict(field=f9, extension=e38)),
                     ((9, 2, CYCLIC, 5), dict(extension=e38)),
                     ((3, 2, CYCLIC, 3), dict(extension=e81)),
                     ((3, 4, NEGACYCLIC, 2), dict(extension=e38))]:
        insts.append(cc.realize(cc.CodeSpec(*spec), **kw))
    assert f9.modulus != ff.get_field(3, 2).modulus
    for e in (e81, e38):
        assert e.modulus != ff.find_irreducible(3, e.k)
    for inst in insts:
        ext, fld, rn = inst.extension, inst.field, inst.r * inst.n
        assert inst.beta == ref.scalar_field(ext).pow(
            ext.generator, (ext.order - 1) // rn)
        dual = cc.dual_code(inst)
        spec = inst.spec
        t = ref.defining_set_reference(spec.q, spec.m, spec.family,
                                       spec.delta, spec.b)
        for code, want in ((inst, t),
                           (dual, ref.dual_defining_set_reference(t))):
            assert code.t.tolist() == want.positions()
            assert code.gen_poly == ref.generator_poly_reference(
                want, ext, fld, inst.beta), (inst.spec, code is dual)


def test_realize_builds_no_extension_tables(monkeypatch):
    monkeypatch.setattr(ff, "_FIELD_CACHE", {})
    monkeypatch.setattr(ff, "_SUBFIELD_CACHE", {})
    inst = cc.realize(cc.CodeSpec(7, 3, NEGACYCLIC, 2))
    cc.dual_code(inst)
    assert inst.extension.order == 7 ** 6
    assert inst.extension._symbols is None


def test_generator_poly_rejects_coefficients_outside_the_field():
    # the orbit of 1 under 3 mod 10 is not the Frobenius orbit of an
    # element of order 80, so the product leaves F_3
    ext = ff.get_field(3, 4)
    with pytest.raises(CoefficientNotInSubfield):
        cc._generator_poly([1], ext, ff.get_field(3, 1), ext.generator, 10)


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
    scalar = ref.scalar_field(ctx)
    for row in a:
        for col in b:
            acc = 0
            for x, y in zip(row, col):
                acc = scalar.add(acc, scalar.mul(int(x), int(y)))
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
        want = ref.dual_defining_set_reference(
            ref.defining_set_reference(q, m, fam, d))
        assert dual.t.tolist() == want.positions()
        assert dual.beta == inst.beta
        g = cc.generator_matrix(inst)
        h = cc.generator_matrix(dual)
        assert matrix_product_is_zero(g, h, inst.field)


@pytest.mark.parametrize("q,m,fam,d", [(7, 2, NEGACYCLIC, 3),
                                       (9, 2, CYCLIC, 3)])
def test_dual_code_rejects_a_perturbed_dual(monkeypatch, q, m, fam, d):
    inst = realized(q, m, fam, d)
    fld = inst.field
    cc.dual_code(inst)
    # adding t to the constant term of the dual's generator (degree k)
    # adds t x^k g to g times the reversed generator, with coefficient
    # t g_0 at x^k, 0 < k < n: no scalar times x^n -+ 1 has that.  t runs
    # over the digit places p^s of the field
    real = cc._generator_poly
    for s in range(fld.k):

        def perturbed(*args):
            gen = real(*args)
            gen[0] = ref.scalar_field(fld).add(gen[0], fld.p ** s)
            return gen

        monkeypatch.setattr(cc, "_generator_poly", perturbed)
        with pytest.raises(AssertionError, match="not orthogonal"):
            cc.dual_code(inst)


@pytest.mark.parametrize("q,m,fam,d", [(3, 2, CYCLIC, 3), (9, 2, CYCLIC, 2),
                                       (3, 3, NEGACYCLIC, 2),
                                       (7, 2, NEGACYCLIC, 6)])
def test_times_length_poly(q, m, fam, d):
    inst = realized(q, m, fam, d)
    scalar = ref.scalar_field(inst.field)
    n = inst.n
    for c in range(1, q):
        low = scalar.neg(c) if fam == CYCLIC else c
        good = [low] + [0] * (n - 1) + [c]
        assert cc._times_length_poly(good, inst) is True
        # the other family's length polynomial
        wrong = [scalar.neg(low)] + good[1:]
        assert cc._times_length_poly(wrong, inst) is False
    for i in range(1, n):
        middle = good[:]
        middle[i] = 1
        assert cc._times_length_poly(middle, inst) is False
    for bad in ([], [low], [low, c], good[:n], good + [c]):
        assert cc._times_length_poly(bad, inst) is False


def test_dual_check_matches_matrix_orthogonality():
    # g times the reversed dual generator against G G_dual^T = 0
    def product_says(inst, dual):
        prod = pl.pmul(inst.gen_poly, dual.gen_poly[::-1], inst.field)
        return cc._times_length_poly(prod, inst)

    def matrices_say(inst, dual):
        add, mul = inst.field.symbol_tables()[:2]
        terms = mul[cc.generator_matrix(inst)[:, None, :],
                    cc.generator_matrix(dual)[None, :, :]]
        dots = functools.reduce(lambda a, b: add[a, b],
                                np.moveaxis(terms, 2, 0))
        return not dots.any()

    for spec in STRUCTURAL_INSTANCES:
        inst = realized(*spec)
        dual = cc.dual_code(inst)
        assert product_says(inst, dual) is matrices_say(inst, dual) is True, \
            spec
        # a wrong generator of the same degree: both say no
        wrong = dual.gen_poly[:]
        wrong[0] = ref.scalar_field(inst.field).add(wrong[0], 1)
        bad = dataclasses.replace(dual, gen_poly=wrong)
        assert product_says(inst, bad) is matrices_say(inst, bad) is False, \
            spec


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


def stacked_rank_is_n(inst):
    """LCD by rank: C + C_perp is the whole space, so G stacked on G_dual
    has rank n."""
    dual = cc.dual_code(inst)
    stacked = np.vstack([cc.generator_matrix(inst),
                         cc.generator_matrix(dual)])
    return pl.rank(stacked, inst.field) == inst.n


def test_is_lcd_matches_the_stacked_rank(monkeypatch):
    # the product g g_dual against the rank of G stacked on G_dual
    for spec in STRUCTURAL_INSTANCES:
        inst = realized(*spec)
        assert cc.is_lcd(inst) == stacked_rank_is_n(inst) is True, spec
    # a dual whose generator shares a factor with g: both say no
    inst = realized(3, 3, NEGACYCLIC, 2)
    dual_code = cc.dual_code
    monkeypatch.setattr(cc, "dual_code", lambda code: dataclasses.replace(
        dual_code(code), gen_poly=code.gen_poly))
    assert cc.is_lcd(inst) is stacked_rank_is_n(inst) is False


# (q, m, family) with n <= 122, so each realized code stays small
LCD_FAMILIES = [(3, 2, CYCLIC), (3, 3, CYCLIC), (3, 4, CYCLIC),
                (5, 2, CYCLIC), (7, 2, CYCLIC), (9, 2, CYCLIC),
                (11, 2, CYCLIC), (3, 3, NEGACYCLIC), (3, 4, NEGACYCLIC),
                (3, 5, NEGACYCLIC), (7, 2, NEGACYCLIC), (11, 2, NEGACYCLIC)]


@st.composite
def narrow_sense_specs(draw):
    q, m, family = draw(st.sampled_from(LCD_FAMILIES))
    n = cy.family_parameters(q, m, family)[0]
    return cc.CodeSpec(q, m, family, draw(st.integers(2, n)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(narrow_sense_specs())
def test_is_lcd_on_random_realized_codes(spec):
    inst = cc.realize(spec)
    assert cc.is_lcd(inst) is stacked_rank_is_n(inst), spec


def test_extension_cap(monkeypatch):
    # ext = 26 > MAX_EXT_DEGREE: refused before any field is built
    calls = []
    monkeypatch.setattr(cc, "get_field", lambda *args: calls.append(args))
    with pytest.raises(ExtensionTooLarge, match="MAX_EXT_DEGREE = 24"):
        cc.realize(cc.CodeSpec(3, 13, CYCLIC, 2))
    assert calls == []
    # the field overrides are keyword-only: a stray positional argument
    # is a TypeError at the call, not a failure deep inside realize
    with pytest.raises(TypeError):
        cc.realize(cc.CodeSpec(3, 2, CYCLIC, 2), 24)
