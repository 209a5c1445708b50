"""Finite-field arithmetic: axioms, tables, roots of unity, subfield maps."""

import random

import pytest

from bchlab import finite_field as ff
from bchlab.errors import DivisionByZero, OrderNotDividing

import reference as ref


def test_factorize():
    assert ff.factorize(1) == {}
    assert ff.factorize(12) == {2: 2, 3: 1}
    assert ff.factorize(97) == {97: 1}
    assert ff.factorize(2**4 * 7**2) == {2: 4, 7: 2}
    assert ff.factorize(101 * 103) == {101: 1, 103: 1}
    assert ff.factorize(3**13 + 1) == {2: 2, 398581: 1}
    with pytest.raises(ValueError):
        ff.factorize(0)


def test_prime_power_decomposition():
    assert ff.prime_power_decomposition(7) == (7, 1)
    assert ff.prime_power_decomposition(27) == (3, 3)
    assert ff.prime_power_decomposition(121) == (11, 2)
    for bad in (12, 1, 100):
        with pytest.raises(ValueError):
            ff.prime_power_decomposition(bad)


def test_find_irreducible_deterministic():
    for p, k in [(3, 2), (3, 4), (5, 2), (7, 3)]:
        f = ff.find_irreducible(p, k)
        assert f == ff.find_irreducible(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        if k <= 3:
            # degree <= 3: irreducible iff no root in F_p
            for x in range(p):
                assert sum(c * x**i for i, c in enumerate(f)) % p != 0


def field_sample(ctx, limit=12):
    order = ctx.order
    if order <= limit:
        return list(range(order))
    step = order // limit
    return sorted({0, 1} | set(range(2, order, step)))


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 4), (5, 2), (7, 2)])
def test_field_axioms(p, k):
    ctx = ff.get_field(p, k)
    xs = field_sample(ctx)
    for a in xs:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.sub(a, a) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in xs:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in xs[:5]:
                assert ctx.mul(a, ctx.add(b, c)) == \
                    ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert ctx.mul(a, ctx.mul(b, c)) == \
                    ctx.mul(ctx.mul(a, b), c)


def test_digits_roundtrip():
    ctx = ff.get_field(3, 4)
    for a in range(81):
        ds = ctx.digits(a)
        assert len(ds) == 4 and all(0 <= d < 3 for d in ds)
        assert ctx.undigits(ds) == a


def test_division_by_zero():
    ctx = ff.get_field(3, 2)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    with pytest.raises(DivisionByZero):
        ctx.pow(0, -1)


def test_pow_matches_repeated_mul():
    ctx = ff.get_field(5, 2)
    for a in (0, 1, 2, 7, 24):
        acc = 1
        for e in range(9):
            assert ctx.pow(a, e) == acc
            acc = ctx.mul(acc, a)
    assert ctx.mul(ctx.pow(2, -3), ctx.pow(2, 3)) == 1


def test_tables_match_poly_path():
    ctx = ff.get_field(3, 2)
    assert ctx.exp is not None  # small field: tables built
    for a in range(9):
        for b in range(9):
            assert ctx.mul(a, b) == ctx._mul_poly(a, b)
    # random pairs in F_{7^4} and in F_{5^3} = F_5[x]/(x^3 + 3x + 2), a
    # modulus other than the default x^3 + x + 1
    rng = random.Random(5)
    for ctx in (ff.get_field(7, 4), ff.FieldCtx(5, 3, modulus=(2, 3, 0, 1))):
        for _ in range(2000):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.mul(a, b) == ctx._mul_poly(a, b)


# several doubling steps, a last step shorter than the one before, and
# (on F_{3^10}, F_{7^6}) chunk boundaries off the step boundaries
TABLE_FIELDS = [(2, 8, None), (3, 2, None), (3, 2, (2, 2, 1)), (3, 5, None),
                (3, 10, None), (5, 4, None), (7, 4, None), (7, 6, None),
                (11, 3, None), (13, 2, None), (5, 3, (2, 3, 0, 1)),
                (7, 1, None), (11, 1, None)]


@pytest.mark.parametrize("p,k,modulus", TABLE_FIELDS)
def test_tables_match_reference(p, k, modulus):
    ctx = ff.get_field(p, k) if modulus is None \
        else ff.FieldCtx(p, k, modulus=modulus)
    assert modulus is None or ctx.modulus != ff.find_irreducible(p, k)
    assert (ctx.exp, ctx.log) == ref.field_tables_reference(ctx)


def test_get_field_caches():
    assert ff.get_field(3, 4) is ff.get_field(3, 4)
    assert ff.get_field(3, 4) is not ff.get_field(3, 2)


def test_multiplicative_generator_order():
    for p, k in [(3, 2), (3, 4), (7, 2)]:
        ctx = ff.get_field(p, k)
        g = ctx.generator
        order = p**k - 1
        assert ctx.pow(g, order) == 1
        for r in ff.factorize(order):
            assert ctx.pow(g, order // r) != 1


def test_root_of_unity():
    ctx = ff.get_field(3, 4)  # F81, group order 80
    beta = ff.root_of_unity(ctx, 10)
    assert ctx.pow(beta, 10) == 1
    for e in range(1, 10):
        assert ctx.pow(beta, e) != 1
    # deterministic construction
    assert beta == ff.root_of_unity(ctx, 10)
    with pytest.raises(OrderNotDividing):
        ff.root_of_unity(ctx, 7)


def test_subfield_map_is_field_hom():
    small = ff.get_field(3, 2)
    big = ff.get_field(3, 4)
    sm = ff.get_subfield_map(small, big)
    assert sm.embed(0) == 0 and sm.embed(1) == 1
    img = [sm.embed(a) for a in range(9)]
    assert len(set(img)) == 9
    for a in range(9):
        assert sm.lift(sm.embed(a)) == a
        for b in range(9):
            assert sm.embed(small.add(a, b)) == big.add(img[a], img[b])
            assert sm.embed(small.mul(a, b)) == big.mul(img[a], img[b])
    with pytest.raises(ValueError):
        ff.get_subfield_map(small, ff.get_field(3, 3))
    with pytest.raises(ValueError):
        ff.get_subfield_map(small, ff.get_field(5, 4))
