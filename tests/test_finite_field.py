"""Finite-field arithmetic: axioms, tables, roots of unity, subfield maps."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchlab import finite_field as ff
from bchlab.errors import BCHLabError, DivisionByZero, OrderNotDividing

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


def test_modulus_is_checked_once(monkeypatch):
    for bad in [(1, 0, 1), (1, 1, 2), (1, 1)]:  # x^2 + 1 = (x - 2)(x + 2)
        with pytest.raises(ValueError):
            ff.FieldCtx(5, 2, modulus=bad)
    calls = []
    real = ff._is_irreducible

    def counted(f, p):
        calls.append(tuple(f))
        return real(f, p)

    monkeypatch.setattr(ff, "_is_irreducible", counted)
    ctx = ff.FieldCtx(3, 4)  # find_irreducible's test is the only one
    assert calls.count(ctx.modulus) == 1
    ff.FieldCtx(3, 4, modulus=ctx.modulus)
    assert calls.count(ctx.modulus) == 2


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
    for a in range(9):
        for b in range(9):
            assert ctx.mul(a, b) == ctx._mul_poly(a, b)
    assert ctx.exp is not None  # small field: the first mul built tables
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
    ctx.tables()  # built on first use
    assert (ctx.exp, ctx.log) == ref.field_tables_reference(ctx)


def monic(p, k):
    """Every monic polynomial of degree k over F_p, ascending coefficients,
    in find_irreducible's candidate order."""
    return [[(v // p ** j) % p for j in range(k)] + [1] for v in range(p ** k)]


@functools.cache
def irreducibles(p, k):
    """Every monic irreducible of degree k over F_p, by trial division."""
    return [tuple(f) for f in monic(p, k) if ref.irreducible_reference(f, p)]


def prime_powers(limit):
    return [(p, k) for p in range(2, limit + 1) if ff._is_prime(p)
            for k in range(1, 64) if p ** k <= limit]


def mobius(n):
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def test_irreducibility_matches_trial_division():
    for p, k in prime_powers(729):
        got = [tuple(f) for f in monic(p, k) if ff._is_irreducible(f, p)]
        assert got == irreducibles(p, k), (p, k)
        # Gauss: (1/k) sum over d | k of mu(d) p^(k/d)
        assert len(got) * k == sum(mobius(d) * p ** (k // d)
                                   for d in range(1, k + 1) if k % d == 0)
        assert ff.find_irreducible(p, k) == got[0]


# extension fields F_{p^k}, k >= 2, small enough to list every modulus of
EXTENSIONS = [(p, k) for p, k in prime_powers(343) if k >= 2]


@st.composite
def field_and_triples(draw):
    """A FieldCtx on a drawn modulus, and triples of its elements."""
    p, k = draw(st.sampled_from(EXTENSIONS))
    ctx = ff.FieldCtx(p, k, modulus=draw(st.sampled_from(irreducibles(p, k))))
    element = st.integers(0, ctx.order - 1)
    triples = draw(st.lists(st.tuples(element, element, element),
                            min_size=1, max_size=20))
    return ctx, triples


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(field_and_triples())
def test_field_axioms_on_drawn_moduli(case):
    ctx, triples = case
    ctx.tables()
    assert (ctx.exp, ctx.log) == ref.field_tables_reference(ctx)
    add, mul, neg, inv = (t.tolist() for t in ctx.symbol_tables())
    for a, b, c in triples:
        assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        assert add[a][neg[a]] == 0
        assert mul[a][inv[a]] == (1 if a else 0)


def test_generator_matches_reference():
    # the batched search returns the first generator in code order, on
    # every field up to 3^10 and on every modulus of F_9 and F_81
    fields = [ff.FieldCtx(p, k) for p, k in prime_powers(3 ** 10)]
    fields += [ff.FieldCtx(3, k, modulus=f) for k in (2, 4)
               for f in irreducibles(3, k)]
    assert len(fields) > 6000
    assert (2, 2, 1) in [f.modulus for f in fields]
    for ctx in fields:
        assert ctx.exp is None  # no tables at construction
        assert ctx.generator == ref.generator_reference(ctx), ctx


@pytest.mark.parametrize("p,k,modulus", [(3, 1, None), (3, 2, (2, 2, 1)),
                                         (2, 8, None), (7, 4, None),
                                         (5, 3, (2, 3, 0, 1)),
                                         (2 ** 31 - 1, 2, None)])
def test_digit_vectors_match_poly_path(p, k, modulus):
    ctx = ff.FieldCtx(p, k, modulus=modulus)
    rng = random.Random(p * k)
    size = ff._TABLE_CHUNK + 300  # more rows than one chunk
    a = [rng.randrange(ctx.order) for _ in range(size)]
    b = [rng.randrange(ctx.order) for _ in range(size)]
    got = ctx.vundigits(ctx.vmul(ctx.vdigits(a), ctx.vdigits(b)))
    assert got == [ref.mul_reference(ctx, x, y) for x, y in zip(a, b)]
    base = [0] + a[:39]
    n1 = ctx.order - 1
    exps = (0, 1, 2, 7, n1 - 1, n1, ctx.order, 2 * n1, 10 ** 9 + 7)
    for e in exps:
        got = ctx.vundigits(ctx.vpow(ctx.vdigits(base), e))
        assert got == [ref.pow_reference(ctx, x, e) for x in base]
    # one exponent per column of a (B, 1, k) batch, as _find_generator asks
    got = ctx.vpow(ctx.vdigits(base)[:, None], exps)
    assert got.shape == (len(base), len(exps), k)
    assert [ctx.vundigits(row) for row in got] == \
        [[ref.pow_reference(ctx, x, e) for e in exps] for x in base]
    assert ctx.exp is None


def test_generator_search_on_a_large_prime():
    # k^2 p^3 >= 2^63: W and every vpow work on Python ints
    p = 2 ** 31 - 1
    ctx = ff.FieldCtx(p, 2)
    assert ctx._w.dtype == object
    n1 = ctx.order - 1
    exps = [n1 // rho for rho in ff.factorize(n1)]

    def primitive(g):
        return all(ref.pow_reference(ctx, g, e) != 1 for e in exps)

    assert primitive(ctx.generator)
    assert not any(primitive(g) for g in range(p, ctx.generator))


@pytest.mark.parametrize("p,k,modulus", [
    (3, 1, None), (7, 1, None), (3, 2, None), (3, 2, (2, 2, 1)),
    (5, 2, None), (3, 3, None), (7, 2, None)])
def test_symbol_tables_match_scalar_arithmetic(p, k, modulus):
    ctx = ff.FieldCtx(p, k, modulus=modulus)
    tables = ctx.symbol_tables()
    assert ctx.symbol_tables() is tables
    add, mul, neg, inv = (t.tolist() for t in tables)
    q = ctx.order
    for t in tables:
        assert t.dtype == np.int64 and not t.flags.writeable
    assert (len(add), len(add[0]), len(neg), len(inv)) == (q, q, q, q)
    for a in range(q):
        assert neg[a] == ctx.neg(a)
        assert inv[a] == (ctx.inv(a) if a else 0)
        for b in range(q):
            assert add[a][b] == ctx.add(a, b)
            assert mul[a][b] == ctx.mul(a, b) == ctx._mul_poly(a, b)


def test_symbol_tables_size_guard(monkeypatch):
    ctx = ff.get_field(3, 7)  # q^2 = 4.8 M > TABLE_CAP

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "arange", no_alloc)
    monkeypatch.setattr(np, "array", no_alloc)
    with pytest.raises(BCHLabError, match="TABLE_CAP"):
        ctx.symbol_tables()


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
    assert beta == ref.pow_reference(ctx, ctx.generator, 8)
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
    for ext in (ff.get_field(3, 8), ff.FieldCtx(3, 4, (2, 0, 0, 1, 1))):
        for sub in (ff.get_field(3, 2), ff.FieldCtx(3, 2, (2, 2, 1)),
                    ff.get_field(3, 1)):
            assert ff.SubfieldMap(sub, ext).embed_table == \
                ref.embed_table_reference(sub, ext)
    with pytest.raises(ValueError):
        ff.get_subfield_map(small, ff.get_field(3, 3))
    with pytest.raises(ValueError):
        ff.get_subfield_map(small, ff.get_field(5, 4))
