"""Finite fields: construction, digit vectors, symbol tables, roots of
unity and subfield maps."""

import functools
import importlib.util
import pathlib
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchlab import finite_field as ff
from bchlab.errors import BCHLabError, OrderNotDividing

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
    add, mul, neg, inv = (t.tolist() for t in ctx.symbol_tables())
    xs = field_sample(ctx)
    for a in xs:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
        for b in xs:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in xs[:5]:
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                assert mul[a][mul[b][c]] == mul[mul[a][b]][c]


def test_digits_roundtrip():
    ctx = ff.get_field(3, 4)
    ds = ctx.vdigits(np.arange(81))
    assert ds.shape == (81, 4) and ((0 <= ds) & (ds < 3)).all()
    assert ctx.vundigits(ds).tolist() == list(range(81))


# F_9; F_{3^40}, whose codes pass int64 while W is int64; and
# F_{(2^31-1)^2}, whose codes fit int64 while W holds Python ints
FORMAT_FIELDS = [(3, 2, np.int64, np.int64), (3, 40, object, np.int64),
                 (2 ** 31 - 1, 2, np.int64, object)]


@pytest.mark.parametrize("p,k,code_type,w_type", FORMAT_FIELDS)
def test_code_format_roundtrips_arrays(p, k, code_type, w_type):
    ctx = ff.FieldCtx(p, k)
    assert ctx.place.dtype == code_type and ctx._w.dtype == w_type
    rng = random.Random(p * k)
    codes = [0, 1, p, ctx.order - 1]
    codes += [rng.randrange(ctx.order) for _ in range(20)]
    for shape in [(24,), (4, 6), (2, 3, 4)]:
        arr = np.array(codes, dtype=code_type).reshape(shape)
        ds = ctx.vdigits(arr)
        assert ds.shape == shape + (k,) and ds.dtype == w_type
        assert ds.reshape(-1, k).tolist() == \
            [[a // p ** i % p for i in range(k)] for a in codes]
        back = ctx.vundigits(ds)
        assert back.shape == shape and back.tolist() == arr.tolist()


@pytest.mark.parametrize("p,k,code_type,w_type", FORMAT_FIELDS)
def test_powers_match_vpow(p, k, code_type, w_type):
    # exponents past int64 (on F_{3^40}) take the object route of powers
    ctx = ff.FieldCtx(p, k)
    rng = random.Random(p + k)
    n1 = ctx.order - 1
    exps = [0, 1, 2, p, n1 - 1, n1] + [rng.randrange(n1) for _ in range(6)]
    base = ctx.vdigits([0, 1, ctx.generator, rng.randrange(ctx.order)])
    got = ctx.powers(base, exps)
    assert got.shape == (len(exps), 4, k)
    want = ctx.vpow(base, np.array(exps, dtype=object)[:, None])
    assert (got == want).all()


def test_pow_matches_repeated_mul():
    ctx = ff.get_field(5, 2)
    for a in (0, 1, 2, 7, 24):
        x = ctx.vdigits([a])
        acc = ctx.vdigits([1])
        for e in range(9):
            assert (ctx.vpow(x, e) == acc).all()
            acc = ctx.vmul(acc, x)


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
    add, mul, neg, inv = (t.tolist() for t in ctx.symbol_tables())
    scalar = ref.scalar_field(ctx)
    for a in {a for a, _, _ in triples}:
        assert mul[a] == [scalar.mul(a, b) for b in range(ctx.order)]
    assert inv[0] == 0
    assert all(scalar.mul(a, inv[a]) == 1 for a in range(1, ctx.order))
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
    scalar = ref.scalar_field(ctx)
    got = ctx.vundigits(ctx.vmul(ctx.vdigits(a), ctx.vdigits(b))).tolist()
    assert got == [scalar.mul(x, y) for x, y in zip(a, b)]
    base = [0] + a[:39]
    n1 = ctx.order - 1
    exps = (0, 1, 2, 7, n1 - 1, n1, ctx.order, 2 * n1, 10 ** 9 + 7)
    for e in exps:
        got = ctx.vundigits(ctx.vpow(ctx.vdigits(base), e)).tolist()
        assert got == [scalar.pow(x, e) for x in base]
    # one exponent per column of a (B, 1, k) batch, as _find_generator asks
    got = ctx.vpow(ctx.vdigits(base)[:, None], exps)
    assert got.shape == (len(base), len(exps), k)
    assert ctx.vundigits(got).tolist() == \
        [[scalar.pow(x, e) for e in exps] for x in base]


def test_generator_search_on_a_large_prime():
    # k^2 p^3 >= 2^63: W and every vpow work on Python ints
    p = 2 ** 31 - 1
    ctx = ff.FieldCtx(p, 2)
    assert ctx._w.dtype == object
    n1 = ctx.order - 1
    exps = [n1 // rho for rho in ff.factorize(n1)]

    def primitive(g):
        return all(ref.scalar_field(ctx).pow(g, e) != 1 for e in exps)

    assert primitive(ctx.generator)
    assert not any(primitive(g) for g in range(p, ctx.generator))


# every F_p, p <= 13, and every modulus of F_9, F_25, F_27, F_49 and F_81,
# the hand-picked cases first; None is the default modulus
SYMBOL_FIELDS = [(3, 1, None), (7, 1, None), (3, 2, None), (3, 2, (2, 2, 1)),
                 (5, 2, None), (3, 3, None), (7, 2, None)]
SYMBOL_FIELDS += [(p, 1, None) for p in (2, 5, 11, 13)]
SYMBOL_FIELDS += [case for p, k in [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]
                  for i, f in enumerate(irreducibles(p, k))
                  if (case := (p, k, f if i else None)) not in SYMBOL_FIELDS]


@pytest.mark.parametrize("p,k,modulus", SYMBOL_FIELDS)
def test_symbol_tables_match_scalar_arithmetic(p, k, modulus):
    ctx = ff.FieldCtx(p, k, modulus=modulus)
    tables = ctx.symbol_tables()
    assert ctx.symbol_tables() is tables
    for t in tables:
        assert t.dtype == np.int64 and not t.flags.writeable
    assert [t.tolist() for t in tables] == list(ref.scalar_field(ctx).tables)


def test_references_read_four_field_attributes():
    # the scalar references see a FieldCtx only through p, k, modulus and
    # generator: a bare namespace of those four gives the same answers
    def bare(ctx):
        return types.SimpleNamespace(p=ctx.p, k=ctx.k, modulus=ctx.modulus,
                                     generator=ctx.generator)

    small, big = ff.FieldCtx(3, 2, modulus=(2, 2, 1)), ff.get_field(3, 4)
    assert ref.generator_reference(bare(big)) == big.generator
    assert ref.embed_table_reference(bare(small), bare(big)) == \
        ff.SubfieldMap(small, big).embed_table
    assert ref.minimal_polynomial_reference(big.generator, bare(big),
                                            bare(small)) == \
        ref.minimal_polynomial_reference(big.generator, big, small)
    rows = [[1, 0, 3, 5, 7], [0, 1, 2, 8, 4]]

    def answers(ctx):
        return (ref.gray_walk_reference(ctx, rows, 1, 81),
                ref.info_set_walk_reference(ctx, ([0, 1], rows)),
                ref.check_search_reference(np.array(rows), ctx),
                ref.rank_reference([row[:] for row in rows], ctx),
                ref.pdivmod(rows[0], rows[1][1:], ctx))

    assert answers(bare(small)) == answers(small)


def test_symbol_tables_size_guard(monkeypatch):
    ctx = ff.get_field(3, 7)  # q^2 = 4.8 M > TABLE_CAP

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "arange", no_alloc)
    monkeypatch.setattr(np, "array", no_alloc)
    with pytest.raises(BCHLabError, match="TABLE_CAP"):
        ctx.symbol_tables()


def test_tracer_counts_no_field_table():
    # the traced benchmark records len(FieldCtx.exp or ()) after every
    # FieldCtx construction; perfbench/tracing.py needs only the standard
    # library, so it loads by path
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    count = tracing._COUNTS["finite_field.FieldCtx"]
    ctx = ff.FieldCtx(3, 2)
    assert count((ctx,), None) == 0
    ctx.symbol_tables()
    assert count((ctx,), None) == 0


def test_get_field_caches():
    assert ff.get_field(3, 4) is ff.get_field(3, 4)
    assert ff.get_field(3, 4) is not ff.get_field(3, 2)


def test_multiplicative_generator_order():
    for p, k in [(3, 2), (3, 4), (7, 2)]:
        ctx = ff.get_field(p, k)
        scalar = ref.scalar_field(ctx)
        g = ctx.generator
        order = p**k - 1
        assert scalar.pow(g, order) == 1
        for r in ff.factorize(order):
            assert scalar.pow(g, order // r) != 1


def test_root_of_unity():
    ctx = ff.get_field(3, 4)  # F81, group order 80
    scalar = ref.scalar_field(ctx)
    beta = ff.root_of_unity(ctx, 10)
    assert scalar.pow(beta, 10) == 1
    for e in range(1, 10):
        assert scalar.pow(beta, e) != 1
    # deterministic construction
    assert beta == ff.root_of_unity(ctx, 10)
    assert beta == scalar.pow(ctx.generator, 8)
    with pytest.raises(OrderNotDividing):
        ff.root_of_unity(ctx, 7)


def test_subfield_map_is_field_hom():
    small = ff.get_field(3, 2)
    big = ff.get_field(3, 4)
    sm = ff.get_subfield_map(small, big)
    img = sm.embed_table
    assert img[0] == 0 and img[1] == 1
    assert len(set(img)) == 9
    sf, bf = ref.scalar_field(small), ref.scalar_field(big)
    for a in range(9):
        assert sm.lift_table[img[a]] == a
        for b in range(9):
            assert img[sf.add(a, b)] == bf.add(img[a], img[b])
            assert img[sf.mul(a, b)] == bf.mul(img[a], img[b])
    for ext in (ff.get_field(3, 8), ff.FieldCtx(3, 4, (2, 0, 0, 1, 1))):
        for sub in (ff.get_field(3, 2), ff.FieldCtx(3, 2, (2, 2, 1)),
                    ff.get_field(3, 1)):
            assert ff.SubfieldMap(sub, ext).embed_table == \
                ref.embed_table_reference(sub, ext)
    with pytest.raises(ValueError):
        ff.get_subfield_map(small, ff.get_field(3, 3))
    with pytest.raises(ValueError):
        ff.get_subfield_map(small, ff.get_field(5, 4))
