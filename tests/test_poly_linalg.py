"""Polynomial arithmetic (with the scalar helpers of `reference`), minimal
polynomials, and rank over small fields."""

import random

import numpy as np
import pytest

from bchlab import finite_field as ff
from bchlab import poly_linalg as pl

import reference as ref


def rand_poly(rng, ctx, max_deg):
    return pl.ptrim([rng.randrange(ctx.order)
                     for _ in range(rng.randrange(max_deg + 2))])


def test_ptrim():
    assert pl.ptrim([0, 0, 0]) == []
    assert pl.ptrim([1, 2, 0]) == [1, 2]
    assert pl.ptrim([]) == []


def test_ring_identities():
    rng = random.Random(7)
    for p, k in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        ctx = ff.get_field(p, k)
        for _ in range(60):
            a = rand_poly(rng, ctx, 6)
            b = rand_poly(rng, ctx, 6)
            c = rand_poly(rng, ctx, 4)
            assert ref.padd(a, b, ctx) == ref.padd(b, a, ctx)
            assert pl.pmul(a, b, ctx) == pl.pmul(b, a, ctx)
            left = pl.pmul(a, ref.padd(b, c, ctx), ctx)
            right = ref.padd(pl.pmul(a, b, ctx), pl.pmul(a, c, ctx), ctx)
            assert left == right
            if a:
                assert len(pl.pmul(a, a, ctx)) == 2 * len(a) - 1


def test_pmul_matches_scalar_reference():
    # the table-driven convolution against one scalar mul and add per
    # coefficient pair: a prime field, F_9 with a non-default modulus
    # and F_81 (four digit planes); long and short factors, zeros inside
    rng = random.Random(17)
    fields = [ff.get_field(11, 1), ff.FieldCtx(3, 2, modulus=(2, 2, 1)),
              ff.get_field(3, 4)]
    assert fields[1].modulus != ff.get_field(3, 2).modulus
    for ctx in fields:
        for _ in range(60):
            a = rand_poly(rng, ctx, rng.choice((1, 3, 9)))
            b = rand_poly(rng, ctx, rng.choice((0, 5, 40)))
            assert pl.pmul(a, b, ctx) == ref.pmul_reference(a, b, ctx), \
                (ctx.order, a, b)
        assert pl.pmul([], [1], ctx) == pl.pmul([2], [], ctx) == []
        top = ctx.order - 1
        assert pl.pmul([0, 0, top], [top], ctx) == \
            [0, 0, ref.scalar_field(ctx).mul(top, top)]


def test_pdivmod_identity():
    rng = random.Random(11)
    ctx = ff.get_field(3, 2)
    for _ in range(80):
        a = rand_poly(rng, ctx, 8)
        b = rand_poly(rng, ctx, 4)
        if not b:
            continue
        quo, rem = ref.pdivmod(a, b, ctx)
        assert len(rem) < len(b)
        back = ref.padd(pl.pmul(quo, b, ctx), rem, ctx)
        assert back == a
    with pytest.raises(ZeroDivisionError):
        ref.pdivmod([1], [], ctx)


def test_peval_horner():
    ctx = ff.get_field(3, 2)
    scalar = ref.scalar_field(ctx)
    rng = random.Random(17)
    for _ in range(30):
        a = rand_poly(rng, ctx, 5)
        x = rng.randrange(9)
        direct = 0
        for i, coef in enumerate(a):
            direct = scalar.add(direct, scalar.mul(coef, scalar.pow(x, i)))
        assert ref.peval(a, x, ctx) == direct


def test_x_pow_minus():
    ctx = ff.get_field(3, 1)
    assert ref.x_pow_minus(3, 1, ctx) == [2, 0, 0, 1]   # x^3 - 1
    assert ref.x_pow_minus(2, 2, ctx) == [1, 0, 1]      # x^2 + 1 = x^2 - (-1)
    beta = 5
    ctx9 = ff.get_field(3, 2)
    poly = ref.x_pow_minus(4, beta, ctx9)
    assert ref.peval(poly, 0, ctx9) == ref.scalar_field(ctx9).neg(beta)


def test_minimal_polynomial():
    small = ff.get_field(3, 1)
    big = ff.get_field(3, 4)
    sm = ff.get_subfield_map(small, big)
    scalar = ref.scalar_field(big)
    beta = ff.root_of_unity(big, 10)
    x = beta
    for _ in range(10):
        mp = ref.minimal_polynomial_reference(x, big, small)
        assert mp[-1] == 1
        assert len(mp) - 1 in (1, 2, 4)  # degree divides [F81 : F3]
        lifted = [sm.embed_table[c] for c in mp]
        assert ref.peval(lifted, x, big) == 0
        # conjugates share the minimal polynomial
        assert ref.minimal_polynomial_reference(scalar.pow(x, 3), big,
                                                small) == mp
        x = scalar.mul(x, beta)
    # an element of F81 outside F9 has no quadratic minimal polynomial
    gen = big.generator
    assert len(ref.minimal_polynomial_reference(gen, big, small)) == 5


def test_minimal_polynomial_coefficient_subfield():
    small = ff.get_field(3, 2)
    big = ff.get_field(3, 4)
    gen = big.generator
    mp = ref.minimal_polynomial_reference(gen, big, small)
    assert len(mp) == 3  # degree [F81 : F9] = 2
    sm = ff.get_subfield_map(small, big)
    lifted = [sm.embed_table[c] for c in mp]
    assert ref.peval(lifted, gen, big) == 0


def test_rank_prime_field():
    ctx = ff.get_field(3, 1)
    assert pl.rank(np.array([[1, 2], [2, 2]]), ctx) == 2
    assert pl.rank(np.array([[1, 2], [2, 1]]), ctx) == 1  # row2 = 2*row1
    assert pl.rank(np.zeros((3, 4), dtype=int), ctx) == 0
    # row ops preserve rank
    rng = random.Random(23)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(5)] for _ in range(4)]
        a = np.array(rows)
        r = pl.rank(a, ctx)
        b = a.copy()
        b[0] = (b[0] + 2 * b[1]) % 3
        assert pl.rank(b, ctx) == r
        assert pl.rank(np.vstack([a, a]), ctx) == r


def test_rank_extension_field():
    ctx = ff.get_field(3, 2)
    # rows [1, g] and [g, g^2] are proportional over F9
    g = ctx.generator
    g2 = ref.scalar_field(ctx).mul(g, g)
    assert pl.rank(np.array([[1, g], [g, g2]]), ctx) == 1
    assert pl.rank(np.array([[1, g], [0, 1]]), ctx) == 2


@pytest.mark.parametrize("p,k,modulus", [(3, 1, None), (7, 1, None),
                                         (3, 2, None), (3, 2, (2, 2, 1)),
                                         (3, 3, None)])
def test_rank_matches_reference(p, k, modulus):
    ctx = ff.FieldCtx(p, k, modulus=modulus)
    scalar = ref.scalar_field(ctx)
    q = ctx.order
    rng = random.Random(100 * p + k + len(modulus or ()))
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 9)
        rand = [[rng.randrange(q) for _ in range(ncols)]
                for _ in range(nrows)]
        # every row a random combination of the first r rows
        r = rng.randrange(min(nrows, ncols) + 1)
        deficient = []
        for _ in range(nrows):
            row = [0] * ncols
            for base in rand[:r]:
                c = rng.randrange(q)
                row = [scalar.add(x, scalar.mul(c, y))
                       for x, y in zip(row, base)]
            deficient.append(row)
        for rows in (rand, deficient):
            want = ref.rank_reference([row[:] for row in rows], ctx)
            assert pl.rank(np.array(rows), ctx) == want
            assert pl.rank(rows, ctx) == want
            # row_reduce: the same rank, a reduced row-echelon form with
            # zero rows below the rank, and the same row space
            pivots, rref = pl.row_reduce(rows, ctx)
            assert len(pivots) == want
            assert (rref[:want][:, pivots] == np.eye(want, dtype=int)).all()
            assert all(not rref[i, :c].any() for i, c in enumerate(pivots))
            assert not rref[want:].any()
            assert pl.rank(np.vstack([rref, rows]), ctx) == want
        assert pl.rank(deficient, ctx) <= r
    for bad in ([[q]], [[0, -1]]):
        with pytest.raises(ValueError):
            pl.rank(bad, ctx)
        with pytest.raises(ValueError):
            pl.row_reduce(bad, ctx)
