"""Dense polynomials and linear algebra over a FieldCtx.

Polynomials are python lists of int-coded field elements, lowest degree
first, always trimmed (no trailing zeros; the zero polynomial is []).
Matrices are numpy arrays (or nested lists) of int codes.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZero
from .finite_field import FieldCtx


def ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a: list[int], b: list[int], ctx: FieldCtx) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = ctx.add(out[i], c)
    return ptrim(out)


def pmul(a: list[int], b: list[int], ctx: FieldCtx) -> list[int]:
    """a * b as one convolution on the symbol tables.

    prod[i, j] = a_i b_j comes from the multiplication table; field
    addition is digit-wise addition mod p, so each base-p digit plane of
    prod is summed along its anti-diagonals i + j = s and reduced mod p.
    Row i is shifted right by i by laying the rows out with one spare
    column and reading them back len(a) + len(b) - 1 wide.
    """
    if not a or not b:
        return []
    p, rows, width = ctx.p, len(a), len(a) + len(b) - 1
    prod = ctx.symbol_tables()[1][np.array(a)[:, None], np.array(b)]
    shifted = np.zeros((rows, width + 1), dtype=np.int64)
    out = np.zeros(width, dtype=np.int64)
    for place in (p ** i for i in range(ctx.k)):
        shifted[:, :len(b)] = prod // place % p
        diagonals = shifted.ravel()[:rows * width].reshape(rows, width)
        out += diagonals.sum(axis=0) % p * place
    return ptrim(out.tolist())


def pdivmod(a: list[int], b: list[int],
            ctx: FieldCtx) -> tuple[list[int], list[int]]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    lead_inv = ctx.inv(lead)
    if len(a) - 1 < db:
        return [], ptrim(a)
    quot = [0] * (len(a) - db)
    while a and len(a) - 1 >= db:
        c = ctx.mul(a[-1], lead_inv)
        shift = len(a) - 1 - db
        quot[shift] = c
        for j in range(db + 1):
            a[shift + j] = ctx.sub(a[shift + j], ctx.mul(c, b[j]))
        ptrim(a)
    return ptrim(quot), a


def peval(a: list[int], x: int, ctx: FieldCtx) -> int:
    acc = 0
    for c in reversed(a):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def x_pow_minus(n: int, const: int, ctx: FieldCtx) -> list[int]:
    """x^n - const."""
    out = [0] * (n + 1)
    out[0] = ctx.neg(const)
    out[n] = 1
    return out


def rank(matrix, ctx: FieldCtx) -> int:
    """Rank over the field, by row reduction on its symbol tables."""
    add, mul, neg, inv = ctx.symbol_tables()
    a = np.array(matrix, dtype=np.int64)
    if a.size == 0:
        return 0
    if a.min() < 0 or a.max() >= ctx.order:
        raise ValueError(f"matrix entries must be codes in [0, {ctx.order})")
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = mul[inv[a[r, c]], a[r]]
        hot = r + 1 + np.flatnonzero(a[r + 1:, c])
        if hot.size:
            a[hot] = add[a[hot], mul[neg[a[hot, c]][:, None], a[r]]]
        r += 1
    return r
