"""Dense polynomials and linear algebra over a FieldCtx.

Polynomials are python lists of int-coded field elements, lowest degree
first, always trimmed (no trailing zeros; the zero polynomial is []).
Matrices are numpy arrays (or nested lists) of int codes.
"""

from __future__ import annotations

import numpy as np

from .errors import CoefficientNotInSubfield, DivisionByZero
from .finite_field import FieldCtx, get_subfield_map


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
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return ptrim(out)


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


def minimal_polynomial(elem: int, big: FieldCtx, small: FieldCtx) -> list[int]:
    """Minimal polynomial of elem (in big) over the subfield small.

    Product of (x - e) over the Frobenius orbit e, e^q, e^{q^2}, ... with
    q = small.order; coefficients are lifted back to small codes.  Raises
    CoefficientNotInSubfield if a coefficient fails to lift (only possible
    when small is not actually the intended base field).
    """
    q = small.order
    orbit = [elem]
    y = big.pow(elem, q)
    while y != elem:
        orbit.append(y)
        y = big.pow(y, q)
    poly = [1]
    for e in orbit:
        poly = pmul(poly, [big.neg(e), 1], big)
    submap = get_subfield_map(small, big)
    lifted = []
    for c in poly:
        try:
            lifted.append(submap.lift(c))
        except KeyError:
            raise CoefficientNotInSubfield(
                f"coefficient {c} of the orbit product is outside "
                f"F_{small.order}") from None
    return lifted


def rank(matrix, ctx: FieldCtx) -> int:
    """Rank over the field; vectorized for prime fields."""
    rows = [list(map(int, row)) for row in matrix]
    if not rows:
        return 0
    if ctx.k == 1:
        return _rank_prime(np.array(rows, dtype=np.int64), ctx.p)
    return _rank_generic(rows, ctx)


def _rank_prime(a: np.ndarray, p: int) -> int:
    a = a % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[r + 1:, c]
        hot = np.nonzero(col)[0]
        if hot.size:
            a[r + 1 + hot] = (a[r + 1 + hot] - np.outer(col[hot], a[r])) % p
        r += 1
    return r


def _rank_generic(rows: list[list[int]], ctx: FieldCtx) -> int:
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [ctx.sub(vi, ctx.mul(f, vr))
                           for vi, vr in zip(rows[i], rows[r])]
        r += 1
    return r
