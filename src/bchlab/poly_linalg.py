"""Dense polynomials and linear algebra over a FieldCtx.

Polynomials are python lists of int-coded field elements, lowest degree
first, always trimmed (no trailing zeros; the zero polynomial is []).
Matrices are numpy arrays (or nested lists) of int codes.
"""

from __future__ import annotations

import numpy as np

from .finite_field import FieldCtx


def ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


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


def _codes(matrix, ctx: FieldCtx) -> np.ndarray:
    """matrix as an int64 array of field codes (ValueError otherwise)."""
    a = np.array(matrix, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= ctx.order):
        raise ValueError(f"matrix entries must be codes in [0, {ctx.order})")
    return a


def _forward(rows: np.ndarray, tables) -> list[int]:
    """Bring rows to echelon form in place; return the pivot columns.

    The pass starts after the rows that are in echelon form already, each
    leading before every later row (all of them for the rows x^i g(x),
    upper triangular on [0, k) with g_0 on the diagonal); from there it
    goes column by column, swapping a row with a nonzero entry up and
    clearing the entry from the rows below.  Rows past the pivots end
    zero.
    """
    if not rows.size:
        return []
    add, mul, neg, inv = tables
    k, n = rows.shape
    nonzero = rows != 0
    leads = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), n)
    after = np.append(np.minimum.accumulate(leads[::-1])[-2::-1], n)
    ahead = leads < after  # row i leads before every later row
    done = k if ahead.all() else int(ahead.argmin())
    pivots = leads[:done].tolist()
    for c in range(pivots[-1] + 1 if pivots else 0, n):
        r = len(pivots)
        if r == k:
            break
        hot = r + np.flatnonzero(rows[r:, c])
        if not len(hot):
            continue
        if hot[0] != r:
            rows[[r, hot[0]]] = rows[[hot[0], r]]
        below = hot[1:]
        if len(below):
            scale = mul[neg[rows[below, c]], inv[rows[r, c]]]
            rows[below] = add[rows[below], mul[scale[:, None], rows[r]]]
        pivots.append(c)
    return pivots


def rank(matrix, ctx: FieldCtx) -> int:
    """Rank over the field: the pivots of one forward pass."""
    return len(_forward(_codes(matrix, ctx), ctx.symbol_tables()))


def row_reduce(matrix, ctx: FieldCtx) -> tuple[list[int], np.ndarray]:
    """The pivot columns and the reduced row-echelon form of matrix.

    After the forward pass, back-substitution from the last pivot row
    scales each pivot to 1 and clears the pivot columns above it.  The
    reduced form is unique, so any matrix of the same row space gives the
    same pivots and form; rows below the rank are zero.
    """
    tables = ctx.symbol_tables()
    add, mul, neg, inv = tables
    rows = _codes(matrix, ctx)
    pivots = _forward(rows, tables)
    columns = np.array(pivots, dtype=np.int64)
    for i in range(len(pivots) - 1, -1, -1):
        row = mul[inv[rows[i, pivots[i]]], rows[i]]
        for j in i + 1 + np.flatnonzero(row[columns[i + 1:]]):
            row = add[row, mul[neg[row[columns[j]]], rows[j]]]
        rows[i] = row
    return pivots, rows
