"""Finite fields F_{p^k} with deterministic construction.

Elements are coded as integers in [0, p^k): the code of an element with
coefficient vector (c_0, ..., c_{k-1}) in the power basis of the modulus is
sum c_i p^i (c_0 = constant term).  The prime subfield is therefore coded
canonically as 0..p-1.

Determinism contract:
* the modulus is the lexicographically smallest monic irreducible of
  degree k, comparing coefficient tuples (c_{k-1}, ..., c_0): the
  candidates are tried in that order, each by Ben-Or's test;
* the multiplicative generator is the first element in code order whose
  order is p^k - 1 (checked against the prime factors of p^k - 1): on
  F_p by built-in `pow` from 1 up, on F_{p^k}, k >= 2, by `vpow` on
  batches in code order from p up, since the codes below p lie in F_p;
* the symbol tables of `symbol_tables` are read off the modulus alone,
  with no generator, so repeated constructions are bit-for-bit
  identical.

The element format lives here alone: `vdigits` turns codes into (..., k)
arrays of base-p digits and `vundigits` turns them back, both through
`place` = (p^0, ..., p^(k-1)).  All arithmetic runs on digit vectors:
`vmul` multiplies (..., k) arrays through the product matrix W,
`powers` raises one element to many exponents by square-and-multiply,
and `vpow` raises to the base-p digits of the exponent, one Frobenius
matrix per digit position.  The q x q symbol tables of a code's symbol
field come from W too, one F_p-linear map per element.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BCHLabError, FactorizationTooLarge, OrderNotDividing

# most entries of a symbol table (q^2 <= this); code-info also reads it as
# its realize gate, building F_{q^ext} only when q^ext <= this
TABLE_CAP = 1 << 21
_TABLE_CHUNK = 1 << 12  # rows per vmul step, and the largest generator batch

_TRIAL_LIMIT = 10**6
_RHO_ITER_CAP = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, trial division then a bounded Pollard rho.

    Deterministic (fixed rho parameters); raises FactorizationTooLarge when
    a cofactor survives the iteration budget.
    """
    if n <= 0:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n == 1:
        return out
    if f * f > n:
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if _is_prime(c):
            out[c] = out.get(c, 0) + 1
            continue
        d = _rho(c)
        stack.extend((d, c // d))
    return out


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle finding)."""
    for c in range(1, 32):
        x = y = 2
        d = 1
        it = 0
        while d == 1:
            if it > _RHO_ITER_CAP:
                break
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            it += 1
        if 1 < d < n:
            return d
    raise FactorizationTooLarge(f"rho budget exhausted on {n}")


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, k),) = fac.items()
    return p, k


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (int coefficient lists, ascending), for
# Ben-Or's test of find_irreducible; poly_linalg trims with ptrim too


def ptrim(a: list[int]) -> list[int]:
    """a without its trailing zeros, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def _prem(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f, f monic."""
    a = a[:]
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        shift = len(a) - 1 - df
        if lead:
            for j in range(df + 1):
                a[shift + j] = (a[shift + j] - lead * f[j]) % p
        a.pop()
        ptrim(a)
        if len(a) - 1 < df:
            break
    return ptrim(a)


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    b = _prem(base, f, p)
    while e:
        if e & 1:
            result = _prem(_pmul(result, b, p), f, p)
        b = _prem(_pmul(b, b, p), f, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        bm = [c * lead_inv % p for c in b]
        a, b = b, _prem(a, bm, p)
    if a:
        lead_inv = pow(a[-1], p - 2, p)
        a = [c * lead_inv % p for c in a]
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test: monic f of degree k over F_p is irreducible iff
    gcd(x^{p^i} - x, f) = 1 for i = 1..k//2.

    x^{p^i} comes from x^{p^(i-1)} by one p-th power, so a candidate with
    a factor of degree i is rejected after i of them.
    """
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = _ppowmod(h, p, f, p)
        diff = h + [0] * (2 - len(h))  # h - x
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(ptrim(diff), f, p)) > 1:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Returned as ascending coefficients (c_0, ..., c_{k-1}, 1); candidates
    are ordered by the tuple (c_{k-1}, ..., c_0).  k = 1 gives x.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return (0, 1)
    for v in range(p**k):
        coeffs = [(v // p**j) % p for j in range(k)]  # c_j ascending
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------


class FieldCtx:
    """Arithmetic context for F_{p^k} with int-coded elements."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.order = p**k
        if modulus is None:
            modulus = find_irreducible(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            if not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        # Python ints where a code may pass int64
        self.place = np.array([p ** i for i in range(k)],
                              dtype=np.int64 if self.order <= 1 << 63
                              else object)
        self._w = self._product_matrix()
        self.exp = None  # no exp table; perfbench/tracing.py reads its size
        self._symbols: tuple[np.ndarray, ...] | None = None
        self._frob: np.ndarray | None = None
        self.generator = self._find_generator()

    # -- representation ----------------------------------------------------

    def vdigits(self, codes) -> np.ndarray:
        """The (..., k) base-p digits of codes, an int or an array of any
        shape, in W's dtype.

        Digit i is codes // p^i % p, computed for all codes at once and
        then transposed: numpy's loops run about 1.5x slower along a
        trailing axis of length k.
        """
        codes = np.asarray(codes, dtype=self.place.dtype)
        digits = codes.reshape(-1) // self.place[:, None] % self.p
        return digits.T.reshape(codes.shape + (self.k,)).astype(
            self._w.dtype, copy=False)

    def vundigits(self, rows: np.ndarray) -> np.ndarray:
        """The codes of the digit rows of a (..., k) array, shape (...)."""
        return rows @ self.place

    # -- digit-vector arithmetic -------------------------------------------

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of digit vectors: a and b broadcast to (..., k).

        The coefficients of the product polynomial are the outer product
        of the two digit vectors, summed along anti-diagonals; row i*k + j
        of W holds the digits of x^(i+j) mod the modulus, so the product
        is outer.reshape(k^2) @ W mod p.  Operands of more than
        _TABLE_CHUNK rows are multiplied _TABLE_CHUNK rows at a time.
        """
        k = self.k
        if max(np.size(a), np.size(b)) <= _TABLE_CHUNK * k:
            outer = a[..., :, None] * b[..., None, :]
            return outer.reshape(outer.shape[:-2] + (k * k,)) @ self._w \
                % self.p
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        rows = math.prod(shape[:-1])
        a = np.broadcast_to(a, shape).reshape(rows, k)
        b = np.broadcast_to(b, shape).reshape(rows, k)
        return np.concatenate([self.vmul(a[lo:lo + _TABLE_CHUNK],
                                         b[lo:lo + _TABLE_CHUNK])
                               for lo in range(0, rows, _TABLE_CHUNK)]
                              ).reshape(shape)

    def vpow(self, a: np.ndarray, e) -> np.ndarray:
        """a^e for a (..., k) digit array, by the base-p digits of e.

        e is an int >= 0, or ints broadcast against a.shape[:-1]; they
        may exceed int64.  A positive e is reduced to 1..p^k - 1 (so 0^e
        stays 0), a code, whose digits write e = sum_j d_j p^j, j < k.
        a^e is the product of Frob^j(a^(d_j)): `powers` gives a^d for the
        distinct digits, `_frobenius` the matrix of each Frob^j, and the
        k factors multiply in a halving tree of vmul calls.
        """
        p, k, n1 = self.p, self.k, self.order - 1
        e = np.array(e, dtype=object)
        digits = self.vdigits(np.where(e == 0, 0, (e - 1) % n1 + 1))
        # not np.unique: its first call adds about 0.6 MB to peak RSS
        distinct = sorted(set(digits.ravel().tolist()))
        shape = np.broadcast_shapes(a.shape[:-1], e.shape)
        a = a.reshape((1,) * (len(shape) + 1 - a.ndim) + a.shape)
        index = np.searchsorted(distinct, digits).reshape(-1, k).T.reshape(
            (k,) + (1,) * (len(shape) - e.ndim) + e.shape + (1,))
        powers = np.broadcast_to(self.powers(a, distinct),
                                 (len(distinct),) + shape + (k,))
        factors = np.take_along_axis(powers, index, axis=0).reshape(k, -1, k)
        factors = factors @ self._frobenius() % p
        while len(factors) > 1:
            half = len(factors) // 2
            factors = np.concatenate([self.vmul(factors[:half],
                                                factors[half:2 * half]),
                                      factors[2 * half:]])
        return factors[0].reshape(shape + (k,))

    def powers(self, a: np.ndarray, es) -> np.ndarray:
        """a^e for each int e >= 0 of es, stacked on a new first axis.

        Square-and-multiply over the bits of the e: the square a^(2^b)
        multiplies only the powers whose e has bit b.  The bits are read
        off an int64 array of the e, or an object array when one does not
        fit int64.
        """
        try:
            es = np.asarray(es, dtype=np.int64)
        except OverflowError:
            es = np.asarray(es, dtype=object)
        out = np.zeros(es.shape + a.shape, dtype=self._w.dtype)
        out[..., 0] = 1
        square = a
        for bit in range(int(es.max(initial=0)).bit_length()):
            if bit:
                square = self.vmul(square, square)
            odd = es >> bit & 1 == 1
            if odd.any():
                out[odd] = self.vmul(out[odd], square) if bit else square
        return out

    def _frobenius(self) -> np.ndarray:
        """(k, k, k) array: digit rows of a times layer j give a^(p^j).

        a -> a^p is F_p-linear, so row i of layer 1 holds the digits of
        (x^p)^i, and layer j is layer 1 to the j-th power.  Built on the
        first vpow, once per field.
        """
        if self._frob is None:
            p, k = self.p, self.k
            layers = [np.eye(k, dtype=self._w.dtype)]
            if k > 1:
                xp = self.powers(self._w[1], [p])[0]  # W[1]: x
                frob = self.powers(xp, range(k))
                for _ in range(k - 1):
                    layers.append(layers[-1] @ frob % p)
            self._frob = np.array(layers)
        return self._frob

    def symbol_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """(add, mul, neg, inv) as read-only int64 code arrays, built once.

        add and mul are q x q tables, neg and inv vectors of length q
        (inv[0] = 0).  They are meant for the symbol field of a code:
        raises BCHLabError, before allocating, when q^2 > TABLE_CAP.
        Multiplication by b is F_p-linear on digit vectors, and row j of
        its matrix holds the digits of x^j b, a combination of the rows
        of W; the digits of every a times that matrix give row b of mul.
        inv[a] is the b with mul[a, b] = 1 (row 0 has none, so 0).
        """
        if self._symbols is None:
            q, p, k = self.order, self.p, self.k
            if q * q > TABLE_CAP:
                raise BCHLabError(
                    f"symbol tables of F_{q} would hold {q * q} entries, "
                    f"over TABLE_CAP = {TABLE_CAP}")
            digits = self.vdigits(np.arange(q))
            add = self.vundigits((digits[:, None] + digits[None, :]) % p)
            neg = self.vundigits(-digits % p)
            maps = np.tensordot(digits, self._w.reshape(k, k, k), axes=1) % p
            mul = self.vundigits(digits @ maps % p)
            inv = (mul == 1).argmax(axis=1)
            for table in (add, mul, neg, inv):
                table.flags.writeable = False
            self._symbols = (add, mul, neg, inv)
        return self._symbols

    # -- construction helpers ----------------------------------------------

    def _product_matrix(self) -> np.ndarray:
        """W of vmul: row i*k + j holds the digits of x^(i+j) mod f.

        Object entries when an int64 matmul of k^2 products could wrap.
        """
        p, k, f = self.p, self.k, self.modulus
        xpow = [[1] + [0] * (k - 1)]
        for _ in range(2 * k - 2):
            top, prev = xpow[-1][-1], xpow[-1]
            xpow.append([(lo - top * c) % p
                         for lo, c in zip([0] + prev[:-1], f)])
        dtype = np.int64 if k * k * p ** 3 < 2 ** 63 else object
        return np.array([xpow[i + j] for i in range(k) for j in range(k)],
                        dtype=dtype)

    def _find_generator(self) -> int:
        """First code of order p^k - 1.

        A candidate passes when g^((p^k - 1)/rho) != 1 for every prime rho
        of p^k - 1: one built-in pow per test on F_p.  For k >= 2 the codes
        below p lie in F_p, whose orders divide p - 1, so the search
        starts at p and tests batches in code order, doubling from two
        candidates up to _TABLE_CHUNK.
        """
        n1 = self.order - 1
        exps = [n1 // rho for rho in sorted(factorize(n1))]
        if self.k == 1:
            for g in range(1, self.p):
                if all(pow(g, e, self.p) != 1 for e in exps):
                    return g
        one = self.vdigits(1)
        lo, size = self.p, 2
        while lo <= n1:
            codes = np.arange(lo, min(lo + size, n1 + 1))
            powers = self.vpow(self.vdigits(codes)[:, None], exps)
            ok = (powers != one).any(axis=2).all(axis=1)
            if ok.any():
                return int(codes[ok.argmax()])
            lo, size = lo + size, min(2 * size, _TABLE_CHUNK)
        raise RuntimeError("unreachable: F_q* is cyclic")

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k}, modulus={self.modulus})"


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


def get_field(p: int, k: int) -> FieldCtx:
    """Cached FieldCtx with the deterministic default modulus."""
    key = (p, k)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldCtx(p, k)
    return _FIELD_CACHE[key]


def root_of_unity(ctx: FieldCtx, n: int) -> int:
    """A primitive n-th root of unity, g^((order-1)/n).

    Raises OrderNotDividing when n does not divide order - 1.
    """
    if n < 1 or (ctx.order - 1) % n:
        raise OrderNotDividing(
            f"no element of order {n} in F_{ctx.order} (group order "
            f"{ctx.order - 1})")
    g = ctx.vdigits(ctx.generator)
    return int(ctx.vundigits(ctx.vpow(g, (ctx.order - 1) // n)))


class SubfieldMap:
    """Embedding of F_{p^k} into F_{p^K} (k | K) and its partial inverse.

    The image of the base generator basis is determined by the smallest
    root (in code order) of the base modulus inside the big field, found
    among the q - 1 elements of the subgroup of order q - 1.  For k = 1
    the embedding is the identity on codes 0..p-1.
    """

    def __init__(self, small: FieldCtx, big: FieldCtx):
        if small.p != big.p or big.k % small.k:
            raise ValueError(
                f"F_{small.order} does not embed in F_{big.order}")
        self.small = small
        self.big = big
        self.embed_table = self._build_embed()
        self.lift_table = {img: a for a, img in enumerate(self.embed_table)}

    def _build_embed(self) -> list[int]:
        small, big = self.small, self.big
        if small.k == 1:
            return list(range(small.p))
        sub_order = small.order - 1
        # h^0 .. h^(sub_order - 1) for h of order sub_order; 0 is no root
        # of the modulus
        h = big.vpow(big.vdigits(big.generator),
                     (big.order - 1) // sub_order)
        cand = big.powers(h, range(sub_order))
        acc = np.zeros_like(cand)
        for c in reversed(small.modulus):
            acc = big.vmul(acc, cand)
            acc[:, 0] = (acc[:, 0] + c) % big.p
        roots = big.vundigits(cand[~acc.any(axis=1)])
        if not len(roots):
            raise RuntimeError("unreachable: base modulus splits in the "
                               "extension")
        rho_pows = big.powers(big.vdigits(roots.min()), range(small.k))
        # a = sum_j d_j x^j maps to sum_j d_j rho^j, d_j in F_p
        images = small.vdigits(np.arange(small.order)) @ rho_pows
        return big.vundigits(images % big.p).tolist()


_SUBFIELD_CACHE: dict[tuple, SubfieldMap] = {}


def get_subfield_map(small: FieldCtx, big: FieldCtx) -> SubfieldMap:
    key = (small.p, small.modulus, big.modulus)
    if key not in _SUBFIELD_CACHE:
        _SUBFIELD_CACHE[key] = SubfieldMap(small, big)
    return _SUBFIELD_CACHE[key]
