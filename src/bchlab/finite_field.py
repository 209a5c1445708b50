"""Finite fields F_{p^k} with deterministic construction.

Elements are coded as integers in [0, p^k): the code of an element with
coefficient vector (c_0, ..., c_{k-1}) in the power basis of the modulus is
sum c_i p^i (c_0 = constant term).  The prime subfield is therefore coded
canonically as 0..p-1.

Determinism contract:
* the modulus is the lexicographically smallest monic irreducible of
  degree k, comparing coefficient tuples (c_{k-1}, ..., c_0);
* the multiplicative generator is the first element in code order whose
  order is p^k - 1 (checked against the prime factors of p^k - 1);
* exp/log tables are built from that generator whenever the field is
  small enough, so repeated constructions are bit-for-bit identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DivisionByZero,
    FactorizationTooLarge,
    OrderNotDividing,
)

TABLE_CAP = 1 << 21  # build exp/log tables when the field order is <= this
_TABLE_CHUNK = 1 << 12  # codes turned into digit rows at once

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
# dense polynomial helpers over F_p (int coefficient lists, ascending)


def _pmod_trim(a: list[int]) -> list[int]:
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
    return _pmod_trim(out)


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
        _pmod_trim(a)
        if len(a) - 1 < df:
            break
    return _pmod_trim(a)


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
    """Monic f over F_p: irreducible iff x^{p^k} = x mod f and
    gcd(x^{p^{k/d}} - x, f) = 1 for every prime d | k."""
    k = len(f) - 1
    if k == 1:
        return True
    x = [0, 1]
    xq = _ppowmod(x, p**k, f, p)
    if xq != x:
        return False
    for d in sorted(factorize(k)):
        e = k // d
        xe = _ppowmod(x, p**e, f, p)
        diff = _pmod_trim([(a - b) % p for a, b in
                           zip(xe + [0] * len(f), x + [0] * len(f))])
        if len(_pgcd(diff, f, p)) - 1 != 0:
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

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None,
                 table_cap: int = TABLE_CAP):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.order = p**k
        if modulus is None:
            modulus = find_irreducible(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self.exp: list[int] | None = None
        self.log: list[int | None] | None = None
        self.generator = self._find_generator()
        if self.order <= table_cap:
            self._build_tables()

    # -- representation ----------------------------------------------------

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def undigits(self, ds: list[int]) -> int:
        a = 0
        for d in reversed(ds):
            a = a * self.p + d % self.p
        return a

    # -- core arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (-a % p) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _prem(_pmul(self.digits(a), self.digits(b), self.p),
                     list(self.modulus), self.p)
        return self.undigits(prod + [0] * (self.k - len(prod)))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.k == 1:
            return a * b % self.p
        if self.log is not None:
            return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self.log is not None:
            return self.exp[(-self.log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return 0
        e %= self.order - 1
        if self.log is not None and self.k > 1:
            return self.exp[self.log[a] * e % (self.order - 1)]
        if self.k == 1:
            return pow(a, e, self.p)
        result = 1
        b = a
        while e:
            if e & 1:
                result = self._mul_poly(result, b)
            b = self._mul_poly(b, b)
            e >>= 1
        return result

    # -- construction helpers ----------------------------------------------

    def _find_generator(self) -> int:
        n1 = self.order - 1
        primes = sorted(factorize(n1))
        for g in range(1, self.order):
            ok = True
            for rho in primes:
                if self.pow(g, n1 // rho) == 1:
                    ok = False
                    break
            if ok:
                return g
        raise RuntimeError("unreachable: F_q* is cyclic")

    def _build_tables(self) -> None:
        if self.k == 1:
            exp = [0] * (self.order - 1)
            x = 1
            for i in range(self.order - 1):
                exp[i] = x
                x = x * self.generator % self.p
        else:
            exp = self._exp_by_doubling().tolist()
        log: list[int | None] = [None] * self.order
        for i, x in enumerate(exp):
            log[x] = i
        self.exp = exp
        self.log = log

    def _exp_by_doubling(self) -> np.ndarray:
        """Codes of g^0, ..., g^(order-2) as one int64 array.

        With exp[0:s] known, exp[s:2s] = exp[0:s] * g^s.  Multiplying by
        the fixed element h = g^s is F_p-linear on coefficient vectors:
        row j of its matrix holds the digits of x^j * h, so a digit row
        vector times the matrix (mod p) gives the digits of the product.
        Digits exist only per chunk of _TABLE_CHUNK codes.
        """
        p, k, n1 = self.p, self.k, self.order - 1
        place = p ** np.arange(k, dtype=np.int64)
        exp = np.empty(n1, dtype=np.int64)
        exp[0] = 1
        s, h = 1, self.generator
        while s < n1:
            mat = np.array([self.digits(self._mul_poly(p ** j, h))
                            for j in range(k)], dtype=np.int64)
            for lo in range(0, min(s, n1 - s), _TABLE_CHUNK):
                hi = min(lo + _TABLE_CHUNK, s, n1 - s)
                digits = exp[lo:hi, None] // place % p
                exp[s + lo:s + hi] = digits @ mat % p @ place
            s, h = 2 * s, self._mul_poly(h, h)
        return exp

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
    return ctx.pow(ctx.generator, (ctx.order - 1) // n)


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
        h = big.pow(big.generator, (big.order - 1) // sub_order)
        candidates = [0]
        x = 1
        for _ in range(sub_order):
            candidates.append(x)
            x = big.mul(x, h)
        roots = [c for c in candidates if self._eval_modulus(c) == 0]
        if not roots:
            raise RuntimeError("unreachable: base modulus splits in the "
                               "extension")
        rho = min(roots)
        rho_pows = [1]
        for _ in range(small.k - 1):
            rho_pows.append(big.mul(rho_pows[-1], rho))
        table = []
        for a in range(small.order):
            img = 0
            for d, rp in zip(small.digits(a), rho_pows):
                img = big.add(img, big.mul(d, rp))  # prime coeffs are coded alike
            table.append(img)
        return table

    def _eval_modulus(self, x: int) -> int:
        big = self.big
        acc = 0
        for c in reversed(self.small.modulus):
            acc = big.add(big.mul(acc, x), c)
        return acc

    def embed(self, a: int) -> int:
        return self.embed_table[a]

    def lift(self, a: int) -> int:
        """Inverse of embed; raises KeyError if a is outside the subfield."""
        return self.lift_table[a]


_SUBFIELD_CACHE: dict[tuple, SubfieldMap] = {}


def get_subfield_map(small: FieldCtx, big: FieldCtx) -> SubfieldMap:
    key = (small.p, small.modulus, big.modulus)
    if key not in _SUBFIELD_CACHE:
        _SUBFIELD_CACHE[key] = SubfieldMap(small, big)
    return _SUBFIELD_CACHE[key]
