"""q-cyclotomic cosets modulo rn and defining sets for BCH-type codes.

Everything here is integer combinatorics: cosets C_x = {x q^t mod N},
their leaders (smallest members), and the defining sets of two families of
codes whose length divides q^m + 1:

* cyclic, length n = q^m + 1: residues live in Z_n (step r = 1);
* negacyclic, length n = (q^m + 1)/2 with q = 3 (mod 4): residues are the
  odd class 1 + 2 Z_2n (step r = 2).

In both families q^m = -1 (mod rn), so every coset is closed under
negation and defining sets built from coset unions satisfy -T = T.  A
defining set is the sorted int64 array of its class positions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    BadDelta,
    BadFamilyParams,
    ClassTooLarge,
    EmptySet,
    NotCoprime,
    NotEnoughCosets,
)
from .finite_field import factorize

CYCLIC = "cyclic"
NEGACYCLIC = "negacyclic"
FAMILIES = (CYCLIC, NEGACYCLIC)
# residues in one leader map: keeps x * q^s (both below the modulus)
# inside int64 and the arrays in memory
MAX_CLASS_RESIDUES = 1 << 26


def ord_mod(a: int, n: int) -> int:
    """Multiplicative order of a modulo n (raises NotCoprime if undefined)."""
    if n <= 1:
        raise NotCoprime(f"modulus must be >= 2, got {n}")
    a %= n
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) != 1")
    t, x = 1, a
    while x != 1:
        x = x * a % n
        t += 1
    return t


def _check_coprime(q: int, n: int) -> None:
    """Cosets of q mod n need a positive modulus n coprime to q."""
    if n < 1:
        raise NotCoprime(f"modulus must be >= 1, got {n}")
    if math.gcd(q % n, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")


def coset(x: int, q: int, n: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of x modulo n, as a sorted tuple."""
    _check_coprime(q, n)
    x %= n
    out = [x]
    y = x * q % n
    while y != x:
        out.append(y)
        y = y * q % n
    return tuple(sorted(out))


def orbits(x, q: int, rn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q-cyclotomic cosets modulo rn that meet the integers x.

    Returns (leaders, sizes, table): the sorted distinct coset leaders,
    their coset sizes, and the table whose row i holds leaders q^i mod rn
    (column j's first sizes[j] rows are the coset of leaders[j]).  Every
    size divides ell = ord_rn(q), so a running minimum over x q^i, i < ell,
    finds the leaders in memory for len(x) residues.  Entries are int64
    while rn q < 2^63 (x must then fit int64), else Python ints.
    """
    ell = ord_mod(q, rn)
    lead = np.asarray(x, dtype=np.int64 if rn * q < 2 ** 63 else object) % rn
    y = lead
    for _ in range(ell - 1):
        y = y * q % rn
        np.minimum(lead, y, out=lead)
    lead.sort()  # distinct by neighbour mask: np.unique imports numpy.ma
    keep = np.ones(len(lead), dtype=bool)
    np.not_equal(lead[1:], lead[:-1], out=keep[1:])
    leaders = lead[keep]
    table = np.empty((ell, len(leaders)), dtype=lead.dtype)
    table[0] = leaders
    for i in range(1, ell):
        table[i] = table[i - 1] * q % rn
    # a coset of size s meets its leader in ell / s of the ell rows
    return leaders, ell // (table == leaders).sum(axis=0), table


def _is_power_of(q: int, x: int) -> bool:
    """Whether x = q^m for some m >= 1 (False for q <= 1: no loop)."""
    if q <= 1:
        return False
    power = q
    while power < x:
        power *= q
    return power == x


def leader_map(q: int, n: int, odd_only: bool = False) -> np.ndarray:
    """Coset leader of each residue of the class, as an int64 array.

    Position p holds the leader of residue p, or of 1 + 2p when odd_only
    (the class 1 + 2 Z_n; n must then be even).  With M_s(x) the least
    of x, f(x), ..., f^(s-1)(x) for the step f, each doubling
    M_2s(x) = min(M_s(x), M_s(f^s(x))) is one gather, as is f^2s from f^s.
    A doubling that changes nothing closes the chain M_s(x) <= M_s(f^s(x))
    <= ... around the orbit, so M_s is then the orbit minimum; no
    multiplicative order is needed.

    At n = q^m + 1 (m >= 1), q^m = -1 (mod n), so each coset is closed
    under x -> n - x: the doublings run on the half x <= n / 2 with the
    folded step f(x) = min(x q, n - x q) mod n, and only that half is
    returned (every leader lies in it); unfold rebuilds the other half
    as its mirror.  Any other modulus steps by f(x) = x q mod n and gets
    the whole class.
    """
    _check_coprime(q, n)
    if odd_only and n % 2:
        raise BadFamilyParams("odd residue class needs an even modulus")
    size = n // 2 if odd_only else n
    if size > MAX_CLASS_RESIDUES:
        raise ClassTooLarge(f"the {'odd ' if odd_only else ''}class mod {n} "
                            f"has {size} residues, above the cap of "
                            f"{MAX_CLASS_RESIDUES}")
    fold = _is_power_of(q, n - 1)
    if not fold:
        kept = size
    else:  # the residues x <= n / 2, n / 2 itself when it is in the class
        kept = (size + 1) // 2 if odd_only else n // 2 + 1
    residues = np.arange(1, 2 * kept, 2) if odd_only else np.arange(kept)
    perm = residues * (q % n) % n  # f(x), as a residue
    if fold:
        np.minimum(perm, n - perm, out=perm)
    if odd_only:
        perm >>= 1  # residue 1 + 2p sits at position p
    lead = residues
    while True:
        step = lead[perm]
        np.minimum(lead, step, out=step)
        if np.array_equal(step, lead):
            break
        lead, perm = step, perm[perm]
    return lead


def unfold(half: np.ndarray, n: int, odd_only: bool = False) -> np.ndarray:
    """The whole class from the positions of its residues x <= n / 2.

    At n = q^m + 1 every coset is closed under x -> n - x, so an array
    over class positions that is constant on cosets (a leader map, a
    profile's entry) is its own mirror: position p of the full class
    matches n - p, and of the odd class n / 2 - 1 - p.  An array that
    already spans the class comes back equal.
    """
    size = n // 2 if odd_only else n
    mirror = half[:size - len(half)] if odd_only \
        else half[1:size - len(half) + 1]
    return np.concatenate((half, mirror[::-1]))


def coset_leaders(q: int, n: int, odd_only: bool = False) -> list[int]:
    """Sorted leaders of all q-cyclotomic cosets of the residue class."""
    lead = leader_map(q, n, odd_only)  # every leader is in what it returns
    r = 2 if odd_only else 1  # residue r p + r - 1 sits at position p
    return lead[lead == np.arange(r - 1, r * len(lead), r)].tolist()


def kth_largest_leader(leaders: list[int], k: int) -> int:
    """The k-th largest (k = 1: the largest) of sorted coset leaders, as
    coset_leaders returns them."""
    if k < 1:
        raise NotEnoughCosets(f"k must be >= 1, got {k}")
    if k > len(leaders):
        raise NotEnoughCosets(f"only {len(leaders)} cosets, asked for k={k}")
    return leaders[-k]


@functools.lru_cache(maxsize=256)  # closed forms check every delta
def check_qm(q: int, m: int) -> None:
    """Both families need q an odd prime power >= 3 and m >= 2."""
    if q < 3 or q % 2 == 0 or len(factorize(q)) != 1:
        raise BadFamilyParams(f"q must be an odd prime power >= 3, got {q}")
    if m < 2:
        raise BadFamilyParams(f"m must be >= 2, got {m}")


def _check_family_params(q: int, m: int, family: str) -> None:
    if family not in FAMILIES:
        raise BadFamilyParams(f"family must be one of {FAMILIES}, got {family!r}")
    check_qm(q, m)
    if family == NEGACYCLIC and q % 4 != 3:
        raise BadFamilyParams(
            f"negacyclic family needs q = 3 (mod 4), got q = {q}")


def family_parameters(q: int, m: int, family: str) -> tuple[int, int, int]:
    """(n, r, rn) for the family; validates (q, m, family)."""
    _check_family_params(q, m, family)
    if family == CYCLIC:
        n = q**m + 1
        r = 1
    else:
        n = (q**m + 1) // 2
        r = 2
    return n, r, r * n


def defining_set_parameters(q: int, m: int, family: str, delta: int,
                            b: int | None = None) -> tuple[int, int, int, int]:
    """(n, r, rn, b mod rn) of defining_set's arguments, all checked.

    Costs no more than family_parameters: callers run it before a large
    T is built.  T is a union of delta - 1 orbits whose sizes divide
    ord_rn(q), a divisor of 2m (q^m = -1 mod rn), so |T| is at most
    min(n, 2m (delta - 1)): ClassTooLarge when that exceeds
    MAX_CLASS_RESIDUES, or an eighth of it where rn q >= 2^63: orbits
    then holds Python ints of about 70 bytes each, not 8.
    """
    n, r, rn = family_parameters(q, m, family)
    if not 2 <= delta <= n:
        raise BadDelta(f"delta must be in [2, {n}], got {delta}")
    if b is None:
        b = 1
    b %= rn
    if r == 2 and b % 2 == 0:
        raise BadFamilyParams(f"negacyclic offset must be odd, got {b}")
    if n > 1 << 63:
        raise ClassTooLarge(f"the class of {n} positions overflows int64")
    most = min(n, 2 * m * (delta - 1))  # residues T can hold
    cap = MAX_CLASS_RESIDUES if rn * q < 2 ** 63 else MAX_CLASS_RESIDUES // 8
    if most > cap:
        raise ClassTooLarge(f"T at delta = {delta} may hold up to {most} "
                            f"residues, above the cap of {cap}")
    return n, r, rn, b


def defining_set(q: int, m: int, family: str, delta: int,
                 b: int | None = None) -> np.ndarray:
    """Defining set of the BCH-type code with designed distance delta.

    T = C_b u C_{b+r} u ... u C_{b+r(delta-2)}, residues mod rn, returned
    as the sorted int64 array of its class positions (residue x sits at
    x // r).  The narrow-sense default is b = 1; cyclic codes also accept
    b = 0 (the even-like choice).  Negacyclic offsets must be odd.  The
    array stays sparse, but positions run to n - 1: ClassTooLarge when
    n > 2^63.
    """
    n, r, rn, b = defining_set_parameters(q, m, family, delta, b)
    _, sizes, table = orbits(range(b, b + r * (delta - 1), r), q, rn)
    table //= r  # residue x sits at class position x // r
    t = table[np.arange(len(table))[:, None] < sizes].astype(np.int64,
                                                               copy=False)
    t.sort()
    return t


def dual_defining_set(t: np.ndarray, n: int, r: int) -> np.ndarray:
    """Defining set of the dual code: the class positions outside -T = T.

    -T = T holds by construction at these lengths (q^m = -1 mod rn);
    residue x = rp + r - 1 negates to position (1 - r - p) mod n.
    """
    if not len(t):
        raise EmptySet("dual of an empty defining set is the whole class; "
                       "build it explicitly if that is what you want")
    in_t = np.zeros(n, dtype=bool)
    in_t[t] = True
    assert in_t[(1 - r - t) % n].all(), "defining set must satisfy -T = T"
    return np.flatnonzero(~in_t)
