"""Code-level objects: specs, dimensions, generator polynomials/matrices.

A CodeSpec names a BCH-type code combinatorially; realizing it builds the
base field F_q, the splitting extension F_{q^l} (l = ord of q mod rn), a
primitive rn-th root of unity beta, and the generator polynomial
g = prod of minimal polynomials of beta^j over the defining-set leaders.
Cyclic codes live in F_q[x]/(x^n - 1), negacyclic in F_q[x]/(x^n + 1);
beta^n = -1 for odd class exponents, so the exponent class determines the
constant the length polynomial takes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import cyclotomic, poly_linalg
from .cyclotomic import CYCLIC
from .errors import CoefficientNotInSubfield, ExtensionTooLarge
from .finite_field import FieldCtx, get_field, get_subfield_map, \
    prime_power_decomposition, root_of_unity

# the largest splitting degree ell = ord_rn(q) that realize builds; ell is
# 2m at these lengths, so realize stops at m = 12
MAX_EXT_DEGREE = 24


@dataclass(frozen=True)
class CodeSpec:
    """Combinatorial description of one code."""

    q: int
    m: int
    family: str
    delta: int
    b: int | None = None  # None = narrow-sense (b = 1)

    @functools.cached_property
    def defining_set(self) -> np.ndarray:
        """T as sorted class positions, built once per spec."""
        return cyclotomic.defining_set(self.q, self.m, self.family,
                                       self.delta, self.b)

    @property
    def n(self) -> int:
        n, _, _ = cyclotomic.family_parameters(self.q, self.m, self.family)
        return n


def dimension(spec: CodeSpec) -> int:
    """k = n - |T|; purely combinatorial (no field is built)."""
    return spec.n - len(spec.defining_set)


@dataclass
class CodeInstance:
    """A realized code: field contexts, root of unity, generator.

    spec is None for a dual code: its defining set t is the complement
    of the primal's, which no (delta, b) describes in general.
    """

    spec: CodeSpec | None
    family: str
    n: int
    t: np.ndarray            # sorted class positions of the defining set
    field: FieldCtx          # F_q, symbols
    extension: FieldCtx      # F_{q^l}, splitting field
    beta: int                # primitive rn-th root of unity in extension
    gen_poly: list[int]      # over F_q, ascending coefficients
    dim: int

    @property
    def r(self) -> int:
        """Class step: residue x of the class mod rn sits at x // r."""
        return 1 if self.family == CYCLIC else 2


def realize(spec: CodeSpec, *, field: FieldCtx | None = None,
            extension: FieldCtx | None = None) -> CodeInstance:
    """Build field contexts and the generator polynomial for a spec.

    `field`/`extension` may be supplied to force particular (e.g.
    non-default modulus) contexts; by default the cached deterministic
    ones are used.  Raises ExtensionTooLarge, before any field is built,
    when ord_{rn}(q) exceeds MAX_EXT_DEGREE.
    """
    t = spec.defining_set
    n, r, rn = cyclotomic.family_parameters(spec.q, spec.m, spec.family)
    p, k = prime_power_decomposition(spec.q)
    ell = cyclotomic.ord_mod(spec.q, rn)
    if ell > MAX_EXT_DEGREE:
        raise ExtensionTooLarge(f"splitting extension degree {ell} exceeds "
                                f"MAX_EXT_DEGREE = {MAX_EXT_DEGREE}")
    if field is None:
        field = get_field(p, k)
    if extension is None:
        extension = get_field(p, k * ell)
    beta = root_of_unity(extension, rn)
    gen = _generator_poly(r * t + (r - 1), extension, field, beta, rn)
    assert len(gen) - 1 == len(t), "generator degree must equal |T|"
    return CodeInstance(spec=spec, family=spec.family, n=n, t=t, field=field,
                        extension=extension, beta=beta, gen_poly=gen,
                        dim=n - len(t))


def _generator_poly(residues, extension: FieldCtx, field: FieldCtx,
                    beta: int, rn: int) -> list[int]:
    """Product of the distinct minimal polynomials of beta^j, j a residue.

    The minimal polynomial of beta^j over F_q is prod (x - beta^e) over
    the orbit e = j q^i mod rn, a column of cyclotomic.orbits.  All of
    this runs on digit vectors of the extension: the beta^e come from one
    FieldCtx.powers over every e of the orbits of one size s, and those
    orbits multiply out their s linear factors together, one batched step
    per factor.  The coefficients are lifted into F_q
    (CoefficientNotInSubfield if one is not in it) and the minimal
    polynomials multiplied over F_q.
    """
    q, p, kx = field.order, extension.p, extension.k
    _, sizes, table = cyclotomic.orbits(residues, q, rn)
    lift = get_subfield_map(field, extension).lift_table
    gen = [1]
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        exps = table[:size, sizes == size].T.reshape(-1)
        roots = extension.powers(extension.vdigits(beta), exps).reshape(
            -1, size, kx)
        poly = np.zeros((len(roots), 1, kx), dtype=roots.dtype)
        poly[:, 0, 0] = 1
        for i in range(size):  # poly *= x - roots[:, i], orbit by orbit
            nxt = np.zeros((len(poly), i + 2, kx), dtype=poly.dtype)
            nxt[:, 1:] = poly
            nxt[:, :-1] -= extension.vmul(poly, roots[:, i:i + 1])
            poly = nxt % p
        coeffs = extension.vundigits(poly).reshape(-1).tolist()
        try:
            lifted = [lift[c] for c in coeffs]
        except KeyError as err:
            raise CoefficientNotInSubfield(
                f"coefficient {err.args[0]} of an orbit product is outside "
                f"F_{q}") from None
        # pmul's outer loop runs over its first, short argument
        for lo in range(0, len(lifted), size + 1):
            gen = poly_linalg.pmul(lifted[lo:lo + size + 1], gen, field)
    return gen


def generator_matrix(inst: CodeInstance) -> np.ndarray:
    """k x n matrix whose rows are the shifts x^i g(x), i = 0..k-1."""
    g, k, n = inst.gen_poly, inst.dim, inst.n
    mat = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        mat[i, i:i + len(g)] = g
    return mat


def dual_code(inst: CodeInstance) -> CodeInstance:
    """The dual, built independently from the complementary defining set.

    The dual of a (nega)cyclic code here is again (nega)cyclic with
    defining set equal to the class complement of -T = T; the generator
    is recomputed from scratch.  The check polynomial h = (x^n -+ 1) / g
    has the reciprocal of the dual's generator as a scalar multiple
    (MacWilliams-Sloane ch. 7), so g times the reversed dual generator
    must be a scalar times x^n -+ 1, which certifies that it generates
    the dual.
    """
    r, rn = inst.r, inst.r * inst.n
    tperp = cyclotomic.dual_defining_set(inst.t, inst.n, r)
    field = inst.field
    gen = _generator_poly(r * tperp + (r - 1), inst.extension, field,
                          inst.beta, rn)
    assert _times_length_poly(poly_linalg.pmul(inst.gen_poly, gen[::-1],
                                               field), inst), \
        "generators of code and dual are not orthogonal: g times the " \
        "reversed dual generator is not a scalar times x^n -+ 1"
    return CodeInstance(spec=None, family=inst.family, n=inst.n, t=tperp,
                        field=field, extension=inst.extension, beta=inst.beta,
                        gen_poly=gen, dim=inst.n - len(tperp))


def _times_length_poly(prod: list[int], inst: CodeInstance) -> bool:
    """Whether prod is a scalar times x^n - 1 (cyclic) or x^n + 1
    (negacyclic), the length polynomial of inst: n + 1 coefficients,
    zero between the ends, and prod[0] = -prod[n] (cyclic) or prod[n]
    (negacyclic)."""
    n = inst.n
    if len(prod) != n + 1 or any(prod[1:n]):
        return False
    neg = inst.field.symbol_tables()[2]
    return prod[0] == (int(neg[prod[n]]) if inst.family == CYCLIC
                       else prod[n])


def run_bound(positions, n: int) -> int:
    """The BCH bound of a defining set: 1 + its longest run of consecutive
    sorted class positions, capped at n.

    Runs wrap around the class, and a full class gives n.  The cost grows
    with the number of positions, not with n.
    """
    pos = np.asarray(positions, dtype=np.int64)
    ends = np.flatnonzero(np.diff(pos) != 1)  # last index of each run
    runs = np.diff(ends, prepend=-1, append=len(pos) - 1)  # [0] if empty
    if len(runs) > 1 and pos[0] == 0 and pos[-1] == n - 1:
        runs[0] += runs[-1]  # the last run wraps into the first
    return min(int(runs.max()) + 1, n)


def is_lcd(inst: CodeInstance) -> bool:
    """Linear complementary dual: g g_dual is a scalar times x^n -+ 1.

    C meets its dual in the code generated by lcm(g, g_dual).  Both divide
    x^n -+ 1, which is squarefree (gcd(n, q) = 1), and their degrees sum
    to n, so C is LCD exactly when their product is a scalar multiple of
    x^n -+ 1 (Yang-Massey 1994).  dual_code asserts the defining-set
    criterion -T = T, in cyclotomic.dual_defining_set.
    """
    dual = dual_code(inst)
    return _times_length_poly(
        poly_linalg.pmul(inst.gen_poly, dual.gen_poly, inst.field), inst)
