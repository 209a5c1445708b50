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

import os
from dataclasses import dataclass

import numpy as np

from . import cyclotomic, poly_linalg
from .cyclotomic import CYCLIC, NEGACYCLIC, DefiningSet
from .errors import BadDelta, BCHLabError, ExtensionTooLarge
from .finite_field import FieldCtx, get_field, prime_power_decomposition, \
    root_of_unity

DEFAULT_MAX_EXT = 24
ENV_MAX_EXT = "BCHLAB_MAX_EXT_DEGREE"


def max_ext_degree(override: int | None = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(ENV_MAX_EXT)
    if not raw:
        return DEFAULT_MAX_EXT
    try:
        return int(raw)
    except ValueError:
        raise BCHLabError(
            f"{ENV_MAX_EXT} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class CodeSpec:
    """Combinatorial description of one code."""

    q: int
    m: int
    family: str
    delta: int
    b: int | None = None  # None = narrow-sense (b = 1)

    def defining_set(self) -> DefiningSet:
        return cyclotomic.defining_set(self.q, self.m, self.family,
                                       self.delta, self.b)

    @property
    def n(self) -> int:
        n, _, _ = cyclotomic.family_parameters(self.q, self.m, self.family)
        return n


def dimension(spec: CodeSpec) -> int:
    """k = n - |T|; purely combinatorial (no field is built)."""
    if spec.delta < 2:
        raise BadDelta(f"delta must be >= 2, got {spec.delta}")
    t = spec.defining_set()
    return t.n - len(t)


@dataclass
class CodeInstance:
    """A realized code: field contexts, root of unity, generator.

    spec is None for a dual code: its defining set t is the complement
    of the primal's, which no (delta, b) describes in general.
    """

    spec: CodeSpec | None
    n: int
    t: DefiningSet
    field: FieldCtx          # F_q, symbols
    extension: FieldCtx      # F_{q^l}, splitting field
    beta: int                # primitive rn-th root of unity in extension
    gen_poly: list[int]      # over F_q, ascending coefficients
    dim: int


def realize(spec: CodeSpec, max_ext: int | None = None,
            field: FieldCtx | None = None,
            extension: FieldCtx | None = None) -> CodeInstance:
    """Build field contexts and the generator polynomial for a spec.

    `field`/`extension` may be supplied to force particular (e.g.
    non-default modulus) contexts; by default the cached deterministic
    ones are used.  Raises ExtensionTooLarge when ord_{rn}(q) exceeds the
    cap (argument, else BCHLAB_MAX_EXT_DEGREE, else 24).
    """
    t = spec.defining_set()
    n, _, rn = cyclotomic.family_parameters(spec.q, spec.m, spec.family)
    p, k = prime_power_decomposition(spec.q)
    ell = cyclotomic.ord_mod(spec.q, rn)
    cap = max_ext_degree(max_ext)
    if ell > cap:
        raise ExtensionTooLarge(
            f"splitting extension degree {ell} exceeds cap {cap}")
    if field is None:
        field = get_field(p, k)
    if extension is None:
        extension = get_field(p, k * ell)
    beta = root_of_unity(extension, rn)
    gen = [1]
    for leader in t.leaders():
        mp = poly_linalg.minimal_polynomial(extension.pow(beta, leader),
                                            extension, field)
        gen = poly_linalg.pmul(gen, mp, field)
    assert len(gen) - 1 == len(t), "generator degree must equal |T|"
    return CodeInstance(spec=spec, n=n, t=t, field=field,
                        extension=extension, beta=beta, gen_poly=gen,
                        dim=n - len(t))


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
    is recomputed from scratch and checked orthogonal to the primal.
    """
    tperp = cyclotomic.dual_defining_set(inst.t)
    gen = [1]
    field = inst.field
    for leader in tperp.leaders():
        mp = poly_linalg.minimal_polynomial(inst.extension.pow(inst.beta,
                                                               leader),
                                            inst.extension, field)
        gen = poly_linalg.pmul(gen, mp, field)
    dual = CodeInstance(spec=None, n=inst.n, t=tperp, field=field,
                        extension=inst.extension, beta=inst.beta,
                        gen_poly=gen, dim=inst.n - len(tperp))
    _check_orthogonal(inst, dual)
    return dual


def _check_orthogonal(a: CodeInstance, b: CodeInstance) -> None:
    ga, gb = generator_matrix(a), generator_matrix(b)
    ctx = a.field
    if ctx.k == 1:
        prod = ga @ gb.T % ctx.p
        ok = not prod.any()
    else:
        ok = True
        for ra in ga:
            for rb in gb:
                acc = 0
                for x, y in zip(ra.tolist(), rb.tolist()):
                    acc = ctx.add(acc, ctx.mul(x, y))
                if acc:
                    ok = False
                    break
            if not ok:
                break
    assert ok, "generator matrices of code and dual are not orthogonal"


def bch_bound(t: DefiningSet) -> int:
    """1 + the longest run of consecutive class residues in T, capped at n.

    Runs step by r and wrap around the class; a full class returns n.
    The runs are read off the sorted class positions of T, so the cost
    grows with |T|, not with n.
    """
    start = 1 if t.r == 2 else 0
    positions = sorted((x - start) // t.r for x in t.residues)
    runs: list[int] = []  # lengths of the maximal runs, in class order
    for i, pos in enumerate(positions):
        if i and pos == positions[i - 1] + 1:
            runs[-1] += 1
        else:
            runs.append(1)
    if len(runs) > 1 and positions[0] == 0 and positions[-1] == t.n - 1:
        runs[0] += runs.pop()  # the last run wraps into the first
    return min(max(runs, default=0) + 1, t.n)


def is_lcd(inst: CodeInstance) -> bool:
    """Linear complementary dual: rank of G stacked on G_dual equals n.

    Cross-checks the defining-set criterion: -T = T and T disjoint from
    the dual defining set (both hold by construction at these lengths).
    """
    assert inst.t.is_symmetric(), "defining set must satisfy -T = T"
    dual = dual_code(inst)
    assert not (inst.t.residues & dual.t.residues), \
        "defining sets of code and dual must be disjoint"
    stacked = np.vstack([generator_matrix(inst), generator_matrix(dual)])
    return poly_linalg.rank(stacked, inst.field) == inst.n
