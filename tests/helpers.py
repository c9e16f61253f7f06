"""Helpers that only the tests use: the labels of a recorder's failed
checks, the group algebra kG, the Drinfeld gauge twist, applying and
composing linear maps, the pullback product of two cocycles, and a
brute-force coboundary search."""

import dataclasses
from fractions import Fraction
from math import lcm

from qhd.algebra import (
    Coproduct,
    LinearMap,
    Placement,
    SparseTensor,
    StructureConstants,
    multiply,
    split_leg,
)
from qhd.quasihopf import QuasiHopfAlgebra
from qhd.scalar import CycScalar
from qhd.twisted import (
    Cocycle3,
    CocycleError,
    FiniteGroup,
    _tabulate,
    coboundary_exponents,
    invertibility_criterion,
)


def failing(rec):
    return [i.label for i in rec.items if i.status == "fail"]


def group_algebra(g):
    """kG: e_a e_b = e_ab, Delta a = a (x) a, eps = 1, S(a) = a^-1, trivial associator."""
    n, e = g.order, g.identity
    one = CycScalar.one(1)
    mult = StructureConstants(n, 1, {(a, b): ((g.mul(a, b), one),)
                                     for a in range(n) for b in range(n)}, {e: one})
    cop = Coproduct(n, 1, {a: (((a, a), one),) for a in range(n)})
    unit3 = SparseTensor(n, 3, 1, {(e, e, e): one})
    antipode = LinearMap(n, 1, tuple({g.inv(a): one} for a in range(n)))
    return QuasiHopfAlgebra(mult, cop, {a: one for a in range(n)}, unit3, unit3,
                            {e: one}, {e: one}, antipode)


def gauge_twist(H, F, F_inv):
    """H^F (Drinfeld) for an invertible counital F = sum f1 (x) f2 with inverse
    F_inv = sum g1 (x) g2, in the convention of 2.1:
    Delta_F(h) = F Delta(h) F^-1,
    phi_F = F23 (id x Delta)(F) phi (Delta x id)(F^-1) F12^-1,
    phi_F^-1 = F12 (Delta x id)(F) phi^-1 (id x Delta)(F^-1) F23^-1,
    alpha_F = sum S(g1) alpha g2, beta_F = sum f1 beta S(f2); S is kept."""
    sc, cop, S = H.mult, H.coproduct, H.antipode

    def chain(*factors):
        out = factors[0]
        for x in factors[1:]:
            out = multiply(sc, out, x)
        return out

    table = {i: tuple(chain(F, cop.of_vec(H.basis_vec(i)), F_inv).entries.items())
             for i in range(H.dim)}
    phi = chain(Placement(F, (2, 3), 3), split_leg(cop, F, 2), H.associator,
                split_leg(cop, F_inv, 1), Placement(F_inv, (1, 2), 3))
    phi_inv = chain(Placement(F, (1, 2), 3), split_leg(cop, F, 1), H.associator_inv,
                    split_leg(cop, F_inv, 2), Placement(F_inv, (2, 3), 3))
    alpha, beta = {}, {}
    for (i, j), c in F_inv.entries.items():
        for k, v in sc.vec_mult(sc.vec_mult(S.cols[i], H.alpha), H.basis_vec(j)).items():
            alpha[k] = alpha[k] + c * v if k in alpha else c * v
    for (i, j), c in F.entries.items():
        for k, v in sc.vec_mult(sc.vec_mult(H.basis_vec(i), H.beta), S.cols[j]).items():
            beta[k] = beta[k] + c * v if k in beta else c * v
    return dataclasses.replace(
        H, coproduct=Coproduct(H.dim, H.order, table), associator=phi, associator_inv=phi_inv,
        alpha={k: v for k, v in alpha.items() if not v.is_zero()},
        beta={k: v for k, v in beta.items() if not v.is_zero()})


def gauge_twisted_kS3(g):
    """kS3^F for the group S3 of tests/data/s3_sign.qhd, whose 1 and 2 are
    noncommuting transpositions a and b: F = 1 (x) 1 + (a - e) (x) (b - e),
    F^-1 = 1 (x) 1 - 1/5 (a - e) (x) (b - e), since ((a - e) (x) (b - e))^2 is
    4 (a - e) (x) (b - e)."""
    H = group_algebra(g)
    e, a, b = g.identity, 1, 2
    assert g.mul(a, a) == g.mul(b, b) == e != g.mul(a, b) != g.mul(b, a)

    def pair(c):
        c = CycScalar.from_rational(1, c)
        return SparseTensor(H.dim, 2, 1, {(a, b): c, (a, e): -c, (e, b): -c,
                                          (e, e): c + CycScalar.one(1)})

    return gauge_twist(H, pair(1), pair(Fraction(-1, 5)))


def apply_vec(m: LinearMap, v: dict) -> dict:
    """m applied to the sparse vector v, zero coefficients dropped."""
    out: dict = {}
    for j, c in v.items():
        for i, x in m.cols[j].items():
            prev = out.get(i)
            out[i] = c * x if prev is None else prev + c * x
    return {i: c for i, c in out.items() if not c.is_zero()}


def compose(a: LinearMap, b: LinearMap) -> LinearMap:
    """a after b."""
    return LinearMap(a.dim, a.order, tuple(apply_vec(a, c) for c in b.cols))


def product_cocycle(w1: Cocycle3, w2: Cocycle3) -> Cocycle3:
    """Pullback product on the direct product group, root order the lcm."""
    g = FiniteGroup.direct_product(w1.group, w2.group)
    n2 = w2.group.order
    N = lcm(w1.root_order, w2.root_order)
    m1, m2 = N // w1.root_order, N // w2.root_order

    def exp(a, b, c):
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        c1, c2 = divmod(c, n2)
        return (m1 * w1.exponent(a1, b1, c1) + m2 * w2.exponent(a2, b2, c2)) % N

    return _tabulate(g, N, exp)


def search_coboundary(g: FiniteGroup, N: int) -> Cocycle3:
    """Brute-force search over normalized 2-cochains; returns the first
    coboundary whose diagonal obstruction values all vanish."""
    n = g.order
    e = g.identity
    free = [(a, b) for a in range(n) for b in range(n) if a != e and b != e]
    best = None
    for mask in range(N ** len(free)):
        phi2 = [[0] * n for _ in range(n)]
        m = mask
        for (a, b) in free:
            phi2[a][b] = m % N
            m //= N
        w = coboundary_exponents(g, phi2, N)
        ok, _ = invertibility_criterion(w)
        if ok:
            best = w
            if mask > 0:
                return w
    if best is None:
        raise CocycleError("no admissible coboundary found")
    return best
