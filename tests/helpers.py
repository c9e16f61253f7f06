"""Helpers that only the tests use: the labels of a recorder's failed
checks, the group algebra kG, composing linear maps, the pullback product
of two cocycles, and a brute-force coboundary search."""

from math import lcm

from qhd.algebra import Coproduct, LinearMap, SparseTensor, StructureConstants
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


def compose(a: LinearMap, b: LinearMap) -> LinearMap:
    """a after b."""
    return LinearMap(a.dim, a.order, tuple(a.apply_vec(c) for c in b.cols))


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
