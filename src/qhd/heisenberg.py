"""The two first Heisenberg doubles and their canonical elements.

The dual-side double lives on H* (x) H with basis pairs (dual index,
algebra index); the plain-side double lives on H (x) H* with the reverse
pairing.  The plain side is the dual side read in the opposite algebra, so
one construction serves both: `_Side` fixes every mirror choice once, and
the builder, the canonical elements and the double's checks read them from
it.  Both products are built once as structure constants over the
flattened pair basis; they are generally nonassociative, which is why
every triple product below goes through an explicit parenthesization
check before it is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (
    Inconsistency,
    Placement,
    SparseTensor,
    StructureConstants,
    _read_solution,
    _row_reduce,
    apply_leg,
    convolution,
    harpoon,
    multiplication_rows,
    multiply,
    solve_linear,
)
from .quasihopf import DerivedElements, QuasiHopfAlgebra
from .report import Recorder
from .scalar import CycScalar


class HeisenbergAlgebra:
    """One of the two doubles of its parent, with its product table and
    module action, and the `_Side` its builder used as `side_data`."""

    def __init__(self, side: str, parent: QuasiHopfAlgebra, m: int,
                 sc: StructureConstants, action: dict, side_data: _Side):
        if side not in ("dual", "plain"):
            raise ValueError(f"unknown side {side!r}")
        self.side = side
        self.parent = parent
        self.side_data = side_data
        self.m = m
        self.dim = m * m
        self.order = sc.order
        self.sc = sc
        self.unit = sc.unit
        self.action = action

    def __repr__(self):
        return f"HeisenbergAlgebra({self.side}, m={self.m})"


class _Side:
    """The mirror choices of one double, fixed before any loop runs.

    rev(t) returns t on the dual side and t reversed on the plain side; it
    orders the factors of an H-product, the legs of the coproduct and of the
    associators, the arguments of a convolution, the (row, column) key of a
    table cell and the pair (product harpoons, action harpoons).
    prod[a][b] is the H-product of e_a and e_b in that order, cop[a] the
    coproduct of e_a with its legs in that order, index[xi][a] the pair
    basis element that joins the dual basis vector xi to e_a, and h_prod and
    h_act the harpoon tables of the product and of the action.
    """

    def __init__(self, H: QuasiHopfAlgebra, side: str):
        m = H.dim
        dual = side == "dual"
        self.rev = rev = (lambda t: t) if dual else (lambda t: t[::-1])
        self.prod = [[H.mult.basis_product(*rev((a, b))) for b in range(m)]
                     for a in range(m)]
        self.cop = [tuple((rev(st), d) for st, d in H.coproduct.of_basis(a))
                    for a in range(m)]
        self.index = [[xi * m + a if dual else a * m + xi for a in range(m)]
                      for xi in range(m)]
        one = CycScalar.one(H.order)
        self.h_prod, self.h_act = rev(tuple(
            [[harpoon(H.mult, {p: one}, {i: one}, way) for i in range(m)] for p in range(m)]
            for way in ("left", "right")))


def _build_double(H: QuasiHopfAlgebra, side: str) -> HeisenbergAlgebra:
    """The double of one side; the loops are written for the dual side and
    take every order that the plain side reverses from `_Side`."""
    m = H.dim
    cop = H.coproduct
    sd = _Side(H, side)
    rev, prod, index = sd.rev, sd.prod, sd.index
    support = [tuple((i, xi) for i, xi in enumerate(row) if xi) for row in sd.h_prod]
    phi_inv = tuple((rev(key), c) for key, c in H.associator_inv.entries.items())

    table: dict = {}
    convs: dict = {}  # (p, i, w, k) -> the convolution, the same for every j
    for j in range(m):
        acc: dict = {}
        for (p, q, r), c in phi_inv:
            for (s, t), d in sd.cop[j]:
                qs = prod[q][s]
                if not qs:
                    continue
                rt = prod[r][t]
                if not rt:
                    continue
                cd = c * d
                for w, cw in qs:
                    sub = acc.setdefault((p, w), {})
                    for v, cv in rt:
                        _add(sub, v, cd * cw * cv)
        for (p, w), vmap in acc.items():
            vlist = tuple((v, cc) for v, cc in vmap.items() if not cc.is_zero())
            if not vlist:
                continue
            for i, xi1 in support[p]:
                row = index[i][j]
                for k, xi2 in support[w]:
                    conv = convs.get((p, i, w, k))
                    if conv is None:
                        conv = convs[p, i, w, k] = convolution(cop, *rev((xi1, xi2)))
                    if not conv:
                        continue
                    for v, cc in vlist:
                        for l in range(m):
                            alg = prod[v][l]
                            if not alg:
                                continue
                            cell = table.setdefault(rev((row, index[k][l])), {})
                            for u, cu in conv.items():
                                base = cc * cu
                                for z, cz in alg:
                                    _add(cell, index[u][z], base * cz)

    unit = {index[u][z]: cu * cz
            for u, cu in H.counit.items() for z, cz in H.unit_vec().items()}
    action = {(index[i][j], h): {index[u][j]: cu for u, cu in sd.h_act[h][i].items()}
              for i in range(m) for j in range(m) for h in range(m)}
    sc = StructureConstants(m * m, H.order,
                            {k: tuple(v.items()) for k, v in table.items()}, unit)
    return HeisenbergAlgebra(side, H, m, sc, action, sd)


def build_H1_dual(H: QuasiHopfAlgebra) -> HeisenbergAlgebra:
    """Double on H* (x) H: (xi # a)(nu # b) uses the inverse associator,
    left harpoons, convolution, and the coproduct of the middle factor."""
    return _build_double(H, "dual")


def build_H1(H: QuasiHopfAlgebra) -> HeisenbergAlgebra:
    """Double on H (x) H*: mirror construction with right harpoons."""
    return _build_double(H, "plain")


@dataclass
class CanonicalElements:
    W: SparseTensor
    Wtilde: SparseTensor
    Wbar: SparseTensor
    What: SparseTensor
    PhiBoldInv: SparseTensor
    PhiBold321S: SparseTensor
    PhiBarInv321: SparseTensor
    PhiBarS: SparseTensor


def canonical_elements(ha_dual: HeisenbergAlgebra, ha_plain: HeisenbergAlgebra,
                       D: DerivedElements) -> CanonicalElements:
    """The basis-pairing elements, their quasi-inverses, and the four
    associator correction tensors, all as displayed."""
    H = ha_dual.parent
    S = H.antipode
    phi_s = apply_leg(S, apply_leg(S, apply_leg(S, H.associator, 1), 2), 3)
    W, Wtilde, PhiBoldInv, PhiBold321S = _side_elements(ha_dual, D.U, phi_s)
    Wbar, What, PhiBarInv321, PhiBarS = _side_elements(ha_plain, D.Vtilde, phi_s)
    return CanonicalElements(W, Wtilde, Wbar, What,
                             PhiBoldInv, PhiBold321S, PhiBarInv321, PhiBarS)


def _side_elements(ha: HeisenbergAlgebra, x: SparseTensor, phi_s: SparseTensor):
    """(canonical element, quasi-inverse, inverse-associator correction,
    antipode-associator correction) of one double.  x is U on the dual side
    and V-tilde on the plain side, phi_s is (S x S x S)(associator); written
    for the dual side."""
    H = ha.parent
    m, order, S = H.dim, H.order, H.antipode
    sd = ha.side_data
    rev, index = sd.rev, sd.index
    eps = tuple(H.counit.items())

    w: dict = {}
    for i in range(m):
        for u, cu in eps:
            for z, cz in H.unit_vec().items():
                _add(w, (index[u][i], index[i][z]), cu * cz)

    wq: dict = {}
    for key, c in x.entries.items():
        a, b = rev(key)
        for i in range(m):
            for y, cy in sd.prod[i][a]:
                for s, cs in S.cols[y].items():
                    for u, cu in eps:
                        _add(wq, (index[u][s], index[i][b]), c * cy * cs * cu)

    eps3 = tuple(((u1, u2, u3), c1 * c2 * c3)
                 for (u1, c1), (u2, c2), (u3, c3) in product(eps, repeat=3))

    def correction(terms):
        out: dict = {}
        for (l1, l2, l3), c in terms:
            for (u1, u2, u3), ce in eps3:
                _add(out, (index[u1][l1], index[u2][l2], index[u3][l3]), c * ce)
        return SparseTensor(m * m, 3, order, out)

    return (SparseTensor(m * m, 2, order, w), SparseTensor(m * m, 2, order, wq),
            correction((rev(k), c) for k, c in H.associator_inv.entries.items()),
            correction((rev(k[::-1]), c) for k, c in phi_s.entries.items()))


def _add(entries: dict, key, c):
    prev = entries.get(key)
    entries[key] = c if prev is None else prev + c


def check_parenthesization(ha: HeisenbergAlgebra, a: SparseTensor, b: SparseTensor,
                           c: SparseTensor, left: SparseTensor | None = None):
    """((ab)c) against (a(bc)); returns (equal, left, right).  A factor may
    be a Placement; left, when given, is (ab)c already formed."""
    if left is None:
        left = multiply(ha.sc, multiply(ha.sc, a, b), c)
    right = multiply(ha.sc, a, multiply(ha.sc, b, c))
    return left == right, left, right


def _equation(ha: HeisenbergAlgebra, rec: Recorder, label: str, name: str, lhs, rhs,
              lefts=(None, None)):
    """Records both parenthesizations of each side, then the equation; lefts
    are the sides' left parenthesizations already formed, or None."""
    sides = []
    for (tag, side, factors), left in zip((("lhs", "left", lhs), ("rhs", "right", rhs)), lefts):
        _, left, right = check_parenthesization(ha, *factors, left)
        rec.tensor_check(f"{label}-parens-{tag}",
                         f"triple product parenthesization, {side} side of {label}",
                         left, right)
        sides.append(left)
    rec.tensor_check(label, name, *sides)


def leg_pairs(x: SparseTensor):
    """(x12, x13, x23): x placed on two legs of a degree-3 factor of
    multiply, the unit of the double it is multiplied in on the third."""
    return tuple(Placement(x, legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))


def _pentagon_sides(x, phi):
    """The factors of the sides of (X12 X13) X23 = (X23 X12) Phi."""
    x12, x13, x23 = leg_pairs(x)
    return (x12, x13, x23), (x23, x12, phi)


def pentagon_lefts(ha: HeisenbergAlgebra, x: SparseTensor, phi: SparseTensor) -> tuple:
    """(X12 X13) X23 and (X23 X12) Phi: the left parenthesizations of the two
    sides of the quasi-pentagon equation for x."""
    return tuple(multiply(ha.sc, multiply(ha.sc, f, g), h) for f, g, h in _pentagon_sides(x, phi))


def _quasi_pentagon(ha, rec, label, element, x, phi, lefts=(None, None)):
    _equation(ha, rec, label, f"quasi-pentagon equation for the {element}",
              *_pentagon_sides(x, phi), lefts)


def _quasi_hopf(ha, rec, label, element, x, phi):
    """(X23 X13) X12 = (Phi X12) X23."""
    x12, x13, x23 = leg_pairs(x)
    _equation(ha, rec, label, f"quasi-Hopf equation for the {element}",
              (x23, x13, x12), (phi, x12, x23))


def check_theorem_4_4(ce: CanonicalElements, ha: HeisenbergAlgebra,
                      rec: Recorder | None = None, lefts=(None, None)) -> Recorder:
    """Quasi-pentagon 4.6 and quasi-Hopf 4.7 on the dual-side double; lefts
    are 4.6's pentagon_lefts when already formed."""
    rec = rec or Recorder()
    _quasi_pentagon(ha, rec, "4.6", "canonical element", ce.W, ce.PhiBoldInv, lefts)
    _quasi_hopf(ha, rec, "4.7", "quasi-inverse", ce.Wtilde, ce.PhiBold321S)
    return rec


def check_theorem_4_5(ce: CanonicalElements, ha: HeisenbergAlgebra,
                      rec: Recorder | None = None, lefts=(None, None)) -> Recorder:
    """Quasi-Hopf 4.8 and quasi-pentagon 4.9 on the plain-side double; lefts
    are 4.9's pentagon_lefts when already formed."""
    rec = rec or Recorder()
    _quasi_hopf(ha, rec, "4.8", "canonical element", ce.Wbar, ce.PhiBarInv321)
    _quasi_pentagon(ha, rec, "4.9", "quasi-inverse", ce.What, ce.PhiBarS, lefts)
    return rec


# label and name of the check that multiplies, then of the one that acts
_EPS_CHECKS = {
    "dual": (("3.eps-second", "counit in the second slot multiplies the tails"),
             ("3.eps-first", "counit in the first slot acts then multiplies")),
    "plain": (("3.eps-first", "counit in the first slot multiplies the heads"),
              ("3.eps-second", "counit in the second slot slides the coproduct")),
}


def check_double(ha: HeisenbergAlgebra, rec: Recorder | None = None) -> Recorder:
    """Unit law, the two counit-slot product specializations, and the
    module axioms of the attached action, each side of a specialization
    read from the parent and the side data.  A counit-slot family compares one
    pair per leading index i0, keyed (i1, i2, z); the action one pair per
    basis element k, keyed (h1, h2, z), after its unit pair."""
    rec = rec or Recorder()
    side = ha.side
    rec.bool_check(f"3.unit-{side}", f"two-sided unit law in the {side}-side double",
                   not ha.sc.check_unit())

    H = ha.parent
    m, dim, order = H.dim, ha.dim, ha.order
    one = CycScalar.one(order)
    sd = ha.side_data
    rev, index = sd.rev, sd.index
    table, action = ha.sc.table, ha.action
    eps = tuple(H.counit.items())

    def family(fill):
        for i0 in range(m):
            lhs, rhs = {}, {}
            for i1, i2 in product(range(m), repeat=2):
                fill(lhs, rhs, (i1, i2), *rev((i0, i1, i2)))
            yield (i0,), SparseTensor(dim, 3, order, lhs), SparseTensor(dim, 3, order, rhs)

    def multiplies(lhs, rhs, key, xi, a, b):
        # dual: (xi # a)(eps # b) = xi # ab; plain: (b # eps)(a # xi) = ba # xi
        for u, cu in eps:
            for z, cz in table.get(rev((index[xi][a], index[u][b])), ()):
                _add(lhs, (*key, z), cu * cz)
        for z, cz in sd.prod[a][b]:
            rhs[(*key, index[xi][z])] = cz

    def acts(lhs, rhs, key, a, xi, b):
        # dual: (eps # a)(xi # b) = (a_1 -> xi) # a_2 b;
        # plain: (b # xi)(a # eps) = b a_1 # (xi <- a_2)
        for u, cu in eps:
            for z, cz in table.get(rev((index[u][a], index[xi][b])), ()):
                _add(lhs, (*key, z), cu * cz)
        for (s, t), d in sd.cop[a]:
            for z, cz in sd.prod[t][b]:
                for u, cu in sd.h_prod[s][xi].items():
                    _add(rhs, (*key, index[u][z]), d * cu * cz)

    (mult_label, mult_name), (act_label, act_name) = _EPS_CHECKS[side]
    rec.family_check(mult_label, mult_name, family(multiplies))
    rec.family_check(act_label, act_name, family(acts))

    def action_axioms():
        # dual: (x <| h1) <| h2 = x <| (h1 h2); plain: h1 |> (h2 |> x) = (h1 h2) |> x
        unit_h = tuple(H.unit_vec().items())
        products = [((h1, h2), *rev((h1, h2)), H.mult.vec_mult({h1: one}, {h2: one}).items())
                    for h1 in range(m) for h2 in range(m)]
        for k in range(dim):
            unit: dict = {}
            for h, ch in unit_h:
                for z, cz in action.get((k, h), {}).items():
                    _add(unit, (z,), ch * cz)
            yield (k, "unit"), SparseTensor(dim, 1, order, unit), \
                SparseTensor(dim, 1, order, {(k,): one})
            lhs, rhs = {}, {}
            for key, first, second, h12 in products:
                for k2, c2 in action.get((k, first), {}).items():
                    for z, cz in action.get((k2, second), {}).items():
                        _add(lhs, (*key, z), c2 * cz)
                for h, ch in h12:
                    for z, cz in action.get((k, h), {}).items():
                        _add(rhs, (*key, z), ch * cz)
            yield (k,), SparseTensor(dim, 3, order, lhs), SparseTensor(dim, 3, order, rhs)

    rec.family_check(f"3.action-{side}", f"module axioms of the {side}-side action",
                     action_axioms())
    return rec


@dataclass
class InvertibilityResult:
    status: str  # two_sided | right_only | left_only | none | one_sided_both
    two_sided: SparseTensor | None
    right_inverse: SparseTensor | None
    left_inverse: SparseTensor | None
    detail: str


def probe_invertibility(ha: HeisenbergAlgebra, x: SparseTensor) -> InvertibilityResult:
    """Exact solve of x*Y = unit and Z*x = unit over the pair-tensor space.

    A two-sided verdict requires one element solving both systems at once
    (the stacked system); with unique one-sided solutions this is exactly
    the Y = Z test.  Any returned inverse is re-verified by multiplication.

    The stacked system starts from the left system's reduced pivot rows
    with their right sides, not from rows_l.  The left system is consistent
    by then, so its emptied rows have zero right sides and the pivot rows
    span the same augmented row space as rows_l; stacked with rows_r they
    have the same row space, hence the same reduced row echelon form, as
    rows_l + rows_r: the same solution and the same consistency.  If the left
    system has full rank, y is unique and that is whether y solves rows_r.
    """
    dim = ha.dim
    ncols = dim * dim
    order = ha.order
    zero = CycScalar.zero(order)
    unit2 = ha.sc.unit_tensor(2)

    rows_l = multiplication_rows(ha.sc, x, "right")
    rows_r = multiplication_rows(ha.sc, x, "left")
    rhs = [unit2.entries.get((r // dim, r % dim), zero) for r in range(ncols)]

    def unflatten(sol: dict) -> SparseTensor:
        return SparseTensor(dim, 2, order,
                            {(c // dim, c % dim): v for c, v in sol.items()})

    reduced_l, rhs_l, pivots_l = _row_reduce(rows_l, rhs, ncols, order)
    y = _read_solution(reduced_l, rhs_l, pivots_l)
    z = solve_linear(rows_r, rhs, ncols, order)
    y_ok = not isinstance(y, Inconsistency)
    z_ok = not isinstance(z, Inconsistency)
    right_inv = unflatten(y) if y_ok else None
    left_inv = unflatten(z) if z_ok else None
    if y_ok and z_ok:
        if len(pivots_l) == ncols:  # y is the only candidate: does it solve rows_r?
            v = y if all(sum((c * y[j] for j, c in row.items() if j in y), zero) is r
                         for row, r in zip(rows_r, rhs)) else None
        else:
            basis = pivots_l.values()
            v = solve_linear([reduced_l[r] for r in basis] + rows_r,
                             [rhs_l[r] for r in basis] + rhs, ncols, order)
        if v is not None and not isinstance(v, Inconsistency):
            vt = unflatten(v)
            if multiply(ha.sc, x, vt) == unit2 and multiply(ha.sc, vt, x) == unit2:
                return InvertibilityResult("two_sided", vt, right_inv, left_inv,
                                           "two-sided inverse found and verified")
            return InvertibilityResult(
                "one_sided_both", None, right_inv, left_inv,
                "stacked solution failed verification (inconsistent system)")
        return InvertibilityResult(
            "one_sided_both", None, right_inv, left_inv,
            "right and left inverses exist separately but no element solves "
            "both systems; no two-sided inverse")
    if y_ok:
        return InvertibilityResult("right_only", None, right_inv, None,
                                   f"left system inconsistent at row {z.row_index}")
    if z_ok:
        return InvertibilityResult("left_only", None, None, left_inv,
                                   f"right system inconsistent at row {y.row_index}")
    return InvertibilityResult(
        "none", None, None, None,
        f"both systems inconsistent (rows {y.row_index}, {z.row_index})")
