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
    _reduce_system,
    merge_pair,
    multiplication_system,
    multiply,
    solve_linear,
)
from .quasihopf import DerivedElements, QuasiHopfAlgebra, _opposite, antipode_legs
from .report import Recorder
from .scalar import CycScalar


class HeisenbergAlgebra:
    """One of the two doubles of its parent, with its product table and
    module action, and the `_Side` its builder used as `side_data`.  An
    action of None is built from the side data the first time it is read:
    only `check_double` and the closed-form action check read it."""

    def __init__(self, side: str, parent: QuasiHopfAlgebra, m: int,
                 sc: StructureConstants, action: dict | None, side_data: _Side):
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
        self._action = action

    @property
    def action(self) -> dict:
        if self._action is None:
            self._action = _action(self.side_data)
        return self._action

    def __repr__(self):
        return f"HeisenbergAlgebra({self.side}, m={self.m})"


class _Side:
    """The mirror choices of one double, fixed before any loop runs.

    rev(t) returns t on the dual side and t reversed on the plain side; it
    orders the legs of the coproduct and of the associators, the (row,
    column) key of a table cell and the pair (product harpoons, action
    harpoons).  mult is H's product on the dual side and the opposite
    product on the plain side, so mult's product of e_a and e_b is H's
    product of rev((e_a, e_b)); prod[a][b] is that product, cop[a] the
    coproduct of e_a with its legs in rev order, index[xi][a] the pair
    basis element that joins the dual basis vector xi to e_a, and h_prod and
    h_act the harpoon tables of the product and of the action: h[b][i] is
    e_b -> e^i (left) or e^i <- e_b (right) as a {basis index: coeff} map,
    read off the table since (e_b -> e^i)(e_a) = (e^i <- e_a)(e_b) =
    e^i(e_a e_b).
    """

    def __init__(self, H: QuasiHopfAlgebra, side: str):
        m = H.dim
        dual = side == "dual"
        self.rev = rev = (lambda t: t) if dual else (lambda t: t[::-1])
        self.mult = H.mult if dual else _opposite(H.mult)
        self.prod = [[self.mult.basis_product(a, b) for b in range(m)] for a in range(m)]
        self.cop = [tuple((rev(st), d) for st, d in H.coproduct.of_basis(a))
                    for a in range(m)]
        self.index = [[xi * m + a if dual else a * m + xi for a in range(m)]
                      for xi in range(m)]
        left, right = ([[{} for _ in range(m)] for _ in range(m)] for _ in range(2))
        for (a, b), cell in sorted(H.mult.table.items()):
            for i, c in cell:
                _add(left[b][i], a, c)
                _add(right[a][i], b, c)
        self.h_prod, self.h_act = rev((left, right))


def _action(sd: _Side) -> dict:
    """(k, h) -> k acted on by e_h, as {basis index: coeff}: on the dual side
    (e^i # e_j) <| e_h = (e^i <- e_h) # e_j, on the plain side
    e_h |> (e_j # e^i) = e_j # (e_h -> e^i)."""
    index, h_act = sd.index, sd.h_act
    m = len(index)
    return {(index[i][j], h): {index[u][j]: cu for u, cu in h_act[h][i].items()}
            for i in range(m) for j in range(m) for h in range(m)}


def _build_double(H: QuasiHopfAlgebra, side: str) -> HeisenbergAlgebra:
    """The double of one side, written for the dual side; the plain side
    takes every order that `_Side` reverses, and runs the same two
    contractions in the opposite product, so both sides share their plans.

    With Phi^-1 = p (x) q (x) r and Delta(e_j) = s (x) t,
    (e^i # e_j)(e^k # e_l) = (e_p -> e^i) * (e_q e_s -> e^k) # (e_r e_t) e_l,
    and the convolution (e_p -> e^i) * (e_w -> e^k) takes e_u to
    e^i(h1 e_p) e^k(h2 e_w) with Delta(e_u) = h1 (x) h2.  So with split =
    sum of e_j (x) Delta(e_j), two merge_pair calls form the whole sum:
    Phi^-1 against split gives (j, p, q s, r t), and split against that gives
    (u, h1 p, h2 q s, j, r t), the coefficient of e^u # (r t) e_l in cell
    ((i, j), (k, l)) at (u, i, k, j, r t).  Every group has at most two
    factors, so both calls are exact on any table (see merge_pair).  The
    table fills in one pass over the nonzero products (r t) e_l.
    """
    m, order = H.dim, H.order
    sd = _Side(H, side)
    dual, rev, prod, index = side == "dual", sd.rev, sd.prod, sd.index
    phi_inv = SparseTensor(m, 3, order, {rev(k): c for k, c in H.associator_inv.entries.items()})
    split = SparseTensor(m, 3, order, {(j, *st): d for j in range(m) for st, d in sd.cop[j]})
    pairs = (("a", 1), ("b", 1)), (("a", 2), ("b", 2))
    x = merge_pair(sd.mult, phi_inv, split, ((("b", 0),), (("a", 0),), *pairs))
    y = merge_pair(sd.mult, split, x, ((("a", 0),), *pairs, (("b", 0),), (("b", 3),)))
    del phi_inv, split, x  # freed before the table fills, which lowers the peak

    one = CycScalar.one(order)
    nonzero = [[(l, terms) for l, terms in enumerate(row) if terms] for row in prod]
    table: dict = {}
    for (u, i, k, j, v), c in y.entries.items():
        row, col, out = index[i][j], index[k], index[u]
        for l, terms in nonzero[v]:
            key = (row, col[l]) if dual else (col[l], row)
            cell = table.get(key)
            if cell is None:
                cell = table[key] = {}
            for z, cz in terms:
                cc = c if cz is one else c * cz
                kz = out[z]
                prev = cell.get(kz)
                cell[kz] = cc if prev is None else prev + cc
    del y

    unit = {index[u][z]: cu * cz
            for u, cu in H.counit.items() for z, cz in H.unit_vec().items()}
    return HeisenbergAlgebra(side, H, m, StructureConstants(m * m, order, table, unit), None, sd)


def build_H1_dual(H: QuasiHopfAlgebra) -> HeisenbergAlgebra:
    """Double on H* (x) H: (xi # a)(nu # b) sums over the inverse
    associator and the coproduct of a (see _build_double)."""
    return _build_double(H, "dual")


def build_H1(H: QuasiHopfAlgebra) -> HeisenbergAlgebra:
    """Double on H (x) H*: the dual side's construction in mirror order."""
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


def canonical_element(ha: HeisenbergAlgebra) -> SparseTensor:
    """The basis-pairing element of one double, W on the dual side and W-bar
    on the plain side: the sum over i of (eps # e_i) (x) (e^i # 1), written
    for the dual side.  It reads only the double's side data, the counit and
    the unit, as in the Hopf case, so it needs no derived element."""
    H = ha.parent
    m, index = H.dim, ha.side_data.index
    eps, unit = tuple(H.counit.items()), tuple(H.unit_vec().items())
    w: dict = {}
    for i in range(m):
        for u, cu in eps:
            for z, cz in unit:
                _add(w, (index[u][i], index[i][z]), cu * cz)
    return SparseTensor(m * m, 2, H.order, w)


def canonical_elements(ha_dual: HeisenbergAlgebra, ha_plain: HeisenbergAlgebra,
                       D: DerivedElements) -> CanonicalElements:
    """The basis-pairing elements (from `canonical_element`), their
    quasi-inverses, and the four associator correction tensors, all as
    displayed."""
    H = ha_dual.parent
    phi_s = antipode_legs(H.antipode, H.associator)
    Wtilde, PhiBoldInv, PhiBold321S = _side_elements(ha_dual, D.U, phi_s)
    What, PhiBarInv321, PhiBarS = _side_elements(ha_plain, D.Vtilde, phi_s)
    return CanonicalElements(canonical_element(ha_dual), Wtilde,
                             canonical_element(ha_plain), What,
                             PhiBoldInv, PhiBold321S, PhiBarInv321, PhiBarS)


def _side_elements(ha: HeisenbergAlgebra, x: SparseTensor, phi_s: SparseTensor):
    """(quasi-inverse, inverse-associator correction, antipode-associator
    correction) of one double: the elements that need the quasi-Hopf data.
    x is U on the dual side and V-tilde on the plain side, phi_s is the
    antipode of the associator, (S x S x S) of its reversal; written for
    the dual side."""
    H = ha.parent
    m, order, S = H.dim, H.order, H.antipode
    sd = ha.side_data
    rev, index = sd.rev, sd.index
    eps = tuple(H.counit.items())

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

    return (SparseTensor(m * m, 2, order, wq),
            correction((rev(k), c) for k, c in H.associator_inv.entries.items()),
            correction((rev(k), c) for k, c in phi_s.entries.items()))


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
                   not ha.sc.unit_failures())

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
    """Exact solve of x*Y = unit (the right system) and Z*x = unit (the left
    system) over the pair-tensor space.

    A two-sided verdict requires one element solving both systems at once
    (the stacked system).  Any returned inverse is re-verified by
    multiplication.  A system with no solution is named by the row of its
    certificate: the lowest-numbered row that its elimination leaves empty
    with a nonzero right side.

    Each one-sided system is generated and reduced once, in place (see
    multiplication_system and _reduce_system).  A full-rank or inconsistent
    system keeps only its solution, so on kωG one system is alive at a time;
    a consistent one without full rank keeps its reduced pivot rows, as
    dicts, with their right sides.  When both have full rank, y and z are
    the only solutions, so an element solves both exactly when y == z.
    Otherwise the stacked system is solved from each side's pivot rows, a
    full-rank side giving the unit rows with its solution as their right
    sides.  A consistent system's emptied rows have zero right sides, so its
    pivot rows span the augmented row space of its rows; stacked, the two
    have the row space, hence the reduced row echelon form, of rows_r +
    rows_l: the same solution and the same consistency.
    """
    dim = ha.dim
    ncols = dim * dim
    order = ha.order
    zero, one = CycScalar.zero(order), CycScalar.one(order)
    unit2 = ha.sc.unit_tensor(2)

    rhs = [zero] * ncols
    for (a, b), v in unit2.entries.items():
        rhs[a * dim + b] = v

    def unflatten(sol: dict) -> SparseTensor:
        return SparseTensor(dim, 2, order,
                            {(c // dim, c % dim): v for c, v in sol.items()})

    def solve(side: str):
        """(solution or Inconsistency, pivot rows and their right sides, or
        None at full rank or without a solution)."""
        rows, reduced_rhs, pivots = _reduce_system(*multiplication_system(ha.sc, x, side),
                                                   list(rhs), ncols, order)
        sol = _read_solution(rows, reduced_rhs, pivots, order)
        if len(pivots) == ncols or isinstance(sol, Inconsistency):
            return sol, None
        basis = pivots.values()
        return sol, ([{rows[r][0]: one} if type(rows[r]) is tuple else rows[r] for r in basis],
                     [reduced_rhs[r] for r in basis])

    def stacked(sol: dict, kept):
        return kept or ([{c: one} for c in range(ncols)], [sol.get(c, zero) for c in range(ncols)])

    y, kept_r = solve("right")
    z, kept_l = solve("left")
    y_ok = not isinstance(y, Inconsistency)
    z_ok = not isinstance(z, Inconsistency)
    right_inv = unflatten(y) if y_ok else None
    left_inv = unflatten(z) if z_ok else None
    if y_ok and z_ok:
        if kept_r is None and kept_l is None:
            v = y if y == z else None
        else:
            (rows_r, rhs_r), (rows_l, rhs_l) = stacked(y, kept_r), stacked(z, kept_l)
            v = solve_linear(rows_r + rows_l, rhs_r + rhs_l, ncols, order)
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
