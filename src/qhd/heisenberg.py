"""The two first Heisenberg doubles and their canonical elements.

The dual-side double lives on H* (x) H with basis pairs (dual index,
algebra index); the plain-side double lives on H (x) H* with the reverse
pairing.  Both products are built once as structure constants over the
flattened pair basis; they are generally nonassociative, which is why
every triple product below goes through an explicit parenthesization
check before it is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Inconsistency,
    SparseTensor,
    StructureConstants,
    convolution,
    harpoon,
    leg_embed,
    multiplication_rows,
    multiply,
    solve_linear,
    tensor_product,
    vec_tensor,
)
from .quasihopf import DerivedElements, QuasiHopfAlgebra
from .report import Recorder
from .scalar import CycScalar


class HeisenbergAlgebra:
    """One of the two doubles, with its product table and module action."""

    def __init__(self, variant: str, parent: QuasiHopfAlgebra | None, m: int,
                 sc: StructureConstants, unit: dict, action: dict):
        if variant not in ("dual_first", "plain_first"):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.parent = parent
        self.m = m
        self.dim = m * m
        self.order = sc.order
        self.sc = sc
        self.unit = unit
        self.action = action

    def flat(self, a: int, b: int) -> int:
        return a * self.m + b

    def unflat(self, k: int):
        return divmod(k, self.m)

    def unit_tensor(self, degree: int) -> SparseTensor:
        t = vec_tensor(self.dim, self.order, self.unit)
        out = t
        for _ in range(degree - 1):
            out = tensor_product(out, t)
        return out

    def act_basis(self, k: int, h: int) -> dict:
        return self.action.get((k, h), {})

    def act_vec(self, v: dict, h_vec: dict) -> dict:
        out: dict = {}
        for k, ck in v.items():
            for h, ch in h_vec.items():
                for z, cz in self.action.get((k, h), {}).items():
                    c = ck * ch * cz
                    prev = out.get(z)
                    out[z] = c if prev is None else prev + c
        return {k: c for k, c in out.items() if not c.is_zero()}

    def __repr__(self):
        return f"HeisenbergAlgebra({self.variant}, m={self.m})"


def _harpoon_tables(H: QuasiHopfAlgebra):
    one = CycScalar.one(H.order)
    m = H.dim
    left = [[harpoon(H.mult, {p: one}, {i: one}, "left") for i in range(m)]
            for p in range(m)]
    right = [[harpoon(H.mult, {p: one}, {i: one}, "right") for i in range(m)]
             for p in range(m)]
    return left, right


def build_H1_dual(H: QuasiHopfAlgebra) -> HeisenbergAlgebra:
    """Double on H* (x) H: (xi # a)(nu # b) uses the inverse associator,
    left harpoons, convolution, and the coproduct of the middle factor."""
    m = H.dim
    one = CycScalar.one(H.order)
    sc_h, cop = H.mult, H.coproduct
    hL, hR = _harpoon_tables(H)
    hL_support = [tuple((i, v) for i, v in enumerate(row) if v) for row in
                  ([[hL[p][i] for i in range(m)] for p in range(m)])]

    flat = lambda a, b: a * m + b
    table: dict = {}

    for j in range(m):
        acc: dict = {}
        for (p, q, r), c in H.associator_inv.entries.items():
            for (s, t), d in cop.of_basis(j):
                qs = sc_h.basis_product(q, s)
                if not qs:
                    continue
                rt = sc_h.basis_product(r, t)
                if not rt:
                    continue
                cd = c * d
                for wdx, cw in qs:
                    for vdx, cv in rt:
                        key = (p, wdx)
                        sub = acc.setdefault(key, {})
                        cc = cd * cw * cv
                        prev = sub.get(vdx)
                        sub[vdx] = cc if prev is None else prev + cc
        for (p, wdx), vmap in acc.items():
            vlist = tuple((v, cc) for v, cc in vmap.items() if not cc.is_zero())
            if not vlist:
                continue
            for i, xi1 in hL_support[p]:
                for k, xi2 in hL_support[wdx]:
                    conv = convolution(cop, xi1, xi2)
                    if not conv:
                        continue
                    row = flat(i, j)
                    for v, cc in vlist:
                        for l in range(m):
                            alg = sc_h.basis_product(v, l)
                            if not alg:
                                continue
                            cell = table.setdefault((row, flat(k, l)), {})
                            for u, cu in conv.items():
                                base = cc * cu
                                for z, cz in alg:
                                    fk = flat(u, z)
                                    prev = cell.get(fk)
                                    cell[fk] = base * cz if prev is None else prev + base * cz

    unit = {}
    for u, cu in H.counit.items():
        for z, cz in H.unit_vec().items():
            unit[flat(u, z)] = cu * cz
    action = {}
    for i in range(m):
        for j in range(m):
            for h in range(m):
                action[(flat(i, j), h)] = {
                    flat(u, j): cu for u, cu in hR[h][i].items()
                }
    sc = StructureConstants(m * m, H.order,
                            {k: tuple(v.items()) for k, v in table.items()}, unit)
    return HeisenbergAlgebra("dual_first", H, m, sc, sc.unit, action)


def build_H1(H: QuasiHopfAlgebra) -> HeisenbergAlgebra:
    """Double on H (x) H*: mirror construction with right harpoons."""
    m = H.dim
    sc_h, cop = H.mult, H.coproduct
    hL, hR = _harpoon_tables(H)
    hR_support = [tuple((i, v) for i, v in enumerate(row) if v) for row in
                  ([[hR[p][i] for i in range(m)] for p in range(m)])]

    flat = lambda a, b: a * m + b
    table: dict = {}

    for k in range(m):
        acc: dict = {}
        for (p, q, r), c in H.associator_inv.entries.items():
            for (s, t), d in cop.of_basis(k):
                sp = sc_h.basis_product(s, p)
                if not sp:
                    continue
                tq = sc_h.basis_product(t, q)
                if not tq:
                    continue
                cd = c * d
                for xdx, cx in sp:
                    for ydx, cy in tq:
                        key = (ydx, r)
                        sub = acc.setdefault(key, {})
                        cc = cd * cx * cy
                        prev = sub.get(xdx)
                        sub[xdx] = cc if prev is None else prev + cc
        for (ydx, r), xmap in acc.items():
            xlist = tuple((x, cc) for x, cc in xmap.items() if not cc.is_zero())
            if not xlist:
                continue
            for j, xi1 in hR_support[ydx]:
                for l, xi2 in hR_support[r]:
                    conv = convolution(cop, xi1, xi2)
                    if not conv:
                        continue
                    for x, cc in xlist:
                        for i in range(m):
                            alg = sc_h.basis_product(i, x)
                            if not alg:
                                continue
                            cell = table.setdefault((flat(i, j), flat(k, l)), {})
                            for u, cu in conv.items():
                                base = cc * cu
                                for z, cz in alg:
                                    fk = flat(z, u)
                                    prev = cell.get(fk)
                                    cell[fk] = base * cz if prev is None else prev + base * cz

    unit = {}
    for u, cu in H.counit.items():
        for z, cz in H.unit_vec().items():
            unit[flat(z, u)] = cz * cu
    action = {}
    for i in range(m):
        for j in range(m):
            for h in range(m):
                action[(flat(i, j), h)] = {
                    flat(i, u): cu for u, cu in hL[h][j].items()
                }
    sc = StructureConstants(m * m, H.order,
                            {k: tuple(v.items()) for k, v in table.items()}, unit)
    return HeisenbergAlgebra("plain_first", H, m, sc, sc.unit, action)


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
    m = H.dim
    m2 = m * m
    order = H.order
    S = H.antipode
    eps = H.counit
    unit_h = H.unit_vec()
    fd = ha_dual.flat
    fp = ha_plain.flat

    w_entries: dict = {}
    wb_entries: dict = {}
    for i in range(m):
        for u, cu in eps.items():
            for z, cz in unit_h.items():
                _add(w_entries, (fd(u, i), fd(i, z)), cu * cz)
                _add(wb_entries, (fp(i, u), fp(z, i)), cu * cz)
    W = SparseTensor(m2, 2, order, w_entries)
    Wbar = SparseTensor(m2, 2, order, wb_entries)

    wt_entries: dict = {}
    for (a, b), c in D.U.entries.items():
        for i in range(m):
            for wdx, cw in H.mult.basis_product(i, a):
                for s, cs in S.cols[wdx].items():
                    base = c * cw * cs
                    for u, cu in eps.items():
                        _add(wt_entries, (fd(u, s), fd(i, b)), base * cu)
    Wtilde = SparseTensor(m2, 2, order, wt_entries)

    wh_entries: dict = {}
    for (a, b), c in D.Vtilde.entries.items():
        for i in range(m):
            for wdx, cw in H.mult.basis_product(b, i):
                for s, cs in S.cols[wdx].items():
                    base = c * cw * cs
                    for u, cu in eps.items():
                        _add(wh_entries, (fp(s, u), fp(a, i)), base * cu)
    What = SparseTensor(m2, 2, order, wh_entries)

    pbi: dict = {}
    pb321: dict = {}
    pbari: dict = {}
    pbars: dict = {}
    eps_items = tuple(eps.items())
    for (p, q, r), c in H.associator_inv.entries.items():
        for u1, c1 in eps_items:
            for u2, c2 in eps_items:
                for u3, c3 in eps_items:
                    base = c * c1 * c2 * c3
                    _add(pbi, (fd(u1, p), fd(u2, q), fd(u3, r)), base)
                    _add(pbari, (fp(r, u1), fp(q, u2), fp(p, u3)), base)
    for (p, q, r), c in H.associator.entries.items():
        sp, sq, sr = S.cols[p], S.cols[q], S.cols[r]
        for u1, c1 in eps_items:
            for u2, c2 in eps_items:
                for u3, c3 in eps_items:
                    base = c * c1 * c2 * c3
                    for x3, cx3 in sr.items():
                        for x2, cx2 in sq.items():
                            for x1, cx1 in sp.items():
                                _add(pb321, (fd(u1, x3), fd(u2, x2), fd(u3, x1)),
                                     base * cx3 * cx2 * cx1)
                                _add(pbars, (fp(x1, u1), fp(x2, u2), fp(x3, u3)),
                                     base * cx1 * cx2 * cx3)
    PhiBoldInv = SparseTensor(m2, 3, order, pbi)
    PhiBold321S = SparseTensor(m2, 3, order, pb321)
    PhiBarInv321 = SparseTensor(m2, 3, order, pbari)
    PhiBarS = SparseTensor(m2, 3, order, pbars)
    return CanonicalElements(W, Wtilde, Wbar, What,
                             PhiBoldInv, PhiBold321S, PhiBarInv321, PhiBarS)


def _add(entries: dict, key, c):
    prev = entries.get(key)
    entries[key] = c if prev is None else prev + c


def check_parenthesization(ha: HeisenbergAlgebra, a: SparseTensor, b: SparseTensor,
                           c: SparseTensor):
    """((ab)c) against (a(bc)); returns (equal, left, right)."""
    left = multiply(ha.sc, multiply(ha.sc, a, b), c)
    right = multiply(ha.sc, a, multiply(ha.sc, b, c))
    return left == right, left, right


def _triple(ha: HeisenbergAlgebra, a, b, c, rec: Recorder, label: str, name: str):
    ok, left, right = check_parenthesization(ha, a, b, c)
    rec.tensor_check(label, name, left, right)
    return left


def check_theorem_4_4(ce: CanonicalElements, ha: HeisenbergAlgebra,
                      rec: Recorder | None = None) -> Recorder:
    """Quasi-pentagon 4.6 and quasi-Hopf 4.7 on the dual-side double."""
    rec = rec or Recorder()
    u = ha.unit
    w12 = leg_embed(ce.W, (1, 2), 3, u)
    w13 = leg_embed(ce.W, (1, 3), 3, u)
    w23 = leg_embed(ce.W, (2, 3), 3, u)
    lhs = _triple(ha, w12, w13, w23, rec, "4.6-parens-lhs",
                  "triple product parenthesization, left side of 4.6")
    rhs = _triple(ha, w23, w12, ce.PhiBoldInv, rec, "4.6-parens-rhs",
                  "triple product parenthesization, right side of 4.6")
    rec.tensor_check("4.6", "quasi-pentagon equation for the canonical element", lhs, rhs)

    t12 = leg_embed(ce.Wtilde, (1, 2), 3, u)
    t13 = leg_embed(ce.Wtilde, (1, 3), 3, u)
    t23 = leg_embed(ce.Wtilde, (2, 3), 3, u)
    lhs = _triple(ha, t23, t13, t12, rec, "4.7-parens-lhs",
                  "triple product parenthesization, left side of 4.7")
    rhs = _triple(ha, ce.PhiBold321S, t12, t23, rec, "4.7-parens-rhs",
                  "triple product parenthesization, right side of 4.7")
    rec.tensor_check("4.7", "quasi-Hopf equation for the quasi-inverse", lhs, rhs)
    return rec


def check_theorem_4_5(ce: CanonicalElements, ha: HeisenbergAlgebra,
                      rec: Recorder | None = None) -> Recorder:
    """Quasi-Hopf 4.8 and quasi-pentagon 4.9 on the plain-side double."""
    rec = rec or Recorder()
    u = ha.unit
    b12 = leg_embed(ce.Wbar, (1, 2), 3, u)
    b13 = leg_embed(ce.Wbar, (1, 3), 3, u)
    b23 = leg_embed(ce.Wbar, (2, 3), 3, u)
    lhs = _triple(ha, b23, b13, b12, rec, "4.8-parens-lhs",
                  "triple product parenthesization, left side of 4.8")
    rhs = _triple(ha, ce.PhiBarInv321, b12, b23, rec, "4.8-parens-rhs",
                  "triple product parenthesization, right side of 4.8")
    rec.tensor_check("4.8", "quasi-Hopf equation for the canonical element", lhs, rhs)

    h12 = leg_embed(ce.What, (1, 2), 3, u)
    h13 = leg_embed(ce.What, (1, 3), 3, u)
    h23 = leg_embed(ce.What, (2, 3), 3, u)
    lhs = _triple(ha, h12, h13, h23, rec, "4.9-parens-lhs",
                  "triple product parenthesization, left side of 4.9")
    rhs = _triple(ha, h23, h12, ce.PhiBarS, rec, "4.9-parens-rhs",
                  "triple product parenthesization, right side of 4.9")
    rec.tensor_check("4.9", "quasi-pentagon equation for the quasi-inverse", lhs, rhs)
    return rec


def check_double(ha: HeisenbergAlgebra, rec: Recorder | None = None) -> Recorder:
    """Unit law, the two counit-slot product specializations, and the
    module axioms of the attached action."""
    rec = rec or Recorder()
    side = "dual" if ha.variant == "dual_first" else "plain"
    rec.bool_check(f"3.unit-{side}", f"two-sided unit law in the {side}-side double",
                   not ha.sc.check_unit())

    H = ha.parent
    if H is None:
        return rec
    m = H.dim
    one = CycScalar.one(H.order)
    eps = H.counit
    sc_h = H.mult
    hL, hR = _harpoon_tables(H)

    def v1(v):
        return vec_tensor(ha.dim, ha.order, v)

    if ha.variant == "dual_first":
        def eps_right():
            # (xi # a)(eps # b) = xi # ab
            for i in range(m):
                for j in range(m):
                    for l in range(m):
                        epsb = {ha.flat(u, l): cu for u, cu in eps.items()}
                        lhs = ha.sc.vec_mult({ha.flat(i, j): one}, epsb)
                        rhs = {ha.flat(i, z): cz for z, cz in sc_h.basis_product(j, l)}
                        yield (i, j, l), v1(lhs), v1(rhs)

        rec.family_check("3.eps-second", "counit in the second slot multiplies the tails",
                         eps_right())

        def eps_first():
            # (eps # a)(nu # b) = (a_1 -> nu) # a_2 b
            for j in range(m):
                epsa = {ha.flat(u, j): cu for u, cu in eps.items()}
                for k in range(m):
                    for l in range(m):
                        lhs = ha.sc.vec_mult(epsa, {ha.flat(k, l): one})
                        rhs: dict = {}
                        for (s, t), d in H.coproduct.of_basis(j):
                            xi = hL[s][k]
                            for z, cz in sc_h.basis_product(t, l):
                                for u, cu in xi.items():
                                    _add(rhs, ha.flat(u, z), d * cu * cz)
                        yield (j, k, l), v1(lhs), v1({k: c for k, c in rhs.items()
                                                      if not c.is_zero()})

        rec.family_check("3.eps-first", "counit in the first slot acts then multiplies",
                         eps_first())
    else:
        def eps_first_p():
            # (a # eps)(b # nu) = ab # nu
            for i in range(m):
                epsa = {ha.flat(i, u): cu for u, cu in eps.items()}
                for k in range(m):
                    for l in range(m):
                        lhs = ha.sc.vec_mult(epsa, {ha.flat(k, l): one})
                        rhs = {ha.flat(z, l): cz for z, cz in sc_h.basis_product(i, k)}
                        yield (i, k, l), v1(lhs), v1(rhs)

        rec.family_check("3.eps-first", "counit in the first slot multiplies the heads",
                         eps_first_p())

        def eps_second_p():
            # (a # xi)(b # eps) = a b_1 # (xi <- b_2)
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        epsb = {ha.flat(k, u): cu for u, cu in eps.items()}
                        lhs = ha.sc.vec_mult({ha.flat(i, j): one}, epsb)
                        rhs: dict = {}
                        for (s, t), d in H.coproduct.of_basis(k):
                            xi = hR[t][j]
                            for z, cz in sc_h.basis_product(i, s):
                                for u, cu in xi.items():
                                    _add(rhs, ha.flat(z, u), d * cu * cz)
                        yield (i, j, k), v1(lhs), v1({k2: c for k2, c in rhs.items()
                                                      if not c.is_zero()})

        rec.family_check("3.eps-second", "counit in the second slot slides the coproduct",
                         eps_second_p())

    def action_axioms():
        unit_h = H.unit_vec()
        for k in range(ha.dim):
            base = {k: one}
            yield (k, "unit"), v1(ha.act_vec(base, unit_h)), v1(base)
            for h1 in range(m):
                step = ha.act_basis(k, h1)
                for h2 in range(m):
                    if ha.variant == "dual_first":
                        # (x <| h1) <| h2 = x <| (h1 h2)
                        lhs = ha.act_vec(step, {h2: one})
                    else:
                        # h1 |> (h2 |> x) = (h1 h2) |> x
                        lhs = ha.act_vec(ha.act_basis(k, h2), {h1: one})
                    rhs = ha.act_vec(base, sc_h.vec_mult({h1: one}, {h2: one}))
                    yield (k, h1, h2), v1(lhs), v1(rhs)

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
    """
    dim = ha.dim
    ncols = dim * dim
    order = ha.order
    zero = CycScalar.zero(order)
    unit2 = ha.unit_tensor(2)

    rows_l = multiplication_rows(ha.sc, x, "right")
    rows_r = multiplication_rows(ha.sc, x, "left")
    rhs = [unit2.entries.get((r // dim, r % dim), zero) for r in range(ncols)]

    def unflatten(sol: dict) -> SparseTensor:
        return SparseTensor(dim, 2, order,
                            {(c // dim, c % dim): v for c, v in sol.items()})

    y = solve_linear(rows_l, rhs, ncols, order)
    z = solve_linear(rows_r, rhs, ncols, order)
    y_ok = not isinstance(y, Inconsistency)
    z_ok = not isinstance(z, Inconsistency)
    right_inv = unflatten(y) if y_ok else None
    left_inv = unflatten(z) if z_ok else None
    if y_ok and z_ok:
        v = solve_linear(rows_l + rows_r, rhs + rhs, ncols, order)
        if not isinstance(v, Inconsistency):
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
