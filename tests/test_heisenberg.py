"""Double constructions, canonical elements, pentagon/Hopf-type checks,
and the invertibility probe."""

import os
import random
from fractions import Fraction
from types import SimpleNamespace

from qhd.algebra import (
    Coproduct,
    Inconsistency,
    LinearMap,
    SparseTensor,
    StructureConstants,
    _row_reduce,
    convolution,
    harpoon,
    leg_embed,
    multiplication_rows,
    multiply,
    solve_linear,
)
from qhd.cli import _products_equal, parse_input, resolve_builtin
from qhd.heisenberg import (
    InvertibilityResult,
    build_H1,
    build_H1_dual,
    canonical_elements,
    check_double,
    check_parenthesization,
    check_theorem_4_4,
    check_theorem_4_5,
    probe_invertibility,
)
from qhd.quasihopf import QuasiHopfAlgebra, derive_elements
from qhd.report import Recorder
from qhd.scalar import CycScalar, root_of_unity
from qhd.twisted import (
    FiniteGroup,
    build_k_omega_G,
    closed_form_double,
    cyclic_cocycle,
    trivial_cocycle,
)


S3_SIGN = os.path.join(os.path.dirname(__file__), "data", "s3_sign.qhd")


def failing(rec):
    return [i.label for i in rec.items if i.status == "fail"]


def make_all(w):
    H = build_k_omega_G(w)
    D = derive_elements(H)
    had = build_H1_dual(H)
    hap = build_H1(H)
    ce = canonical_elements(had, hap, D)
    return H, D, had, hap, ce


def _pair_index(ha):
    """(a, b) -> a * m + b, the flattened pair basis of the double."""
    return lambda a, b: a * ha.m + b


def basis2(ha, k1, k2):
    return SparseTensor(ha.dim, 2, ha.order, {(k1, k2): CycScalar.one(ha.order)})


def test_unit_law_eps_specializations_actions():
    # the unit/action invariants hold for every construction up to dim 6
    for w in (trivial_cocycle(FiniteGroup.cyclic(2)), cyclic_cocycle(2, 1),
              cyclic_cocycle(3, 1), cyclic_cocycle(4, 3), cyclic_cocycle(6, 1)):
        H, D, had, hap, ce = make_all(w)
        rec = Recorder()
        check_double(had, rec)
        check_double(hap, rec)
        assert rec.ok, failing(rec)


def test_side_data_built_once_per_double(monkeypatch):
    import qhd.heisenberg as heisenberg

    w = cyclic_cocycle(3, 1)
    H = build_k_omega_G(w)
    had, hap = build_H1_dual(H), build_H1(H)
    assert (had.side_data.h_prod, had.side_data.h_act) == \
        (hap.side_data.h_act, hap.side_data.h_prod)

    def never(*args):
        raise AssertionError("a double's side data was built a second time")

    monkeypatch.setattr(heisenberg, "_Side", never)
    monkeypatch.setattr(heisenberg, "harpoon", never)
    canonical_elements(had, hap, derive_elements(H))
    rec = Recorder()
    check_double(had, rec)
    check_double(hap, rec)
    assert rec.ok, failing(rec)


def test_twisted_product_formula_two_points():
    # (g # delta_a)(h # delta_b) = [a = h b] omega(g, h, b) (g h # delta_b)
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    f = _pair_index(had)
    one = CycScalar.one(2)
    # (1 # delta_0)(1 # delta_1) = omega(1,1,1) (0 # delta_1) = -(0 # delta_1)
    got = multiply(had.sc, basis2(had, f(1, 0), f(1, 0)),
                   basis2(had, f(1, 1), f(1, 1)))
    # working in degree-2 tensors: check the single-leg product via the table
    ent = had.sc.basis_product(f(1, 0), f(1, 1))
    assert ent == ((f(0, 1), CycScalar.from_rational(2, -1)),)
    # (1 # delta_1)(1 # delta_1) = 0 since 1 != 1 + 1
    assert had.sc.basis_product(f(1, 1), f(1, 1)) == ()
    assert got.entries == {(f(0, 1), f(0, 1)): one}  # (-1)^2 on both legs


def test_twisted_plain_product_and_action():
    # (delta_a # g)(delta_b # h) = [b = a g] omega(a, g, h) (delta_a # g h)
    w = cyclic_cocycle(3, 1)
    H, D, had, hap, ce = make_all(w)
    f = _pair_index(hap)
    g = w.group
    for a in range(3):
        for gg in range(3):
            for b in range(3):
                for h in range(3):
                    ent = hap.sc.basis_product(f(a, gg), f(b, h))
                    if b == g.mul(a, gg):
                        assert ent == ((f(a, g.mul(gg, h)), w.omega(a, gg, h)),)
                    else:
                        assert ent == ()
    # delta_b acts on delta_a # g by matching the group tag
    for a in range(3):
        for gg in range(3):
            for b in range(3):
                got = hap.action.get((f(a, gg), b), {})
                want = {f(a, gg): CycScalar.one(3)} if b == gg else {}
                assert got == want


def test_hopf_case_double_is_associative():
    w = trivial_cocycle(FiniteGroup.cyclic(2))
    H, D, had, hap, ce = make_all(w)
    assert not had.sc.check_associative()  # 64 basis triples
    assert not hap.sc.check_associative()


def test_twisted_double_is_not_associative():
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    bad = had.sc.check_associative()
    assert bad  # nonassociativity witness exists
    # pin one explicit witness: ((1#d0)(1#d1))(1#d0) vs (1#d0)((1#d1)(1#d0))
    f = _pair_index(had)
    a, b, c = (basis2(had, f(1, 0), f(0, 0)),
               basis2(had, f(1, 1), f(0, 0)),
               basis2(had, f(1, 0), f(0, 0)))
    ok, left, right = check_parenthesization(had, a, b, c)
    # the scalar mismatch is omega(1,1,1) = -1 on the first leg
    assert not ok
    assert left == right.scale(CycScalar.from_rational(2, -1))


def test_closed_form_double_matches_generic():
    for w in (trivial_cocycle(FiniteGroup.cyclic(2)), cyclic_cocycle(2, 1),
              cyclic_cocycle(3, 1), cyclic_cocycle(3, 2)):
        H, D, had, hap, ce = make_all(w)
        for ha, (sc, action) in zip((had, hap), closed_form_double(w)):
            assert ha.sc.table == sc.table
            assert ha.sc.unit == sc.unit
            for key in set(ha.action) | set(action):
                assert ha.action.get(key, {}) == action.get(key, {})


def test_parenthesization_with_unit_always_holds():
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    unit = had.sc.unit_tensor(2)
    for k1 in range(had.dim):
        for k2 in range(had.dim):
            b = basis2(had, k1, k2)
            c = basis2(had, (k1 + 1) % had.dim, (k2 + 3) % had.dim)
            ok, _, _ = check_parenthesization(had, unit, b, c)
            assert ok


def test_canonical_element_support_size():
    # W and Wbar carry exactly one term per basis element of the parent
    for n in (2, 3, 4):
        w = cyclic_cocycle(n, 1)
        H, D, had, hap, ce = make_all(w)
        # counit is a single dual-basis vector here, unit has n terms
        assert len(ce.W.entries) == n * n
        distinct_mid = {(k1 // n, k1 % n, k2 // n) for (k1, k2) in ce.W.entries}
        assert len(distinct_mid) == n  # one block per basis index


def test_proof_line_expansion_of_first_two_factors():
    # W12 W13 collapses to sum_{i,j} eps # e_i e_j (x) e^i # 1 (x) e^j # 1
    w = cyclic_cocycle(3, 1)
    H, D, had, hap, ce = make_all(w)
    u = had.unit
    w12 = leg_embed(ce.W, (1, 2), 3, u)
    w13 = leg_embed(ce.W, (1, 3), 3, u)
    got = multiply(had.sc, w12, w13)
    m = H.dim
    f = _pair_index(had)
    entries = {}
    for i in range(m):
        for j in range(m):
            prod = H.mult.basis_product(i, j)
            for z, cz in prod:
                for uu, cu in H.counit.items():
                    for z1, c1 in H.unit_vec().items():
                        for z2, c2 in H.unit_vec().items():
                            key = (f(uu, z), f(i, z1), f(j, z2))
                            prev = entries.get(key)
                            val = cz * cu * c1 * c2
                            entries[key] = val if prev is None else prev + val
    want = SparseTensor(had.dim, 3, had.order, entries)
    assert got == want


def test_theorems_small_orders():
    for n, k in ((2, 0), (2, 1), (3, 1), (3, 2)):
        w = cyclic_cocycle(n, k)
        H, D, had, hap, ce = make_all(w)
        rec = Recorder()
        check_theorem_4_4(ce, had, rec)
        check_theorem_4_5(ce, hap, rec)
        assert rec.ok, (n, k, failing(rec))


def test_hopf_case_pentagon_without_correction():
    w = trivial_cocycle(FiniteGroup.cyclic(3))
    H, D, had, hap, ce = make_all(w)
    u = had.unit
    w12 = leg_embed(ce.W, (1, 2), 3, u)
    w13 = leg_embed(ce.W, (1, 3), 3, u)
    w23 = leg_embed(ce.W, (2, 3), 3, u)
    lhs = multiply(had.sc, multiply(had.sc, w12, w13), w23)
    assert lhs == multiply(had.sc, w23, w12)
    assert ce.PhiBoldInv == had.sc.unit_tensor(3)


def test_mutation_dropping_correction_breaks_4_6():
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    u = had.unit
    w12 = leg_embed(ce.W, (1, 2), 3, u)
    w13 = leg_embed(ce.W, (1, 3), 3, u)
    w23 = leg_embed(ce.W, (2, 3), 3, u)
    lhs = multiply(had.sc, multiply(had.sc, w12, w13), w23)
    rhs_uncorrected = multiply(had.sc, w23, w12)
    assert lhs != rhs_uncorrected


def test_What_coefficient_two_points():
    # at a = b = 1 the ratio collapses to -1
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    f = _pair_index(hap)
    assert ce.What.entries[(f(1, 0), f(1, 1))] == CycScalar.from_rational(2, -1)


def test_Wtilde_closed_form_three_points():
    w = cyclic_cocycle(3, 1)
    H, D, had, hap, ce = make_all(w)
    g = w.group
    f = _pair_index(had)
    for a in range(3):
        for b in range(3):
            want = root_of_unity(3, -w.exponent(g.mul(g.inv(b), a), g.inv(a), b))
            assert ce.Wtilde.entries[(f(0, a), f(g.inv(a), b))] == want


def test_probe_unit_and_hopf_case():
    w = trivial_cocycle(FiniteGroup.cyclic(2))
    H, D, had, hap, ce = make_all(w)
    unit2 = had.sc.unit_tensor(2)
    res = probe_invertibility(had, unit2)
    assert res.status == "two_sided" and res.two_sided == unit2
    res = probe_invertibility(had, ce.W)
    assert res.status == "two_sided"
    assert res.two_sided == ce.Wtilde  # the quasi-inverse is the genuine inverse
    assert res.right_inverse == ce.Wtilde  # solving x Y = unit alone finds it
    res = probe_invertibility(hap, ce.Wbar)
    assert res.status == "two_sided"
    assert res.two_sided == ce.What


def test_probe_certifies_twisted_noninvertibility():
    for n in (2, 3):
        w = cyclic_cocycle(n, 1)
        H, D, had, hap, ce = make_all(w)
        unit2 = had.sc.unit_tensor(2)
        res = probe_invertibility(had, ce.W)
        assert res.status != "two_sided"
        assert res.two_sided is None
        # one-sided solutions exist but disagree somewhere
        assert res.right_inverse is not None and res.left_inverse is not None
        assert res.right_inverse != res.left_inverse
        assert multiply(had.sc, ce.W, res.right_inverse) == unit2
        assert multiply(had.sc, res.left_inverse, ce.W) == unit2
        res = probe_invertibility(hap, ce.Wbar)
        assert res.status != "two_sided"


def test_probe_zero_element_has_no_inverses():
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    zero = SparseTensor(had.dim, 2, had.order, {})
    res = probe_invertibility(had, zero)
    assert res.status == "none"


# -- the probe against the one that solved the stacked system from scratch ------


def _probe_reference(ha, x):
    """Exact solve of x*Y = unit and Z*x = unit over the pair-tensor space.

    A two-sided verdict requires one element solving both systems at once
    (the stacked system); with unique one-sided solutions this is exactly
    the Y = Z test.  Any returned inverse is re-verified by multiplication.
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


def _a_b_algebra():
    """Basis 1, a, b with a b = b a = 1 and a a = b b = 0: unital and not
    associative ((a a) b = 0, a (a b) = a).  Unlike on the doubles, a
    right-invertible x can have a left system with a kernel here."""
    one = CycScalar.one(1)
    table = {(0, j): ((j, one),) for j in range(3)}
    table.update({(i, 0): ((i, one),) for i in range(1, 3)})
    table[(1, 2)] = table[(2, 1)] = ((0, one),)
    return SimpleNamespace(dim=3, order=1, sc=StructureConstants(3, 1, table, {0: one}))


def test_probe_matches_stacked_from_scratch_reference():
    s3 = parse_input(S3_SIGN)[1]
    statuses = set()
    cases = []
    for w in (cyclic_cocycle(2, 1), cyclic_cocycle(3, 1), trivial_cocycle(FiniteGroup.cyclic(3)),
              s3):
        _, _, had, hap, ce = make_all(w)
        for ha, x in ((had, ce.W), (hap, ce.Wbar)):
            cases += [(ha, x), (ha, ha.sc.unit_tensor(2)),
                      (ha, SparseTensor(ha.dim, 2, ha.order, {}))]
    # x = -(b (x) 1) - a (x) a: consistent left system whose reduced rows are
    # not unit vectors
    ab = _a_b_algebra()
    minus = CycScalar.from_rational(1, -1)
    x = SparseTensor(3, 2, 1, {(2, 0): minus, (1, 1): minus})
    zero = [CycScalar.zero(1)] * 9
    reduced, _, pivots = _row_reduce(multiplication_rows(ab.sc, x, "right"), zero, 9, 1)
    assert len(pivots) < 9 and any(len(reduced[r]) > 1 for r in pivots.values())
    cases.append((ab, x))
    for ha, x in cases:
        got = probe_invertibility(ha, x)
        assert got == _probe_reference(ha, x), (ha.dim, got.status)
        statuses.add(got.status)
    assert probe_invertibility(ab, x).status == "two_sided"
    assert {"two_sided", "one_sided_both", "none"} <= statuses


def test_probe_skips_the_stacked_solve_only_at_full_rank(monkeypatch):
    # on these inputs, the probe workload's among them, every left system has
    # full rank, so y is tested against the right system and the stacked
    # system is not solved; the results stay those of the stacked solve, and
    # the rank-deficient left system of the a, b algebra still solves it
    import qhd.heisenberg as heisenberg

    solves = []
    real = heisenberg.solve_linear
    monkeypatch.setattr(heisenberg, "solve_linear",
                        lambda rows, *args: solves.append(len(rows)) or real(rows, *args))
    cases = []
    for example in ("zn:3:1", "zn:4:1", "zn:7:1", "trivial:6"):
        _, _, had, hap, ce = make_all(resolve_builtin(example))
        cases += [(had, ce.W, 1), (hap, ce.Wbar, 1)]
    minus = CycScalar.from_rational(1, -1)
    cases.append((_a_b_algebra(), SparseTensor(3, 2, 1, {(2, 0): minus, (1, 1): minus}), 2))
    statuses = []
    for ha, x, nsolves in cases:
        solves.clear()
        got = probe_invertibility(ha, x)
        assert len(solves) == nsolves, (ha.dim, solves)
        assert got == _probe_reference(ha, x), (ha.dim, got.status)
        statuses.append(got.status)
    assert statuses == ["one_sided_both"] * 6 + ["two_sided"] * 3, statuses


def test_build_double_convolves_each_pair_once(monkeypatch):
    import qhd.heisenberg as heisenberg

    seen = []
    real = heisenberg.convolution

    def counted(cop, xi, nu):
        seen.append((frozenset(xi.items()), frozenset(nu.items())))
        return real(cop, xi, nu)

    monkeypatch.setattr(heisenberg, "convolution", counted)
    for w in (cyclic_cocycle(3, 1), parse_input(S3_SIGN)[1]):
        H = build_k_omega_G(w)
        for build in (build_H1_dual, build_H1):
            seen.clear()
            build(H)
            assert seen and len(seen) == len(set(seen)), (w.group.order, build.__name__)


# -- probe rows against the per-basis products they replaced --------------------


def _rows_by_basis_products(sc, x, side):
    """Rows of Y -> x*Y ("right") or Y -> Y*x ("left"), one multiply per basis tensor."""
    dim = sc.dim
    one = CycScalar.one(sc.order)
    rows = [dict() for _ in range(dim * dim)]
    for c1 in range(dim):
        for c2 in range(dim):
            col = c1 * dim + c2
            basis = SparseTensor(dim, 2, sc.order, {(c1, c2): one})
            prod = multiply(sc, x, basis) if side == "right" else multiply(sc, basis, x)
            for key, cc in prod.entries.items():
                rows[key[0] * dim + key[1]][col] = cc
    return rows


def test_multiplication_rows_match_per_basis_products():
    rng = random.Random(5)
    _, _, had, hap, ce = make_all(cyclic_cocycle(3, 1))
    s3 = make_all(parse_input(S3_SIGN)[1])
    cases = [(had.sc, ce.W), (hap.sc, ce.Wbar), (s3[2].sc, s3[4].W), (s3[3].sc, s3[4].Wbar)]
    # products with several terms, so contributions to one row entry can cancel
    one, minus = CycScalar.one(1), CycScalar.from_rational(1, -1)
    dense = StructureConstants(3, 1, {
        (i, j): tuple((k, rng.choice((one, minus))) for k in range(3) if rng.random() < 0.6)
        for i in range(3) for j in range(3)}, {0: one})
    for sc in (had.sc, hap.sc, dense):
        signs = (CycScalar.one(sc.order), CycScalar.from_rational(sc.order, -1))
        keys = [(rng.randrange(sc.dim), rng.randrange(sc.dim)) for _ in range(30)]
        cases.append((sc, SparseTensor(sc.dim, 2, sc.order, {
            k: root_of_unity(sc.order, rng.randrange(sc.order)) * rng.choice(signs)
            for k in keys})))
    # ones given by value, not as the interned CycScalar.one, in the table
    # and in x
    plain_rng = random.Random(8111)
    coeffs = (root_of_unity(3, 0), CycScalar(3, (Fraction(1), 0)), root_of_unity(3, 1),
              CycScalar.from_rational(3, -1))
    plain = StructureConstants(3, 3, {
        (i, j): tuple((k, plain_rng.choice(coeffs)) for k in range(3) if plain_rng.random() < 0.6)
        for i in range(3) for j in range(3)}, {0: CycScalar.one(3)})
    table_coeffs = [c for ent in plain.table.values() for _, c in ent]
    assert any(c is CycScalar.one(3) for c in table_coeffs)
    assert all(c is CycScalar.one(3) for c in table_coeffs if c.is_one())
    cases.append((plain, SparseTensor(3, 2, 3, {
        (plain_rng.randrange(3), plain_rng.randrange(3)): plain_rng.choice(coeffs)
        for _ in range(8)})))
    for sc, x in cases:
        for side in ("right", "left"):
            assert multiplication_rows(sc, x, side) == _rows_by_basis_products(sc, x, side)


# -- the side-parameterized builder against the two builders it replaced --------


def _ref_harpoon_tables(H):
    one = CycScalar.one(H.order)
    m = H.dim
    left = [[harpoon(H.mult, {p: one}, {i: one}, "left") for i in range(m)]
            for p in range(m)]
    right = [[harpoon(H.mult, {p: one}, {i: one}, "right") for i in range(m)]
             for p in range(m)]
    return left, right


def _ref_build_H1_dual(H):
    """The former dual-side builder; returns (structure constants, action)."""
    m = H.dim
    one = CycScalar.one(H.order)
    sc_h, cop = H.mult, H.coproduct
    hL, hR = _ref_harpoon_tables(H)
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
    return sc, action


def _ref_build_H1(H):
    """The former plain-side builder; returns (structure constants, action)."""
    m = H.dim
    sc_h, cop = H.mult, H.coproduct
    hL, hR = _ref_harpoon_tables(H)
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
    return sc, action


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


def test_side_builder_matches_former_builders_on_noncommutative_H():
    # every kωG has a commutative product, so only kS3 sees the plain side's
    # reversal of the two factors of each H-product
    s3 = parse_input(S3_SIGN)
    kS3 = group_algebra(s3[0])
    for H in (kS3, build_k_omega_G(cyclic_cocycle(3, 1)), build_k_omega_G(s3[1])):
        for build, ref in ((build_H1_dual, _ref_build_H1_dual), (build_H1, _ref_build_H1)):
            ha = build(H)
            sc, action = ref(H)
            assert _products_equal(ha.sc, sc), build.__name__
            assert ha.action == action, build.__name__
    for build in (build_H1_dual, build_H1):
        ha = build(kS3)
        assert len(ha.sc.table) == 216
        rec = check_double(ha)
        assert rec.ok and len(rec.items) == 4, failing(rec)


def _check_double_reference(ha, rec=None):
    """check_double as it compared one one-entry pair per basis triple, with
    the former HeisenbergAlgebra.act_vec; the grouped check must record the
    same items."""
    from itertools import product

    from qhd.algebra import vec_tensor
    from qhd.heisenberg import _EPS_CHECKS, _add

    def act_vec(v, h_vec):
        out: dict = {}
        for k, ck in v.items():
            for h, ch in h_vec.items():
                for z, cz in ha.action.get((k, h), {}).items():
                    c = ck * ch * cz
                    prev = out.get(z)
                    out[z] = c if prev is None else prev + c
        return {k: c for k, c in out.items() if not c.is_zero()}

    rec = rec or Recorder()
    side = ha.side
    rec.bool_check(f"3.unit-{side}", f"two-sided unit law in the {side}-side double",
                   not ha.sc.check_unit())

    H = ha.parent
    m = H.dim
    one = CycScalar.one(H.order)
    sd = ha.side_data
    rev, index = sd.rev, sd.index

    def v1(v):
        return vec_tensor(ha.dim, ha.order, v)

    def eps_at(a):
        return {index[u][a]: cu for u, cu in H.counit.items()}

    def multiplies():
        # dual: (xi # a)(eps # b) = xi # ab; plain: (b # eps)(a # xi) = ba # xi
        for idx in product(range(m), repeat=3):
            xi, a, b = rev(idx)
            lhs = ha.sc.vec_mult(*rev(({index[xi][a]: one}, eps_at(b))))
            rhs = {index[xi][z]: cz for z, cz in sd.prod[a][b]}
            yield idx, v1(lhs), v1(rhs)

    def acts():
        # dual: (eps # a)(xi # b) = (a_1 -> xi) # a_2 b;
        # plain: (b # xi)(a # eps) = b a_1 # (xi <- a_2)
        for idx in product(range(m), repeat=3):
            a, xi, b = rev(idx)
            lhs = ha.sc.vec_mult(*rev((eps_at(a), {index[xi][b]: one})))
            rhs: dict = {}
            for (s, t), d in sd.cop[a]:
                for z, cz in sd.prod[t][b]:
                    for u, cu in sd.h_prod[s][xi].items():
                        _add(rhs, index[u][z], d * cu * cz)
            yield idx, v1(lhs), v1(rhs)

    (mult_label, mult_name), (act_label, act_name) = _EPS_CHECKS[side]
    rec.family_check(mult_label, mult_name, multiplies())
    rec.family_check(act_label, act_name, acts())

    def action_axioms():
        unit_h = H.unit_vec()
        products = {(h1, h2): H.mult.vec_mult({h1: one}, {h2: one})
                    for h1 in range(m) for h2 in range(m)}
        for k in range(ha.dim):
            base = {k: one}
            yield (k, "unit"), v1(act_vec(base, unit_h)), v1(base)
            for h1 in range(m):
                for h2 in range(m):
                    # dual: (x <| h1) <| h2 = x <| (h1 h2);
                    # plain: h1 |> (h2 |> x) = (h1 h2) |> x
                    first, second = rev((h1, h2))
                    lhs = act_vec(ha.action.get((k, first), {}), {second: one})
                    rhs = act_vec(base, products[h1, h2])
                    yield (k, h1, h2), v1(lhs), v1(rhs)

    rec.family_check(f"3.action-{side}", f"module axioms of the {side}-side action",
                     action_axioms())
    return rec


def _mutants(ha):
    """(name, double) for copies of ha with one defect each: a zeta-scaled
    table cell that the counit-slot checks read, a zeta-scaled action entry,
    a dropped cell, and every cell or every action entry zeta-scaled, which
    differ at more than MAX_DISCREPANCIES indices."""
    from qhd.heisenberg import HeisenbergAlgebra

    zeta = root_of_unity(ha.order, 1)
    sd = ha.side_data
    u0 = next(iter(ha.parent.counit))
    cell = next(c for c in (sd.rev((sd.index[xi][0], sd.index[u0][0]))
                            for xi in range(ha.m)) if c in ha.sc.table)
    entry = next(key for key in sorted(ha.action) if ha.action[key])

    def scaled(v):
        return {k: zeta * c for k, c in v.items()}

    def double(table=None, action=None):
        sc = StructureConstants(ha.dim, ha.order, table or ha.sc.table, ha.sc.unit)
        return HeisenbergAlgebra(ha.side, ha.parent, ha.m, sc, action or ha.action, sd)

    cell_scaled = dict(ha.sc.table)
    cell_scaled[cell] = tuple((k, zeta * c) for k, c in cell_scaled[cell])
    dropped = {c: v for c, v in ha.sc.table.items() if c != cell}
    return (("cell", double(table=cell_scaled)),
            ("action", double(action={**ha.action, entry: scaled(ha.action[entry])})),
            ("dropped", double(table=dropped)),
            ("all-cells", double(table={c: tuple((k, zeta * v) for k, v in ent)
                                        for c, ent in ha.sc.table.items()})),
            ("all-actions", double(action={k: scaled(v) for k, v in ha.action.items()})))


def test_check_double_matches_per_triple_reference():
    from dataclasses import asdict

    from qhd.report import MAX_DISCREPANCIES

    s3 = parse_input(S3_SIGN)
    doubles = []
    for H in (build_k_omega_G(cyclic_cocycle(3, 1)), build_k_omega_G(s3[1]),
              group_algebra(s3[0])):
        doubles += [("", build_H1_dual(H)), ("", build_H1(H))]
    for name, ha in doubles[:4]:
        doubles += _mutants(ha)
    cut = False
    for name, ha in doubles:
        got = check_double(ha, Recorder(float_check=True))
        want = _check_double_reference(ha, Recorder(float_check=True))
        assert [asdict(i) for i in got.items] == [asdict(i) for i in want.items], \
            (name, ha.side)
        assert want.ok == (name == ""), (name, ha.side)
        cut |= any(len(i.discrepancies) == MAX_DISCREPANCIES for i in want.items)
    assert cut
