"""Double constructions, canonical elements, pentagon/Hopf-type checks,
and the invertibility probe."""

import os
import random

from qhd.algebra import (
    SparseTensor,
    StructureConstants,
    leg_embed,
    multiplication_rows,
    multiply,
)
from qhd.cli import parse_input
from qhd.heisenberg import (
    build_H1,
    build_H1_dual,
    canonical_elements,
    check_double,
    check_parenthesization,
    check_theorem_4_4,
    check_theorem_4_5,
    probe_invertibility,
)
from qhd.quasihopf import derive_elements
from qhd.report import Recorder
from qhd.scalar import CycScalar, root_of_unity
from qhd.twisted import (
    FiniteGroup,
    build_k_omega_G,
    closed_form_double,
    cyclic_cocycle,
    trivial_cocycle,
)


def failing(rec):
    return [i.label for i in rec.items if i.status == "fail"]


def make_all(w):
    H = build_k_omega_G(w)
    D = derive_elements(H)
    had = build_H1_dual(H)
    hap = build_H1(H)
    ce = canonical_elements(had, hap, D)
    return H, D, had, hap, ce


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


def test_twisted_product_formula_two_points():
    # (g # delta_a)(h # delta_b) = [a = h b] omega(g, h, b) (g h # delta_b)
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    f = had.flat
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
    f = hap.flat
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
                got = hap.act_basis(f(a, gg), b)
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
    f = had.flat
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
        cfd, cfp = closed_form_double(w)
        assert had.sc.table == cfd.sc.table
        assert had.sc.unit == cfd.sc.unit
        assert hap.sc.table == cfp.sc.table
        assert hap.sc.unit == cfp.sc.unit
        for key in set(had.action) | set(cfd.action):
            assert had.action.get(key, {}) == cfd.action.get(key, {})
        for key in set(hap.action) | set(cfp.action):
            assert hap.action.get(key, {}) == cfp.action.get(key, {})


def test_parenthesization_with_unit_always_holds():
    w = cyclic_cocycle(2, 1)
    H, D, had, hap, ce = make_all(w)
    unit = had.unit_tensor(2)
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
    f = had.flat
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
    assert ce.PhiBoldInv == had.unit_tensor(3)


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
    f = hap.flat
    assert ce.What.entries[(f(1, 0), f(1, 1))] == CycScalar.from_rational(2, -1)


def test_Wtilde_closed_form_three_points():
    w = cyclic_cocycle(3, 1)
    H, D, had, hap, ce = make_all(w)
    g = w.group
    f = had.flat
    for a in range(3):
        for b in range(3):
            want = root_of_unity(3, -w.exponent(g.mul(g.inv(b), a), g.inv(a), b))
            assert ce.Wtilde.entries[(f(0, a), f(g.inv(a), b))] == want


def test_probe_unit_and_hopf_case():
    w = trivial_cocycle(FiniteGroup.cyclic(2))
    H, D, had, hap, ce = make_all(w)
    unit2 = had.unit_tensor(2)
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
        unit2 = had.unit_tensor(2)
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


# -- probe rows against the per-basis products they replaced --------------------

S3_SIGN = os.path.join(os.path.dirname(__file__), "data", "s3_sign.qhd")


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
    for sc, x in cases:
        for side in ("right", "left"):
            assert multiplication_rows(sc, x, side) == _rows_by_basis_products(sc, x, side)
