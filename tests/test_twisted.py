"""Groups, cocycles, the twisted algebra family, and its closed forms."""

import pytest

from helpers import cells, product_cocycle, search_coboundary
from qhd.algebra import leg_embed, multiply
from qhd.cli import main, resolve_builtin
from qhd.heisenberg import build_H1, build_H1_dual, canonical_elements, probe_invertibility
from qhd.quasihopf import check_quasi_bialgebra, derive_elements
from qhd.scalar import CycScalar, root_of_unity
from qhd.twisted import (
    FiniteGroup,
    GroupError,
    build_k_omega_G,
    check_cocycle,
    closed_form_elements,
    coboundary_exponents,
    cyclic_cocycle,
    expansion_coefficients,
    expansion_tensor,
    invertibility_criterion,
    klein_cocycle,
    trivial_cocycle,
)


def test_cyclic_groups_pass_axioms():
    for n in range(1, 9):
        g = FiniteGroup.cyclic(n)
        assert g.check_axioms() == []
        assert g.identity == 0
        assert all(g.mul(a, g.inv(a)) == 0 for a in range(n))


def test_bad_tables_rejected():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])  # not a Latin square, 1 lacks an inverse
    g = FiniteGroup.__new__(FiniteGroup)
    g.cayley = ((0, 1), (1, 1))
    g.order = 2
    g.name = "broken"
    problems = g.check_axioms()
    assert problems and "repeats" in problems[0]


def test_short_row_reported_before_columns():
    with pytest.raises(GroupError, match=r"^row 1 is not a permutation of 0\.\.1$"):
        FiniteGroup([[0, 1], [1]])


def test_direct_product_z2_z3_is_z6():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    z6 = FiniteGroup.cyclic(6)
    assert g.check_axioms() == []
    # the map a -> (a mod 2, a mod 3) is an isomorphism; check exhaustively
    phi = {a: (a % 2) * 3 + (a % 3) for a in range(6)}
    assert sorted(phi.values()) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert phi[z6.mul(a, b)] == g.mul(phi[a], phi[b])


def test_check_cocycle_trivial_on_small_groups():
    groups = [FiniteGroup.cyclic(n) for n in range(1, 7)]
    groups.append(FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)))
    for g in groups:
        assert check_cocycle(trivial_cocycle(g)).ok


def test_check_cocycle_against_multiplicative_oracle():
    # re-check the identity multiplicatively with CycScalar values
    for w in (cyclic_cocycle(2, 1), cyclic_cocycle(3, 1), klein_cocycle(2)):
        assert check_cocycle(w).ok
        g = w.group
        n = g.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        lhs = w.omega(a, b, c) * w.omega(a, g.mul(b, c), d) * w.omega(b, c, d)
                        rhs = w.omega(g.mul(a, b), c, d) * w.omega(a, b, g.mul(c, d))
                        assert lhs == rhs


def test_normalization_violation_reported():
    w = trivial_cocycle(FiniteGroup.cyclic(2), root_order=2)
    bad = w.with_exponent(1, 0, 1, 1)  # omega(1, 0, 1) = -1 breaks normalization
    rep = check_cocycle(bad)
    assert not rep.ok
    assert (1, 0, 1) in rep.normalization_violations


def test_cyclic_cocycles_valid_up_to_8():
    for n in range(1, 9):
        for k in range(n):
            assert check_cocycle(cyclic_cocycle(n, k)).ok, (n, k)
    # builtin ids are not checked when built, so levels outside 0..n-1 and
    # the other builtin forms are pinned here
    for example in ("zn:9:-1", "zn:12:20", "zn:5:-7", "zn:1:3", "trivial:6",
                    "v4:0", "v4:1", "v4:2", "v4:3"):
        assert check_cocycle(resolve_builtin(example)).ok, example


def test_cocycle_identity_exponent_arithmetic_z3():
    w = cyclic_cocycle(3, 1)
    e = w.exponent
    lhs = e(1, 1, 1) + e(1, 2, 1) + e(1, 1, 1)
    rhs = e(2, 1, 1) + e(1, 1, 2)
    assert lhs % 3 == 1 and rhs % 3 == 1


def test_product_cocycle_and_klein_tables():
    w = product_cocycle(cyclic_cocycle(2, 1), trivial_cocycle(FiniteGroup.cyclic(2), 2))
    assert check_cocycle(w).ok
    assert w.group.order == 4
    # mixed table: exponent a1 b2 c2
    for tid in range(4):
        assert check_cocycle(klein_cocycle(tid)).ok
    mixed = klein_cocycle(2)
    assert mixed.exponent(2, 1, 1) == 1  # a=(1,0), b=(0,1), c=(0,1)
    assert mixed.exponent(1, 2, 2) == 0


def test_ten_mutated_tables_rejected_with_quadruples():
    tables = []
    for n in range(3, 9):
        w = cyclic_cocycle(n, 1)
        tables.append(w.with_exponent(1, 1, 1, w.exponent(1, 1, 1) + 1))
    for (a, b, c) in ((2, 1, 1), (1, 2, 2), (3, 1, 1), (2, 3, 3)):
        w = klein_cocycle(1)
        tables.append(w.with_exponent(a, b, c, w.exponent(a, b, c) + 1))
    assert len(tables) == 10
    for bad in tables:
        rep = check_cocycle(bad)
        assert not rep.ok
        assert len(rep.cocycle_violations) >= 1
        q, lhs, rhs = rep.cocycle_violations[0]
        assert len(q) == 4 and lhs != rhs


def _check_cocycle_reference(w, max_report=10):
    """check_cocycle as it looked each exponent and product up by method call."""
    from itertools import islice, product

    from qhd.twisted import CocycleReport

    g = w.group
    n = g.order
    N = w.root_order
    e = g.identity
    norm = list(islice((t for t in product(range(n), repeat=3)
                        if e in t and w.exponent(*t) % N != 0), max_report))
    viol = []
    exp = w.exponent
    mul = g.mul
    for a in range(n):
        for b in range(n):
            ab = mul(a, b)
            for c in range(n):
                bc = mul(b, c)
                abc_l = exp(a, b, c)
                for d in range(n):
                    lhs = abc_l + exp(a, bc, d) + exp(b, c, d)
                    rhs = exp(ab, c, d) + exp(a, b, mul(c, d))
                    if (lhs - rhs) % N != 0:
                        viol.append(((a, b, c, d), lhs % N, rhs % N))
                        if len(viol) >= max_report:
                            return CocycleReport(norm, viol)
    return CocycleReport(norm, viol)


def test_check_cocycle_matches_former_scan():
    import os

    from qhd.cli import parse_input

    s3 = parse_input(os.path.join(os.path.dirname(__file__), "data", "s3_sign.qhd"))[1]
    valid = [cyclic_cocycle(5, 2), cyclic_cocycle(8, 1), klein_cocycle(3), s3]
    # one entry changed off and on the identity: cocycle and normalization faults
    cases = valid + [w.with_exponent(*t, w.exponent(*t) + 1)
                     for w in valid for t in ((1, 2, 3), (2, 0, 1))]
    for w in cases:
        for max_report in (1, 4, 10, 10**6):
            assert check_cocycle(w, max_report) == _check_cocycle_reference(w, max_report)
    assert all(check_cocycle(w).ok for w in valid)
    assert all(len(check_cocycle(w, 10**6).cocycle_violations) > 10 for w in cases[len(valid):])


def test_build_k_omega_structure():
    w = cyclic_cocycle(2, 1)
    H = build_k_omega_G(w)
    one = H.one()
    minus = CycScalar.from_rational(2, -1)
    assert H.beta == {0: one, 1: minus}
    assert H.alpha == H.unit_vec()
    assert H.counit == {0: one}
    assert H.associator.entries[(1, 1, 1)] == minus
    assert H.associator_inv.entries[(1, 1, 1)] == minus
    w0 = trivial_cocycle(FiniteGroup.cyclic(3))
    H0 = build_k_omega_G(w0)
    assert H0.beta == H0.unit_vec()
    assert H0.associator == H0.mult.unit_tensor(3)


def _table_file(path, w):
    """w written as a `cocycle table` input file."""
    n = w.group.order
    lines = [f"group cyclic {n}", f"cocycle table {w.root_order}"]
    lines += [f"{a} {b} {c} -> {w.exponent(a, b, c)}"
              for a in range(n) for b in range(n) for c in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_invalid_cocycle_builds_and_fails_its_axioms(tmp_path, capsys):
    # building never checks the cocycle: the axiom checks report a broken
    # identity, and a file holding the table is refused at parse time
    w = cyclic_cocycle(3, 1)
    cases = ((w.with_exponent(1, 1, 1, 2), ["2.3"], "cocycle identity fails at (1, 1, 1, 1)"),
             (w.with_exponent(0, 1, 1, 1), ["2.3", "2.4'"], "normalization fails at (0, 1, 1)"))
    for i, (bad, labels, needle) in enumerate(cases):
        rec = check_quasi_bialgebra(build_k_omega_G(bad))
        assert [it.label for it in rec.items if it.status == "fail"] == labels
        assert main(["--input", _table_file(tmp_path / f"bad{i}.qhd", bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err, err


def _closed_form_double_reference(w):
    """closed_form_double as four nested loops per side, before the one pass
    over G^3: ((dual_table, dual_unit, dual_action), (plain_table, plain_unit,
    plain_action)), each table the (i, j)-keyed input of a StructureConstants."""
    g = w.group
    n = g.order
    N = w.root_order
    one = CycScalar.one(N)
    flat = lambda x, y: x * n + y

    dual_table = {}
    for gg in range(n):
        for a in range(n):
            for h in range(n):
                for b in range(n):
                    if a == g.mul(h, b):
                        coeff = w.omega(gg, h, b)
                        dual_table[(flat(gg, a), flat(h, b))] = (
                            (flat(g.mul(gg, h), b), coeff),
                        )
    dual_unit = {flat(g.identity, b): one for b in range(n)}
    dual_action = {}
    for gg in range(n):
        for a in range(n):
            for b in range(n):
                dual_action[(flat(gg, a), b)] = {flat(gg, a): one} if b == gg else {}

    plain_table = {}
    for a in range(n):
        for gg in range(n):
            for b in range(n):
                for h in range(n):
                    if b == g.mul(a, gg):
                        coeff = w.omega(a, gg, h)
                        plain_table[(flat(a, gg), flat(b, h))] = (
                            (flat(a, g.mul(gg, h)), coeff),
                        )
    plain_unit = {flat(a, g.identity): one for a in range(n)}
    plain_action = {}
    for a in range(n):
        for gg in range(n):
            for b in range(n):
                plain_action[(flat(a, gg), b)] = {flat(a, gg): one} if b == gg else {}
    return (dual_table, dual_unit, dual_action), (plain_table, plain_unit, plain_action)


def test_closed_form_double_matches_four_loop_reference():
    # the S3 sign file is nonabelian, so a swapped factor in a = h b or
    # b = a g (or in either product of the result) changes a key
    import os

    from qhd.cli import parse_input
    from qhd.twisted import closed_form_double

    s3 = parse_input(os.path.join(os.path.dirname(__file__), "data", "s3_sign.qhd"))[1]
    cocycles = [cyclic_cocycle(n, k) for n in range(2, 6) for k in range(n)]
    cocycles += [klein_cocycle(t) for t in range(4)] + [s3]
    for w in cocycles:
        got, want = closed_form_double(w), _closed_form_double_reference(w)
        for (sc, action), (ref_table, ref_unit, ref_action) in zip(got, want):
            assert cells(sc) == ref_table, (w.group.name, w.root_order)
            assert sc.unit == ref_unit
            assert all(action.get(key, {}) == ref_action.get(key, {})
                       for key in set(action) | set(ref_action))


def test_closed_form_elements_collapse_untwisted():
    w = trivial_cocycle(FiniteGroup.cyclic(2))
    cf = closed_form_elements(w)
    H = build_k_omega_G(w)
    one2 = H.mult.unit_tensor(2)
    assert cf.U == one2 and cf.Vtilde == one2
    n = 2
    one = CycScalar.one(1)
    # untwisted corrections are unit tensors of the doubles
    from qhd.twisted import closed_form_double

    (dual_sc, _), (plain_sc, _) = closed_form_double(w)
    assert cf.elements.PhiBoldInv == dual_sc.unit_tensor(3)
    assert cf.elements.PhiBarS == plain_sc.unit_tensor(3)


def test_expansion_formulas_agree_and_match_generic():
    for n in (2, 3, 4):
        w = cyclic_cocycle(n, 1)
        lhs_exp, rhs_exp = expansion_coefficients(w)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert (lhs_exp(a, b, c) - rhs_exp(a, b, c)) % n == 0, (n, a, b, c)
        H = build_k_omega_G(w)
        D = derive_elements(H)
        had = build_H1_dual(H)
        hap = build_H1(H)
        ce = canonical_elements(had, hap, D)
        u = hap.unit
        h12 = leg_embed(ce.What, (1, 2), 3, u)
        h13 = leg_embed(ce.What, (1, 3), 3, u)
        h23 = leg_embed(ce.What, (2, 3), 3, u)
        lhs = multiply(hap.sc, multiply(hap.sc, h12, h13), h23)
        rhs = multiply(hap.sc, multiply(hap.sc, h23, h12), ce.PhiBarS)
        assert lhs == expansion_tensor(w, "lhs"), n
        assert rhs == expansion_tensor(w, "rhs"), n


def test_expansion_untwisted_coefficients_are_one():
    w = trivial_cocycle(FiniteGroup.cyclic(3))
    lhs_exp, rhs_exp = expansion_coefficients(w)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert lhs_exp(a, b, c) % 1 == 0
                assert root_of_unity(w.root_order, lhs_exp(a, b, c)).is_one()
                assert root_of_unity(w.root_order, rhs_exp(a, b, c)).is_one()


def test_mutation_dropped_ratio_factor_detected():
    w = cyclic_cocycle(2, 1)
    g = w.group
    lhs_exp, _ = expansion_coefficients(w)

    def corrupted(a, b, c):
        return lhs_exp(a, b, c) - w.exponent(c, g.inv(a), g.mul(a, g.inv(b)))

    different = any(
        (corrupted(a, b, c) - lhs_exp(a, b, c)) % w.root_order != 0
        for a in range(2) for b in range(2) for c in range(2)
    )
    assert different  # the deleted factor actually matters on this family
    H = build_k_omega_G(w)
    D = derive_elements(H)
    had = build_H1_dual(H)
    hap = build_H1(H)
    ce = canonical_elements(had, hap, D)
    u = hap.unit
    h12 = leg_embed(ce.What, (1, 2), 3, u)
    h13 = leg_embed(ce.What, (1, 3), 3, u)
    h23 = leg_embed(ce.What, (2, 3), 3, u)
    generic = multiply(hap.sc, multiply(hap.sc, h12, h13), h23)
    from qhd.algebra import SparseTensor

    e = g.identity
    flat = lambda x, y: x * 2 + y
    bad = SparseTensor(4, 3, 2, {
        (flat(a, e), flat(b, g.inv(a)), flat(c, g.inv(b))):
            root_of_unity(2, corrupted(a, b, c))
        for a in range(2) for b in range(2) for c in range(2)
    })
    assert generic != bad
    assert generic == expansion_tensor(w, "lhs")


def test_invertibility_criterion_values():
    ok, obstructions = invertibility_criterion(trivial_cocycle(FiniteGroup.cyclic(4)))
    assert ok and obstructions == []
    for n in (2, 3, 4, 5):
        ok, obstructions = invertibility_criterion(cyclic_cocycle(n, 1))
        assert not ok
        a, ex = obstructions[0]
        assert a == 1 and ex == (n - 1) % n  # omega(1, n-1, 1) = zeta^(n-1)


def test_coboundary_machinery():
    g = FiniteGroup.cyclic(2)
    phi2 = [[0, 0], [0, 1]]
    w = coboundary_exponents(g, phi2, 2)
    assert check_cocycle(w).ok  # coboundaries always satisfy the identity
    found = search_coboundary(g, 2)
    assert check_cocycle(found).ok
    ok, _ = invertibility_criterion(found)
    assert ok
    # the probe then finds a verified two-sided inverse
    H = build_k_omega_G(found)
    D = derive_elements(H)
    had = build_H1_dual(H)
    hap = build_H1(H)
    ce = canonical_elements(had, hap, D)
    res = probe_invertibility(had, ce.W)
    assert res.status == "two_sided"
