"""Axiom checking, twist machinery, and the inverse-like elements."""

import dataclasses

import pytest

from qhd.algebra import (
    Coproduct,
    LinearMap,
    SparseTensor,
    apply_leg,
    leg_embed,
    multiply,
    permute_legs,
    split_leg,
    tensor_product,
)
from qhd.quasihopf import (
    AntipodeNotBijectiveError,
    DerivedElementError,
    check_lemma41,
    check_qp_identities,
    check_quasi_antipode,
    check_quasi_bialgebra,
    check_twist_identities,
    compute_qR_pL,
    compute_twist,
    derive_elements,
)
from qhd.report import Recorder
from qhd.scalar import CycScalar, root_of_unity
from qhd.twisted import FiniteGroup, build_k_omega_G, cyclic_cocycle, klein_cocycle, trivial_cocycle


def failing(rec):
    return [i.label for i in rec.items if i.status == "fail"]


def axioms_ok(H):
    rec = Recorder()
    check_quasi_bialgebra(H, rec)
    check_quasi_antipode(H, rec)
    return rec


def test_axioms_pass_untwisted_and_twisted():
    for w in (trivial_cocycle(FiniteGroup.cyclic(2)),
              cyclic_cocycle(3, 1),
              klein_cocycle(2)):
        rec = axioms_ok(build_k_omega_G(w))
        assert rec.ok, failing(rec)


def test_axioms_pass_all_group_orders_up_to_6_untwisted():
    for n in range(1, 7):
        rec = axioms_ok(build_k_omega_G(trivial_cocycle(FiniteGroup.cyclic(n))))
        assert rec.ok, (n, failing(rec))


def test_mutation_truncated_coproduct_breaks_quasi_coassociativity():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    one = H.one()
    bad = Coproduct(2, H.order, {0: (((0, 0), one), ((1, 1), one)),
                                 1: (((0, 1), one),)})
    H_mut = dataclasses.replace(H, coproduct=bad)
    rec = Recorder()
    check_quasi_bialgebra(H_mut, rec)
    labels = failing(rec)
    assert "2.1" in labels
    item = next(i for i in rec.items if i.label == "2.1")
    assert item.discrepancies  # nonzero discrepancy tensor, not just a flag


def test_mutation_trivialized_associator_caught_by_zigzag():
    # the function-algebra coproduct is strictly coassociative, so killing
    # the associator leaves 2.1-2.4 true; the damage surfaces in 2.6
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    H_mut = dataclasses.replace(H, associator=H.mult.unit_tensor(3),
                                associator_inv=H.mult.unit_tensor(3))
    rec = Recorder()
    check_quasi_bialgebra(H_mut, rec)
    assert rec.ok
    rec = Recorder()
    check_quasi_antipode(H_mut, rec)
    assert failing(rec) == ["2.6"]


def test_mutation_trivialized_beta_breaks_zigzag():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    H_mut = dataclasses.replace(H, beta=dict(H.unit_vec()))
    rec = Recorder()
    check_quasi_antipode(H_mut, rec)
    assert "2.6" in failing(rec)


def test_beta_values_on_twisted_two_point_algebra():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    one = H.one()
    assert H.beta == {0: one, 1: CycScalar.from_rational(2, -1)}  # delta_0 - delta_1


def test_twist_hopf_degeneration_is_unit():
    H = build_k_omega_G(trivial_cocycle(FiniteGroup.cyclic(3)))
    gamma, delta, f, g = compute_twist(H)
    one2 = H.mult.unit_tensor(2)
    assert gamma == one2 and delta == one2 and f == one2 and g == one2
    qR, pL = compute_qR_pL(H)
    assert qR == one2 and pL == one2
    D = derive_elements(H)
    assert D.U == one2 and D.Vtilde == one2


def test_twist_inverse_pair_twisted():
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1)):
        H = build_k_omega_G(cyclic_cocycle(n, k))
        gamma, delta, f, g = compute_twist(H)
        one2 = H.mult.unit_tensor(2)
        assert multiply(H.mult, f, g) == one2
        assert multiply(H.mult, g, f) == one2


def test_twist_identities_and_qp_identities():
    for n, k in ((2, 1), (3, 1), (4, 1), (4, 2)):
        H = build_k_omega_G(cyclic_cocycle(n, k))
        D = derive_elements(H)
        rec = Recorder()
        check_twist_identities(H, D, rec)
        check_qp_identities(H, D, rec)
        check_lemma41(H, D, rec)
        assert rec.ok, (n, k, failing(rec))


def test_twist_identities_on_klein_tables():
    for tid in (1, 2, 3):
        H = build_k_omega_G(klein_cocycle(tid))
        D = derive_elements(H)
        rec = Recorder()
        check_twist_identities(H, D, rec)
        check_qp_identities(H, D, rec)
        check_lemma41(H, D, rec)
        assert rec.ok, (tid, failing(rec))


def test_mutation_corrupt_twist_breaks_2_8():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    D = derive_elements(H)
    ent = dict(D.twist.entries)
    del ent[sorted(ent)[0]]
    D_mut = dataclasses.replace(D, twist=SparseTensor(H.dim, 2, H.order, ent))
    rec = Recorder()
    check_twist_identities(H, D_mut, rec)
    assert "2.8" in failing(rec)


def test_mutation_swapped_antipode_inverse_breaks_2_10():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    D = derive_elements(H)
    one = H.one()
    swap = LinearMap(2, H.order, ({1: one}, {0: one}))
    H_mut = dataclasses.replace(H)
    H_mut.antipode_inv = swap.compose(H.antipode)
    rec = Recorder()
    check_qp_identities(H_mut, D, rec)
    assert "2.10" in failing(rec)


def test_compute_twist_raises_on_mismatched_associator_pair():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    H_mut = dataclasses.replace(H, associator_inv=H.mult.unit_tensor(3))
    with pytest.raises(DerivedElementError):
        compute_twist(H_mut)


def test_antipode_must_be_bijective():
    H = build_k_omega_G(cyclic_cocycle(2, 1))
    one = H.one()
    H_mut = dataclasses.replace(H, antipode=LinearMap(2, H.order, ({}, {0: one})))
    with pytest.raises(AntipodeNotBijectiveError):
        H_mut.antipode_inverse()


def test_U_closed_form_coefficient_z3():
    # U(delta_1, delta_1) carries 1/omega(1,1,1) = zeta^-1 = zeta^2
    H = build_k_omega_G(cyclic_cocycle(3, 1))
    D = derive_elements(H)
    assert D.U.entries[(1, 1)] == root_of_unity(3, -1)
    assert root_of_unity(3, -1) == root_of_unity(3, 2)


def test_U_Vtilde_closed_forms_match_generic():
    from qhd.twisted import closed_form_elements

    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
        w = cyclic_cocycle(n, k)
        H = build_k_omega_G(w)
        D = derive_elements(H)
        cf = closed_form_elements(w)
        assert D.U == cf.U, (n, k)
        assert D.Vtilde == cf.Vtilde, (n, k)


def test_antipode_is_involution_on_function_algebras():
    # S(delta_a) = delta_{a^-1} squares to the identity, exposed via inversion
    from qhd.algebra import invert_map

    for n in (2, 3, 4):
        H = build_k_omega_G(cyclic_cocycle(n, 1))
        Sinv = invert_map(H.antipode)
        assert Sinv == H.antipode  # every map with S o S = id inverts to itself
        assert H.antipode.compose(H.antipode) == LinearMap.identity(n, H.order)


class CapturingRecorder(Recorder):
    """Keeps both sides of every tensor check, by label."""

    def __init__(self):
        super().__init__()
        self.sides = {}

    def tensor_check(self, label, name, lhs, rhs, detail=""):
        self.sides[label] = (lhs, rhs)
        return super().tensor_check(label, name, lhs, rhs, detail)


def test_grouped_associator_sums_match_per_entry_sums_on_mutated_input():
    H = build_k_omega_G(cyclic_cocycle(3, 1))
    D = derive_elements(H)
    key = (0, 1, 2)  # distinct legs, so a sum that swaps two legs shows
    phi = SparseTensor(H.dim, 3, H.order, dict(H.associator.entries))
    phi.entries[key] = phi.entries[key] * root_of_unity(H.order, 1)
    H_mut = dataclasses.replace(H, associator=phi)
    rec = CapturingRecorder()
    check_qp_identities(H_mut, D, rec)
    check_lemma41(H_mut, D, rec)
    assert {"2.12", "2.13", "4.4"} <= set(failing(rec))

    # the right-hand sides as one sum per associator entry
    sc, cop, S, Sinv = H.mult, H.coproduct, H.antipode, H_mut.antipode_inverse()
    u = H.unit_vec()
    unit1 = H.vec1(u)
    zero3 = SparseTensor(H.dim, 3, H.order, {})
    f_swap = apply_leg(Sinv, apply_leg(Sinv, permute_legs(D.twist, (1, 0)), 1), 2)
    fp = multiply(sc, leg_embed(f_swap, (2, 3), 3, u), split_leg(cop, D.qR, 2))
    g_swap = apply_leg(Sinv, apply_leg(Sinv, permute_legs(D.twist_inv, (1, 0)), 1), 2)
    pg = multiply(sc, split_leg(cop, D.pL, 1), leg_embed(g_swap, (1, 2), 3, u))
    rhs_212 = rhs_213 = rhs_44 = zero3
    for (i1, i2, i3), c in phi.entries.items():
        front = tensor_product(unit1, H.vec1(Sinv.cols[i3]), H.vec1(Sinv.cols[i2]))
        term = multiply(sc, multiply(sc, front, fp), H_mut.delta_tower(i1, "idd"))
        rhs_212 = rhs_212 + term.scale(c)
        back = tensor_product(H.vec1(Sinv.cols[i2]), H.vec1(Sinv.cols[i1]), unit1)
        term = multiply(sc, multiply(sc, H_mut.delta_tower(i3, "ddi"), pg), back)
        rhs_213 = rhs_213 + term.scale(c)
        a = multiply(sc, cop.of_vec(S.cols[i1]), D.U)
        term = multiply(sc, split_leg(cop, a, 1),
                        tensor_product(H.vec1(H.basis_vec(i2)), H.vec1(H.basis_vec(i3)), unit1))
        rhs_44 = rhs_44 + term.scale(c)
    assert rec.sides["2.12"][1] == rhs_212
    assert rec.sides["2.13"][1] == rhs_213
    assert rec.sides["4.4"][1] == rhs_44
