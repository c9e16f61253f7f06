"""Acceptance suite: every criterion at its stated (exact) tolerance.

All equality checks are exact; there are no numeric tolerances anywhere in
the pass/fail logic.  Each criterion prints one line; run with -s to see
them stream.
"""

import dataclasses
import time

from helpers import search_coboundary
from qhd.algebra import SparseTensor, leg_embed, multiply
from qhd.cli import RunSpec, run
from qhd.heisenberg import (
    build_H1,
    build_H1_dual,
    canonical_elements,
    probe_invertibility,
)
from qhd.quasihopf import check_quasi_antipode, derive_elements
from qhd.report import Recorder
from qhd.scalar import root_of_unity
from qhd.twisted import (
    FiniteGroup,
    build_k_omega_G,
    check_cocycle,
    cyclic_cocycle,
    expansion_coefficients,
    expansion_tensor,
    invertibility_criterion,
    klein_cocycle,
    trivial_cocycle,
)

FAMILY = [f"trivial:{n}" for n in range(1, 7)] + [
    f"zn:{n}:{k}" for n in range(1, 7) for k in range(n)
]


def run_suite(source, suite, budget_s):
    t0 = time.perf_counter()
    rep = run(RunSpec(source=source, suites=(suite,)))
    elapsed = time.perf_counter() - t0
    total, passed, failed, skipped = rep.counts()
    bad = [
        (name, i.label, i.discrepancies[:3])
        for name, rec in rep.suites
        for i in rec.items
        if i.status == "fail"
    ]
    assert failed == 0, f"{source} {suite}: failing checks {bad}"
    assert skipped == 0, f"{source} {suite}: unexpected skips"
    assert elapsed < budget_s, f"{source} {suite}: {elapsed:.2f}s over {budget_s}s budget"
    return elapsed


def test_criterion_1_axiom_suite():
    worst = 0.0
    for source in FAMILY:
        worst = max(worst, run_suite(source, "axioms", 5.0))
    print(f"\ncriterion 1: PASS - axiom identities exact on {len(FAMILY)} examples "
          f"(worst {worst:.2f}s < 5s)")


def test_criterion_2_twist_suite():
    worst = 0.0
    for source in FAMILY:
        worst = max(worst, run_suite(source, "twist", 10.0))
    print(f"\ncriterion 2: PASS - twist identities exact on {len(FAMILY)} examples "
          f"(worst {worst:.2f}s < 10s)")


def test_criterion_3_lemma_suite():
    worst = 0.0
    for source in FAMILY:
        worst = max(worst, run_suite(source, "lemma41", 10.0))
    print(f"\ncriterion 3: PASS - inverse-like element identities and closed forms "
          f"on {len(FAMILY)} examples (worst {worst:.2f}s < 10s)")


def test_criterion_4_theorem_suite():
    worst = 0.0
    for n in (2, 3, 4):
        for k in range(n):
            worst = max(worst, run_suite(f"zn:{n}:{k}", "theorems", 60.0))
    print(f"\ncriterion 4: PASS - quasi-pentagon/quasi-Hopf equations with "
          f"parenthesization gates, n in {{2,3,4}} (worst {worst:.2f}s < 60s)")


def test_criterion_5_hopf_degeneration():
    for n in (2, 3):
        rep = run(RunSpec(source=f"trivial:{n}", suites=("theorems",)))
        items = {i.label: i.status for _, rec in rep.suites for i in rec.items}
        for label in ("hopf.pentagon", "hopf.Wtilde-inverse", "hopf.Wtilde-inverse'",
                      "hopf.What-inverse", "hopf.What-inverse'",
                      "hopf.corrections-dual-1", "hopf.corrections-dual-2",
                      "hopf.corrections-plain-1", "hopf.corrections-plain-2"):
            assert items.get(label) == "pass", (n, label, items.get(label))
        # and the probe returns the quasi-inverses as genuine two-sided inverses
        w = trivial_cocycle(FiniteGroup.cyclic(n))
        H = build_k_omega_G(w)
        D = derive_elements(H)
        had, hap = build_H1_dual(H), build_H1(H)
        ce = canonical_elements(had, hap, D)
        res = probe_invertibility(had, ce.W)
        assert res.status == "two_sided" and res.two_sided == ce.Wtilde
        res = probe_invertibility(hap, ce.Wbar)
        assert res.status == "two_sided" and res.two_sided == ce.What
    print("\ncriterion 5: PASS - untwisted degeneration: plain pentagon, genuine "
          "inverses, unit correction tensors")


def test_criterion_6_expansion_identity():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        t0 = time.perf_counter()
        w = cyclic_cocycle(n, 1)
        lhs_exp, rhs_exp = expansion_coefficients(w)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert (lhs_exp(a, b, c) - rhs_exp(a, b, c)) % n == 0, (n, a, b, c)
        H = build_k_omega_G(w)
        D = derive_elements(H)
        hap = build_H1(H)
        had = build_H1_dual(H)
        ce = canonical_elements(had, hap, D)
        u = hap.unit
        h12 = leg_embed(ce.What, (1, 2), 3, u)
        h13 = leg_embed(ce.What, (1, 3), 3, u)
        h23 = leg_embed(ce.What, (2, 3), 3, u)
        lhs = multiply(hap.sc, multiply(hap.sc, h12, h13), h23)
        rhs = multiply(hap.sc, multiply(hap.sc, h23, h12), ce.PhiBarS)
        assert lhs == expansion_tensor(w, "lhs"), n
        assert rhs == expansion_tensor(w, "rhs"), n
        assert lhs == rhs, n
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"n={n}: {elapsed:.2f}s over 5s budget"
        worst = max(worst, elapsed)
    print(f"\ncriterion 6: PASS - the two displayed coefficient formulas agree and "
          f"match the generic tensors for n in 2..6 (worst {worst:.2f}s < 5s)")


def test_criterion_7_invertibility_remark():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        w = cyclic_cocycle(n, 1)
        holds, obstructions = invertibility_criterion(w)
        assert not holds
        a, ex = obstructions[0]
        assert (a, ex) == (1, n - 1)  # omega(1, n-1, 1) = zeta_n^(n-1)
        assert w.exponent(1, (n - 1) % n, 1) % n == (n - 1) % n
        assert not root_of_unity(n, n - 1).is_one()
        H = build_k_omega_G(w)
        D = derive_elements(H)
        had, hap = build_H1_dual(H), build_H1(H)
        ce = canonical_elements(had, hap, D)
        assert probe_invertibility(had, ce.W).status != "two_sided", n
        assert probe_invertibility(hap, ce.Wbar).status != "two_sided", n

    for w in (trivial_cocycle(FiniteGroup.cyclic(2)), search_coboundary(FiniteGroup.cyclic(2), 2)):
        holds, _ = invertibility_criterion(w)
        assert holds
        H = build_k_omega_G(w)
        D = derive_elements(H)
        had, hap = build_H1_dual(H), build_H1(H)
        ce = canonical_elements(had, hap, D)
        unit2 = had.sc.unit_tensor(2)
        res = probe_invertibility(had, ce.W)
        assert res.status == "two_sided"
        assert multiply(had.sc, ce.W, res.two_sided) == unit2
        assert multiply(had.sc, res.two_sided, ce.W) == unit2
        res = probe_invertibility(hap, ce.Wbar)
        assert res.status == "two_sided"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.2f}s over 10s budget"
    print(f"\ncriterion 7: PASS - probes certify no two-sided inverse exactly when "
          f"the diagonal obstruction is nontrivial ({elapsed:.2f}s < 10s)")


def test_criterion_8_mutation_sensitivity():
    w = cyclic_cocycle(2, 1)
    H = build_k_omega_G(w)
    D = derive_elements(H)
    had, hap = build_H1_dual(H), build_H1(H)
    ce = canonical_elements(had, hap, D)

    # dropping the correction tensor from the quasi-pentagon
    u = had.unit
    w12 = leg_embed(ce.W, (1, 2), 3, u)
    w13 = leg_embed(ce.W, (1, 3), 3, u)
    w23 = leg_embed(ce.W, (2, 3), 3, u)
    lhs = multiply(had.sc, multiply(had.sc, w12, w13), w23)
    rhs_uncorrected = multiply(had.sc, w23, w12)
    diff = lhs - rhs_uncorrected
    assert not diff.is_zero()

    # trivializing beta
    H_mut = dataclasses.replace(H, beta=dict(H.unit_vec()))
    rec = Recorder()
    check_quasi_antipode(H_mut, rec)
    item = next(i for i in rec.items if i.label == "2.6")
    assert item.status == "fail" and item.discrepancies

    # corrupting one ratio factor in the expansion coefficient
    g = w.group
    lhs_exp, _ = expansion_coefficients(w)

    def corrupted(a, b, c):
        return lhs_exp(a, b, c) - w.exponent(c, g.inv(a), g.mul(a, g.inv(b)))

    e = g.identity
    flat = lambda x, y: x * 2 + y
    bad = SparseTensor(4, 3, 2, {
        (flat(a, e), flat(b, g.inv(a)), flat(c, g.inv(b))):
            root_of_unity(2, corrupted(a, b, c))
        for a in range(2) for b in range(2) for c in range(2)
    })
    h12 = leg_embed(ce.What, (1, 2), 3, hap.unit)
    h13 = leg_embed(ce.What, (1, 3), 3, hap.unit)
    h23 = leg_embed(ce.What, (2, 3), 3, hap.unit)
    generic = multiply(hap.sc, multiply(hap.sc, h12, h13), h23)
    assert not (generic - bad).is_zero()
    assert generic == expansion_tensor(w, "lhs")
    print("\ncriterion 8: PASS - all three mutations produce nonzero discrepancies")


def test_criterion_9_cocycle_gate():
    for n in range(1, 9):
        for k in range(n):
            assert check_cocycle(cyclic_cocycle(n, k)).ok, (n, k)
    mutated = []
    for n in range(3, 9):
        w = cyclic_cocycle(n, 1)
        mutated.append(w.with_exponent(1, 1, 1, w.exponent(1, 1, 1) + 1))
    for (a, b, c) in ((2, 1, 1), (1, 2, 2), (3, 1, 1), (2, 3, 3)):
        w = klein_cocycle(1)
        mutated.append(w.with_exponent(a, b, c, w.exponent(a, b, c) + 1))
    assert len(mutated) == 10
    for bad in mutated:
        rep = check_cocycle(bad)
        assert not rep.ok
        assert len(rep.cocycle_violations) >= 1
        quad, lhs, rhs = rep.cocycle_violations[0]
        assert len(quad) == 4 and lhs != rhs
    print("\ncriterion 9: PASS - all cyclic tables accepted (n <= 8), all ten "
          "mutated tables rejected with an explicit violated quadruple")
