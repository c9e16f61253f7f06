"""Quasi-Hopf algebra data, axiom checking, and the derived elements.

A QuasiHopfAlgebra packs the full tuple (multiplication, coproduct, counit,
associator pair, alpha, beta, antipode) as explicit tables.  Construction
never validates: the checkers below are the gate, which lets tests build
deliberately broken algebras and watch the right identity fail.

All identity checks compare both sides as sparse tensors and hand the pair
to a Recorder, so a failure always comes with the offending multi-indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Coproduct,
    LinearMap,
    SingularMapError,
    SparseTensor,
    StructureConstants,
    apply_leg,
    counit_leg,
    invert_map,
    leg_embed,
    merge_pair,
    multiply,
    permute_legs,
    slice_leg,
    split_leg,
    tensor_product,
    vec_tensor,
)
from .report import Recorder
from .scalar import CycScalar


class DerivedElementError(ValueError):
    """An internally inconsistent derived element (upstream data error)."""


class AntipodeNotBijectiveError(ValueError):
    pass


@dataclass(eq=False)
class QuasiHopfAlgebra:
    mult: StructureConstants
    coproduct: Coproduct
    counit: dict
    associator: SparseTensor
    associator_inv: SparseTensor
    alpha: dict
    beta: dict
    antipode: LinearMap
    antipode_inv: LinearMap | None = None

    def __post_init__(self):
        self.dim = self.mult.dim
        self.order = self.mult.order
        self._towers: dict = {}

    # -- small helpers ---------------------------------------------------------

    def one(self) -> CycScalar:
        return CycScalar.one(self.order)

    def basis_vec(self, i: int) -> dict:
        return {i: self.one()}

    def unit_vec(self) -> dict:
        return self.mult.unit

    def vec1(self, v: dict) -> SparseTensor:
        return vec_tensor(self.dim, self.order, v)

    def eps_scalar(self, v: dict) -> CycScalar:
        acc = CycScalar.zero(self.order)
        for i, c in v.items():
            e = self.counit.get(i)
            if e is not None:
                acc = acc + c * e
        return acc

    def antipode_inverse(self) -> LinearMap:
        if self.antipode_inv is None:
            try:
                self.antipode_inv = invert_map(self.antipode)
            except SingularMapError as e:
                raise AntipodeNotBijectiveError(str(e)) from e
        return self.antipode_inv

    def delta_tower(self, i: int, which: str) -> SparseTensor:
        """(id x Delta)(Delta e_i) for 'idd', (Delta x id)(Delta e_i) for 'ddi'."""
        key = (i, which)
        t = self._towers.get(key)
        if t is None:
            d = self.coproduct.of_vec(self.basis_vec(i))
            t = split_leg(self.coproduct, d, 2 if which == "idd" else 1)
            self._towers[key] = t
        return t


@dataclass
class DerivedElements:
    gamma: SparseTensor
    delta: SparseTensor
    twist: SparseTensor
    twist_inv: SparseTensor
    qR: SparseTensor
    pL: SparseTensor
    U: SparseTensor
    Vtilde: SparseTensor


# -- axiom suites --------------------------------------------------------------


def check_quasi_bialgebra(H: QuasiHopfAlgebra, rec: Recorder | None = None) -> Recorder:
    """Structural checks plus the four defining identities 2.1-2.4.

    Includes the two counit consequences for the associator, checked
    directly rather than derived.
    """
    rec = rec or Recorder()
    sc, cop = H.mult, H.coproduct
    one3 = H.mult.unit_tensor(3)
    phi, phiinv = H.associator, H.associator_inv

    rec.bool_check("assoc", "multiplication associates",
                   not sc.check_associative())
    rec.bool_check("unit", "stored unit is a two-sided unit",
                   not sc.check_unit())

    def delta_map_pairs():
        for i in range(H.dim):
            di = cop.of_vec(H.basis_vec(i))
            for j in range(H.dim):
                lhs = cop.of_vec(sc.vec_mult(H.basis_vec(i), H.basis_vec(j)))
                rhs = multiply(sc, di, cop.of_vec(H.basis_vec(j)))
                yield (i, j), lhs, rhs
        yield ("unit",), cop.of_vec(H.unit_vec()), H.mult.unit_tensor(2)

    rec.family_check("coproduct-map", "coproduct is an algebra map", delta_map_pairs())

    def counit_map_pairs():
        for i in range(H.dim):
            for j in range(H.dim):
                lhs = H.eps_scalar(sc.vec_mult(H.basis_vec(i), H.basis_vec(j)))
                rhs = H.eps_scalar(H.basis_vec(i)) * H.eps_scalar(H.basis_vec(j))
                yield (i, j), _scalar1(H, lhs), _scalar1(H, rhs)
        yield ("unit",), _scalar1(H, H.eps_scalar(H.unit_vec())), _scalar1(H, H.one())

    rec.family_check("counit-map", "counit is an algebra map", counit_map_pairs())

    rec.tensor_check("associator-inverse", "associator times its inverse is the unit tensor",
                     multiply(sc, phi, phiinv), one3)
    rec.tensor_check("associator-inverse'", "inverse associator times associator is the unit tensor",
                     multiply(sc, phiinv, phi), one3)

    def pairs_21():
        for i in range(H.dim):
            lhs = H.delta_tower(i, "idd")
            rhs = multiply(sc, multiply(sc, phi, H.delta_tower(i, "ddi")), phiinv)
            yield (i,), lhs, rhs

    rec.family_check("2.1", "coassociativity up to conjugation by the associator", pairs_21())

    def pairs_22():
        for i in range(H.dim):
            d = cop.of_vec(H.basis_vec(i))
            e = H.vec1(H.basis_vec(i))
            yield (i, "right"), counit_leg(H.counit, d, 2), e
            yield (i, "left"), counit_leg(H.counit, d, 1), e

    rec.family_check("2.2", "counit law for the coproduct", pairs_22())

    lhs_23 = multiply(
        sc,
        multiply(sc, leg_embed(phi, (2, 3, 4), 4, H.unit_vec()), split_leg(cop, phi, 2)),
        leg_embed(phi, (1, 2, 3), 4, H.unit_vec()),
    )
    rhs_23 = multiply(sc, split_leg(cop, phi, 3), split_leg(cop, phi, 1))
    rec.tensor_check("2.3", "pentagon identity for the associator", lhs_23, rhs_23)

    one2 = H.mult.unit_tensor(2)
    rec.tensor_check("2.4", "counit on the middle associator leg",
                     counit_leg(H.counit, phi, 2), one2)
    rec.tensor_check("2.4'", "counit on the first associator leg",
                     counit_leg(H.counit, phi, 1), one2)
    rec.tensor_check("2.4''", "counit on the last associator leg",
                     counit_leg(H.counit, phi, 3), one2)
    return rec


def check_quasi_antipode(H: QuasiHopfAlgebra, rec: Recorder | None = None) -> Recorder:
    """Anti-map structure plus identities 2.5 and 2.6."""
    rec = rec or Recorder()
    sc, cop, S = H.mult, H.coproduct, H.antipode

    def antimap_pairs():
        for i in range(H.dim):
            for j in range(H.dim):
                lhs = S.apply_vec(sc.vec_mult(H.basis_vec(i), H.basis_vec(j)))
                rhs = sc.vec_mult(S.cols[j], S.cols[i])
                yield (i, j), H.vec1(lhs), H.vec1(rhs)
        yield ("unit",), H.vec1(S.apply_vec(H.unit_vec())), H.vec1(H.unit_vec())

    rec.family_check("antipode-antimap", "antipode is an anti-algebra map", antimap_pairs())

    def pairs_25():
        for i in range(H.dim):
            eps = H.eps_scalar(H.basis_vec(i))
            lhs_l: dict = {}
            lhs_r: dict = {}
            for (j, k), c in cop.of_basis(i):
                term = sc.mult_chain([S.cols[j], H.alpha, k])
                _acc_vec(lhs_l, term, c)
                term = sc.mult_chain([j, H.beta, S.cols[k]])
                _acc_vec(lhs_r, term, c)
            yield (i, "alpha"), H.vec1(lhs_l), H.vec1(_scale_vec(H.alpha, eps))
            yield (i, "beta"), H.vec1(lhs_r), H.vec1(_scale_vec(H.beta, eps))

    rec.family_check("2.5", "antipode compatibility with alpha and beta", pairs_25())

    lhs_a: dict = {}
    for (i1, i2, i3), c in H.associator.entries.items():
        _acc_vec(lhs_a, sc.mult_chain([i1, H.beta, S.cols[i2], H.alpha, i3]), c)
    lhs_b: dict = {}
    for (i1, i2, i3), c in H.associator_inv.entries.items():
        _acc_vec(lhs_b, sc.mult_chain([S.cols[i1], H.alpha, i2, H.beta, S.cols[i3]]), c)
    unit1 = H.vec1(H.unit_vec())
    rec.family_check("2.6", "zig-zag normalization through the associator",
                     [(("beta-alpha",), H.vec1(lhs_a), unit1),
                      (("alpha-beta",), H.vec1(lhs_b), unit1)])
    return rec


# -- Drinfel'd twist and friends ------------------------------------------------


def twist_candidates(H: QuasiHopfAlgebra):
    """gamma, delta and the twist pair, unvalidated.

    Returns (gamma, delta, twist, twist_inv); callers that want gamma and
    delta checked against their second expressions (twist_alternatives) use
    compute_twist.
    """
    sc, cop, S = H.mult, H.coproduct, H.antipode
    phi, phiinv = H.associator, H.associator_inv

    # split-and-antipode views of the associator legs
    a1 = apply_leg(S, apply_leg(S, split_leg(cop, phiinv, 1), 1), 2)
    phi_s12 = apply_leg(S, apply_leg(S, phi, 1), 2)
    gamma = merge_pair(sc, a1, phi_s12, groups=(
        (("a", 1), ("b", 1), ("v", 0), ("b", 2), ("a", 2)),
        (("a", 0), ("b", 0), ("v", 0), ("a", 3)),
    ), vecs=(H.alpha,))

    a3 = apply_leg(S, apply_leg(S, split_leg(cop, phi, 1), 3), 4)
    b3 = apply_leg(S, phiinv, 3)
    delta = merge_pair(sc, a3, b3, groups=(
        (("a", 0), ("b", 0), ("v", 0), ("a", 3)),
        (("a", 1), ("b", 1), ("v", 0), ("b", 2), ("a", 2)),
    ), vecs=(H.beta,))

    zero2 = SparseTensor(H.dim, 2, H.order, {})
    twist = zero2
    for (k0, k1, k2, k3), c in split_leg(cop, phiinv, 1).entries.items():
        left2 = tensor_product(H.vec1(S.cols[k1]), H.vec1(S.cols[k0]))
        w = sc.mult_chain([k2, H.beta, S.cols[k3]])
        if not w:
            continue
        term = multiply(sc, multiply(sc, left2, gamma), cop.of_vec(w))
        twist = twist + term.scale(c)

    twist_inv = zero2
    for (k0, k1, k2, k3), c in split_leg(cop, phiinv, 3).entries.items():
        w = sc.mult_chain([S.cols[k0], H.alpha, k1])
        if not w:
            continue
        right2 = tensor_product(H.vec1(S.cols[k3]), H.vec1(S.cols[k2]))
        term = multiply(sc, multiply(sc, cop.of_vec(w), delta), right2)
        twist_inv = twist_inv + term.scale(c)

    return gamma, delta, twist, twist_inv


def twist_alternatives(H: QuasiHopfAlgebra):
    """The second defining expressions for gamma and delta, (gamma_alt,
    delta_alt); they equal twist_candidates' gamma and delta exactly when
    the input tables are consistent."""
    sc, cop, S = H.mult, H.coproduct, H.antipode
    phi, phiinv = H.associator, H.associator_inv

    a2 = apply_leg(S, apply_leg(S, split_leg(cop, phi, 3), 1), 2)
    b2 = apply_leg(S, phiinv, 1)
    gamma_alt = merge_pair(sc, a2, b2, groups=(
        (("a", 1), ("b", 0), ("v", 0), ("b", 1), ("a", 2)),
        (("a", 0), ("v", 0), ("b", 2), ("a", 3)),
    ), vecs=(H.alpha,))

    a4 = apply_leg(S, apply_leg(S, split_leg(cop, phiinv, 3), 3), 4)
    b4 = apply_leg(S, apply_leg(S, phi, 2), 3)
    delta_alt = merge_pair(sc, a4, b4, groups=(
        (("a", 0), ("v", 0), ("b", 2), ("a", 3)),
        (("a", 1), ("b", 0), ("v", 0), ("b", 1), ("a", 2)),
    ), vecs=(H.beta,))
    return gamma_alt, delta_alt


def compute_twist(H: QuasiHopfAlgebra):
    """gamma, delta (each agreeing by both defining expressions) and the
    twist pair.  Raises DerivedElementError if the expressions disagree or
    the twist fails to invert; either means the input tables are broken.
    derive_elements skips these checks; the CLI's twist suite reports them
    as 2.gamma, 2.delta and 2.f-inv."""
    gamma, delta, twist, twist_inv = twist_candidates(H)
    gamma_alt, delta_alt = twist_alternatives(H)
    if gamma != gamma_alt:
        raise DerivedElementError("the two expressions for gamma disagree")
    if delta != delta_alt:
        raise DerivedElementError("the two expressions for delta disagree")
    one2 = H.mult.unit_tensor(2)
    sc = H.mult
    if multiply(sc, twist, twist_inv) != one2 or multiply(sc, twist_inv, twist) != one2:
        raise DerivedElementError("twist times its inverse is not the unit tensor")
    return gamma, delta, twist, twist_inv


def check_twist_identities(H: QuasiHopfAlgebra, D: DerivedElements,
                           rec: Recorder | None = None) -> Recorder:
    """Identities 2.7 (per basis element) and 2.8 (one degree-3 identity)."""
    rec = rec or Recorder()
    sc, cop, S = H.mult, H.coproduct, H.antipode
    f, g = D.twist, D.twist_inv

    def pairs_27():
        for i in range(H.dim):
            lhs = multiply(sc, multiply(sc, f, cop.of_vec(S.cols[i])), g)
            rhs = apply_leg(S, apply_leg(S, permute_legs(
                cop.of_vec(H.basis_vec(i)), (1, 0)), 1), 2)
            yield (i,), lhs, rhs

    rec.family_check("2.7", "twist intertwines the antipode coproduct", pairs_27())

    u = H.unit_vec()
    lhs = multiply(sc, leg_embed(f, (2, 3), 3, u), split_leg(cop, f, 2))
    lhs = multiply(sc, lhs, H.associator)
    lhs = multiply(sc, lhs, split_leg(cop, g, 1))
    lhs = multiply(sc, lhs, leg_embed(g, (1, 2), 3, u))
    rhs = apply_leg(S, apply_leg(S, apply_leg(S, permute_legs(H.associator, (2, 1, 0)), 1), 2), 3)
    rec.tensor_check("2.8", "twist pentagon against the reversed associator", lhs, rhs)
    return rec


def compute_qR_pL(H: QuasiHopfAlgebra):
    """The standard right/left transposition elements built from the associator."""
    sc = H.mult
    Sinv = H.antipode_inverse()
    q_entries: dict = {}
    p_entries: dict = {}
    for (i1, i2, i3), c in H.associator.entries.items():
        v = Sinv.apply_vec(sc.mult_chain([H.alpha, i3]))
        v = sc.vec_mult(v, H.basis_vec(i2))
        for k, ck in v.items():
            key = (i1, k)
            prev = q_entries.get(key)
            q_entries[key] = c * ck if prev is None else prev + c * ck
        w = sc.vec_mult(H.basis_vec(i2), Sinv.apply_vec(sc.mult_chain([i1, H.beta])))
        for k, ck in w.items():
            key = (k, i3)
            prev = p_entries.get(key)
            p_entries[key] = c * ck if prev is None else prev + c * ck
    qR = SparseTensor(H.dim, 2, H.order, q_entries)
    pL = SparseTensor(H.dim, 2, H.order, p_entries)
    return qR, pL


def check_qp_identities(H: QuasiHopfAlgebra, D: DerivedElements,
                        rec: Recorder | None = None) -> Recorder:
    """Identities 2.10-2.13 for the transposition elements."""
    rec = rec or Recorder()
    sc, cop = H.mult, H.coproduct
    Sinv = H.antipode_inverse()
    qR, pL = D.qR, D.pL
    f, g = D.twist, D.twist_inv
    u = H.unit_vec()
    unit1 = H.vec1(u)
    zero2 = SparseTensor(H.dim, 2, H.order, {})

    def sinv_swap(t):
        """(S^-1 x S^-1) of t with its two legs swapped."""
        return apply_leg(Sinv, apply_leg(Sinv, permute_legs(t, (1, 0)), 1), 2)

    def pairs_210():
        for i in range(H.dim):
            lhs = zero2
            for (s, t), c in cop.of_basis(i):
                front = tensor_product(unit1, H.vec1(Sinv.cols[t]))
                term = multiply(sc, multiply(sc, front, qR),
                                cop.of_vec(H.basis_vec(s)))
                lhs = lhs + term.scale(c)
            rhs = multiply(sc, tensor_product(H.vec1(H.basis_vec(i)), unit1), qR)
            yield (i,), lhs, rhs

    rec.family_check("2.10", "intertwining law for the right transposition element",
                     pairs_210())

    def pairs_211():
        for i in range(H.dim):
            lhs = zero2
            for (s, t), c in cop.of_basis(i):
                back = tensor_product(H.vec1(Sinv.cols[s]), unit1)
                term = multiply(sc, multiply(sc, cop.of_vec(H.basis_vec(t)), pL), back)
                lhs = lhs + term.scale(c)
            rhs = multiply(sc, pL, tensor_product(unit1, H.vec1(H.basis_vec(i))))
            yield (i,), lhs, rhs

    rec.family_check("2.11", "intertwining law for the left transposition element",
                     pairs_211())

    lhs_212 = multiply(sc, multiply(sc, leg_embed(qR, (1, 2), 3, u), split_leg(cop, qR, 1)),
                       H.associator_inv)
    fp = multiply(sc, leg_embed(sinv_swap(f), (2, 3), 3, u), split_leg(cop, qR, 2))
    zero3 = SparseTensor(H.dim, 3, H.order, {})
    # sum over (i2, i3) of phi * (1 x S^-1 e_i3 x S^-1 e_i2), grouped by i1
    rhs_212 = zero3
    for i1, phi23 in slice_leg(H.associator, 1).items():
        front = leg_embed(sinv_swap(phi23), (2, 3), 3, u)
        rhs_212 = rhs_212 + multiply(sc, multiply(sc, front, fp), H.delta_tower(i1, "idd"))
    rec.tensor_check("2.12", "coproduct expansion of the right transposition element",
                     lhs_212, rhs_212)

    lhs_213 = multiply(sc, multiply(sc, H.associator_inv, split_leg(cop, pL, 2)),
                       leg_embed(pL, (2, 3), 3, u))
    pg = multiply(sc, split_leg(cop, pL, 1), leg_embed(sinv_swap(g), (1, 2), 3, u))
    # sum over (i1, i2) of phi * (S^-1 e_i2 x S^-1 e_i1 x 1), grouped by i3
    rhs_213 = zero3
    for i3, phi12 in slice_leg(H.associator, 3).items():
        back = leg_embed(sinv_swap(phi12), (1, 2), 3, u)
        rhs_213 = rhs_213 + multiply(sc, multiply(sc, H.delta_tower(i3, "ddi"), pg), back)
    rec.tensor_check("2.13", "coproduct expansion of the left transposition element",
                     lhs_213, rhs_213)
    return rec


def compute_U_Vtilde(H: QuasiHopfAlgebra, twist: SparseTensor, twist_inv: SparseTensor,
                     qR: SparseTensor, pL: SparseTensor):
    """The inverse-like building blocks for the canonical elements."""
    sc, S = H.mult, H.antipode
    sq = apply_leg(S, apply_leg(S, permute_legs(qR, (1, 0)), 1), 2)
    U = multiply(sc, twist_inv, sq)
    sp = apply_leg(S, apply_leg(S, permute_legs(pL, (1, 0)), 1), 2)
    Vt = multiply(sc, sp, twist)
    return U, Vt


def check_lemma41(H: QuasiHopfAlgebra, D: DerivedElements,
                  rec: Recorder | None = None) -> Recorder:
    """Identities 4.2-4.5 for U and V-tilde."""
    rec = rec or Recorder()
    sc, cop, S = H.mult, H.coproduct, H.antipode
    U, Vt = D.U, D.Vtilde
    u = H.unit_vec()
    unit1 = H.vec1(u)
    zero2 = SparseTensor(H.dim, 2, H.order, {})

    def pairs_42():
        for i in range(H.dim):
            lhs = multiply(sc, U, tensor_product(unit1, H.vec1(S.cols[i])))
            rhs = zero2
            for (s, t), c in cop.of_basis(i):
                term = multiply(sc, multiply(sc, cop.of_vec(S.cols[s]), U),
                                tensor_product(H.vec1(H.basis_vec(t)), unit1))
                rhs = rhs + term.scale(c)
            yield (i,), lhs, rhs

    rec.family_check("4.2", "one-sided antipode slide across U", pairs_42())

    def pairs_43():
        for i in range(H.dim):
            lhs = multiply(sc, tensor_product(H.vec1(S.cols[i]), unit1), Vt)
            rhs = zero2
            for (s, t), c in cop.of_basis(i):
                term = multiply(sc, multiply(sc, tensor_product(unit1, H.vec1(H.basis_vec(s))), Vt),
                                cop.of_vec(S.cols[t]))
                rhs = rhs + term.scale(c)
            yield (i,), lhs, rhs

    rec.family_check("4.3", "one-sided antipode slide across V-tilde", pairs_43())

    lhs_44 = multiply(sc, multiply(sc, H.associator_inv, split_leg(cop, U, 2)),
                      leg_embed(U, (2, 3), 3, u))
    zero3 = SparseTensor(H.dim, 3, H.order, {})
    # sum over (i2, i3) of phi * (e_i2 x e_i3 x 1), grouped by i1
    rhs_44 = zero3
    for i1, phi23 in slice_leg(H.associator, 1).items():
        a = multiply(sc, cop.of_vec(S.cols[i1]), U)
        rhs_44 = rhs_44 + multiply(sc, split_leg(cop, a, 1), leg_embed(phi23, (1, 2), 3, u))
    rec.tensor_check("4.4", "coproduct expansion of U against the associator", lhs_44, rhs_44)

    lhs_45 = multiply(sc, multiply(sc, leg_embed(Vt, (1, 2), 3, u), split_leg(cop, Vt, 1)),
                      H.associator_inv)
    # sum over (i1, i2) of phi * (1 x e_i1 x e_i2), grouped by i3
    rhs_45 = zero3
    for i3, phi12 in slice_leg(H.associator, 3).items():
        c_ten = multiply(sc, Vt, cop.of_vec(S.cols[i3]))
        rhs_45 = rhs_45 + multiply(sc, leg_embed(phi12, (2, 3), 3, u), split_leg(cop, c_ten, 2))
    rec.tensor_check("4.5", "coproduct expansion of V-tilde against the associator",
                     lhs_45, rhs_45)
    return rec


def derive_elements(H: QuasiHopfAlgebra) -> DerivedElements:
    """The derivation chain twist_candidates -> compute_qR_pL ->
    compute_U_Vtilde, unvalidated: compute_twist validates the twist pair
    for callers that want it."""
    gamma, delta, f, g = twist_candidates(H)
    qR, pL = compute_qR_pL(H)
    U, Vtilde = compute_U_Vtilde(H, f, g, qR, pL)
    return DerivedElements(gamma, delta, f, g, qR, pL, U, Vtilde)


# -- tiny vector helpers --------------------------------------------------------


def _acc_vec(out: dict, v: dict, c: CycScalar):
    for k, ck in v.items():
        prev = out.get(k)
        out[k] = c * ck if prev is None else prev + c * ck


def _scale_vec(v: dict, c: CycScalar) -> dict:
    return {k: c * ck for k, ck in v.items()}


def _scalar1(H: QuasiHopfAlgebra, c: CycScalar) -> SparseTensor:
    return SparseTensor(1, 1, H.order, {(0,): c})
