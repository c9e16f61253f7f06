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
    Mapped,
    Placement,
    SingularMapError,
    SparseTensor,
    StructureConstants,
    _diagonal,
    _owned,
    apply_leg,
    counit_leg,
    invert_map,
    map_legs,
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

    # -- small helpers ---------------------------------------------------------

    def one(self) -> CycScalar:
        return CycScalar.one(self.order)

    def basis_vec(self, i: int) -> dict:
        return {i: self.one()}

    def unit_vec(self) -> dict:
        return self.mult.unit

    def vec1(self, v: dict) -> SparseTensor:
        return vec_tensor(self.dim, self.order, v)

    def antipode_inverse(self) -> LinearMap:
        if self.antipode_inv is None:
            try:
                self.antipode_inv = invert_map(self.antipode)
            except SingularMapError as e:
                raise AntipodeNotBijectiveError(str(e)) from e
        return self.antipode_inv


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
    directly rather than derived.  Each algebra-map law is one pair read
    off the product tensor, keys (i, j, ...), then its pair at the unit.
    """
    rec = rec or Recorder()
    sc, cop = H.mult, H.coproduct
    one3 = H.mult.unit_tensor(3)
    phi, phiinv = H.associator, H.associator_inv

    rec.bool_check("assoc", "multiplication associates",
                   not sc.check_associative())
    rec.bool_check("unit", "stored unit is a two-sided unit",
                   not sc.unit_failures())

    P, diag, unit1 = sc.product_tensor(), _diagonal(H), H.vec1(H.unit_vec())
    # Delta(e_i e_j) against Delta(e_i) Delta(e_j)
    d = split_leg(cop, diag, 2)
    rec.family_check("coproduct-map", "coproduct is an algebra map", [
        ((), split_leg(cop, P, 3), merge_pair(sc, d, d, groups=(
            (("a", 0),), (("b", 0),), (("a", 1), ("b", 1)), (("a", 2), ("b", 2))))),
        (("unit",), cop.of_vec(H.unit_vec()), H.mult.unit_tensor(2))])

    # eps(e_i e_j) against eps(e_i) eps(e_j), each on a last leg at e_0
    eps0 = LinearMap(H.dim, H.order, [{0: H.counit[i]} if i in H.counit else {}
                                      for i in range(H.dim)])
    e0, eps = H.vec1(H.basis_vec(0)), H.vec1(H.counit)
    rec.family_check("counit-map", "counit is an algebra map", [
        ((), apply_leg(eps0, P, 3), tensor_product(eps, eps, e0)),
        (("unit",), apply_leg(eps0, unit1, 1), e0)])

    rec.tensor_check("associator-inverse", "associator times its inverse is the unit tensor",
                     multiply(sc, phi, phiinv), one3)
    rec.tensor_check("associator-inverse'", "inverse associator times associator is the unit tensor",
                     multiply(sc, phiinv, phi), one3)

    # families over h = e_i on the first leg
    # (id x Delta)Delta(h) against phi (Delta x id)Delta(h) phi^-1
    rhs = merge_pair(sc, Mapped(d, (cop, 2)), phi, groups=(
        (("a", 0),), (("b", 0), ("a", 1)), (("b", 1), ("a", 2)), (("b", 2), ("a", 3))))
    rhs = merge_pair(sc, rhs, phiinv, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1)), (("a", 3), ("b", 2))))
    rec.tensor_check("2.1", "coassociativity up to conjugation by the associator",
                     map_legs(diag, (cop, 2), (cop, 3)), rhs)

    rec.family_check("2.2", "counit law for the coproduct", _family(
        (counit_leg(H.counit, d, 3), diag, "right"), (counit_leg(H.counit, d, 2), diag, "left")))

    lhs_23 = multiply(
        sc,
        multiply(sc, Placement(phi, (2, 3, 4), 4), Mapped(phi, (cop, 2))),
        Placement(phi, (1, 2, 3), 4),
    )
    rhs_23 = multiply(sc, Mapped(phi, (cop, 3)), Mapped(phi, (cop, 1)))
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
    diag, unit1 = _diagonal(H), H.vec1(H.unit_vec())

    # S(e_i e_j) against S(e_j) S(e_i)
    s = apply_leg(S, diag, 2)
    rec.family_check("antipode-antimap", "antipode is an anti-algebra map", [
        ((), apply_leg(S, sc.product_tensor(), 3), merge_pair(sc, s, s, groups=(
            (("a", 0),), (("b", 0),), (("b", 1), ("a", 1))))),
        (("unit",), apply_leg(S, unit1, 1), unit1)])

    # sum S(h_1) alpha h_2 and sum h_1 beta S(h_2) against eps(h) alpha and
    # eps(h) beta, as families over h = e_i on the first leg
    chain = ((("a", 0),), (("a", 1), ("v", 0), ("a", 2)))
    eps = H.vec1(H.counit)
    rec.family_check("2.5", "antipode compatibility with alpha and beta", _family(
        (_contract(H, map_legs(diag, (cop, 2), (S, 2)), chain, (H.alpha,)),
         tensor_product(eps, H.vec1(H.alpha)), "alpha"),
        (_contract(H, map_legs(diag, (cop, 2), (S, 3)), chain, (H.beta,)),
         tensor_product(eps, H.vec1(H.beta)), "beta")))

    zigzag = ((("a", 0), ("v", 0), ("a", 1), ("v", 1), ("a", 2)),)
    lhs_a = _contract(H, apply_leg(S, H.associator, 2), zigzag, (H.beta, H.alpha))
    lhs_b = _contract(H, map_legs(H.associator_inv, (S, 1), (S, 3)), zigzag, (H.alpha, H.beta))
    rec.family_check("2.6", "zig-zag normalization through the associator",
                     [(("beta-alpha",), lhs_a, unit1), (("alpha-beta",), lhs_b, unit1)])
    return rec


# -- Drinfel'd twist and friends ------------------------------------------------


def twist_candidates(H: QuasiHopfAlgebra):
    """gamma, delta and the twist pair, unvalidated.

    Returns (gamma, delta, twist, twist_inv).  Nothing here compares gamma
    and delta with their second expressions (twist_alternatives) or the
    twist with its inverse: the CLI's twist suite records those as 2.gamma,
    2.delta, 2.f-inv and 2.f-inv'.

    Each is a sum over the basis index e_i of one associator leg.  One
    merge_pair builds the first factor for every i at once, with i on a leg
    of its own, and one more, summed over i (_slice_products), multiplies it
    by the second factor.  So no tensor of degree 4 is built: about n^3
    entries on kωG where the whole Sweedler sums built n^4.  x runs over
    phi^-1 and y over phi in gamma and f, the other way round in delta and
    f^-1; A_i is S e_i(2) (x) S e_i(1) (see _antipode_coproduct):

        gamma = sum_i M_i (x2 (x) x3 at x1 = e_i),
                M_i = sum_y S e_i(2) S y2 alpha y3 (x) S e_i(1) S y1 alpha
        f     = sum_i (A_i gamma) Delta(w_i),  w = x1 (x) x2 beta S x3 at x1 = e_i
        delta = sum_i K_i (S x3 (x) S x2 at x1 = e_i),
                K_i = sum_y e_i(1) y1 beta (x) e_i(2) y2 beta S y3
        f^-1  = sum_i (Delta(w'_i) delta) A_i,  w' = S x1 alpha x2 (x) x3 at x3 = e_i

    Each product chain is grouped left to right, M and K are one merge_pair
    each whose only a/b pair opens its chain (see merge_pair), and every
    other product has two factors, so all four equal their per-term
    Sweedler sums on any table, associative or not.
    """
    sc, cop, S = H.mult, H.coproduct, H.antipode
    gamma, delta, anti, phiinv_s3 = _gamma_delta(H)

    # (i, A_i gamma) against (x1, Delta(x2 beta S x3))
    w = _contract(H, phiinv_s3, ((("a", 0),), (("a", 1), ("v", 0), ("a", 2))), (H.beta,))
    del phiinv_s3
    twist = _slice_products(H, merge_pair(sc, anti, gamma, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1)))), split_leg(cop, w, 2))

    # (x3, Delta(S x1 alpha x2) delta) against (i, A_i)
    w = _contract(H, Mapped(H.associator_inv, (S, 1)),
                  ((("a", 2),), (("a", 0), ("v", 0), ("a", 1))), (H.alpha,))
    twist_inv = _slice_products(H, merge_pair(sc, split_leg(cop, w, 2), delta, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1)))), anti)
    return gamma, delta, twist, twist_inv


def twist_alternatives(H: QuasiHopfAlgebra):
    """The second defining expressions for gamma and delta, x over phi and
    y over phi^-1 in gamma_alt, the other way round in delta_alt:

        gamma_alt = sum S x2 S y1 alpha y2 x3(1) (x) S x1 alpha y3 x3(2)
        delta_alt = sum x1 beta S y3 S x3(2) (x) x2 y1 beta S y2 S x3(1)

    These are delta and gamma of the mirror with their legs reversed, each
    product chain grouped the other way round: so they are the per-term
    sums where H.mult associates, whether or not the twist identities hold
    (the twist suite runs only after `axioms` has checked associativity)."""
    gamma, delta, _, _ = _gamma_delta(_mirror(H))
    return _reversed(delta), _reversed(gamma)


def _gamma_delta(H: QuasiHopfAlgebra):
    """gamma and delta as twist_candidates gives them, with the two views
    it reads again: _antipode_coproduct(H) and (x1, x2, S x3) over phi^-1."""
    sc, cop, S = H.mult, H.coproduct, H.antipode
    phi, phiinv = H.associator, H.associator_inv
    anti = _antipode_coproduct(H)
    phiinv_s3 = apply_leg(S, phiinv, 3)  # (x1, x2, S x3)

    # (i, M_i) from (i, S e_i(2), S e_i(1)) and (S y1, S y2, y3)
    M = merge_pair(sc, anti, Mapped(phi, (S, 1), (S, 2)), groups=(
        (("a", 0),),
        (("a", 1), ("b", 1), ("v", 0), ("b", 2)),
        (("a", 2), ("b", 0), ("v", 0)),
    ), vecs=(H.alpha,))
    gamma = _slice_products(H, M, phiinv)
    del M

    # (i, K_i) from (i, e_i(1), e_i(2)) and (y1, y2, S y3), then K_i times
    # S x3 (x) S x2, from (x1, S x3, S x2)
    K = merge_pair(sc, Mapped(_diagonal(H), (cop, 2)), phiinv_s3, groups=(
        (("a", 0),),
        (("a", 1), ("b", 0), ("v", 0)),
        (("a", 2), ("b", 1), ("v", 0), ("b", 2)),
    ), vecs=(H.beta,))
    delta = _slice_products(H, K, Mapped(permute_legs(phi, (0, 2, 1)), (S, 2), (S, 3)))
    return gamma, delta, anti, phiinv_s3


def check_twist_identities(H: QuasiHopfAlgebra, D: DerivedElements,
                           rec: Recorder | None = None) -> Recorder:
    """Identities 2.7 (per basis element) and 2.8 (one degree-3 identity)."""
    rec = rec or Recorder()
    sc, cop, S = H.mult, H.coproduct, H.antipode
    f, g = D.twist, D.twist_inv

    # f Delta(S h) f^-1 against (S x S)Delta^op(h), a family over h = e_i
    # on the first leg
    diag = _diagonal(H)
    lhs = merge_pair(sc, Mapped(diag, (S, 2), (cop, 2)), f, groups=(
        (("a", 0),), (("b", 0), ("a", 1)), (("b", 1), ("a", 2))))
    lhs = merge_pair(sc, lhs, g, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1))))
    rhs = permute_legs(map_legs(diag, (cop, 2), (S, 2), (S, 3)), (0, 2, 1))
    rec.tensor_check("2.7", "twist intertwines the antipode coproduct", lhs, rhs)

    lhs = multiply(sc, Placement(f, (2, 3), 3), Mapped(f, (cop, 2)))
    lhs = multiply(sc, lhs, H.associator)
    lhs = multiply(sc, lhs, split_leg(cop, g, 1))
    lhs = multiply(sc, lhs, Placement(g, (1, 2), 3))
    rhs = antipode_legs(S, H.associator)
    rec.tensor_check("2.8", "twist pentagon against the reversed associator", lhs, rhs)
    return rec


def compute_qR_pL(H: QuasiHopfAlgebra):
    """The right/left transposition elements q_R = x1 (x) S^-1(alpha x3) x2 and
    p_L = x2 S^-1(x1 beta) (x) x3 over phi, p_L as q_R of the mirror, reversed.
    S^-1 maps the products alpha x3 and x1 beta whole: splitting it over the
    factors assumes S is an anti-map."""
    return _qR(H), _reversed(_qR(_mirror(H, phi_inv=False)))


def check_qp_identities(H: QuasiHopfAlgebra, D: DerivedElements,
                        rec: Recorder | None = None) -> Recorder:
    """Identities 2.10-2.13 for q_R and p_L: 2.11 and 2.12 as 2.10 and 2.13 on the mirror."""
    rec = rec or Recorder()
    rec.tensor_check("2.10", "intertwining law for the right transposition element",
                     *_qR_intertwining(H, D.qR))
    rec.tensor_check("2.11", "intertwining law for the left transposition element",
                     *_reversed(_qR_intertwining(_mirror(H, phi=False, phi_inv=False),
                                                 _reversed(D.pL)), 1))
    # the mirror's phi with x3 first is H's phi itself
    rec.tensor_check("2.12", "coproduct expansion of the right transposition element",
                     *_reversed(_pL_expansion(_mirror(H, phi=False), _reversed(D.qR),
                                              _reversed(D.twist), H.associator)))
    rec.tensor_check("2.13", "coproduct expansion of the left transposition element",
                     *_pL_expansion(H, D.pL, D.twist_inv, permute_legs(H.associator, (2, 1, 0))))
    return rec


def compute_U_Vtilde(H: QuasiHopfAlgebra, twist: SparseTensor, twist_inv: SparseTensor,
                     qR: SparseTensor, pL: SparseTensor):
    """The inverse-like building blocks U = f^-1 (S q_R2 (x) S q_R1) and V-tilde,
    U of the mirror reversed, of which only the opposite product is read."""
    S = H.antipode
    U = multiply(H.mult, twist_inv, antipode_legs(S, qR))
    Vt = multiply(_opposite(H.mult), _reversed(twist), antipode_legs(S, _reversed(pL)))
    return U, _reversed(Vt)


def check_lemma41(H: QuasiHopfAlgebra, D: DerivedElements,
                  rec: Recorder | None = None) -> Recorder:
    """Identities 4.2-4.5 for U and V-tilde: 4.3 and 4.5 as 4.2 and 4.4 on the mirror."""
    rec = rec or Recorder()
    rec.tensor_check("4.2", "one-sided antipode slide across U", *_U_slide(H, D.U))
    rec.tensor_check("4.3", "one-sided antipode slide across V-tilde",
                     *_reversed(_U_slide(_mirror(H, phi=False, phi_inv=False),
                                         _reversed(D.Vtilde)), 1))
    rec.tensor_check("4.4", "coproduct expansion of U against the associator",
                     *_U_expansion(H, D.U))
    rec.tensor_check("4.5", "coproduct expansion of V-tilde against the associator",
                     *_reversed(_U_expansion(_mirror(H), _reversed(D.Vtilde))))
    return rec


def derive_elements(H: QuasiHopfAlgebra) -> DerivedElements:
    """The derivation chain twist_candidates -> compute_qR_pL ->
    compute_U_Vtilde, unvalidated, like twist_candidates."""
    gamma, delta, f, g = twist_candidates(H)
    qR, pL = compute_qR_pL(H)
    U, Vtilde = compute_U_Vtilde(H, f, g, qR, pL)
    return DerivedElements(gamma, delta, f, g, qR, pL, U, Vtilde)


def _mirror(H: QuasiHopfAlgebra, phi: bool = True, phi_inv: bool = True) -> QuasiHopfAlgebra:
    """H^op,cop (Drinfeld): the opposite product, the coproduct and both associators
    with their legs reversed, alpha and beta swapped, S and H's S^-1 as they stand
    (compute S^-1 on H first).  Given H's p_L, V-tilde, f reversed as its q_R, U, f^-1,
    an identity on it is its partner's on H reversed, where H.mult associates.
    A caller that does not read Phi or Phi^-1 passes False for it and gets None in
    its place: reversing an associator costs more than a check that reads neither."""
    table = {i: tuple((jk[::-1], c) for jk, c in ent) for i, ent in H.coproduct.table.items()}
    return QuasiHopfAlgebra(_opposite(H.mult), Coproduct(H.dim, H.order, table), H.counit,
                            _reversed(H.associator) if phi else None,
                            _reversed(H.associator_inv) if phi_inv else None,
                            H.beta, H.alpha, H.antipode, H.antipode_inv)


def _opposite(sc: StructureConstants) -> StructureConstants:
    """The opposite product with sc's unit and unit-law memo, exact since
    u e_i = e_i and e_i u = e_i only trade places."""
    op = StructureConstants(sc.dim, sc.order, {k[::-1]: v for k, v in sc.table.items()}, sc.unit)
    op._unit_failures = sc._unit_failures
    return op


def _reversed(t, fixed: int = 0):
    """t with its legs after the first `fixed` reversed; a list of tensors in
    place, each one dropped as soon as its copy is made."""
    if isinstance(t, list):
        for i in range(len(t)):
            t[i] = _reversed(t[i], fixed)
        return t
    return _owned(t.dim, t.degree, t.order,
                  {k[:fixed] + k[fixed:][::-1]: c for k, c in t.entries.items()})


def _qR(H: QuasiHopfAlgebra) -> SparseTensor:
    q = _contract(H, H.associator, ((("a", 0),), (("a", 1),), (("v", 0), ("a", 2))), (H.alpha,))
    return _contract(H, Mapped(q, (H.antipode_inverse(), 3)), ((("a", 0),), (("a", 2), ("a", 1))))


def _qR_intertwining(H: QuasiHopfAlgebra, qR: SparseTensor):
    """2.10: (1 (x) S^-1 h_2) q_R Delta(h_1) against (h (x) 1) q_R, h = e_i on leg 1."""
    sc, cop, u, diag = H.mult, H.coproduct, H.unit_vec(), _diagonal(H)
    d = Mapped(diag, (cop, 2), (H.antipode_inverse(), 3), (cop, 2))
    lhs = merge_pair(sc, d, qR, vecs=(u,), groups=(
        (("a", 0),), (("v", 0), ("b", 0), ("a", 1)), (("a", 3), ("b", 1), ("a", 2))))
    return [lhs, merge_pair(sc, diag, qR, vecs=(u,), groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("v", 0), ("b", 1))))]


def _pL_expansion(H: QuasiHopfAlgebra, pL: SparseTensor, twist_inv: SparseTensor,
                  phi_x3_first: SparseTensor):
    """2.13's sides, the right one (x3, (Delta x id)Delta(x3) pg) built for
    every x3 at once, then summed over x3 against (x3, S^-1 x2, S^-1 x1),
    from phi_x3_first = (x3, x2, x1) over phi.  H.associator is not read."""
    sc, cop, Sinv = H.mult, H.coproduct, H.antipode_inverse()
    lhs = multiply(sc, multiply(sc, H.associator_inv, Mapped(pL, (cop, 2))),
                   Placement(pL, (2, 3), 3))
    pg = multiply(sc, split_leg(cop, pL, 1), Placement(antipode_legs(Sinv, twist_inv), (1, 2), 3))
    d = merge_pair(sc, map_legs(_diagonal(H), (cop, 2), (cop, 2)), pg, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1)), (("a", 3), ("b", 2))))
    return [lhs, _slice_products(H, d, Mapped(phi_x3_first, (Sinv, 2), (Sinv, 3)))]


def _U_slide(H: QuasiHopfAlgebra, U: SparseTensor):
    """4.2: U (1 (x) S h) against Delta(S h_1) U (h_2 (x) 1), h = e_i on leg 1."""
    sc, cop, S, u, diag = H.mult, H.coproduct, H.antipode, H.unit_vec(), _diagonal(H)
    lhs = merge_pair(sc, apply_leg(S, diag, 2), U, vecs=(u,), groups=(
        (("a", 0),), (("b", 0), ("v", 0)), (("b", 1), ("a", 1))))
    d = Mapped(diag, (cop, 2), (S, 2), (cop, 2))
    return [lhs, merge_pair(sc, d, U, vecs=(u,), groups=(
        (("a", 0),), (("a", 1), ("b", 0), ("a", 3)), (("a", 2), ("b", 1), ("v", 0))))]


def _U_expansion(H: QuasiHopfAlgebra, U: SparseTensor):
    """4.4's sides, the right one (x1, (Delta x id)(Delta(S x1) U)) built for
    every x1 at once, then summed over x1 against phi."""
    sc, cop, S = H.mult, H.coproduct, H.antipode
    lhs = multiply(sc, multiply(sc, H.associator_inv, Mapped(U, (cop, 2))),
                   Placement(U, (2, 3), 3))
    d = Mapped(merge_pair(sc, map_legs(_diagonal(H), (S, 2), (cop, 2)), U, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1)))), (cop, 2))
    return [lhs, _slice_products(H, d, H.associator)]


# -- contraction helpers --------------------------------------------------------


def antipode_legs(m: LinearMap, t: SparseTensor) -> SparseTensor:
    """m on every leg of t with the legs in reverse order, in one pass: the
    antipode of a tensor, (S x ... x S) of its reversal, when m is S."""
    return map_legs(_reversed(t), *((m, leg) for leg in range(1, t.degree + 1)))


def _antipode_coproduct(H: QuasiHopfAlgebra) -> SparseTensor:
    """sum_i e_i (x) S e_i(2) (x) S e_i(1): its slice at e_i is A_i, the
    antipode of Delta(e_i)."""
    S = H.antipode
    return permute_legs(map_legs(_diagonal(H), (H.coproduct, 2), (S, 2), (S, 3)), (0, 2, 1))


def _slice_products(H: QuasiHopfAlgebra, s: SparseTensor, t: SparseTensor) -> SparseTensor:
    """sum_i s_i (t_i (x) 1 ...) over the basis indices e_i, s_i and t_i the
    slices of s and t at e_i on their first legs (see slice_leg): one
    merge_pair summed over that leg, leg k of s_i times leg k of t_i, or the
    unit where t_i has no leg k."""
    groups = tuple((("a", k), ("b", k) if k < t.degree else ("v", 0)) for k in range(1, s.degree))
    return merge_pair(H.mult, s, t, groups, (H.unit_vec(),), sums=((0, 0),))


def _contract(H: QuasiHopfAlgebra, t: SparseTensor, groups, vecs=()) -> SparseTensor:
    """merge_pair of one tensor: its legs (and vecs) multiplied into groups."""
    return merge_pair(H.mult, t, SparseTensor(H.dim, 0, H.order, {(): H.one()}), groups, vecs)


def _family(*sides) -> list:
    """((i, tag), lhs_i, rhs_i) per index i, then per (lhs, rhs, tag) side: first-leg slices."""
    sliced = [(slice_leg(lhs, 1), slice_leg(rhs, 1), tag, SparseTensor(
        lhs.dim, lhs.degree - 1, lhs.order, {})) for lhs, rhs, tag in sides]
    return [((i, tag), ls.get(i, zero), rs.get(i, zero))
            for i in range(sides[0][0].dim) for ls, rs, tag, zero in sliced]
