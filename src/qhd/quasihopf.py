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
    Placement,
    SingularMapError,
    SparseTensor,
    StructureConstants,
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

    # families over h = e_i on the first leg
    diag = _diagonal(H)
    # (id x Delta)Delta(h) against phi (Delta x id)Delta(h) phi^-1
    rhs = merge_pair(sc, phi, map_legs(diag, (cop, 2), (cop, 2)), groups=(
        (("b", 0),), (("a", 0), ("b", 1)), (("a", 1), ("b", 2)), (("a", 2), ("b", 3))))
    rhs = merge_pair(sc, rhs, phiinv, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1)), (("a", 3), ("b", 2))))
    rec.family_check("2.1", "coassociativity up to conjugation by the associator",
                     _family(map_legs(diag, (cop, 2), (cop, 3)), rhs))

    d = split_leg(cop, diag, 2)
    right = _family(counit_leg(H.counit, d, 3), diag, "right")
    left = _family(counit_leg(H.counit, d, 2), diag, "left")
    rec.family_check("2.2", "counit law for the coproduct",
                     [p for pair in zip(right, left) for p in pair])

    lhs_23 = multiply(
        sc,
        multiply(sc, Placement(phi, (2, 3, 4), 4), split_leg(cop, phi, 2)),
        Placement(phi, (1, 2, 3), 4),
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

    # sum S(h_1) alpha h_2 and sum h_1 beta S(h_2) against eps(h) alpha and
    # eps(h) beta, as families over h = e_i on the first leg
    d = split_leg(cop, _diagonal(H), 2)
    chain = ((("a", 0),), (("a", 1), ("v", 0), ("a", 2)))
    eps = H.vec1(H.counit)
    alpha = _family(_contract(H, apply_leg(S, d, 2), chain, (H.alpha,)),
                    tensor_product(eps, H.vec1(H.alpha)), "alpha")
    beta = _family(_contract(H, apply_leg(S, d, 3), chain, (H.beta,)),
                   tensor_product(eps, H.vec1(H.beta)), "beta")
    rec.family_check("2.5", "antipode compatibility with alpha and beta",
                     [p for pair in zip(alpha, beta) for p in pair])

    zigzag = ((("a", 0), ("v", 0), ("a", 1), ("v", 1), ("a", 2)),)
    lhs_a = _contract(H, apply_leg(S, H.associator, 2), zigzag, (H.beta, H.alpha))
    lhs_b = _contract(H, apply_leg(S, apply_leg(S, H.associator_inv, 1), 3), zigzag,
                      (H.alpha, H.beta))
    unit1 = H.vec1(H.unit_vec())
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
    """
    sc, cop, S = H.mult, H.coproduct, H.antipode
    phi, phiinv = H.associator, H.associator_inv

    # split-and-antipode views of the associator legs, each built in one
    # pass and freed once used
    a1 = map_legs(phiinv, (cop, 1), (S, 1), (S, 2))
    gamma = merge_pair(sc, a1, map_legs(phi, (S, 1), (S, 2)), groups=(
        (("a", 1), ("b", 1), ("v", 0), ("b", 2), ("a", 2)),
        (("a", 0), ("b", 0), ("v", 0), ("a", 3)),
    ), vecs=(H.alpha,))
    del a1

    # f = sum (S x1_(2) (x) S x1_(1)) gamma Delta(x2 beta S x3) over phi^-1;
    # w holds (S x1_(1), S x1_(2), x2 beta S x3)
    w = _contract(H, map_legs(phiinv, (cop, 1), (S, 1), (S, 2), (S, 4)), (
        (("a", 0),), (("a", 1),), (("a", 2), ("v", 0), ("a", 3))), (H.beta,))
    twist = merge_pair(sc, split_leg(cop, w, 3), gamma, groups=(
        (("a", 1), ("b", 0), ("a", 2)), (("a", 0), ("b", 1), ("a", 3))))

    delta = merge_pair(sc, map_legs(phi, (cop, 1), (S, 3), (S, 4)),
                       apply_leg(S, phiinv, 3), groups=(
        (("a", 0), ("b", 0), ("v", 0), ("a", 3)),
        (("a", 1), ("b", 1), ("v", 0), ("b", 2), ("a", 2)),
    ), vecs=(H.beta,))

    # f^-1 = sum Delta(S x1 alpha x2) delta (S x3_(2) (x) S x3_(1)) over phi^-1;
    # w holds (S x1 alpha x2, S x3_(1), S x3_(2))
    w = _contract(H, map_legs(phiinv, (cop, 3), (S, 1), (S, 3), (S, 4)),
                  ((("a", 0), ("v", 0), ("a", 1)), (("a", 2),), (("a", 3),)), (H.alpha,))
    twist_inv = merge_pair(sc, split_leg(cop, w, 1), delta, groups=(
        (("a", 0), ("b", 0), ("a", 3)), (("a", 1), ("b", 1), ("a", 2))))
    return gamma, delta, twist, twist_inv


def twist_alternatives(H: QuasiHopfAlgebra):
    """The second defining expressions for gamma and delta, (gamma_alt,
    delta_alt); they equal twist_candidates' gamma and delta exactly when
    the input tables are consistent."""
    sc, cop, S = H.mult, H.coproduct, H.antipode
    phi, phiinv = H.associator, H.associator_inv

    a2 = map_legs(phi, (cop, 3), (S, 1), (S, 2))
    b2 = apply_leg(S, phiinv, 1)
    gamma_alt = merge_pair(sc, a2, b2, groups=(
        (("a", 1), ("b", 0), ("v", 0), ("b", 1), ("a", 2)),
        (("a", 0), ("v", 0), ("b", 2), ("a", 3)),
    ), vecs=(H.alpha,))

    a4 = map_legs(phiinv, (cop, 3), (S, 3), (S, 4))
    b4 = map_legs(phi, (S, 2), (S, 3))
    delta_alt = merge_pair(sc, a4, b4, groups=(
        (("a", 0), ("v", 0), ("b", 2), ("a", 3)),
        (("a", 1), ("b", 0), ("v", 0), ("b", 1), ("a", 2)),
    ), vecs=(H.beta,))
    return gamma_alt, delta_alt


def check_twist_identities(H: QuasiHopfAlgebra, D: DerivedElements,
                           rec: Recorder | None = None) -> Recorder:
    """Identities 2.7 (per basis element) and 2.8 (one degree-3 identity)."""
    rec = rec or Recorder()
    sc, cop, S = H.mult, H.coproduct, H.antipode
    f, g = D.twist, D.twist_inv

    # f Delta(S h) f^-1 against (S x S)Delta^op(h), a family over h = e_i
    # on the first leg
    diag = _diagonal(H)
    lhs = merge_pair(sc, f, map_legs(diag, (S, 2), (cop, 2)), groups=(
        (("b", 0),), (("a", 0), ("b", 1)), (("a", 1), ("b", 2))))
    lhs = merge_pair(sc, lhs, g, groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("a", 2), ("b", 1))))
    rhs = permute_legs(map_legs(diag, (cop, 2), (S, 2), (S, 3)), (0, 2, 1))
    rec.family_check("2.7", "twist intertwines the antipode coproduct", _family(lhs, rhs))

    lhs = multiply(sc, Placement(f, (2, 3), 3), split_leg(cop, f, 2))
    lhs = multiply(sc, lhs, H.associator)
    lhs = multiply(sc, lhs, split_leg(cop, g, 1))
    lhs = multiply(sc, lhs, Placement(g, (1, 2), 3))
    rhs = apply_leg(S, apply_leg(S, apply_leg(S, permute_legs(H.associator, (2, 1, 0)), 1), 2), 3)
    rec.tensor_check("2.8", "twist pentagon against the reversed associator", lhs, rhs)
    return rec


def compute_qR_pL(H: QuasiHopfAlgebra):
    """The right/left transposition elements q_R = x1 (x) S^-1(alpha x3) x2 and
    p_L = x2 S^-1(x1 beta) (x) x3 over phi.  S^-1 maps the products alpha x3
    and x1 beta whole: splitting it over the factors assumes S is an anti-map."""
    Sinv, phi = H.antipode_inverse(), H.associator
    q = _contract(H, phi, ((("a", 0),), (("a", 1),), (("v", 0), ("a", 2))), (H.alpha,))
    qR = _contract(H, apply_leg(Sinv, q, 3), ((("a", 0),), (("a", 2), ("a", 1))))
    p = _contract(H, phi, ((("a", 0), ("v", 0)), (("a", 1),), (("a", 2),)), (H.beta,))
    pL = _contract(H, apply_leg(Sinv, p, 1), ((("a", 1), ("a", 0)), (("a", 2),)))
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

    def sinv_swap(t):
        """(S^-1 x S^-1) of t with its two legs swapped."""
        return apply_leg(Sinv, apply_leg(Sinv, permute_legs(t, (1, 0)), 1), 2)

    # families over h = e_i on the first leg; ("v", 0) is the unit
    diag = _diagonal(H)
    d = split_leg(cop, diag, 2)
    # (1 (x) S^-1 h_2) q_R Delta(h_1) against (h (x) 1) q_R
    lhs = merge_pair(sc, split_leg(cop, apply_leg(Sinv, d, 3), 2), qR, vecs=(u,), groups=(
        (("a", 0),), (("v", 0), ("b", 0), ("a", 1)), (("a", 3), ("b", 1), ("a", 2))))
    rhs = merge_pair(sc, diag, qR, vecs=(u,), groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("v", 0), ("b", 1))))
    rec.family_check("2.10", "intertwining law for the right transposition element",
                     _family(lhs, rhs))

    # Delta(h_2) p_L (S^-1 h_1 (x) 1) against p_L (1 (x) h)
    lhs = merge_pair(sc, split_leg(cop, apply_leg(Sinv, d, 2), 3), pL, vecs=(u,), groups=(
        (("a", 0),), (("a", 2), ("b", 0), ("a", 1)), (("a", 3), ("b", 1), ("v", 0))))
    rhs = merge_pair(sc, diag, pL, vecs=(u,), groups=(
        (("a", 0),), (("b", 0), ("v", 0)), (("b", 1), ("a", 1))))
    rec.family_check("2.11", "intertwining law for the left transposition element",
                     _family(lhs, rhs))

    lhs_212 = multiply(sc, multiply(sc, Placement(qR, (1, 2), 3), split_leg(cop, qR, 1)),
                       H.associator_inv)
    fp = multiply(sc, Placement(sinv_swap(f), (2, 3), 3), split_leg(cop, qR, 2))
    zero3 = SparseTensor(H.dim, 3, H.order, {})
    # sum over (i2, i3) of phi * (1 x S^-1 e_i3 x S^-1 e_i2), grouped by i1
    rhs_212 = zero3
    for i1, phi23 in slice_leg(H.associator, 1).items():
        front = Placement(sinv_swap(phi23), (2, 3), 3)
        tower = split_leg(cop, cop.of_vec(H.basis_vec(i1)), 2)
        rhs_212 = rhs_212 + multiply(sc, multiply(sc, front, fp), tower)
    rec.tensor_check("2.12", "coproduct expansion of the right transposition element",
                     lhs_212, rhs_212)

    lhs_213 = multiply(sc, multiply(sc, H.associator_inv, split_leg(cop, pL, 2)),
                       Placement(pL, (2, 3), 3))
    pg = multiply(sc, split_leg(cop, pL, 1), Placement(sinv_swap(g), (1, 2), 3))
    # sum over (i1, i2) of phi * (S^-1 e_i2 x S^-1 e_i1 x 1), grouped by i3
    rhs_213 = zero3
    for i3, phi12 in slice_leg(H.associator, 3).items():
        back = Placement(sinv_swap(phi12), (1, 2), 3)
        tower = split_leg(cop, cop.of_vec(H.basis_vec(i3)), 1)
        rhs_213 = rhs_213 + multiply(sc, multiply(sc, tower, pg), back)
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

    # families over h = e_i on the first leg; ("v", 0) is the unit
    diag = _diagonal(H)
    d = split_leg(cop, diag, 2)
    s_diag = apply_leg(S, diag, 2)
    # U (1 (x) S h) against Delta(S h_1) U (h_2 (x) 1)
    lhs = merge_pair(sc, s_diag, U, vecs=(u,), groups=(
        (("a", 0),), (("b", 0), ("v", 0)), (("b", 1), ("a", 1))))
    rhs = merge_pair(sc, split_leg(cop, apply_leg(S, d, 2), 2), U, vecs=(u,), groups=(
        (("a", 0),), (("a", 1), ("b", 0), ("a", 3)), (("a", 2), ("b", 1), ("v", 0))))
    rec.family_check("4.2", "one-sided antipode slide across U", _family(lhs, rhs))

    # (S h (x) 1) V-tilde against (1 (x) h_1) V-tilde Delta(S h_2)
    lhs = merge_pair(sc, s_diag, Vt, vecs=(u,), groups=(
        (("a", 0),), (("a", 1), ("b", 0)), (("v", 0), ("b", 1))))
    rhs = merge_pair(sc, split_leg(cop, apply_leg(S, d, 3), 3), Vt, vecs=(u,), groups=(
        (("a", 0),), (("v", 0), ("b", 0), ("a", 2)), (("a", 1), ("b", 1), ("a", 3))))
    rec.family_check("4.3", "one-sided antipode slide across V-tilde", _family(lhs, rhs))

    lhs_44 = multiply(sc, multiply(sc, H.associator_inv, split_leg(cop, U, 2)),
                      Placement(U, (2, 3), 3))
    zero3 = SparseTensor(H.dim, 3, H.order, {})
    # sum over (i2, i3) of phi * (e_i2 x e_i3 x 1), grouped by i1
    rhs_44 = zero3
    for i1, phi23 in slice_leg(H.associator, 1).items():
        a = multiply(sc, cop.of_vec(S.cols[i1]), U)
        rhs_44 = rhs_44 + multiply(sc, split_leg(cop, a, 1), Placement(phi23, (1, 2), 3))
    rec.tensor_check("4.4", "coproduct expansion of U against the associator", lhs_44, rhs_44)

    lhs_45 = multiply(sc, multiply(sc, Placement(Vt, (1, 2), 3), split_leg(cop, Vt, 1)),
                      H.associator_inv)
    # sum over (i1, i2) of phi * (1 x e_i1 x e_i2), grouped by i3
    rhs_45 = zero3
    for i3, phi12 in slice_leg(H.associator, 3).items():
        c_ten = multiply(sc, Vt, cop.of_vec(S.cols[i3]))
        rhs_45 = rhs_45 + multiply(sc, Placement(phi12, (2, 3), 3), split_leg(cop, c_ten, 2))
    rec.tensor_check("4.5", "coproduct expansion of V-tilde against the associator",
                     lhs_45, rhs_45)
    return rec


def derive_elements(H: QuasiHopfAlgebra) -> DerivedElements:
    """The derivation chain twist_candidates -> compute_qR_pL ->
    compute_U_Vtilde, unvalidated, like twist_candidates."""
    gamma, delta, f, g = twist_candidates(H)
    qR, pL = compute_qR_pL(H)
    U, Vtilde = compute_U_Vtilde(H, f, g, qR, pL)
    return DerivedElements(gamma, delta, f, g, qR, pL, U, Vtilde)


# -- contraction helpers --------------------------------------------------------


def _contract(H: QuasiHopfAlgebra, t: SparseTensor, groups, vecs=()) -> SparseTensor:
    """merge_pair of one tensor: its legs (and vecs) multiplied into groups."""
    return merge_pair(H.mult, t, SparseTensor(H.dim, 0, H.order, {(): H.one()}), groups, vecs)


def _diagonal(H: QuasiHopfAlgebra) -> SparseTensor:
    """sum_i e_i (x) e_i, the leg that carries the basis index of a family;
    built literally, as (id x eps)Delta would assume 2.2."""
    return SparseTensor(H.dim, 2, H.order, {(i, i): H.one() for i in range(H.dim)})


def _family(lhs: SparseTensor, rhs: SparseTensor, *tag) -> list:
    """((i, *tag), lhs_i, rhs_i) per basis index i: slices along the first leg."""
    ls, rs = slice_leg(lhs, 1), slice_leg(rhs, 1)
    zero = SparseTensor(lhs.dim, lhs.degree - 1, lhs.order, {})
    return [((i,) + tag, ls.get(i, zero), rs.get(i, zero)) for i in range(lhs.dim)]


def _scalar1(H: QuasiHopfAlgebra, c: CycScalar) -> SparseTensor:
    return SparseTensor(1, 1, H.order, {(0,): c})
