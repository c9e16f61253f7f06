"""Finite groups, normalized 3-cocycles, and the twisted function algebra.

Cocycles are stored as exponent tables (a, b, c) -> integer mod N, so that
products of cocycle values reduce to exponent sums and every coefficient
in the closed-form elements stays a single root of unity.

The closed-form constructions at the bottom rebuild the Heisenberg double
products and canonical elements directly from the cocycle; they exist to
be compared, table against table, with the generic machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .algebra import Coproduct, LinearMap, SparseTensor, StructureConstants
from .heisenberg import CanonicalElements
from .quasihopf import QuasiHopfAlgebra
from .report import Recorder
from .scalar import CycScalar, root_of_unity


class GroupError(ValueError):
    pass


class CocycleError(ValueError):
    pass


class FiniteGroup:
    """A finite group as a Cayley table of 0-based indices, validated on construction."""

    def __init__(self, cayley, name: str = "G"):
        self.cayley = tuple(tuple(row) for row in cayley)
        self.order = len(self.cayley)
        self.name = name
        problems = self.check_axioms()
        if problems:
            raise GroupError(problems[0])
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.cayley[e][a] == a == self.cayley[a][e] for a in range(n)):
                return e
        raise GroupError("no identity element")

    def _find_inverses(self):
        n, e = self.order, self.identity
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.cayley[a][b] == e and self.cayley[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupError(f"element {a} has no inverse")
        return tuple(inv)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def check_axioms(self) -> list[str]:
        """Latin-square and associativity violations, empty when a group."""
        n = self.order
        problems = []
        for i, row in enumerate(self.cayley):
            if len(row) != n or any(x < 0 or x >= n for x in row):
                problems.append(f"row {i} is not a permutation of 0..{n - 1}")
            elif sorted(row) != list(range(n)):
                problems.append(f"row {i} repeats an element")
        if problems:  # the column loop assumes rows of length n
            return problems
        for j in range(n):
            col = [self.cayley[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                problems.append(f"column {j} repeats an element")
        if problems:
            return problems
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        problems.append(f"associativity fails at ({a},{b},{c})")
                        if len(problems) >= 10:
                            return problems
        return problems

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        if n < 1:
            raise GroupError("cyclic group order must be positive")
        return FiniteGroup(
            [[(a + b) % n for b in range(n)] for a in range(n)], name=f"Z{n}"
        )

    @staticmethod
    def direct_product(g1: "FiniteGroup", g2: "FiniteGroup") -> "FiniteGroup":
        n1, n2 = g1.order, g2.order
        idx = lambda a1, a2: a1 * n2 + a2
        table = [
            [
                idx(g1.mul(a1, b1), g2.mul(a2, b2))
                for b1 in range(n1)
                for b2 in range(n2)
            ]
            for a1 in range(n1)
            for a2 in range(n2)
        ]
        return FiniteGroup(table, name=f"{g1.name}x{g2.name}")

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass
class Cocycle3:
    """Normalized 3-cocycle with values in the N-th roots of unity."""

    group: FiniteGroup
    root_order: int
    exponents: tuple  # nested n x n x n table of ints mod root_order

    def exponent(self, a: int, b: int, c: int) -> int:
        return self.exponents[a][b][c]

    def omega(self, a: int, b: int, c: int) -> CycScalar:
        return root_of_unity(self.root_order, self.exponents[a][b][c])

    def omega_inv(self, a: int, b: int, c: int) -> CycScalar:
        return root_of_unity(self.root_order, -self.exponents[a][b][c])

    def with_exponent(self, a: int, b: int, c: int, e: int) -> "Cocycle3":
        """Copy with one table entry replaced (for mutation testing)."""
        e %= self.root_order
        return _tabulate(self.group, self.root_order,
                         lambda *key: e if key == (a, b, c) else self.exponent(*key))


def _tabulate(g: FiniteGroup, N: int, exp) -> Cocycle3:
    """The cocycle on g with root order N and exponents exp(a, b, c)."""
    n = range(g.order)
    return Cocycle3(g, N, tuple(tuple(tuple(exp(a, b, c) for c in n) for b in n) for a in n))


@dataclass
class CocycleReport:
    normalization_violations: list
    cocycle_violations: list  # (quadruple, lhs exponent, rhs exponent)

    @property
    def ok(self) -> bool:
        return not (self.normalization_violations or self.cocycle_violations)


def check_cocycle(w: Cocycle3, max_report: int = 10) -> CocycleReport:
    """Exhaustive normalization and cocycle-identity check.

    The identity, for all quadruples:
      w(a,b,c) w(a,bc,d) w(b,c,d) = w(ab,c,d) w(a,b,cd)
    checked additively on exponents mod the root order.
    """
    g = w.group
    n = g.order
    N = w.root_order
    e = g.identity
    norm = list(islice((t for t in product(range(n), repeat=3)
                        if e in t and w.exponent(*t) % N != 0), max_report))
    viol = []
    exps, cayley = w.exponents, g.cayley  # rows looked up once per (a, b) or (a, b, c)
    for a in range(n):
        for b in range(n):
            a_b, ab = exps[a][b], exps[cayley[a][b]]
            for c in range(n):
                # the rows w(a, bc, -), w(b, c, -), w(ab, c, -) and c * -
                a_bc, b_c, ab_c, c_mul = exps[a][cayley[b][c]], exps[b][c], ab[c], cayley[c]
                abc = a_b[c]
                for d in range(n):
                    lhs = abc + a_bc[d] + b_c[d]
                    rhs = ab_c[d] + a_b[c_mul[d]]
                    if (lhs - rhs) % N != 0:
                        viol.append(((a, b, c, d), lhs % N, rhs % N))
                        if len(viol) >= max_report:
                            return CocycleReport(norm, viol)
    return CocycleReport(norm, viol)


def trivial_cocycle(g: FiniteGroup, root_order: int = 1) -> Cocycle3:
    return _tabulate(g, root_order, lambda a, b, c: 0)


def cyclic_cocycle(n: int, k: int) -> Cocycle3:
    """On Z/n: exponent k*a*b*c mod n over representatives 0..n-1."""
    return _tabulate(FiniteGroup.cyclic(n), n, lambda a, b, c: (k * a * b * c) % n)


def klein_cocycle(table_id: int) -> Cocycle3:
    """Bundled exponent tables on Z/2 x Z/2 (all pass check_cocycle)."""
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))

    def bits(x):
        return divmod(x, 2)

    def exp(a, b, c):
        a1, a2 = bits(a)
        b1, b2 = bits(b)
        c1, c2 = bits(c)
        if table_id == 0:
            return 0
        if table_id == 1:
            return (a1 * b1 * c1) % 2
        if table_id == 2:
            return (a1 * b2 * c2) % 2
        if table_id == 3:
            return (a1 * b1 * c1 + a2 * b2 * c2) % 2
        raise CocycleError(f"unknown bundled table id {table_id}")

    return _tabulate(g, 2, exp)


# -- the twisted function algebra ----------------------------------------------


def build_k_omega_G(w: Cocycle3) -> QuasiHopfAlgebra:
    """Function algebra on the group, twisted by the cocycle.

    Delta functions multiply diagonally, the coproduct splits along group
    factorizations, the associator carries 1/omega, and beta collects the
    omega(a, a^-1, a) values.  The cocycle is not checked here: a table that
    is not a cocycle still builds, and the axiom checks report it (the
    pentagon 2.3 fails); files meet check_cocycle in the CLI's parse_input.
    """
    g = w.group
    n = g.order
    N = w.root_order
    one = CycScalar.one(N)

    table = {(a, a): ((a, one),) for a in range(n)}
    unit = {a: one for a in range(n)}
    mult = StructureConstants(n, N, table, unit)

    cop_table: dict = {a: [] for a in range(n)}
    for x in range(n):
        for y in range(n):
            cop_table[g.mul(x, y)].append(((x, y), one))
    cop = Coproduct(n, N, cop_table)

    counit = {g.identity: one}

    phi_entries = {}
    phiinv_entries = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                phi_entries[(a, b, c)] = w.omega_inv(a, b, c)
                phiinv_entries[(a, b, c)] = w.omega(a, b, c)
    phi = SparseTensor(n, 3, N, phi_entries)
    phiinv = SparseTensor(n, 3, N, phiinv_entries)

    alpha = dict(unit)
    beta = {a: w.omega(a, g.inv(a), a) for a in range(n)}
    antipode = LinearMap(n, N, tuple({g.inv(a): one} for a in range(n)))
    return QuasiHopfAlgebra(mult, cop, counit, phi, phiinv, alpha, beta, antipode)


# -- closed forms over the Heisenberg doubles ------------------------------------


def closed_form_double(w: Cocycle3):
    """Both twisted Heisenberg doubles straight from the product formulas,
    as ((dual_sc, dual_action), (plain_sc, plain_action)).

    Dual-side basis (x, a) is x # delta_a; plain-side basis (a, x) is
    delta_a # x.  One pass over (x, y, z) fills both tables,
      (x # delta_{yz})(y # delta_z) = omega(x, y, z) xy # delta_z,
      (delta_x # y)(delta_{xy} # z) = omega(x, y, z) delta_x # yz,
    and every other product of basis pairs is zero.  delta_b acts on
    x # delta_a and on delta_a # x as [b = x].  The tables must match the
    generic construction exactly.
    """
    g = w.group
    n, N = g.order, w.root_order
    one = CycScalar.one(N)
    mul, e = g.mul, g.identity
    dual, plain = {}, {}
    for x, y, z in product(range(n), repeat=3):
        c = w.omega(x, y, z)
        dual[(x * n + mul(y, z), y * n + z)] = ((mul(x, y) * n + z, c),)
        plain[(x * n + y, mul(x, y) * n + z)] = ((x * n + mul(y, z), c),)
    pairs = tuple(product(range(n), repeat=2))
    return ((StructureConstants(n * n, N, dual, {e * n + b: one for b in range(n)}),
             {(x * n + a, x): {x * n + a: one} for x, a in pairs}),
            (StructureConstants(n * n, N, plain, {a * n + e: one for a in range(n)}),
             {(a * n + x, x): {a * n + x: one} for a, x in pairs}))


@dataclass
class TwistedClosedForms:
    U: SparseTensor
    Vtilde: SparseTensor
    elements: CanonicalElements


def closed_form_elements(w: Cocycle3) -> TwistedClosedForms:
    """Every displayed closed form, as tensors over the closed-form doubles."""
    g = w.group
    n = g.order
    N = w.root_order
    e = g.identity
    inv = g.inv
    mul = g.mul
    exp = w.exponent
    m2 = n * n
    flat = lambda x, y: x * n + y
    zN = lambda k: root_of_unity(N, k)

    U = SparseTensor(n, 2, N, {
        (a, b): zN(-exp(inv(mul(a, b)), a, b))
        for a in range(n) for b in range(n)
    })
    Vt = SparseTensor(n, 2, N, {
        (a, b): zN(exp(inv(mul(a, b)), a, b)
                   - exp(inv(b), inv(a), a)
                   - exp(inv(b), b, inv(mul(a, b))))
        for a in range(n) for b in range(n)
    })

    one = CycScalar.one(N)
    W = SparseTensor(m2, 2, N, {
        (flat(e, gg), flat(gg, b)): one for gg in range(n) for b in range(n)
    })
    Wt = SparseTensor(m2, 2, N, {
        (flat(e, a), flat(inv(a), b)): zN(-exp(mul(inv(b), a), inv(a), b))
        for a in range(n) for b in range(n)
    })
    Wbar = SparseTensor(m2, 2, N, {
        (flat(gg, e), flat(b, gg)): one for gg in range(n) for b in range(n)
    })
    What = SparseTensor(m2, 2, N, {
        (flat(a, e), flat(b, inv(a))): zN(
            exp(mul(a, inv(b)), b, inv(a))
            - exp(a, inv(b), b)
            - exp(a, inv(a), mul(a, inv(b)))
        )
        for a in range(n) for b in range(n)
    })

    phi_bold_inv = SparseTensor(m2, 3, N, {
        (flat(e, a), flat(e, b), flat(e, c)): zN(exp(a, b, c))
        for a in range(n) for b in range(n) for c in range(n)
    })
    phi_bold_321s = SparseTensor(m2, 3, N, {
        (flat(e, a), flat(e, b), flat(e, c)): zN(-exp(inv(c), inv(b), inv(a)))
        for a in range(n) for b in range(n) for c in range(n)
    })
    phi_bar_inv_321 = SparseTensor(m2, 3, N, {
        (flat(a, e), flat(b, e), flat(c, e)): zN(exp(c, b, a))
        for a in range(n) for b in range(n) for c in range(n)
    })
    phi_bar_s = SparseTensor(m2, 3, N, {
        (flat(a, e), flat(b, e), flat(c, e)): zN(-exp(inv(a), inv(b), inv(c)))
        for a in range(n) for b in range(n) for c in range(n)
    })

    ce = CanonicalElements(W, Wt, Wbar, What,
                           phi_bold_inv, phi_bold_321s, phi_bar_inv_321, phi_bar_s)
    return TwistedClosedForms(U, Vt, ce)


def expansion_coefficients(w: Cocycle3):
    """The two displayed coefficient formulas for the triple product of the
    plain-side quasi-inverse, as exponent functions of (a, b, c)."""
    inv = w.group.inv
    mul = w.group.mul
    exp = w.exponent

    def lhs_exp(a, b, c):
        return (
            exp(mul(a, inv(b)), b, inv(a))
            + exp(mul(a, inv(c)), c, inv(a))
            + exp(mul(b, inv(c)), mul(c, inv(a)), mul(a, inv(b)))
            + exp(c, inv(a), mul(a, inv(b)))
            - exp(a, inv(b), b)
            - exp(a, inv(a), mul(a, inv(b)))
            - exp(a, inv(c), c)
            - exp(a, inv(a), mul(a, inv(c)))
            - exp(mul(b, inv(a)), mul(a, inv(c)), mul(c, inv(a)))
            - exp(mul(b, inv(a)), mul(a, inv(b)), mul(b, inv(c)))
        )

    def rhs_exp(a, b, c):
        return (
            exp(mul(b, inv(c)), c, inv(b))
            + exp(mul(a, inv(b)), b, inv(a))
            - exp(b, inv(c), c)
            - exp(b, inv(b), mul(b, inv(c)))
            - exp(a, inv(b), b)
            - exp(a, inv(a), mul(a, inv(b)))
            - exp(inv(a), mul(a, inv(b)), mul(b, inv(c)))
        )

    return lhs_exp, rhs_exp


def expansion_exponents(w: Cocycle3) -> dict:
    """(a, b, c) -> (lhs, rhs) of expansion_coefficients, for every triple."""
    lhs_exp, rhs_exp = expansion_coefficients(w)
    return {t: (lhs_exp(*t), rhs_exp(*t)) for t in product(range(w.group.order), repeat=3)}


def expansion_tensor(w: Cocycle3, which: str, exponents: dict | None = None) -> SparseTensor:
    """Sum of the displayed coefficients against delta_a#1 x delta_b#a^-1 x
    delta_c#b^-1; exponents is expansion_exponents(w) if already formed."""
    g = w.group
    n, e, inv = g.order, g.identity, g.inv
    exponents = exponents or expansion_exponents(w)
    side = 0 if which == "lhs" else 1
    return SparseTensor(n * n, 3, w.root_order, {
        (a * n + e, b * n + inv(a), c * n + inv(b)): root_of_unity(w.root_order, ex[side])
        for (a, b, c), ex in exponents.items()
    })


def check_section5_expansions(w: Cocycle3, lhs: SparseTensor, rhs: SparseTensor,
                              rec: Recorder | None = None) -> Recorder:
    """The two displayed coefficient formulas for the plain-side triple
    products: they must agree with each other for every (a, b, c) and each
    must reproduce its product in the double, lhs or rhs: the two
    heisenberg.pentagon_lefts of the plain-side quasi-inverse."""
    rec = rec or Recorder()
    exponents = expansion_exponents(w)
    first_bad = next((t for t, (l, r) in exponents.items() if (l - r) % w.root_order), None)
    rec.bool_check("5.exp-agree", "the two displayed coefficient formulas agree",
                   first_bad is None,
                   detail="" if first_bad is None else f"first mismatch at {first_bad}")
    rec.tensor_check("5.exp-lhs", "triple product matches the first coefficient formula",
                     lhs, expansion_tensor(w, "lhs", exponents))
    rec.tensor_check("5.exp-rhs", "corrected product matches the second coefficient formula",
                     rhs, expansion_tensor(w, "rhs", exponents))
    return rec


def invertibility_criterion(w: Cocycle3):
    """(holds, obstructions): whether omega(a, a^-1, a) = 1 for every a.

    A failing a is reported with the exponent; the first obstruction drives
    the non-invertibility of both canonical elements.
    """
    g = w.group
    obstructions = []
    for a in range(g.order):
        ex = w.exponent(a, g.inv(a), a) % w.root_order
        if ex != 0:
            obstructions.append((a, ex))
    return (not obstructions), obstructions


def coboundary_exponents(g: FiniteGroup, phi2, N: int) -> Cocycle3:
    """The coboundary of a normalized 2-cochain given as an exponent table."""
    return _tabulate(g, N, lambda a, b, c: (phi2[b][c] - phi2[g.mul(a, b)][c]
                                            + phi2[a][g.mul(b, c)] - phi2[a][b]) % N)
