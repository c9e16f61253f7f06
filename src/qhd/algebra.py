"""Finite-dimensional linear algebra over CycScalar.

Vectors and dual vectors are sparse dicts {basis index: coefficient}.
Tensors of degree d are sparse dicts keyed by d-tuples of indices.  All
products are exact; zero coefficients are pruned on construction so that
dict equality is honest tensor equality.

merge_pair is the one join of the tensor kernels: multiply is merge_pair
with leg i of x times leg i of y, and a single tensor is contracted by
merge_pair against the degree-0 unit.  A factor of multiply may be a
Placement, a tensor on some legs with the unit on the others, whose unit
legs enter merge_pair as the vector sc.unit instead of being built.  On a
table whose stored unit is two-sided merge_pair drops that vector from its
group, so a unit leg passes the other factor's index through; on any other
table it is multiplied in.  A factor of merge_pair or multiply may be a
Mapped, a tensor with leg maps (S, S^-1, Delta) applied, map_legs(t, ...),
whose images the kernel reads entry by entry instead of the built tensor.
The loop of merge_pair over candidate entry pairs is Python source
generated for the call's plan and compiled once per plan signature (see
_compile_kernel).

Every CycScalar is interned (see scalar.py), so a table, coproduct or map
coefficient equal to one is CycScalar.one(order) itself, and the tensor
kernels skip the product with such a coefficient on an `is` test.  Since
that skips the order test of CycScalar.__mul__ too, merge_pair (so
multiply), multiplication_system and map_legs (so split_leg and apply_leg)
check on entry that their tensors have the dimension and the order of the
table or map.  counit_leg has no such order to check: it skips only the one
of its tensor's own order, so a counit of another order still fails in
__mul__.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from operator import itemgetter

from .scalar import CycScalar


class AlgebraError(ValueError):
    pass


class SingularMapError(AlgebraError):
    """Raised when a linear map that must be inverted is singular."""


def _prune(entries: dict) -> dict:
    return {k: c for k, c in entries.items() if not c.is_zero()}


def _check_space(dim: int, order: int, *tensors: SparseTensor):
    """Entry guard of the kernels: a tensor of another dimension would give a
    result of the wrong dimension, one of another order would slip past the
    order test of the products skipped with the interned one."""
    for t in tensors:
        if t.dim != dim or t.order != order:
            raise AlgebraError(f"tensor of dimension {t.dim} and order {t.order} used "
                               f"with dimension {dim} and order {order}")


def _owned(dim: int, degree: int, order: int, out: dict) -> "SparseTensor":
    """A kernel's result as a tensor.  No one else holds `out`, so its zero
    entries are deleted in place: the constructor's pruned copy would hold
    the largest dict of the call twice.  A zero is the interned zero."""
    zero = CycScalar.zero(order)
    for k in [k for k, c in out.items() if c is zero]:
        del out[k]
    t = SparseTensor(dim, degree, order, {})
    t.entries = out
    return t


class SparseTensor:
    """Degree-d element of V^(x d) with per-leg dimension dim."""

    __slots__ = ("dim", "degree", "order", "entries")

    def __init__(self, dim: int, degree: int, order: int, entries: dict):
        self.dim = dim
        self.degree = degree
        self.order = order
        self.entries = _prune(entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __add__(self, other: "SparseTensor") -> "SparseTensor":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return _owned(self.dim, self.degree, self.order, out)

    def __sub__(self, other: "SparseTensor") -> "SparseTensor":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            prev = out.get(k)
            out[k] = -c if prev is None else prev - c
        return _owned(self.dim, self.degree, self.order, out)

    def scale(self, c: CycScalar) -> "SparseTensor":
        if c.is_zero():
            return SparseTensor(self.dim, self.degree, self.order, {})
        return _owned(self.dim, self.degree, self.order,
                      {k: c * v for k, v in self.entries.items()})

    def _compat(self, other: "SparseTensor"):
        if (self.dim, self.degree, self.order) != (other.dim, other.degree, other.order):
            raise AlgebraError(
                f"tensor mismatch: dim {self.dim}/{other.dim}, "
                f"degree {self.degree}/{other.degree}, order {self.order}/{other.order}"
            )

    def __repr__(self):
        return f"SparseTensor(dim={self.dim}, degree={self.degree}, terms={len(self.entries)})"


class StructureConstants:
    """Multiplication table of a finite-dimensional unital algebra.

    table[(i, j)] lists the expansion of e_i * e_j, as (k, coeff) pairs or
    as a {k: coeff} dict; zero terms and empty cells are dropped.
    Associativity is a checkable property here, not an assumption, because
    the Heisenberg double products stored in the same shape are generally
    nonassociative.

    left_block[i] and right_block[j] label the connected components of the
    partner graph, whose edges join left index i to right index j when
    (i, j) is a cell of the table.  So e_i * e_j != 0 implies
    left_block[i] == right_block[j]; the converse holds when every block is
    complete, as for the group, function and double algebras built here.
    The table and the unit are not changed after construction.
    """

    def __init__(self, dim: int, order: int, table: dict, unit: dict):
        self.dim = dim
        self.order = order
        self.table = {}
        zero = CycScalar.zero(order)
        for ij, ent in table.items():
            terms = tuple(ent.items()) if type(ent) is dict else tuple(ent)
            for _, c in terms:  # a zero of another order is not `zero`: test it too
                if c is zero or c.order != order:
                    terms = tuple((k, c) for k, c in terms if not c.is_zero())
                    break
            if terms:
                self.table[ij] = terms
        self.unit = _prune(dict(unit))
        self._unit_failures = None  # see unit_failures
        rp: dict[int, list] = {}
        lp: dict[int, list] = {}
        for (i, j) in self.table:
            rp.setdefault(i, []).append(j)
            lp.setdefault(j, []).append(i)
        self.right_partners = {i: tuple(sorted(js)) for i, js in rp.items()}
        self.left_partners = {j: tuple(sorted(is_)) for j, is_ in lp.items()}
        # union-find over left nodes 0..dim-1 and right nodes dim..2*dim-1
        root = list(range(2 * dim))

        def find(a):
            while root[a] != a:
                root[a] = a = root[root[a]]
            return a

        for (i, j) in self.table:
            root[find(dim + j)] = find(i)
        self.left_block = tuple(find(i) for i in range(dim))
        self.right_block = tuple(find(dim + j) for j in range(dim))

    def basis_product(self, i: int, j: int):
        return self.table.get((i, j), ())

    def vec_mult(self, u: dict, v: dict) -> dict:
        out: dict = {}
        table = self.table
        for i, cu in u.items():
            for j, cv in v.items():
                ent = table.get((i, j))
                if ent:
                    c = cu * cv
                    for k, ck in ent:
                        prev = out.get(k)
                        out[k] = c * ck if prev is None else prev + c * ck
        return _prune(out)

    def unit_tensor(self, degree: int) -> SparseTensor:
        """1 (x) ... (x) 1, the unit of the degree-fold tensor power."""
        return tensor_product(*[vec_tensor(self.dim, self.order, self.unit)] * degree)

    def check_unit(self) -> list:
        """Basis indices where the stored unit fails the two-sided unit law."""
        bad = []
        for i in range(self.dim):
            e = {i: CycScalar.one(self.order)}
            if self.vec_mult(self.unit, e) != e or self.vec_mult(e, self.unit) != e:
                bad.append(i)
        return bad

    def unit_failures(self) -> tuple:
        """check_unit's indices, computed on the first call and kept, since
        the table and the unit are fixed at construction: the `unit` and
        `3.unit-*` checks and merge_pair's unit rule read this one result."""
        if self._unit_failures is None:
            self._unit_failures = tuple(self.check_unit())
        return self._unit_failures

    def product_tensor(self) -> SparseTensor:
        """sum_ij e_i (x) e_j (x) e_i e_j, the table as one tensor; a cell that
        lists an index twice holds the sum of its terms, as vec_mult adds them."""
        out: dict = {}
        for (i, j), ent in self.table.items():
            for k, c in ent:
                prev = out.get((i, j, k))
                out[(i, j, k)] = c if prev is None else prev + c
        return _owned(self.dim, 3, self.order, out)

    def check_associative(self) -> list:
        """Violating (i, j, k) triples, sorted, empty when the product associates:
        (e_i e_j) e_k and e_i (e_j e_k) as merge_pair calls of two-factor groups."""
        p, diag = self.product_tensor(), _diagonal(self)
        left = merge_pair(self, p, diag, ((("a", 0),), (("a", 1),), (("b", 0),),
                                          (("a", 2), ("b", 1))))
        right = merge_pair(self, diag, p, ((("a", 0),), (("b", 0),), (("b", 1),),
                                           (("a", 1), ("b", 2))))
        keys = set(left.entries) | set(right.entries)
        return sorted({k[:3] for k in keys if left.entries.get(k) != right.entries.get(k)})


class Coproduct:
    """Sparse expansion table i -> sum of (j, k) pairs for Delta(e_i)."""

    def __init__(self, dim: int, order: int, table: dict):
        self.dim = dim
        self.order = order
        self.table = {i: tuple((tuple(jk), c) for jk, c in ent if not c.is_zero())
                      for i, ent in table.items()}

    def of_basis(self, i: int):
        return self.table.get(i, ())

    def of_vec(self, v: dict) -> SparseTensor:
        out: dict = {}
        for i, c in v.items():
            for jk, cd in self.table.get(i, ()):
                prev = out.get(jk)
                out[jk] = c * cd if prev is None else prev + c * cd
        return _owned(self.dim, 2, self.order, out)


class LinearMap:
    """Exact linear endomorphism, stored by columns (image of each basis vector)."""

    def __init__(self, dim: int, order: int, cols):
        self.dim = dim
        self.order = order
        self.cols = tuple(_prune(dict(col)) for col in cols)
        # leg images for _map_leg: j -> ((i,), M_ij) over the nonzeros of column j
        self.images = {j: tuple(((i,), c) for i, c in col.items())
                       for j, col in enumerate(self.cols)}

    @staticmethod
    def identity(dim: int, order: int) -> "LinearMap":
        one = CycScalar.one(order)
        return LinearMap(dim, order, tuple({i: one} for i in range(dim)))

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols


def invert_map(m: LinearMap) -> LinearMap:
    """Exact inverse, column j solving M x = e_j; raises SingularMapError."""
    n = m.dim
    rows: list = [{} for _ in range(n)]
    for j, col in enumerate(m.cols):
        for i, c in col.items():
            rows[i][j] = c
    zero, one = CycScalar.zero(m.order), CycScalar.one(m.order)
    cols = []
    for j in range(n):
        sol = solve_linear(rows, [one if i == j else zero for i in range(n)], n, m.order)
        if isinstance(sol, Inconsistency):
            raise SingularMapError(f"map is singular (e_{j} is not in its image)")
        cols.append(sol)
    return LinearMap(n, m.order, cols)


@dataclass
class Inconsistency:
    """Witness that a linear system has no solution: a fully reduced
    equation with every coefficient eliminated but a nonzero right side."""

    row_index: int
    rhs: CycScalar


def _system_of(rows: list, rhs: list, ncols: int):
    """A system _reduce_system may reduce in place, from the caller's dict
    rows: (rows, held, rhs) with copied rows and right sides, a row of one
    entry as a (col, coeff) pair, and held[col] the number of rows holding
    col.  Refuses right sides that do not match the rows in number, and a
    column outside 0..ncols-1, which the elimination would never reach."""
    if len(rows) != len(rhs):
        raise AlgebraError(f"{len(rows)} rows but {len(rhs)} right sides")
    held = [0] * ncols
    system = []
    for row in rows:
        for c in row:
            if not 0 <= c < ncols:
                raise AlgebraError(f"a column lies outside 0..{ncols - 1}")
            held[c] += 1
        system.append(dict(row) if len(row) > 1 else next(iter(row.items()), None))
    return system, held, list(rhs)


def _reduce_system(rows: list, held: list, rhs: list, ncols: int, order: int):
    """The Gauss-Jordan elimination behind solve_linear and the probe, in
    place on a system the caller hands over.

    rows[r] is None for an empty row, a (col, coeff) pair for a row of one
    entry, or a dict {col: coeff} of several; held[col] is the number of
    rows holding col, and rhs[r] is row r's right side.  Returns (rows,
    rhs, pivots): the reduced rows and right sides, in their positions, and
    col -> position of that column's pivot row, in column order.  The pivot
    rows in column order are the reduced row echelon form of the system,
    each with its right side.  A pair (col, v) among the reduced rows is a
    settled pivot row that keeps its stored entry v while its right side is
    scaled by v^-1, so a reader takes it as {col: one}.

    A row that is alone on its column and holds no other column is a
    connected component of its own.  That row is the column's pivot (it is
    not one already, since a pivot row keeps its own pivot column), nothing
    is eliminated, and a nonzero right side is scaled by the memoized
    inverse of the entry.  A pair with held 1 is such a row from the start:
    it is settled where it lies, with no copy and no index entry.  On kωG
    every row of both probe systems is one.  Every other row becomes a dict
    in the column -> rows index of the elimination, and one that elimination
    leaves holding a single column held by no other row is settled in the
    same step, as {col: one}.
    """
    zero, one = CycScalar.zero(order), CycScalar.one(order)
    settled: list = [None] * ncols  # col -> position of the pair settled on it
    holders: dict[int, set] = {}  # col -> positions of the other rows holding it
    for r, row in enumerate(rows):
        if row is None:
            continue
        if type(row) is tuple:
            col, v = row
            if held[col] == 1:
                settled[col] = r
                if rhs[r] is not zero:
                    rhs[r] = rhs[r] * v.inverse()
                continue
            row = rows[r] = {col: v}
        for c in row:
            holders.setdefault(c, set()).add(r)
    pivots: dict[int, int] = {}  # col -> row position in `rows`
    used: set[int] = set()
    for col, piv in enumerate(settled):
        if piv is not None:
            pivots[col] = piv
            continue
        held_by = holders.get(col)
        if not held_by:
            continue
        if len(held_by) == 1:
            (piv,) = held_by
            # isolated: it meets no other row, so `used` need not hold it
            if len(rows[piv]) == 1:
                pivots[col] = piv
                if not rhs[piv].is_zero():
                    rhs[piv] = rhs[piv] * rows[piv][col].inverse()
                rows[piv] = {col: one}
                continue
        piv = min((r for r in held_by if r not in used), default=None)
        if piv is None:
            continue
        used.add(piv)
        pivots[col] = piv
        inv = rows[piv][col].inverse()
        # the pivot entry times inv is one by construction
        prow = rows[piv] = {c: one if c == col else v * inv for c, v in rows[piv].items()}
        rest = [(c, v) for c, v in prow.items() if c != col]
        prhs = rhs[piv]
        if prhs.is_zero():  # then rhs[r] - f * prhs is rhs[r]
            prhs = None
        else:
            prhs = rhs[piv] = prhs * inv
        for r in held_by:  # no later column reads holders[col] again
            if r == piv:
                continue
            row = rows[r]
            f = row.pop(col)  # f - f * 1 is zero
            for c, v in rest:
                prev = row.get(c)
                nv = -f * v if prev is None else prev - f * v
                if nv.is_zero():
                    if prev is not None:
                        del row[c]
                        holders[c].discard(r)
                else:
                    if prev is None:
                        holders[c].add(r)
                    row[c] = nv
            if prhs is not None:
                rhs[r] = rhs[r] - f * prhs
    return rows, rhs, pivots


def _read_solution(rows: list, rhs: list, pivots: dict, order: int):
    """The solution of a reduced system (free columns set to zero), or the
    Inconsistency of its lowest-numbered row left empty with a nonzero right
    side.  A pivot row always keeps its pivot entry, so it is never empty."""
    zero = CycScalar.zero(order)
    for r, row in enumerate(rows):
        if not row and rhs[r] is not zero:
            return Inconsistency(row_index=r, rhs=rhs[r])
    return {col: rhs[r] for col, r in pivots.items() if rhs[r] is not zero}


def solve_linear(rows: list, rhs: list, ncols: int, order: int):
    """Exact sparse Gauss-Jordan elimination on rows of {col: coeff}.

    Returns a solution {col: coeff} (free columns set to zero) or an
    Inconsistency certificate.  Columns are eliminated in increasing order;
    a column's pivot is the lowest-numbered row not yet used as a pivot that
    holds the column, i.e. the first nonzero entry of a row-major scan, which
    keeps reports deterministic.  The certificate names the lowest-numbered
    row that the elimination leaves empty with a nonzero right side.

    A column -> rows index, updated as entries appear and cancel during
    elimination, finds each pivot and the rows to eliminate, so the work
    follows the nonzeros touched rather than rows x columns.  Each distinct
    pivot value is inverted once per run (CycScalar.inverse is memoized).
    No product whose result is known is computed: the normalised pivot
    entry is stored as the exact one of Q(zeta_order), the pivot column is
    dropped from each eliminated row, and a zero pivot right side is
    neither scaled nor subtracted from the other rows, and an isolated row,
    one alone on its column and holding no other, is settled in one step
    (see _reduce_system).  The caller's row dicts are not modified.

    Raises AlgebraError when the number of right sides is not the number of
    rows, or when a row holds a column outside 0..ncols-1, which the
    elimination would never reach.
    """
    return _read_solution(*_reduce_system(*_system_of(rows, rhs, ncols), ncols, order), order)


# -- tensor operations --------------------------------------------------------


class Placement:
    """A factor of multiply that is a tensor t on the given legs (1-based,
    leg i of t on legs[i]) of the degree-d tensor power, the algebra's unit
    on the other legs: leg_embed(t, legs, d, sc.unit), not built.  Its
    entries are those stored, t's."""

    __slots__ = ("tensor", "legs", "degree")

    def __init__(self, t: SparseTensor, legs, d: int):
        self.tensor, self.legs, self.degree = t, _leg_positions(t, legs, d), d

    @property
    def entries(self) -> dict:
        return self.tensor.entries


def multiply(sc: StructureConstants, x, y) -> SparseTensor:
    """Componentwise product in the degree-d tensor power of the algebra:
    merge_pair with leg i of x times leg i of y in output leg i.

    Either factor may be a Placement.  Each of its unit legs enters the
    group of its output leg as the vector factor sc.unit, so the product is
    the product with the built leg_embed tensor on any table, even one whose
    stored unit fails the unit law (a group of at most two factors is exact,
    see merge_pair).  Where the unit is two-sided, merge_pair drops the
    factor, so a unit leg costs no product; a product of two full tensors
    holds no unit factor and never computes the unit law.

    Either factor, or the tensor of a Placement, may be a Mapped.  A Mapped
    y beside an x that is not one is merge_pair's a side, where its images
    cost least, with each group still x's leg times y's."""
    (xt, xlegs, d), (yt, ylegs, dy) = _placed(x), _placed(y)
    if (xt.dim, d, xt.order) != (yt.dim, dy, yt.order):
        raise AlgebraError(f"tensor mismatch: dim {xt.dim}/{yt.dim}, "
                           f"degree {d}/{dy}, order {xt.order}/{yt.order}")
    if xt.dim != sc.dim:
        raise AlgebraError("tensor dimension does not match the algebra")
    swap = isinstance(yt, Mapped) and not isinstance(xt, Mapped)
    on_x = {p: ("b" if swap else "a", i) for i, p in enumerate(xlegs)}
    on_y = {p: ("a" if swap else "b", i) for i, p in enumerate(ylegs)}
    unit = ("v", 0)
    groups = tuple((on_x.get(p, unit), on_y.get(p, unit)) for p in range(1, d + 1))
    return merge_pair(sc, *((yt, xt) if swap else (xt, yt)), groups, (sc.unit,))


def _placed(x) -> tuple:
    """(tensor, legs, degree) of a factor of multiply."""
    if isinstance(x, Placement):
        return x.tensor, x.legs, x.degree
    return x, range(1, x.degree + 1), x.degree


def multiplication_system(sc: StructureConstants, x: SparseTensor, side: str) -> tuple:
    """The linear map Y -> x*Y (side "right") or Y -> Y*x (side "left") on
    degree-2 tensors as a system for _reduce_system, with a basis key
    (k1, k2) flattened to k1 * dim + k2 for both rows and columns: (rows,
    held), where row r holds the r-th component of the product with the
    col-th basis tensor as its entry on col, and held[col] is the number of
    rows holding col.  An empty row is None, a row of one entry a (col,
    coeff) pair, and a row of several a dict {col: coeff}.

    One pass over x's entries and their partners in the structure
    constants; equal to the components of one `multiply` per basis tensor.
    A row stays a pair until a second term reaches it, and only then
    becomes a dict.  An entry set by one term is a product of nonzero
    scalars, so only those dicts can hold a zero: they are pruned, and one
    left with fewer than two entries goes back to a pair or to None.
    """
    if x.degree != 2:
        raise AlgebraError("multiplication rows need a degree-2 tensor")
    _check_space(sc.dim, sc.order, x)
    dim = sc.dim
    table = sc.table
    one = CycScalar.one(sc.order)
    right = side == "right"
    partners = sc.right_partners if right else sc.left_partners
    rows: list = [None] * (dim * dim)
    held = [0] * (dim * dim)
    met: list = []  # positions of the rows that a second term made dicts
    for (a1, a2), cx in x.entries.items():
        p2 = partners.get(a2)
        if not p2:
            continue
        second = [(b2, table[(a2, b2) if right else (b2, a2)]) for b2 in p2]
        for b1 in partners.get(a1, ()):
            first = b1 * dim
            for k1, c1 in table[(a1, b1) if right else (b1, a1)]:
                c = cx if c1 is one else cx * c1
                base = k1 * dim
                for b2, products in second:
                    col = first + b2
                    for k2, c2 in products:
                        r = base + k2
                        term = c if c2 is one else c * c2
                        row = rows[r]
                        if row is None:
                            rows[r] = (col, term)
                            held[col] += 1
                            continue
                        if type(row) is tuple:
                            met.append(r)
                            row = rows[r] = dict([row])
                        prev = row.get(col)
                        if prev is None:
                            row[col] = term
                            held[col] += 1
                        else:
                            row[col] = prev + term
    for r in met:
        row = rows[r]
        for c in [c for c, v in row.items() if v.is_zero()]:
            del row[c]
            held[c] -= 1
        if len(row) < 2:
            rows[r] = next(iter(row.items()), None)
    return rows, held


def tensor_product(*tensors: SparseTensor) -> SparseTensor:
    first = tensors[0]
    entries = first.entries
    degree = first.degree
    for t in tensors[1:]:
        if t.dim != first.dim:
            raise AlgebraError("tensor factors live over different spaces")
        entries = {
            ka + kb: ca * cb
            for ka, ca in entries.items()
            for kb, cb in t.entries.items()
        }
        degree += t.degree
    if len(tensors) == 1:
        entries = dict(entries)
    return _owned(first.dim, degree, first.order, entries)


def vec_tensor(dim: int, order: int, v: dict) -> SparseTensor:
    return SparseTensor(dim, 1, order, {(i,): c for i, c in v.items()})


def _diagonal(space) -> SparseTensor:
    """sum_i e_i (x) e_i over space's basis (space has a dim and an order), built
    literally, as (id x eps)Delta would assume the counit law."""
    one = CycScalar.one(space.order)
    return SparseTensor(space.dim, 2, space.order, {(i, i): one for i in range(space.dim)})


def _leg_positions(t: SparseTensor, legs, d: int) -> tuple:
    legs = tuple(legs)
    if len(legs) != t.degree or len(set(legs)) != len(legs):
        raise AlgebraError("leg positions must be distinct and match the degree")
    if any(p < 1 or p > d for p in legs):
        raise AlgebraError(f"leg positions {legs} out of range for degree {d}")
    return legs


def leg_embed(t: SparseTensor, legs, d: int, unit: dict) -> SparseTensor:
    """Place t's legs at the given positions, the algebra unit elsewhere.
    multiply takes the same factor unbuilt as a Placement."""
    legs = _leg_positions(t, legs, d)
    others = [p for p in range(1, d + 1) if p not in legs]
    out: dict = {}
    unit_items = tuple(unit.items())
    for key, c in t.entries.items():
        fills = [((), c)]
        for _ in others:
            fills = [(uk + (i,), uc * ci) for uk, uc in fills for i, ci in unit_items]
        for uk, uc in fills:
            full = [0] * d
            for pos, idx in zip(legs, key):
                full[pos - 1] = idx
            for pos, idx in zip(others, uk):
                full[pos - 1] = idx
            fk = tuple(full)
            prev = out.get(fk)
            out[fk] = uc if prev is None else prev + uc
    return _owned(t.dim, d, t.order, out)


def _leg_steps(t: SparseTensor, steps) -> list:
    """map_legs' steps (m, leg) as _map_leg's (leg, images, grow), each map
    checked against t's space."""
    if not steps:
        raise AlgebraError("leg maps need at least one step")
    for m, _ in steps:
        _check_space(m.dim, m.order, t)
    return [(leg, m.table, 1) if isinstance(m, Coproduct) else (leg, m.images, 0)
            for m, leg in steps]


def _composed(degree: int, steps) -> list:
    """The steps (leg, images, grow) composed per leg of a tensor of the given
    degree: [(o, grow, leg_steps)] over the legs o (0-based) that a step
    acts on, in order, where grow is how many legs o gains in all and
    leg_steps lists the steps that act on what o became, each as (offset
    in o's segment of the output key, images)."""
    origin = list(range(degree))  # the leg of t that each current leg came from
    on_leg: dict[int, list] = {}
    for leg, images, grow in steps:
        o = origin[leg - 1]
        on_leg.setdefault(o, []).append((leg - 1 - origin.index(o), images))
        origin[leg - 1 : leg] = [o] * (grow + 1)
    return [(o, origin.count(o) - 1, on_leg[o]) for o in sorted(on_leg)]


def _segments(leg_steps, i, one) -> list:
    """The images of index i on one leg under its composed steps (see
    _composed): (segment of the output key, coeff) pairs."""
    (_, images), *rest = leg_steps  # the first step on a leg has offset 0
    segs = images.get(i, ())
    for q, images in rest:
        segs = [(s[:q] + sub + s[q + 1 :], cs if c is one else (c if cs is one else c * cs))
                for s, c in segs for sub, cs in images.get(s[q], ())]
    return segs


def _map_leg(t: SparseTensor, steps) -> SparseTensor:
    """Apply leg maps to t in one pass over its entries.

    Each step (leg, images, grow) replaces the index on one leg (1-based, of
    the tensor the earlier steps leave) by each key tuple of its image
    {index: ((key tuple, coeff), ...)}; the tuples have grow + 1 entries.
    The steps are composed per leg of t (_composed): an index i on leg o
    maps to a short list of (segment of the output key, coeff), worked out
    the first time i meets leg o (_segments).  Each entry then yields its
    output terms directly, with no intermediate tensor built or pruned; by
    linearity the sums are those of the steps one at a time.
    """
    one = CycScalar.one(t.order)
    (o, seen, leg_steps), *others = [(o, {}, ls) for o, _, ls in _composed(t.degree, steps)]
    out: dict = {}
    for key, c in t.entries.items():
        im = seen.get(key[o])
        if im is None:
            im = seen[key[o]] = _segments(leg_steps, key[o], one)
        start = o + 1
        for o2, seen2, steps2 in others:  # join the segments of the other legs
            im2 = seen2.get(key[o2])
            if im2 is None:
                im2 = seen2[key[o2]] = _segments(steps2, key[o2], one)
            mid = key[start:o2]
            im = [(s + mid + s2, cs2 if cs is one else (cs if cs2 is one else cs * cs2))
                  for s, cs in im for s2, cs2 in im2]
            start = o2 + 1
        if not im:
            continue
        head, tail = key[:o], key[start:]
        for s, cs in im:
            nk = head + s + tail
            term = c if cs is one else c * cs
            prev = out.get(nk)
            out[nk] = term if prev is None else prev + term
    return _owned(t.dim, t.degree + sum(g for _, _, g in steps), t.order, out)


def map_legs(t: SparseTensor, *steps) -> SparseTensor:
    """Several split_leg and apply_leg steps in one pass over t.

    Each step is (m, leg): a Coproduct m splits the leg (1-based, of the
    tensor the earlier steps leave), a LinearMap m maps it.  Equal to the
    nested calls with the first step innermost, so map_legs(t, (cop, 1),
    (S, 2)) is apply_leg(S, split_leg(cop, t, 1), 2).  A result that one
    merge_pair or multiply reads and drops is better passed to it unbuilt,
    as Mapped(t, *steps): the contraction then reads each entry's images
    inside its own loop.
    """
    return _map_leg(t, _leg_steps(t, steps))


class Mapped:
    """A factor of merge_pair or multiply that is t with leg maps applied:
    by definition the tensor map_legs(t, *steps), not built.  The
    contraction composes the steps per leg of t once per call and loops
    over each entry's images where it would read the built entry."""

    __slots__ = ("tensor", "steps", "dim", "degree", "order")

    def __init__(self, t: SparseTensor, *steps):
        self.tensor, self.steps = t, _leg_steps(t, steps)
        self.dim, self.order = t.dim, t.order
        self.degree = t.degree + sum(g for _, _, g in self.steps)

    @property
    def entries(self) -> dict:
        """The entries stored, t's, which the contraction reads."""
        return self.tensor.entries


def split_leg(cop: Coproduct, t: SparseTensor, leg: int) -> SparseTensor:
    """Apply the coproduct to one leg (1-based), raising the degree by one."""
    return map_legs(t, (cop, leg))


def apply_leg(m: LinearMap, t: SparseTensor, leg: int) -> SparseTensor:
    return map_legs(t, (m, leg))


def counit_leg(eps: dict, t: SparseTensor, leg: int) -> SparseTensor:
    return _map_leg(t, ((leg, {i: (((), e),) for i, e in eps.items()}, -1),))


def slice_leg(t: SparseTensor, leg: int) -> dict:
    """{index on one leg (1-based): the tensor of t's other legs at that index}."""
    pos = leg - 1
    parts: dict = {}
    for key, c in t.entries.items():
        parts.setdefault(key[pos], {})[key[:pos] + key[pos + 1 :]] = c
    return {i: SparseTensor(t.dim, t.degree - 1, t.order, e) for i, e in parts.items()}


def permute_legs(t: SparseTensor, perm) -> SparseTensor:
    """perm[i] gives the source leg (0-based) for output leg i; no two keys meet."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.degree)):
        raise AlgebraError(f"{perm} is not a permutation of {t.degree} legs")
    move = itemgetter(*perm) if len(perm) > 1 else tuple
    return _owned(t.dim, t.degree, t.order, {move(k): c for k, c in t.entries.items()})


def _chain_pairs(table, items, one):
    """Fold a product chain of basis indices / sparse vectors into a short
    list of (index, coeff) pairs, avoiding dict churn on singleton paths."""
    acc = None
    for it in items:
        cur = ((it, one),) if isinstance(it, int) else tuple(it.items())
        if acc is None:
            acc = cur
            continue
        nxt = []
        for i, ci in acc:
            for j, cj in cur:
                ent = table.get((i, j))
                if ent:
                    cc = cj if ci is one else (ci if cj is one else ci * cj)
                    for k, ck in ent:
                        nxt.append((k, cc if ck is one else cc * ck))
        if not nxt:
            return ()
        acc = nxt
    if acc is None:
        return ()
    if len(acc) == 1:
        return tuple(acc)
    d: dict = {}
    for k, c in acc:
        prev = d.get(k)
        d[k] = c if prev is None else prev + c
    return tuple((k, c) for k, c in d.items() if not c.is_zero())


def merge_pair(sc: StructureConstants, a: SparseTensor, b: SparseTensor, groups, vecs=(), sums=()):
    """Multiply legs of two tensors (and fixed vectors) into output legs.

    Either tensor may be a Mapped, read as the map_legs tensor it stands
    for: the kernel loops over each entry's images where it would read an
    entry, and the shape of the view joins the plan (see _compile_kernel).
    Each group is a tuple of factor refs ('a', leg) / ('b', leg) / ('v', k),
    multiplied left to right inside the algebra; the output tensor has one
    leg per group.  A pair (a leg, b leg) in sums names two legs that must
    carry the same basis index, summed out with no output leg: sum_i s_i t_i
    over the slices of a and b at e_i is one call.  Every input leg must
    appear exactly once overall, in a group or in sums.

    A vector that is the table's own unit (vecs[k] is sc.unit) is dropped
    from a group of several factors when the stored unit is two-sided (see
    StructureConstants.unit_failures, computed on the first such group); a
    group of unit factors alone keeps one.  That is exact on any table,
    associative or not: the group is folded left to right, and prefix * 1 =
    prefix and 1 * x = x follow from the unit law on the basis by linearity.
    The adjacent a/b pairs, and so the joins and tests below, are those of
    the group as given.  Where the unit fails either side it stays a factor.

    The groups become a plan once per call: a group of one tensor leg passes
    its index through, a group of two tensor legs is one table lookup, and
    any other group (with a vector, or of three or more factors) is folded
    by _chain_pairs once per tuple of the tensor indices it reads: the fold,
    or () when an a/b pair inside it is not a cell of the table, is kept for
    the rest of the call, since the block join makes many candidates read
    the same indices (on k^omega G about n^2 tuples for n^4 candidates).
    The compiled kernel indexes b, in b's order, by the raw indices of its
    summed legs and the blocks (see StructureConstants) of its legs in
    adjacent a/b factor pairs, right blocks where a comes first and left
    blocks otherwise, and the candidates of an entry of a are the b entries
    whose key equals its own indices and blocks on the partner side (all of
    b if there is no sum and no such pair).  A candidate makes its lookups
    and takes its folds before it multiplies: ca * cb and the expansion come
    once every group is nonzero.

    For a two-factor group this filter is exact on any table, since
    e_i * e_j != 0 puts i and j in one block, so multiply stays exact on the
    nonassociative doubles.  For a pair inside a longer chain it relies on
    associativity: (v * a) * b is skipped when a * b = 0.  Every caller with
    such chains passes H.mult, whose associativity the `assoc` axiom checks;
    that check (StructureConstants.check_associative) runs on two-factor
    groups only, so it does not rely on the associativity it checks.
    """
    used_a = sorted([i for g in groups for kind, i in g if kind == "a"] + [i for i, _ in sums])
    used_b = sorted([i for g in groups for kind, i in g if kind == "b"] + [j for _, j in sums])
    if used_a != list(range(a.degree)) or used_b != list(range(b.degree)):
        raise AlgebraError("merge_pair groups and sums must use every input leg exactly once")
    one = CycScalar.one(sc.order)
    ta, tb = (x.tensor if isinstance(x, Mapped) else x for x in (a, b))
    _check_space(sc.dim, sc.order, ta, tb)

    def at(kind, i):  # position of a tensor leg in the joined key ka + kb
        return i if kind == "a" else a.degree + i

    joins = [(i, j, None) for i, j in sums]  # then (a leg, b leg, a first) per a/b pair
    cells = []  # (position, position) of each two-leg group
    chains = []  # per folded group: its factors (None for a vector), its a/b pairs
    chain_vecs = []  # the vectors of the folded groups, in order
    steps = []  # per group: (0, position), (1, cell) or (2, chain)
    unit = sc.unit
    for g in groups:
        pairs = [(r1, r2) for r1, r2 in zip(g, g[1:]) if {r1[0], r2[0]} == {"a", "b"}]
        joins += [(r1[1], r2[1], True) if r1[0] == "a" else (r2[1], r1[1], False)
                  for r1, r2 in pairs]
        if len(g) > 1 and any(kind == "v" and vecs[i] is unit for kind, i in g) \
                and not sc.unit_failures():
            g = tuple(r for r in g if r[0] != "v" or vecs[r[1]] is not unit) or g[:1]
        if len(g) == 1 and g[0][0] != "v":
            steps.append((0, at(*g[0])))
        elif len(g) == 2 and "v" not in (g[0][0], g[1][0]):
            steps.append((1, len(cells)))
            cells.append((at(*g[0]), at(*g[1])))
        else:
            steps.append((2, len(chains)))
            chain_vecs += [vecs[i] for kind, i in g if kind == "v"]
            chains.append((tuple(None if kind == "v" else at(kind, i) for kind, i in g),
                           tuple((at(*r1), at(*r2)) for r1, r2 in pairs)))

    sig = (a.degree, b.degree, tuple(joins), tuple(steps), tuple(cells), tuple(chains))
    args = [ta.entries.items(), tb.entries.items(), sc.table, sc.left_block, sc.right_block,
            one, chain_vecs, [{} for _ in chains], out := {}]
    if ta is not a or tb is not b:  # the shapes of Mapped factors join the plan
        shapes, images = zip(*(_shape(x, one) for x in (a, b)))
        sig += shapes
        args.append(images[0] + images[1])
    kernel = _KERNELS.get(sig) or _KERNELS.setdefault(sig, _compile_kernel(sig))
    kernel(*args)
    return _owned(ta.dim, len(groups), ta.order, out)


def _shape(x, one) -> tuple:
    """(shape, images) of a factor of merge_pair: for a Mapped, ((leg, grow),
    ...) over the legs of its tensor that its steps act on (see _composed)
    and, per such leg, the images of each index 0..dim-1 (see _segments);
    for a tensor, () and []."""
    if not isinstance(x, Mapped):
        return (), []
    composed = _composed(x.tensor.degree, x.steps)
    return (tuple((o, grow) for o, grow, _ in composed),
            [[_segments(ls, i, one) for i in range(x.dim)] for _, _, ls in composed])


_KERNELS: dict = {}  # plan signature -> its candidate loop, see _compile_kernel


def _tuple_src(items) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _leaves(x) -> list:
    return [y for z in x for y in _leaves(z)] if type(x) is tuple else [x]


def _compile_kernel(sig):
    """The candidate loop of merge_pair for one plan, run through exec.  sig
    is the plan's (degree of a, degree of b, joins, steps, cells, chains),
    None standing for a vector factor and, in a join, for a sum, then the
    shape ((leg, grow), ...) of a Mapped a; only these ints, bools and None
    become source text.  The kernel first indexes b's entries by the
    indices of the summed legs and the blocks of the joined legs, one
    literal key per entry.  A Mapped a's entries bind the key locals of
    their mapped legs in loops over the image lists of argument `images`.
    A candidate makes one table.get per cell and one memoized fold per
    chain, each with an early continue; its key is a tuple literal when
    every cell and fold has one term, else _add_terms adds it."""
    if any(type(x) not in (int, bool, type(None)) for x in _leaves(sig)):
        raise AlgebraError(f"merge_pair kernel signature not of ints, bools, None: {sig!r}")
    da, db, joins, steps, cells, chains, *shapes = sig
    a_shape, b_shape = shapes or ((), ())
    k = [f"k{p}" for p in range(da + db)]
    src = []

    def line(depth, text):
        src.append("    " * depth + text)

    line(0, f"def kernel(a_items, b_items, table, lb, rb, one, vecs, folds, out{', images' * bool(shapes)}):")
    line(1, "get = table.get")
    line(1, f"{_tuple_src([f'f{n}' for n in range(len(chains))])} = folds")

    def part(x, a_first, blocks):  # a summed leg's index as it is, a joined leg's block
        return x if a_first is None else f"{blocks}[{x}]"

    a_blocks = _tuple_src([part(k[leg], af, "lb" if af else "rb") for leg, _, af in joins])
    b_blocks = _tuple_src([part(f"kb[{leg}]", af, "rb" if af else "lb") for _, leg, af in joins])

    def unmap(depth, side, shape, names, first):
        """Binds names, the key locals of one side's entry, from its raw key
        k{side} and coefficient s{side}: an unmapped leg directly, a mapped
        leg o per image of its index, in image list images[first + n]; each
        image's coefficient is folded into c{side}.  Returns the depth of the
        innermost loop's body."""
        grow, raw, loops = dict(shape), [], []
        for o in range(len(names) - sum(grow.values())):
            p = len(raw) + sum(grow[x] for x in grow if x < o)
            raw.append(f"{side}{o}" if o in grow else names[p])
            if o in grow:
                loops.append((f"{side}{o}", names[p : p + grow[o] + 1]))
        line(depth, f"{_tuple_src(raw)} = k{side}")
        c = f"s{side}"
        for n, (r, seg) in enumerate(loops):
            line(depth, f"for {_tuple_src(seg)}, m in images[{first + n}][{r}]:")
            depth += 1
            nc = f"c{side}" if n == len(loops) - 1 else f"c{side}{n}"
            line(depth, f"{nc} = {c} if m is one else (m if {c} is one else {c} * m)")
            c = nc
        return depth

    line(1, "index = {}")  # b's entries, in b's order, by their summed indices and joined blocks
    if b_shape:  # a Mapped b: each image of each entry is an item
        j = [f"j{p}" for p in range(db)]
        line(1, "for kb, sb in b_items:")
        depth = unmap(2, "b", b_shape, j, len(a_shape))
        line(depth, f"kb = {_tuple_src(j)}")
        line(depth, "item = kb, cb")
        line(depth, f"blk = {_tuple_src([part(j[leg], af, 'rb' if af else 'lb') for _, leg, af in joins])}")
    else:
        depth = 2
        line(1, "for item in b_items:")
        line(2, "kb = item[0]")
        line(2, f"blk = {b_blocks}")
    line(depth, "got = index.get(blk)")
    line(depth, "if got is None: index[blk] = [item]")
    line(depth, "else: got.append(item)")
    if a_shape:
        line(1, "for ka, sa in a_items:")
        depth = unmap(2, "a", a_shape, k[:da], 0)
    else:
        depth = 2
        line(1, "for ka, ca in a_items:")
        line(2, f"{_tuple_src(k[:da])} = ka")
    line(depth, f"for kb, cb in index.get({a_blocks}, ()):")
    depth += 1
    line(depth, f"{_tuple_src(k[da:])} = kb")
    for n, (p, q) in enumerate(cells):
        line(depth, f"e{n} = get(({k[p]}, {k[q]}))")
        line(depth, f"if e{n} is None: continue")
    vec = count()
    for n, (factors, tests) in enumerate(chains):
        read = [k[x] for x in factors if x is not None]
        ix = read[0] if len(read) == 1 else _tuple_src(read)
        items = _tuple_src([f"vecs[{next(vec)}]" if x is None else k[x] for x in factors])
        fold = f"_chain_pairs(table, {items}, one)"
        if tests:
            fold += f" if {' and '.join(f'({k[p]}, {k[q]}) in table' for p, q in tests)} else ()"
        line(depth, f"x{n} = f{n}.get({ix})")
        line(depth, f"if x{n} is None: x{n} = f{n}[{ix}] = {fold}")
        line(depth, f"if not x{n}: continue")
    line(depth, "c = cb if ca is one else (ca if cb is one else ca * cb)")
    parts = [k[n] if kind == 0 else f"{'ex'[kind - 1]}{n}" for kind, n in steps]
    terms = [t for t in parts if t[0] != "k"]
    inner = depth + 1 if terms else depth
    if terms:
        line(depth, f"if {' and '.join(f'len({t}) == 1' for t in terms)}:")
        for t in terms:
            line(inner, f"(i{t}, c{t}), = {t}")
            line(inner, f"if c{t} is not one: c = c{t} if c is one else c * c{t}")
    line(inner, f"key = {_tuple_src([t if t[0] == 'k' else f'i{t}' for t in parts])}")
    line(inner, "prev = out.get(key)")
    line(inner, "out[key] = c if prev is None else prev + c")
    if terms:
        line(depth, "else:")
        line(inner, f"_add_terms(out, c, one, {_tuple_src(parts)})")
    scope: dict = {}
    exec("\n".join(src), globals(), scope)
    return scope["kernel"]


def _add_terms(out: dict, c, one, parts):
    """Adds to out a candidate of merge_pair whose output legs (parts: an
    index passed through, or a tuple of (index, coeff) terms) have several
    terms: c times each one-term coefficient, then times each combination."""
    for x in parts:
        if type(x) is not int and len(x) == 1 and x[0][1] is not one:
            c = x[0][1] if c is one else c * x[0][1]
    legs = [((x, one),) if type(x) is int else (x if len(x) > 1 else ((x[0][0], one),))
            for x in parts]
    for combo in product(*legs):
        cc = c
        for _, ci in combo:
            if ci is not one:
                cc = ci if cc is one else cc * ci
        key = tuple(i for i, _ in combo)
        prev = out.get(key)
        out[key] = cc if prev is None else prev + cc
