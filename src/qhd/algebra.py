"""Finite-dimensional linear algebra over CycScalar.

Vectors and dual vectors are sparse dicts {basis index: coefficient}.
Tensors of degree d are sparse dicts keyed by d-tuples of indices.  All
products are exact; zero coefficients are pruned on construction so that
dict equality is honest tensor equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .scalar import CycScalar


class AlgebraError(ValueError):
    pass


class SingularMapError(AlgebraError):
    """Raised when a linear map that must be inverted is singular."""


def _prune(entries: dict) -> dict:
    return {k: c for k, c in entries.items() if not c.is_zero()}


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

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.entries.items())))

    def __add__(self, other: "SparseTensor") -> "SparseTensor":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return SparseTensor(self.dim, self.degree, self.order, out)

    def __sub__(self, other: "SparseTensor") -> "SparseTensor":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            prev = out.get(k)
            out[k] = -c if prev is None else prev - c
        return SparseTensor(self.dim, self.degree, self.order, out)

    def scale(self, c: CycScalar) -> "SparseTensor":
        if c.is_zero():
            return SparseTensor(self.dim, self.degree, self.order, {})
        return SparseTensor(
            self.dim, self.degree, self.order, {k: c * v for k, v in self.entries.items()}
        )

    def _compat(self, other: "SparseTensor"):
        if self.dim != other.dim or self.degree != other.degree:
            raise AlgebraError(
                f"tensor mismatch: dim {self.dim}/{other.dim}, "
                f"degree {self.degree}/{other.degree}"
            )

    def __repr__(self):
        return f"SparseTensor(dim={self.dim}, degree={self.degree}, terms={len(self.entries)})"


class StructureConstants:
    """Multiplication table of a finite-dimensional unital algebra.

    table[(i, j)] lists the expansion of e_i * e_j; associativity is a
    checkable property here, not an assumption, because the Heisenberg
    double products stored in the same shape are generally nonassociative.
    """

    def __init__(self, dim: int, order: int, table: dict, unit: dict):
        self.dim = dim
        self.order = order
        self.table = {
            ij: tuple((k, c) for k, c in ent if not c.is_zero())
            for ij, ent in table.items()
        }
        self.table = {ij: ent for ij, ent in self.table.items() if ent}
        self.unit = _prune(dict(unit))
        rp: dict[int, list] = {}
        lp: dict[int, list] = {}
        for (i, j) in self.table:
            rp.setdefault(i, []).append(j)
            lp.setdefault(j, []).append(i)
        self.right_partners = {i: tuple(sorted(js)) for i, js in rp.items()}
        self.left_partners = {j: tuple(sorted(is_)) for j, is_ in lp.items()}

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

    def mult_chain(self, factors) -> dict:
        """Left-to-right product of a sequence of vectors / basis indices."""
        acc = None
        for f in factors:
            v = {f: CycScalar.one(self.order)} if isinstance(f, int) else f
            acc = v if acc is None else self.vec_mult(acc, v)
            if not acc:
                return {}
        return acc if acc is not None else dict(self.unit)

    def check_unit(self) -> list:
        """Basis indices where the stored unit fails the two-sided unit law."""
        bad = []
        for i in range(self.dim):
            e = {i: CycScalar.one(self.order)}
            if self.vec_mult(self.unit, e) != e or self.vec_mult(e, self.unit) != e:
                bad.append(i)
        return bad

    def check_associative(self) -> list:
        """Violating (i, j, k) triples, empty when the product associates."""
        bad = []
        one = CycScalar.one(self.order)
        for i in range(self.dim):
            ei = {i: one}
            for j in range(self.dim):
                ij = self.vec_mult(ei, {j: one})
                for k in range(self.dim):
                    ek = {k: one}
                    if self.vec_mult(ij, ek) != self.vec_mult(
                        ei, self.vec_mult({j: one}, ek)
                    ):
                        bad.append((i, j, k))
        return bad


class Coproduct:
    """Sparse expansion table i -> sum of (j, k) pairs for Delta(e_i)."""

    def __init__(self, dim: int, order: int, table: dict):
        self.dim = dim
        self.order = order
        self.table = {
            i: tuple((jk, c) for jk, c in ent if not c.is_zero())
            for i, ent in table.items()
        }

    def of_basis(self, i: int):
        return self.table.get(i, ())

    def of_vec(self, v: dict) -> SparseTensor:
        out: dict = {}
        for i, c in v.items():
            for jk, cd in self.table.get(i, ()):
                prev = out.get(jk)
                out[jk] = c * cd if prev is None else prev + c * cd
        return SparseTensor(self.dim, 2, self.order, out)


class LinearMap:
    """Exact linear endomorphism, stored by columns (image of each basis vector)."""

    def __init__(self, dim: int, order: int, cols):
        self.dim = dim
        self.order = order
        self.cols = tuple(_prune(dict(c)) for c in cols)

    @staticmethod
    def identity(dim: int, order: int) -> "LinearMap":
        one = CycScalar.one(order)
        return LinearMap(dim, order, tuple({i: one} for i in range(dim)))

    def apply_vec(self, v: dict) -> dict:
        out: dict = {}
        for j, c in v.items():
            for i, m in self.cols[j].items():
                prev = out.get(i)
                out[i] = c * m if prev is None else prev + c * m
        return _prune(out)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        return LinearMap(
            self.dim, self.order, tuple(self.apply_vec(c) for c in other.cols)
        )

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols


def invert_map(m: LinearMap) -> LinearMap:
    """Exact inverse by Gaussian elimination; raises SingularMapError."""
    n = m.dim
    zero = CycScalar.zero(m.order)
    one = CycScalar.one(m.order)
    # dense augmented rows [M | I]
    rows = []
    for i in range(n):
        row = [m.cols[j].get(i, zero) for j in range(n)] + [
            one if j == i else zero for j in range(n)
        ]
        rows.append(row)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise SingularMapError(f"map is singular (no pivot in column {col})")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [c * inv for c in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    cols = []
    for j in range(n):
        cols.append({i: rows[i][n + j] for i in range(n) if not rows[i][n + j].is_zero()})
    return LinearMap(n, m.order, cols)


@dataclass
class Inconsistency:
    """Witness that a linear system has no solution: a fully reduced
    equation with every coefficient eliminated but a nonzero right side."""

    row_index: int
    rhs: CycScalar


def solve_linear(rows: list, rhs: list, ncols: int, order: int):
    """Exact sparse Gauss-Jordan elimination on rows of {col: coeff}.

    Returns a solution {col: coeff} (free columns set to zero) or an
    Inconsistency certificate.  Columns are eliminated in increasing order;
    a column's pivot is the lowest-numbered row not yet used as a pivot that
    holds the column, i.e. the first nonzero entry of a row-major scan, which
    keeps reports deterministic.

    A column -> rows index, updated as entries appear and cancel during
    elimination, finds each pivot and the rows to eliminate, so the work
    follows the nonzeros touched rather than rows x columns.  Each distinct
    pivot value is inverted once.  The caller's row dicts are not modified.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    holders: dict[int, set] = {}  # col -> positions of the rows holding it
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    pivots: dict[int, int] = {}  # col -> row position in `rows`
    used: set[int] = set()
    inverses: dict = {}
    for col in range(ncols):
        held = holders.get(col)
        if not held:
            continue
        piv = min((r for r in held if r not in used), default=None)
        if piv is None:
            continue
        used.add(piv)
        pivots[col] = piv
        pval = rows[piv][col]
        inv = inverses.get(pval)
        if inv is None:
            inv = inverses[pval] = pval.inverse()
        prow = rows[piv] = {c: v * inv for c, v in rows[piv].items()}
        prhs = rhs[piv] = rhs[piv] * inv
        for r in [r for r in held if r != piv]:  # `held` shrinks as col cancels
            row = rows[r]
            f = row[col]
            for c, v in prow.items():
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
            rhs[r] = rhs[r] - f * prhs
    for r in range(len(rows)):
        if r not in used and not rows[r] and not rhs[r].is_zero():
            return Inconsistency(row_index=r, rhs=rhs[r])
    sol: dict = {}
    for col, r in pivots.items():
        if not rhs[r].is_zero():
            sol[col] = rhs[r]
    return sol


# -- tensor operations --------------------------------------------------------


def multiply(sc: StructureConstants, x: SparseTensor, y: SparseTensor) -> SparseTensor:
    """Componentwise product in the degree-d tensor power of the algebra.

    The entries of y that can meet an entry kx of x are found in one of two
    ways, chosen per kx by the number of candidates each would visit:

    - scan: every entry of y whose leg-0 index is a right partner of kx[0]
      (the y entries bucketed by leg 0), testing the other legs one by one;
    - lookup: every key in the product of the right-partner lists of kx's
      legs, looked up in y by full key.

    Lookup is taken when that product is smaller than the scan; the product
    is built leg by leg and abandoned once it reaches the scan size.  So
    near-diagonal algebras (one partner per index) look up, and dense tables
    (many partners per index) scan unless y is dense too.  Degree 1 always
    scans: its leg-0 bucket already is the full key, so estimating would
    only add cost.
    """
    x._compat(y)
    if x.dim != sc.dim:
        raise AlgebraError("tensor dimension does not match the algebra")
    table = sc.table
    y_entries = y.entries
    buckets: dict[int, list] = {}
    for ky, cy in y_entries.items():
        buckets.setdefault(ky[0], []).append((ky, cy))
    out: dict = {}
    rp = sc.right_partners
    deg = x.degree
    scan_sizes: dict[int, int] = {}  # leg-0 index of x -> y entries a scan visits
    if deg > 1:
        lp = sc.left_partners
        for j0, blist in buckets.items():
            for i in lp.get(j0, ()):
                scan_sizes[i] = scan_sizes.get(i, 0) + len(blist)
    for kx, cx in x.entries.items():
        partners = rp.get(kx[0])
        if not partners:
            continue
        lookup = None
        if deg > 1:
            scan = scan_sizes.get(kx[0])
            if not scan:
                continue
            legs = [partners]
            size = len(partners)
            for i in kx[1:]:
                p = rp.get(i, ())
                size *= len(p)
                if size >= scan:
                    break
                legs.append(p)
            else:
                lookup = ([(ky, y_entries[ky]) for ky in product(*legs) if ky in y_entries],)
        for blist in lookup or map(buckets.get, partners):
            if not blist:
                continue
            for ky, cy in blist:
                exps = []
                ok = True
                for pos in range(deg):
                    ent = table.get((kx[pos], ky[pos]))
                    if not ent:
                        ok = False
                        break
                    exps.append(ent)
                if not ok:
                    continue
                partial = [((), cx * cy)]
                for ent in exps:
                    if len(ent) == 1:
                        k0, c0 = ent[0]
                        partial = [(key + (k0,), c * c0) for key, c in partial]
                    else:
                        partial = [
                            (key + (k0,), c * c0)
                            for key, c in partial
                            for k0, c0 in ent
                        ]
                for key, c in partial:
                    prev = out.get(key)
                    out[key] = c if prev is None else prev + c
    return SparseTensor(x.dim, deg, x.order, out)


def multiplication_rows(sc: StructureConstants, x: SparseTensor, side: str) -> list:
    """Rows of the linear map Y -> x*Y (side "right") or Y -> Y*x (side
    "left") on degree-2 tensors, with a basis key (k1, k2) flattened to
    k1 * dim + k2 for both rows and columns: row r is {col: coeff}, the r-th
    component of the product with the col-th basis tensor.

    One pass over x's entries and their partners in the structure
    constants; equal to the components of one `multiply` per basis tensor.
    """
    if x.degree != 2 or x.dim != sc.dim:
        raise AlgebraError("multiplication rows need a degree-2 tensor over the algebra")
    dim = sc.dim
    table = sc.table
    right = side == "right"
    partners = sc.right_partners if right else sc.left_partners
    rows: list = [{} for _ in range(dim * dim)]
    for (a1, a2), cx in x.entries.items():
        p2 = partners.get(a2)
        if not p2:
            continue
        for b1 in partners.get(a1, ()):
            for k1, c1 in table[(a1, b1) if right else (b1, a1)]:
                c = cx * c1
                base = k1 * dim
                for b2 in p2:
                    col = b1 * dim + b2
                    for k2, c2 in table[(a2, b2) if right else (b2, a2)]:
                        row = rows[base + k2]
                        term = c * c2
                        prev = row.get(col)
                        row[col] = term if prev is None else prev + term
    return [_prune(row) for row in rows]


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
    return SparseTensor(first.dim, degree, first.order, entries)


def vec_tensor(dim: int, order: int, v: dict) -> SparseTensor:
    return SparseTensor(dim, 1, order, {(i,): c for i, c in v.items()})


def leg_embed(t: SparseTensor, legs, d: int, unit: dict) -> SparseTensor:
    """Place t's legs at the given positions, the algebra unit elsewhere."""
    legs = tuple(legs)
    if len(legs) != t.degree or len(set(legs)) != len(legs):
        raise AlgebraError("leg positions must be distinct and match the degree")
    if any(p < 1 or p > d for p in legs):
        raise AlgebraError(f"leg positions {legs} out of range for degree {d}")
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
    return SparseTensor(t.dim, d, t.order, out)


def split_leg(cop: Coproduct, t: SparseTensor, leg: int) -> SparseTensor:
    """Apply the coproduct to one leg (1-based), raising the degree by one."""
    pos = leg - 1
    out: dict = {}
    for key, c in t.entries.items():
        for (j, k), cd in cop.of_basis(key[pos]):
            nk = key[:pos] + (j, k) + key[pos + 1 :]
            prev = out.get(nk)
            out[nk] = c * cd if prev is None else prev + c * cd
    return SparseTensor(t.dim, t.degree + 1, t.order, out)


def apply_leg(m: LinearMap, t: SparseTensor, leg: int) -> SparseTensor:
    pos = leg - 1
    out: dict = {}
    for key, c in t.entries.items():
        for i, cm in m.cols[key[pos]].items():
            nk = key[:pos] + (i,) + key[pos + 1 :]
            prev = out.get(nk)
            out[nk] = c * cm if prev is None else prev + c * cm
    return SparseTensor(t.dim, t.degree, t.order, out)


def counit_leg(eps: dict, t: SparseTensor, leg: int) -> SparseTensor:
    pos = leg - 1
    out: dict = {}
    for key, c in t.entries.items():
        e = eps.get(key[pos])
        if e is None:
            continue
        nk = key[:pos] + key[pos + 1 :]
        prev = out.get(nk)
        out[nk] = c * e if prev is None else prev + c * e
    return SparseTensor(t.dim, t.degree - 1, t.order, out)


def slice_leg(t: SparseTensor, leg: int) -> dict:
    """{index on one leg (1-based): the tensor of t's other legs at that index}."""
    pos = leg - 1
    parts: dict = {}
    for key, c in t.entries.items():
        parts.setdefault(key[pos], {})[key[:pos] + key[pos + 1 :]] = c
    return {i: SparseTensor(t.dim, t.degree - 1, t.order, e) for i, e in parts.items()}


def permute_legs(t: SparseTensor, perm) -> SparseTensor:
    """perm[i] gives the source leg (0-based) for output leg i."""
    perm = tuple(perm)
    out: dict = {}
    for key, c in t.entries.items():
        nk = tuple(key[p] for p in perm)
        prev = out.get(nk)
        out[nk] = c if prev is None else prev + c
    return SparseTensor(t.dim, t.degree, t.order, out)


def convolution(cop: Coproduct, xi: dict, nu: dict) -> dict:
    """(xi * nu)(h) = (xi x nu)(Delta h), on dual vectors."""
    out: dict = {}
    for h, ent in cop.table.items():
        acc = None
        for (j, k), c in ent:
            a = xi.get(j)
            if a is None:
                continue
            b = nu.get(k)
            if b is None:
                continue
            term = c * a * b
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out[h] = acc
    return out


def harpoon(sc: StructureConstants, h: dict, xi: dict, side: str) -> dict:
    """Regular actions of the algebra on its dual.

    left:  (h -> xi)(a) = xi(a h);  right: (xi <- h)(a) = xi(h a).
    """
    out: dict = {}
    table = sc.table
    for a in range(sc.dim):
        acc = None
        for j, cj in h.items():
            ent = table.get((a, j)) if side == "left" else table.get((j, a))
            if not ent:
                continue
            for k, ck in ent:
                x = xi.get(k)
                if x is None:
                    continue
                term = cj * ck * x
                acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out[a] = acc
    return out


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
                    cc = ci * cj
                    for k, ck in ent:
                        nxt.append((k, cc * ck))
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


def merge_pair(sc: StructureConstants, a: SparseTensor, b: SparseTensor, groups, vecs=()):
    """Multiply legs of two tensors (and fixed vectors) into output legs.

    Each group is a tuple of factor refs ('a', leg) / ('b', leg) / ('v', k),
    multiplied left to right inside the algebra; the output tensor has one
    leg per group.  Every input leg must appear exactly once overall.

    Adjacent a/b factor pairs inside a group force nonzero basis products;
    those adjacency constraints prune the entry-pair loop before any
    arithmetic happens, which is what keeps diagonal-flavored algebras fast.
    """
    used_a = [ref[1] for g in groups for ref in g if ref[0] == "a"]
    used_b = [ref[1] for g in groups for ref in g if ref[0] == "b"]
    if sorted(used_a) != list(range(a.degree)) or sorted(used_b) != list(range(b.degree)):
        raise AlgebraError("merge_pair groups must use every input leg exactly once")

    constraints = []  # (a_leg, b_leg, a_comes_first)
    for g in groups:
        for (k1, i1), (k2, i2) in zip(g, g[1:]):
            if k1 == "a" and k2 == "b":
                constraints.append((i1, i2, True))
            elif k1 == "b" and k2 == "a":
                constraints.append((i2, i1, False))

    table = sc.table
    one = CycScalar.one(sc.order)
    out: dict = {}

    if constraints:
        a_leg0, b_leg0, a_first0 = constraints[0]
        partners = sc.right_partners if a_first0 else sc.left_partners
        buckets: dict[int, list] = {}
        for kb, cb in b.entries.items():
            buckets.setdefault(kb[b_leg0], []).append((kb, cb))
        rest = constraints[1:]

        def candidates(ka):
            for v in partners.get(ka[a_leg0], ()):
                blist = buckets.get(v)
                if blist:
                    yield from blist
    else:
        rest = []
        all_b = tuple(b.entries.items())

        def candidates(_ka):
            return all_b

    for ka, ca in a.entries.items():
        for kb, cb in candidates(ka):
            ok = True
            for a_leg, b_leg, a_first in rest:
                pair = (ka[a_leg], kb[b_leg]) if a_first else (kb[b_leg], ka[a_leg])
                if pair not in table:
                    ok = False
                    break
            if not ok:
                continue
            legs = []
            for g in groups:
                chain = [
                    ka[idx] if kind == "a" else (kb[idx] if kind == "b" else vecs[idx])
                    for kind, idx in g
                ]
                v = _chain_pairs(table, chain, one)
                if not v:
                    legs = None
                    break
                legs.append(v)
            if legs is None:
                continue
            partial = [((), ca * cb)]
            for v in legs:
                partial = [(key + (i,), c * ci) for key, c in partial for i, ci in v]
            for key, c in partial:
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
    return SparseTensor(a.dim, len(groups), a.order, out)
