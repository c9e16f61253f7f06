"""Core tensor/linear layer over the exact scalars."""

import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import compose
from qhd.algebra import (
    AlgebraError,
    Coproduct,
    Inconsistency,
    LinearMap,
    Mapped,
    Placement,
    SingularMapError,
    SparseTensor,
    StructureConstants,
    _chain_pairs,
    _check_space,
    _compile_kernel,
    _owned,
    _read_solution,
    _reduce_system,
    _system_of,
    apply_leg,
    counit_leg,
    invert_map,
    leg_embed,
    map_legs,
    merge_pair,
    multiplication_system,
    multiply,
    permute_legs,
    slice_leg,
    solve_linear,
    split_leg,
    tensor_product,
    vec_tensor,
)
from qhd.scalar import CycScalar, OrderMismatchError, root_of_unity
from qhd.heisenberg import build_H1
from qhd.twisted import build_k_omega_G, cyclic_cocycle, klein_cocycle

ONE = CycScalar.one(1)
ZERO = CycScalar.zero(1)


def rat(x):
    return CycScalar.from_rational(1, x)


def function_algebra(n: int) -> StructureConstants:
    """Delta-function basis on n points; products computed pointwise."""
    table = {}
    for i in range(n):
        for j in range(n):
            # (delta_i * delta_j)(x) = delta_i(x) delta_j(x)
            vals = [(1 if x == i else 0) * (1 if x == j else 0) for x in range(n)]
            ent = tuple((k, ONE) for k, v in enumerate(vals) if v)
            if ent:
                table[(i, j)] = ent
    return StructureConstants(n, 1, table, {i: ONE for i in range(n)})


def matrix_units_algebra() -> StructureConstants:
    """Span of E11, E12, E22 inside 2x2 matrices; noncommutative, unital."""
    E11, E12, E22 = 0, 1, 2
    prods = {
        (E11, E11): E11, (E11, E12): E12, (E12, E22): E12, (E22, E22): E22,
    }
    table = {k: ((v, ONE),) for k, v in prods.items()}
    return StructureConstants(3, 1, table, {E11: ONE, E22: ONE})


def rand_tensor(rng, dim, degree, density=0.5):
    entries = {}
    import itertools

    for key in itertools.product(range(dim), repeat=degree):
        if rng.random() < density:
            c = rng.randint(-3, 3)
            if c:
                entries[key] = rat(c)
    return SparseTensor(dim, degree, 1, entries)


def test_function_algebra_is_idempotent_diagonal():
    sc = function_algebra(2)
    assert not sc.check_associative()
    assert not sc.check_unit()
    t = SparseTensor(2, 2, 1, {(0, 1): ONE})
    assert multiply(sc, t, t) == t  # delta_0 x delta_1 squares to itself


def test_multiply_unit_law_degrees_up_to_3():
    for sc in (function_algebra(3), matrix_units_algebra()):
        unit1 = vec_tensor(sc.dim, 1, sc.unit)
        for degree in (1, 2, 3):
            unit_d = unit1
            for _ in range(degree - 1):
                unit_d = tensor_product(unit_d, unit1)
            import itertools

            for key in itertools.product(range(sc.dim), repeat=degree):
                e = SparseTensor(sc.dim, degree, 1, {key: ONE})
                assert multiply(sc, unit_d, e) == e
                assert multiply(sc, e, unit_d) == e


def test_multiply_bilinear():
    rng = random.Random(7)
    sc = matrix_units_algebra()
    for _ in range(25):
        x = rand_tensor(rng, 3, 2)
        y = rand_tensor(rng, 3, 2)
        z = rand_tensor(rng, 3, 2)
        assert multiply(sc, x + y, z) == multiply(sc, x, z) + multiply(sc, y, z)
        assert multiply(sc, z, x + y) == multiply(sc, z, x) + multiply(sc, z, y)
        c = rat(rng.randint(-4, 4))
        assert multiply(sc, x.scale(c), y) == multiply(sc, x, y).scale(c)


def test_multiply_respects_noncommutativity():
    sc = matrix_units_algebra()
    e11 = SparseTensor(3, 1, 1, {(0,): ONE})
    e12 = SparseTensor(3, 1, 1, {(1,): ONE})
    assert multiply(sc, e11, e12) == e12
    assert multiply(sc, e12, e11).is_zero()


def test_leg_embed_identity_and_decomposable():
    sc = function_algebra(2)
    t = SparseTensor(2, 2, 1, {(0, 1): rat(2), (1, 0): rat(-1)})
    assert leg_embed(t, (1, 2), 2, sc.unit) == t
    u = SparseTensor(2, 2, 1, {(0, 1): ONE})
    embedded = leg_embed(u, (1, 3), 3, sc.unit)
    want = SparseTensor(2, 3, 1, {(0, x, 1): ONE for x in range(2)})
    assert embedded == want


def test_leg_embed_linear_and_disjoint_legs_commute():
    rng = random.Random(11)
    sc = matrix_units_algebra()
    s = rand_tensor(rng, 3, 2)
    t = rand_tensor(rng, 3, 2)
    c = rat(3)
    assert leg_embed(s + t, (1, 3), 4, sc.unit) == \
        leg_embed(s, (1, 3), 4, sc.unit) + leg_embed(t, (1, 3), 4, sc.unit)
    assert leg_embed(s.scale(c), (2, 4), 4, sc.unit) == \
        leg_embed(s, (2, 4), 4, sc.unit).scale(c)
    # embedded factors on disjoint legs commute even in a noncommutative algebra
    a = leg_embed(s, (1, 2), 4, sc.unit)
    b = leg_embed(t, (3, 4), 4, sc.unit)
    assert multiply(sc, a, b) == multiply(sc, b, a)


def test_leg_embed_rejects_bad_positions():
    sc = function_algebra(2)
    t = SparseTensor(2, 2, 1, {(0, 1): ONE})
    with pytest.raises(Exception):
        leg_embed(t, (1, 4), 3, sc.unit)
    with pytest.raises(Exception):
        leg_embed(t, (2, 2), 3, sc.unit)


def test_invert_map_identity_involution_singular():
    ident = LinearMap.identity(3, 1)
    assert invert_map(ident) == ident
    # basis flip on two points squares to the identity
    flip = LinearMap(2, 1, ({1: ONE}, {0: ONE}))
    assert invert_map(flip) == flip
    nilpotent = LinearMap(2, 1, ({}, {0: ONE}))
    with pytest.raises(SingularMapError):
        invert_map(nilpotent)


def test_invert_map_random_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 4)
        cols = []
        for _ in range(n):
            cols.append({i: rat(rng.randint(-3, 3)) for i in range(n)})
        m = LinearMap(n, 1, cols)
        try:
            minv = invert_map(m)
        except SingularMapError:
            continue
        assert compose(minv, m) == LinearMap.identity(n, 1)
        assert compose(m, minv) == LinearMap.identity(n, 1)


def test_solve_linear_identity_and_certificate():
    rows = [{0: ONE}, {1: ONE}, {2: ONE}]
    b = [rat(3), rat(-1), ZERO]
    sol = solve_linear(rows, b, 3, 1)
    assert sol == {0: rat(3), 1: rat(-1)}
    # inconsistent: x0 = 1 and x0 = 2
    rows = [{0: ONE}, {0: ONE}]
    cert = solve_linear(rows, [ONE, rat(2)], 1, 1)
    assert isinstance(cert, Inconsistency)
    assert not cert.rhs.is_zero()


def test_solve_linear_underdetermined_returns_particular_solution():
    # x0 + x1 = 2 with a free column: pivot solution sets the free one to zero
    rows = [{0: ONE, 1: ONE}]
    sol = solve_linear(rows, [rat(2)], 2, 1)
    assert sol == {0: rat(2)}


def test_solve_linear_exact_fractions():
    # 2x = 1 over the rationals stays exact
    rows = [{0: rat(2)}]
    sol = solve_linear(rows, [ONE], 1, 1)
    from fractions import Fraction

    assert sol[0] == CycScalar(1, (Fraction(1, 2),))


def test_solve_linear_refuses_rows_and_right_sides_of_other_lengths():
    with pytest.raises(AlgebraError):
        solve_linear([{0: ONE}], [ONE, ONE], 1, 1)
    with pytest.raises(AlgebraError):
        solve_linear([{0: ONE}, {1: ONE}], [ONE], 2, 1)


def test_solve_linear_refuses_a_column_outside_the_system():
    # column 5 of a 3-column system was never reached: {} is no solution
    with pytest.raises(AlgebraError):
        solve_linear([{5: ONE}], [ONE], 3, 1)
    with pytest.raises(AlgebraError):
        solve_linear([{0: ONE, -1: ONE}], [ONE], 3, 1)
    assert solve_linear([{2: rat(2)}], [ONE], 3, 1) == {2: CycScalar(1, (Fraction(1, 2),))}


def test_merge_pair_agrees_with_multiply():
    rng = random.Random(9)
    for sc in (function_algebra(3), matrix_units_algebra()):
        for _ in range(10):
            x = rand_tensor(rng, sc.dim, 2)
            y = rand_tensor(rng, sc.dim, 2)
            via_merge = merge_pair(
                sc, x, y, groups=((("a", 0), ("b", 0)), (("a", 1), ("b", 1))))
            assert via_merge == _multiply_reference(sc, x, y)


def test_merge_pair_with_vectors_and_interleaving():
    sc = matrix_units_algebra()
    x = SparseTensor(3, 1, 1, {(1,): ONE})  # E12
    y = SparseTensor(3, 1, 1, {(2,): ONE})  # E22
    v = {0: ONE}  # E11
    # E11 * E12 * E22 = E12, built as v . a0 . b0 in one output leg
    got = merge_pair(sc, x, y, groups=((("v", 0), ("a", 0), ("b", 0)),), vecs=(v,))
    assert got == SparseTensor(3, 1, 1, {(1,): ONE})
    # reversed order kills it: E12 * E11 = 0
    got = merge_pair(sc, x, y, groups=((("a", 0), ("v", 0), ("b", 0)),), vecs=(v,))
    assert got.is_zero()


def test_slice_leg_splits_by_one_leg():
    t = SparseTensor(2, 3, 1, {(0, 1, 1): ONE, (1, 0, 1): rat(2), (0, 0, 1): rat(3)})
    assert slice_leg(t, 2) == {
        1: SparseTensor(2, 2, 1, {(0, 1): ONE}),
        0: SparseTensor(2, 2, 1, {(1, 1): rat(2), (0, 1): rat(3)}),
    }
    assert slice_leg(t, 3) == {1: SparseTensor(2, 2, 1, {(0, 1): ONE, (1, 0): rat(2),
                                                         (0, 0): rat(3)})}
    assert slice_leg(SparseTensor(2, 3, 1, {}), 1) == {}


def test_permute_legs_moves_every_entry_and_refuses_other_maps():
    rng = random.Random(4)
    sc = matrix_units_algebra()
    for degree in range(4):
        t = sparse_tensor(rng, sc, degree, 30)
        for perm in permutations(range(degree)):
            want = {tuple(k[p] for p in perm): c for k, c in t.entries.items()}
            got = permute_legs(t, perm)
            assert got.entries == want and got.degree == degree, perm
    t = sparse_tensor(rng, sc, 3, 30)
    for bad in [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3)]:
        with pytest.raises(AlgebraError, match="not a permutation"):
            permute_legs(t, bad)


def test_tensor_entries_prune_zeros_and_compare():
    a = SparseTensor(2, 2, 1, {(0, 0): ONE, (1, 1): ZERO})
    b = SparseTensor(2, 2, 1, {(0, 0): ONE})
    assert a == b
    assert (a - b).is_zero()


def test_structure_constants_drop_zero_terms_and_empty_cells():
    # cells as pairs or dicts; a zero of another order is dropped as well,
    # a nonzero of another order is kept as given
    one3, zero3, z = CycScalar.one(3), CycScalar.zero(3), root_of_unity(3, 1)
    one4 = CycScalar.one(4)
    table = {(0, 0): ((0, one3), (1, zero3)), (0, 1): {1: z, 0: CycScalar.zero(4)},
             (1, 0): ((0, zero3),), (1, 1): {}, (2, 2): ((2, one4),)}
    sc = StructureConstants(3, 3, table, {0: one3, 1: zero3})
    assert sc.table == {(0, 0): ((0, one3),), (0, 1): ((1, z),), (2, 2): ((2, one4),)}
    assert sc.unit == {0: one3}
    assert sc.right_partners == {0: (0, 1), 2: (2,)}


def test_sum_and_difference_refuse_tensors_of_another_order():
    one3, one4 = CycScalar.one(3), CycScalar.one(4)
    x = SparseTensor(2, 1, 3, {(0,): one3})
    y = SparseTensor(2, 1, 4, {(1,): one4})
    with pytest.raises(AlgebraError, match="order 3/4"):
        x + y
    with pytest.raises(AlgebraError, match="order 4/3"):
        y - x
    assert x + SparseTensor(2, 1, 3, {(1,): one3}) == SparseTensor(2, 1, 3, {(0,): one3,
                                                                        (1,): one3})


def test_cyclotomic_coefficients_flow_through_products():
    z = root_of_unity(4, 1)
    one4 = CycScalar.one(4)
    table = {(0, 0): ((0, one4),)}
    sc = StructureConstants(1, 4, table, {0: one4})
    t = SparseTensor(1, 1, 4, {(0,): z})
    got = multiply(sc, t, t)
    assert got == SparseTensor(1, 1, 4, {(0,): z * z})
    assert got.entries[(0,)] == CycScalar.from_rational(4, -1)


# -- multiply against the leg-0-only join it replaced ---------------------------


def _multiply_reference(sc: StructureConstants, x: SparseTensor, y: SparseTensor) -> SparseTensor:
    """Componentwise product in the degree-d tensor power of the algebra."""
    x._compat(y)
    if x.dim != sc.dim:
        raise AlgebraError("tensor dimension does not match the algebra")
    table = sc.table
    buckets: dict[int, list] = {}
    for ky, cy in y.entries.items():
        buckets.setdefault(ky[0], []).append((ky, cy))
    out: dict = {}
    rp = sc.right_partners
    deg = x.degree
    for kx, cx in x.entries.items():
        partners = rp.get(kx[0])
        if not partners:
            continue
        for j0 in partners:
            blist = buckets.get(j0)
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


def group_algebra_s3() -> StructureConstants:
    """Group algebra of S3: every basis element has all six right partners."""
    import itertools

    perms = list(itertools.permutations(range(3)))
    one = CycScalar.one(1)
    table = {
        (a, b): ((perms.index(tuple(p[q[i]] for i in range(3))), one),)
        for a, p in enumerate(perms) for b, q in enumerate(perms)
    }
    return StructureConstants(6, 1, table, {perms.index((0, 1, 2)): one})


def partial_algebra() -> StructureConstants:
    """e0 acts as a unit on e0, e1; e1 e1 = 0; e2 has no partner on either side."""
    one = CycScalar.one(1)
    table = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)}
    return StructureConstants(3, 1, table, {0: one})


def sparse_tensor(rng, sc, degree, size):
    """size draws of a random key with a random cyclotomic coefficient."""
    entries = {}
    for _ in range(size):
        key = tuple(rng.randrange(sc.dim) for _ in range(degree))
        entries[key] = (root_of_unity(sc.order, rng.randrange(sc.order))
                        * CycScalar.from_rational(sc.order, rng.choice((-2, -1, 1, 3))))
    return SparseTensor(sc.dim, degree, sc.order, entries)


def plain_one(rng, order):
    """A coefficient equal to one that is not the interned CycScalar.one."""
    phi = len(CycScalar.one(order).coeffs)
    return rng.choice((root_of_unity(order, 0),
                       CycScalar(order, (Fraction(1),) + (0,) * (phi - 1))))


def plain_ones_coeff(rng, order):
    """Mostly a non-interned one, otherwise a root of unity times -1 or 2."""
    if rng.random() < 0.6:
        return plain_one(rng, order)
    return (root_of_unity(order, rng.randrange(1, order))
            * CycScalar.from_rational(order, rng.choice((-1, 2))))


def assert_ones_interned(coeffs, order):
    """Construction replaced every coefficient equal to one by the interned one."""
    one = CycScalar.one(order)
    coeffs = list(coeffs)
    assert any(c is one for c in coeffs)
    assert all(c is one for c in coeffs if c == one)


def plain_ones_algebra(rng, order=3, dim=4) -> StructureConstants:
    """e_i e_j = e_(i+j mod dim), sometimes plus a second term, with the
    coefficients of plain_ones_coeff; the unit is not needed by the kernels."""
    table = {}
    for i in range(dim):
        for j in range(dim):
            ent = [((i + j) % dim, plain_ones_coeff(rng, order))]
            if rng.random() < 0.3:
                ent.append(((i * j + 1) % dim, plain_ones_coeff(rng, order)))
            table[(i, j)] = tuple(ent)
    sc = StructureConstants(dim, order, table, {0: plain_one(rng, order)})
    assert_ones_interned((c for ent in sc.table.values() for _, c in ent), order)
    return sc


def test_multiply_matches_leg0_join_reference():
    from qhd.heisenberg import build_H1
    from qhd.twisted import build_k_omega_G, cyclic_cocycle

    diagonal = build_k_omega_G(cyclic_cocycle(4, 1)).mult
    double = build_H1(build_k_omega_G(cyclic_cocycle(3, 1))).sc
    rng = random.Random(2604)
    sizes = (0, 1, 3, 12, 40, 120)
    plain = plain_ones_algebra(random.Random(8108))
    for sc in (diagonal, group_algebra_s3(), double, partial_algebra(), plain):
        for degree in (1, 2, 3, 4):
            for nx, ny in [(0, 5), (5, 0)] + [
                (rng.choice(sizes), rng.choice(sizes)) for _ in range(8)
            ]:
                x = sparse_tensor(rng, sc, degree, nx)
                y = sparse_tensor(rng, sc, degree, ny)
                want = _multiply_reference(sc, x, y)
                got = multiply(sc, x, y)
                assert got == want, (sc.dim, degree, nx, ny)
                assert got.degree == degree and got.order == sc.order
    # (0, 2, 0) in x and (1, 2, 0) in y meet nothing: e2 has no partner
    sc = partial_algebra()
    x = SparseTensor(3, 3, 1, {(0, 2, 0): ONE, (0, 0, 1): rat(2), (1, 1, 0): ONE})
    y = SparseTensor(3, 3, 1, {(0, 0, 0): ONE, (1, 2, 0): ONE, (0, 0, 1): rat(-1),
                               (0, 1, 0): rat(5), (1, 0, 0): ONE})
    want = SparseTensor(3, 3, 1, {(0, 0, 1): rat(2), (0, 1, 1): rat(10), (1, 0, 1): rat(2),
                                  (1, 1, 0): ONE, (1, 1, 1): rat(-1)})
    assert multiply(sc, x, y) == want == _multiply_reference(sc, x, y)


# -- merge_pair against the first-constraint join it replaced -------------------


def _merge_pair_reference(sc: StructureConstants, a: SparseTensor, b: SparseTensor, groups, vecs=()):
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


def lopsided_algebra() -> StructureConstants:
    """Nonassociative, one block that is not complete: e1 e1 = 0 although
    (e0 e1) e1 = e0, so only the adjacency test keeps v.a.b at zero."""
    one = CycScalar.one(1)
    table = {(0, 0): ((0, one),), (1, 0): ((1, one),), (0, 1): ((0, one),)}
    return StructureConstants(2, 1, table, {})


def random_groups(rng, da, db, nvecs):
    """a's and b's legs and some vector refs, shuffled and cut into 1-3 groups."""
    refs = [("a", i) for i in range(da)] + [("b", j) for j in range(db)]
    rng.shuffle(refs)
    for _ in range(rng.randint(0, 2)):
        refs.insert(rng.randrange(len(refs) + 1), ("v", rng.randrange(nvecs)))
    ngroups = rng.randint(1, min(3, len(refs)))
    cuts = sorted(rng.sample(range(1, len(refs)), ngroups - 1))
    return tuple(tuple(refs[i:j]) for i, j in zip([0] + cuts, cuts + [len(refs)]))


def adjacency(groups):
    """The kinds of adjacent a/b pairs: 'ab', 'ba', both, or neither."""
    return {k1 + k2 for g in groups for (k1, _), (k2, _) in zip(g, g[1:])} & {"ab", "ba"}


def test_merge_pair_matches_first_constraint_reference():
    from qhd.heisenberg import build_H1
    from qhd.twisted import build_k_omega_G, cyclic_cocycle

    double = build_H1(build_k_omega_G(cyclic_cocycle(3, 1))).sc
    rng = random.Random(4417)
    sizes = (0, 1, 3, 12, 40)
    fixed = [
        ((("a", 0), ("b", 0)), (("b", 1), ("a", 1))),  # one constraint each way
        ((("a", 0), ("b", 0), ("a", 1), ("b", 1)),),  # interleaved in one group
        ((("a", 0), ("v", 0), ("b", 0)), (("b", 1), ("v", 1), ("a", 1))),  # no adjacency
        ((("a", 0), ("a", 1)), (("v", 0), ("b", 0), ("b", 1))),  # a and b apart
    ]
    # the groupings of the Sweedler sums in quasihopf: a degree-4 a, single-leg
    # pass-through groups, a degree-1 vector b and the degree-0 unit b
    shapes = [
        (((("a", 1), ("b", 0), ("a", 2)), (("a", 0), ("b", 1), ("a", 3))), 4, 2),
        (((("a", 0),), (("v", 0), ("b", 0), ("a", 1)), (("a", 3), ("b", 1), ("a", 2))), 4, 2),
        (((("a", 0),), (("b", 0), ("v", 0)), (("b", 1), ("a", 1))), 2, 2),
        (((("a", 0),), (("a", 1), ("v", 0), ("b", 0), ("a", 2))), 3, 1),
        (((("a", 0),), (("b", 0),)), 1, 1),
        (((("a", 0),), (("a", 1),), (("a", 2), ("v", 0), ("a", 3))), 4, 0),
        (((("a", 0),), (("a", 2), ("a", 1))), 3, 0),
        (((("a", 0), ("v", 0), ("a", 1), ("v", 1), ("a", 2)),), 3, 0),
    ]
    shape_rng = random.Random(7141)
    seen = set()
    for sc in (function_algebra(3), matrix_units_algebra(), group_algebra_s3(), double,
               partial_algebra(), lopsided_algebra(), plain_ones_algebra(random.Random(8109))):
        vecs = tuple({k[0]: c for k, c in sparse_tensor(rng, sc, 1, 2).entries.items()}
                     for _ in range(2))
        unit0 = SparseTensor(sc.dim, 0, sc.order, {(): CycScalar.one(sc.order)})
        for groups, da, db in shapes:
            for na, nb in [(0, 5), (5, 0), (12, 3), (40, 12)]:
                a = sparse_tensor(shape_rng, sc, da, na)
                b = unit0 if db == 0 and nb else sparse_tensor(shape_rng, sc, db, nb)
                want = _merge_pair_reference(sc, a, b, groups, vecs)
                assert merge_pair(sc, a, b, groups, vecs) == want, (sc.dim, groups, na, nb)
        cases = [(g, 2, 2) for g in fixed]
        for _ in range(14):
            da, db = rng.randint(1, 3), rng.randint(1, 3)
            cases.append((random_groups(rng, da, db, len(vecs)), da, db))
        for groups, da, db in cases:
            for na, nb in [(0, 5), (5, 0), (rng.choice(sizes), rng.choice(sizes))]:
                a = sparse_tensor(rng, sc, da, na)
                b = sparse_tensor(rng, sc, db, nb)
                want = _merge_pair_reference(sc, a, b, groups, vecs)
                got = merge_pair(sc, a, b, groups, vecs)
                assert got == want, (sc.dim, groups, na, nb)
                assert got.degree == len(groups) and got.order == sc.order
                seen.add(frozenset(adjacency(groups)))
    assert seen == {frozenset(), frozenset({"ab"}), frozenset({"ba"}),
                    frozenset({"ab", "ba"})}


def test_merge_pair_folds_each_chain_once_per_index_tuple():
    # a folded group is computed once per tuple of the tensor indices it
    # reads and kept for the call; these inputs make each tuple recur with
    # other coefficients and other legs, and make every chain position vary
    # while the others stay, so a key that drops a position reuses a wrong
    # fold
    rng = random.Random(9031)
    groups_list = [
        ((("a", 0), ("b", 0), ("v", 0)), (("a", 1),), (("b", 1),)),
        ((("v", 0), ("a", 0), ("b", 1), ("a", 1)), (("b", 0),)),
        ((("b", 0), ("v", 1), ("a", 0)), (("a", 1), ("b", 1))),
        ((("a", 1), ("v", 0)), (("a", 0), ("b", 0), ("b", 1))),
    ]
    for sc in (group_algebra_s3(), matrix_units_algebra(), lopsided_algebra(),
               plain_ones_algebra(random.Random(9032))):
        vecs = ({0: CycScalar.one(sc.order)},
                {k[0]: c for k, c in sparse_tensor(rng, sc, 1, 2).entries.items()})
        keys = [(i, j) for i in range(sc.dim) for j in range(sc.dim)]
        for groups in groups_list:
            a = SparseTensor(sc.dim, 2, sc.order, {k: random_scalar(rng, sc.order) for k in keys})
            b = SparseTensor(sc.dim, 2, sc.order, {k: random_scalar(rng, sc.order) for k in keys})
            want = _merge_pair_reference(sc, a, b, groups, vecs)
            assert merge_pair(sc, a, b, groups, vecs) == want, (sc.dim, groups)
    # lopsided: (e0 e1) e1 = e0 although e1 e1 = 0, so only the in-chain test
    # of the pair (a0, b0) = (1, 1) keeps v.a.b at zero; the tuple (1, 1)
    # comes twice, (0, 1) is a cell and survives
    sc = lopsided_algebra()
    a = SparseTensor(2, 2, 1, {(1, 0): rat(2), (1, 1): rat(3), (0, 0): rat(5)})
    b = SparseTensor(2, 1, 1, {(1,): rat(7)})
    groups = ((("v", 0), ("a", 0), ("b", 0)), (("a", 1),))
    want = SparseTensor(2, 2, 1, {(0, 0): rat(35)})
    assert merge_pair(sc, a, b, groups, ({0: ONE},)) == want
    assert _merge_pair_reference(sc, a, b, groups, ({0: ONE},)) == want


# -- merge_pair's compiled kernels against the plan interpreted per candidate ----


def _merge_pair_plan_reference(sc: StructureConstants, a: SparseTensor, b: SparseTensor, groups, vecs=()):
    """Multiply legs of two tensors (and fixed vectors) into output legs.

    Each group is a tuple of factor refs ('a', leg) / ('b', leg) / ('v', k),
    multiplied left to right inside the algebra; the output tensor has one
    leg per group.  Every input leg must appear exactly once overall.

    The groups become a plan once per call: a group of one tensor leg passes
    its index through, a group of two tensor legs is one table lookup, and
    any other group (with a vector, or of three or more factors) is folded
    by _chain_pairs once per tuple of the tensor indices it reads: the fold,
    or () when an a/b pair inside it is not a cell of the table, is kept for
    the rest of the call, since the block join makes many candidates read
    the same indices (on k^omega G about n^2 tuples for n^4 candidates).
    b is indexed by the blocks (see StructureConstants) of
    its legs in adjacent a/b factor pairs, right blocks where a comes first
    and left blocks otherwise, and the candidates of an entry of a are the b
    entries whose key equals its own blocks on the partner side (all of b
    if there is no such pair).  A candidate makes its lookups and takes its
    folds before it multiplies: ca * cb and the expansion come once every
    group is nonzero.

    For a two-factor group this filter is exact on any table, since
    e_i * e_j != 0 puts i and j in one block, so multiply stays exact on the
    nonassociative doubles.  For a pair inside a longer chain it relies on
    associativity: (v * a) * b is skipped when a * b = 0.  Every caller with
    such chains passes H.mult, whose associativity the `assoc` axiom checks.
    """
    used_a = sorted(i for g in groups for kind, i in g if kind == "a")
    used_b = sorted(i for g in groups for kind, i in g if kind == "b")
    if used_a != list(range(a.degree)) or used_b != list(range(b.degree)):
        raise AlgebraError("merge_pair groups must use every input leg exactly once")
    _check_space(sc.dim, sc.order, a, b)

    def at(kind, i):  # position of a tensor leg in the joined key ka + kb
        return i if kind == "a" else a.degree + i

    joins = []  # (a leg, b leg, a comes first) of each adjacent a/b pair
    cells = []  # (position, position) of each two-leg group
    # per folded group: the getter of the indices it reads, its factors
    # (positions and vectors), the (position, position) of each a/b pair in
    # it, and its folds by those indices
    chains = []
    steps = []  # per group: ("pass", position), ("cell", n) or ("chain", n)
    for g in groups:
        pairs = [(r1, r2) for r1, r2 in zip(g, g[1:]) if {r1[0], r2[0]} == {"a", "b"}]
        joins += [(r1[1], r2[1], True) if r1[0] == "a" else (r2[1], r1[1], False)
                  for r1, r2 in pairs]
        if len(g) == 1 and g[0][0] != "v":
            steps.append(("pass", at(*g[0])))
        elif len(g) == 2 and "v" not in (g[0][0], g[1][0]):
            steps.append(("cell", len(cells)))
            cells.append((at(*g[0]), at(*g[1])))
        else:
            steps.append(("chain", len(chains)))
            factors = [vecs[i] if kind == "v" else at(kind, i) for kind, i in g]
            read = [x for x in factors if type(x) is int]
            chains.append((itemgetter(*read) if read else lambda _k: (), factors,
                           [(at(*r1), at(*r2)) for r1, r2 in pairs], {}))
    # a candidate's `ents` are its cells' table entries, then its folded groups
    slots = [(kind != "pass", len(cells) + n if kind == "chain" else n) for kind, n in steps]

    lb, rb = sc.left_block, sc.right_block
    a_blocks = [(a_leg, lb if a_first else rb) for a_leg, _, a_first in joins]
    b_blocks = [(b_leg, rb if a_first else lb) for _, b_leg, a_first in joins]
    index: dict[tuple, list] = {}  # blocks -> keys of b
    b_entries = b.entries
    for kb in b_entries:
        index.setdefault(tuple([blk[kb[leg]] for leg, blk in b_blocks]), []).append(kb)

    table = sc.table
    one = CycScalar.one(sc.order)
    out: dict = {}
    for ka, ca in a.entries.items():
        for kb in index.get(tuple([blk[ka[leg]] for leg, blk in a_blocks]), ()):
            k = ka + kb
            ents = [table.get((k[p], k[q])) for p, q in cells]
            if None in ents:
                continue
            for read, factors, tests, folds in chains:
                ix = read(k)
                v = folds.get(ix)
                if v is None:
                    v = folds[ix] = _chain_pairs(
                        table, [k[x] if type(x) is int else x for x in factors], one
                    ) if all((k[p], k[q]) in table for p, q in tests) else ()
                if not v:
                    break
                ents.append(v)
            else:
                cb = b_entries[kb]
                c = cb if ca is one else (ca if cb is one else ca * cb)
                key = []
                wide = []  # (output leg, entry) of each group with several terms
                for is_ent, x in slots:
                    if not is_ent:
                        key.append(k[x])
                    elif len(ents[x]) > 1:
                        wide.append((len(key), ents[x]))
                        key.append(None)
                    else:
                        i, ci = ents[x][0]
                        key.append(i)
                        if ci is not one:
                            c = ci if c is one else c * ci
                if wide:
                    terms = []
                    for combo in product(*[ent for _, ent in wide]):
                        cc = c
                        for (leg, _), (i, ci) in zip(wide, combo):
                            key[leg] = i
                            if ci is not one:
                                cc = ci if cc is one else cc * ci
                        terms.append((tuple(key), cc))
                else:
                    terms = ((tuple(key), c),)
                for key, c in terms:
                    prev = out.get(key)
                    out[key] = c if prev is None else prev + c
    return _owned(a.dim, len(groups), a.order, out)


@lru_cache(maxsize=None)
def kernel_algebras() -> tuple:
    """The function algebra, S3, the zn:3:1 double, a nonassociative table
    and one whose cells have several terms (so _add_terms runs)."""
    return (function_algebra(3), group_algebra_s3(),
            build_H1(build_k_omega_G(cyclic_cocycle(3, 1))).sc, lopsided_algebra(),
            plain_ones_algebra(random.Random(8114)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 4), da=st.integers(1, 3), db=st.integers(0, 3),
       na=st.sampled_from((0, 1, 4, 15, 40)), nb=st.sampled_from((0, 1, 4, 15, 40)),
       seed=st.integers(0, 2**32 - 1))
def test_merge_pair_kernels_match_interpreted_plan(which, da, db, na, nb, seed):
    sc = kernel_algebras()[which]
    rng = random.Random(seed)
    vecs = tuple({k[0]: c for k, c in sparse_tensor(rng, sc, 1, rng.randint(1, 3)).entries.items()}
                 for _ in range(2))
    groups = random_groups(rng, da, db, len(vecs))
    a = sparse_tensor(rng, sc, da, na)
    b = sparse_tensor(rng, sc, db, nb)
    want = _merge_pair_plan_reference(sc, a, b, groups, vecs)
    got = merge_pair(sc, a, b, groups, vecs)
    assert got == want and got.degree == len(groups) and got.order == sc.order, groups
    assert list(got.entries.items()) == list(want.entries.items()), groups


def test_merge_pair_kernel_order_with_no_joined_legs_and_an_empty_b():
    rng = random.Random(6011)
    cases = [  # b's legs meet no a leg, so every entry of b has the block key ()
        ((("a", 0), ("v", 0), ("b", 0)), (("a", 1),), (("b", 1),)),
        ((("a", 0), ("a", 1)), (("b", 0), ("b", 1))),
        ((("a", 0),), (("a", 1),)),  # a degree-0 b
        ((("a", 0), ("b", 0)), (("b", 1), ("a", 1))),  # joined legs, for the empty b
    ]
    for sc in kernel_algebras():
        vecs = ({k[0]: c for k, c in sparse_tensor(rng, sc, 1, 2).entries.items()},)
        for groups in cases:
            db = sum(kind == "b" for g in groups for kind, _ in g)
            a = sparse_tensor(rng, sc, 2, 15)
            for b in (sparse_tensor(rng, sc, db, 15 if db else 1),
                      SparseTensor(sc.dim, db, sc.order, {})):
                want = _merge_pair_plan_reference(sc, a, b, groups, vecs)
                got = merge_pair(sc, a, b, groups, vecs)
                assert list(got.entries.items()) == list(want.entries.items()), groups
                assert got.degree == len(groups) and (got.entries or not b.entries)


def test_merge_pair_kernel_is_reused_across_vectors_and_tables(monkeypatch):
    import qhd.algebra as algebra

    compiled, expanded = [], []
    compile_kernel, add_terms = algebra._compile_kernel, algebra._add_terms
    monkeypatch.setattr(algebra, "_KERNELS", {})
    monkeypatch.setattr(algebra, "_compile_kernel",
                        lambda sig: compiled.append(sig) or compile_kernel(sig))
    monkeypatch.setattr(algebra, "_add_terms",
                        lambda *args: expanded.append(args) or add_terms(*args))
    rng = random.Random(4471)
    groups = ((("a", 0), ("v", 0), ("b", 0)), (("b", 1), ("a", 1)), (("v", 1),))
    for sc in kernel_algebras():
        for _ in range(3):
            vecs = tuple({k[0]: c for k, c in sparse_tensor(rng, sc, 1, 3).entries.items()}
                         for _ in range(2))
            a, b = sparse_tensor(rng, sc, 2, 30), sparse_tensor(rng, sc, 2, 30)
            want = _merge_pair_plan_reference(sc, a, b, groups, vecs)
            assert merge_pair(sc, a, b, groups, vecs) == want, sc.dim
    assert len(compiled) == 1 and len(algebra._KERNELS) == 1
    assert expanded  # the several-term candidates of the last table


def test_kernel_generation_refuses_a_signature_of_other_types():
    sig = (2, 1, ((0, 0, True),), ((1, 0), (0, 1)), ((0, 2),), ())
    _compile_kernel(sig)
    for bad in [(2, 1, ((0, 0, "True"),), ((1, 0), (0, 1)), ((0, 2),), ()),
                (2, 1, ((0, 0, True),), ((1, 0), (0, 1.0)), ((0, 2),), ()),
                (2, 1, ((0, 0, True),), ((1, 0), (0, 1)), ([0, 2],), ()),
                (2, 1, (), ((1, 0), (0, 1)), ((0, 2),), ((("__import__('os')", 0), ()),))]:
        with pytest.raises(AlgebraError, match="signature"):
            _compile_kernel(bad)


# -- merge_pair summed over shared legs against the per-slice loop it replaced --


def _slice_products_reference(sc, a, b, groups, vecs=(), sums=((0, 0),), product=merge_pair):
    """merge_pair summed over the legs paired in sums as a loop over slices:
    one product of the slices of a and b at each tuple of basis indices on
    those legs, a's legs and b's renumbered past the summed ones, added up."""
    sum_a, sum_b = [i for i, _ in sums], [j for _, j in sums]

    def slices(t, legs):
        parts = {}
        for key, c in t.entries.items():
            rest = tuple(x for p, x in enumerate(key) if p not in legs)
            parts.setdefault(tuple(key[p] for p in legs), {})[rest] = c
        return {i: SparseTensor(t.dim, t.degree - len(legs), t.order, e) for i, e in parts.items()}

    def renumbered(kind, i):
        summed = sum_a if kind == "a" else sum_b if kind == "b" else ()
        return kind, i - sum(p < i for p in summed)

    groups = tuple(tuple(renumbered(*r) for r in g) for g in groups)
    sa, sb = slices(a, sum_a), slices(b, sum_b)
    out = {}
    for i in sa:
        if i in sb:
            for key, c in product(sc, sa[i], sb[i], groups, vecs).entries.items():
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
    return SparseTensor(sc.dim, len(groups), sc.order, out)


@lru_cache(maxsize=None)
def kS3F():
    """kS3^F (see helpers.gauge_twisted_kS3): a nonabelian product and a dense
    associator that is not diagonal."""
    from helpers import gauge_twisted_kS3
    from qhd.cli import parse_input

    return gauge_twisted_kS3(parse_input(os.path.join(os.path.dirname(__file__), "data",
                                                      "s3_sign.qhd"))[0])


def summed_algebras() -> tuple:
    """partial_algebra (its unit fails the unit law on e2), matrix units (a
    two-sided unit), kS3^F's product, the zn:3:1 double (nonassociative) and
    a table with several terms per cell."""
    return (partial_algebra(), matrix_units_algebra(), kS3F().mult,
            *kernel_algebras()[2:])


# (groups, sums, degree of a, degree of b) in the shapes of quasihopf's sums
SUMMED_SHAPES = [
    (((("a", 1), ("b", 1)), (("a", 2), ("b", 2))), ((0, 0),), 3, 3),  # gamma, f
    (((("a", 1), ("b", 2)), (("a", 2), ("b", 1))), ((0, 0),), 3, 3),  # crossed
    (((("a", 1), ("b", 1)), (("a", 2), ("b", 2)), (("a", 3), ("v", 0))), ((0, 0),), 4, 3),
    (((("a", 0), ("b", 0)), (("b", 2), ("a", 1))), ((2, 1),), 3, 3),  # a leg other than 0
    (((("a", 0), ("v", 0), ("b", 1)),), ((1, 0),), 2, 2),  # the unit between
    (((("a", 1), ("b", 0)),), ((0, 1), (2, 2)), 3, 3),  # two sums
    (((("v", 0),),), ((0, 0),), 1, 1),  # every tensor leg summed
]


def test_merge_pair_sums_match_the_slice_loop():
    rng = random.Random(3013)
    for sc in summed_algebras():
        for groups, sums, da, db in SUMMED_SHAPES:
            for na, nb in [(0, 5), (5, 0), (12, 12), (40, 40), (80, 20)]:
                a = sparse_tensor(rng, sc, da, na)
                b = sparse_tensor(rng, sc, db, nb)
                got = merge_pair(sc, a, b, groups, (sc.unit,), sums)
                assert got == _slice_products_reference(sc, a, b, groups, (sc.unit,), sums), \
                    (sc.dim, groups, sums)
                assert got.degree == len(groups) and got.order == sc.order
    # kS3^F's own associators, the second with x3 on its first leg, as 2.13 sums them
    H = kS3F()
    phi, phiinv = H.associator, H.associator_inv
    for a, b in ((phi, phiinv), (phiinv, permute_legs(phi, (2, 1, 0))),
                 (sparse_tensor(rng, H.mult, 4, 200), phi)):
        groups, sums, _, _ = SUMMED_SHAPES[2 if a.degree == 4 else 1]
        got = merge_pair(H.mult, a, b, groups, (H.mult.unit,), sums)
        assert got.entries and got == _slice_products_reference(H.mult, a, b, groups,
                                                                (H.mult.unit,), sums)


def random_summed_groups(rng, da, db, nvecs):
    """One or two pairs of summed legs, and the other legs of a and b with
    some vector refs cut into groups as random_groups cuts them."""
    nsums = rng.randint(1, min(2, da, db))
    sums = tuple(zip(rng.sample(range(da), nsums), rng.sample(range(db), nsums)))
    refs = [("a", i) for i in range(da) if i not in dict(sums)]
    refs += [("b", j) for j in range(db) if j not in {j for _, j in sums}]
    rng.shuffle(refs)
    for _ in range(rng.randint(0 if refs else 1, 2)):
        refs.insert(rng.randrange(len(refs) + 1), ("v", rng.randrange(nvecs)))
    ngroups = rng.randint(1, min(3, len(refs)))
    cuts = sorted(rng.sample(range(1, len(refs)), ngroups - 1))
    return tuple(tuple(refs[i:j]) for i, j in zip([0] + cuts, cuts + [len(refs)])), sums


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 4), da=st.integers(1, 3), db=st.integers(1, 3),
       na=st.sampled_from((0, 1, 4, 15, 40)), nb=st.sampled_from((0, 1, 4, 15, 40)),
       seed=st.integers(0, 2**32 - 1))
def test_merge_pair_sums_match_slices_of_the_interpreted_plan(which, da, db, na, nb, seed):
    # the slices are multiplied by the plan interpreted per candidate, so the
    # reference shares no compiled kernel with the summed call; the unit is
    # one of the vectors, so unit legs are both dropped and kept
    sc = summed_algebras()[which]
    rng = random.Random(seed)
    vecs = (sc.unit, {k[0]: c for k, c in sparse_tensor(rng, sc, 1, 2).entries.items()})
    groups, sums = random_summed_groups(rng, da, db, len(vecs))
    a = sparse_tensor(rng, sc, da, na)
    b = sparse_tensor(rng, sc, db, nb)
    got = merge_pair(sc, a, b, groups, vecs, sums)
    want = _slice_products_reference(sc, a, b, groups, vecs, sums, _merge_pair_plan_reference)
    assert got == want and got.degree == len(groups), (groups, sums)


def test_merge_pair_refuses_a_summed_leg_used_twice():
    sc = matrix_units_algebra()
    a, b = sparse_tensor(random.Random(1), sc, 2, 4), sparse_tensor(random.Random(2), sc, 2, 4)
    groups = ((("a", 1), ("b", 1)),)
    assert merge_pair(sc, a, b, groups, sums=((0, 0),)) == \
        _slice_products_reference(sc, a, b, groups)
    for bad_groups, sums in [
        (((("a", 0), ("b", 1)), (("a", 1),)), ((0, 0),)),  # a's leg 0 in a group and in sums
        (((("a", 1), ("b", 0)),), ((0, 0), (0, 1))),  # a's leg 0 twice in sums
        (((("a", 1), ("b", 1)),), ((0, 0), (0, 0))),  # one pair twice
        (((("a", 1),),), ((0, 0), (2, 1))),  # a leg that a does not have
    ]:
        with pytest.raises(AlgebraError, match="exactly once"):
            merge_pair(sc, a, b, bad_groups, sums=sums)


def test_blocks_hold_every_cell_and_are_complete_for_built_algebras():
    from qhd.cli import parse_input, resolve_builtin
    from qhd.heisenberg import build_H1, build_H1_dual
    from qhd.twisted import build_k_omega_G

    def cells_in_blocks(sc):
        return all(sc.left_block[i] == sc.right_block[j] for i, j in sc.table)

    def blocks_complete(sc):
        return all((i, j) in sc.table
                   for i in range(sc.dim) for j in range(sc.dim)
                   if sc.left_block[i] == sc.right_block[j])

    for sc in (function_algebra(3), matrix_units_algebra(), group_algebra_s3()):
        assert cells_in_blocks(sc) and blocks_complete(sc)
    # e0 e1 and e1 e0 put e1 in e0's block on both sides, but e1 e1 = 0; e2 is
    # alone on each side
    sc = partial_algebra()
    assert cells_in_blocks(sc) and not blocks_complete(sc)
    assert sc.left_block[0] == sc.left_block[1] == sc.right_block[1]
    assert sc.left_block[2] not in sc.right_block and sc.right_block[2] not in sc.left_block

    s3_sign = os.path.join(os.path.dirname(__file__), "data", "s3_sign.qhd")
    for w in (resolve_builtin("zn:3:1"), resolve_builtin("v4:3"), parse_input(s3_sign)[1]):
        H = build_k_omega_G(w)
        for sc in (H.mult, build_H1(H).sc, build_H1_dual(H).sc):
            assert cells_in_blocks(sc) and blocks_complete(sc), (w.group.name, sc.dim)


# -- solve_linear against the row-scanning elimination it replaced --------------


def _solve_linear_reference(rows: list, rhs: list, ncols: int, order: int):
    """Exact sparse Gaussian elimination on rows of {col: coeff}.

    Returns a solution {col: coeff} (free columns set to zero) or an
    Inconsistency certificate.  Pivot choice is the first nonzero entry by
    row-major scan, which keeps reports deterministic.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    norig = list(range(len(rows)))
    pivots: dict[int, int] = {}  # col -> row position in `rows`
    used: set[int] = set()
    for col in range(ncols):
        piv = None
        for r in range(len(rows)):
            if r not in used and col in rows[r]:
                piv = r
                break
        if piv is None:
            continue
        used.add(piv)
        pivots[col] = piv
        pval = rows[piv][col].inverse()
        rows[piv] = {c: v * pval for c, v in rows[piv].items()}
        rhs[piv] = rhs[piv] * pval
        prow = rows[piv]
        prhs = rhs[piv]
        for r in range(len(rows)):
            if r == piv or col not in rows[r]:
                continue
            f = rows[r][col]
            newrow = dict(rows[r])
            for c, v in prow.items():
                prev = newrow.get(c)
                nv = -f * v if prev is None else prev - f * v
                if nv.is_zero():
                    newrow.pop(c, None)
                else:
                    newrow[c] = nv
            rows[r] = newrow
            rhs[r] = rhs[r] - f * prhs
    for r in range(len(rows)):
        if r not in used and not rows[r] and not rhs[r].is_zero():
            return Inconsistency(row_index=norig[r], rhs=rhs[r])
    sol: dict = {}
    for col, r in pivots.items():
        if not rhs[r].is_zero():
            sol[col] = rhs[r]
    return sol


def random_scalar(rng, order):
    """A nonzero element of Q(zeta_order), sometimes a sum of two roots."""
    while True:
        c = (root_of_unity(order, rng.randrange(order))
             * CycScalar.from_rational(order, rng.choice((-2, -1, 1, 3))))
        if rng.random() < 0.3:
            c = c + root_of_unity(order, rng.randrange(order))
        if not c.is_zero():
            return c


def random_rows(rng, order, nrows, ncols, density):
    return [{c: random_scalar(rng, order) for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)]


def rows_times(rows, x, order):
    out = []
    for row in rows:
        acc = CycScalar.zero(order)
        for c, v in row.items():
            if c in x:
                acc = acc + v * x[c]
        out.append(acc)
    return out


def random_systems(rng, order):
    """(label, rows, rhs, ncols) covering consistent, underdetermined,
    inconsistent, duplicated-row and stacked systems."""
    ncols = rng.randint(1, 7)
    x = {c: random_scalar(rng, order) for c in range(ncols) if rng.random() < 0.7}
    square = random_rows(rng, order, ncols + rng.randint(0, 3), ncols, 0.45)
    yield "consistent", square, rows_times(square, x, order), ncols
    wide = random_rows(rng, order, max(1, ncols - 2), ncols, 0.5)
    yield "underdetermined", wide, rows_times(wide, x, order), ncols
    b = rows_times(square, x, order)
    yield "random-rhs", square, [random_scalar(rng, order) if rng.random() < 0.5
                                 else CycScalar.zero(order) for _ in square], ncols
    k = rng.randrange(len(square))
    yield ("inconsistent", square + [square[k]],
           b + [b[k] + random_scalar(rng, order)], ncols)
    dup = square + [square[rng.randrange(len(square))] for _ in range(2)] + [{}]
    yield "duplicated", dup, rows_times(dup, x, order), ncols
    other = random_rows(rng, order, len(square), ncols, 0.45)
    yield "stacked", square + other, b + b, ncols


def fraction_pivot(rng, order):
    """2 + zeta^k: its inverse has Fraction coefficients at order 7."""
    return CycScalar.from_rational(order, 2) + root_of_unity(order, rng.randrange(order))


def sparse_rhs(rng, order, nrows):
    """Mostly zero right sides, as the probe's unit tensor gives."""
    return [random_scalar(rng, order) if rng.random() < 0.15 else CycScalar.zero(order)
            for _ in range(nrows)]


def probe_shaped_systems(rng, order):
    """(label, rows, rhs, ncols) shaped like the probe's: one entry per row
    on permuted columns, Fraction-inverse pivots, mostly zero right sides,
    and a nonzero pivot right side that other rows must receive."""
    ncols = rng.randint(2, 8)
    perm = list(range(ncols))
    rng.shuffle(perm)
    mono = [{perm[i]: random_scalar(rng, order)} for i in range(ncols)]
    extra = [{rng.randrange(ncols): random_scalar(rng, order)} for _ in range(rng.randint(1, 3))]
    yield "monomial", mono, sparse_rhs(rng, order, ncols), ncols
    yield "monomial-repeats", mono + extra, sparse_rhs(rng, order, ncols + len(extra)), ncols
    x = {c: random_scalar(rng, order) for c in range(ncols) if rng.random() < 0.5}
    frac = [{perm[i]: fraction_pivot(rng, order)} for i in range(ncols)]
    frac += [{c: fraction_pivot(rng, order) for c in rng.sample(range(ncols), 2)}
             for _ in range(2)]
    yield "fraction-pivots", frac, rows_times(frac, x, order), ncols
    yield "sparse-rhs", frac, sparse_rhs(rng, order, len(frac)), ncols
    # row 0 is the only nonzero right side; solving needs it in row 1
    c0, c1 = perm[0], perm[1]
    reach = [{c0: fraction_pivot(rng, order)},
             {c0: random_scalar(rng, order), c1: fraction_pivot(rng, order)}]
    reach += [{perm[i]: random_scalar(rng, order)} for i in range(2, ncols)]
    zero = CycScalar.zero(order)
    yield "pivot-rhs-reaches", reach, [random_scalar(rng, order)] + [zero] * (ncols - 1), ncols


def test_solve_linear_matches_row_scan_reference():
    rng = random.Random(3)
    seen = set()
    for order in (1, 3, 7):
        for _ in range(12):
            for label, rows, rhs, ncols in random_systems(rng, order):
                before = [dict(r) for r in rows], list(rhs)
                want = _solve_linear_reference(rows, rhs, ncols, order)
                got = solve_linear(rows, rhs, ncols, order)
                assert got == want, (order, label)
                assert ([dict(r) for r in rows], list(rhs)) == before, (order, label)
                seen.add((label, isinstance(got, Inconsistency)))
    assert ("inconsistent", True) in seen and ("stacked", True) in seen
    assert ("stacked", False) in seen and ("random-rhs", True) in seen
    assert ("underdetermined", False) in seen and ("duplicated", False) in seen

    shaped_rng = random.Random(4107)
    for order in (1, 3, 7):
        for _ in range(12):
            for label, rows, rhs, ncols in probe_shaped_systems(shaped_rng, order):
                before = [dict(r) for r in rows], list(rhs)
                want = _solve_linear_reference(rows, rhs, ncols, order)
                got = solve_linear(rows, rhs, ncols, order)
                assert got == want, (order, label)
                assert ([dict(r) for r in rows], list(rhs)) == before, (order, label)
                seen.add((label, isinstance(got, Inconsistency)))
                if label == "pivot-rhs-reaches":  # row 1's own column gets row 0's rhs
                    (c1,) = rows[1].keys() - rows[0].keys()
                    assert c1 in got, order
    assert ("monomial-repeats", True) in seen and ("monomial-repeats", False) in seen
    assert ("fraction-pivots", False) in seen and ("sparse-rhs", True) in seen
    assert any(isinstance(c, Fraction) and c.denominator > 1
               for c in fraction_pivot(random.Random(0), 7).inverse().coeffs)


# -- _reduce_system on dict rows against the elimination before isolated rows
# -- took one step, copied verbatim as the reference


def _row_reduce_reference(rows: list, rhs: list, ncols: int, order: int):
    """The Gauss-Jordan elimination behind solve_linear, on copies.

    Returns (rows, rhs, pivots): the reduced rows and right sides, in the
    positions of the input, and col -> position of that column's pivot row.
    The pivot rows in column order are the reduced row echelon form of the
    system, each with its right side.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    one = CycScalar.one(order)
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
        # the pivot entry is pval * inv, which is one by construction
        prow = rows[piv] = {c: one if c == col else v * inv for c, v in rows[piv].items()}
        rest = [(c, v) for c, v in prow.items() if c != col]
        prhs = rhs[piv]
        if prhs.is_zero():  # then rhs[r] - f * prhs is rhs[r]
            prhs = None
        else:
            prhs = rhs[piv] = prhs * inv
        for r in held:  # no later column reads holders[col] again
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


def row_reduce_cases(order):
    """(label, rows, rhs, ncols) where an isolated row needs care."""
    p = fraction_pivot(random.Random(order), order)
    a, b, c, d = (p * CycScalar.from_rational(order, k) for k in (1, 2, 5, -3))
    zero = CycScalar.zero(order)
    # row 1 is isolated on column 1 only once row 0's pivot has eliminated
    # its column 0, and that elimination changes its right side
    yield "isolated-later", [{0: a}, {0: b, 1: c}, {2: d}], [a, c, d], 3
    yield "equal-one-entry-rows", [{1: a}, {1: a}, {0: b}], [c, c, zero], 2
    yield "empty-row-nonzero-rhs", [{1: a}, {}, {0: b, 1: c}], [zero, d, b], 2


def test_row_reduce_matches_reference_with_pivots_in_column_order():
    rng, shaped_rng = random.Random(17), random.Random(4111)
    for order in (1, 3, 7):
        systems = list(row_reduce_cases(order))
        for _ in range(6):
            systems += random_systems(rng, order)
            systems += probe_shaped_systems(shaped_rng, order)
        for label, rows, rhs, ncols in systems:
            before = [dict(r) for r in rows], list(rhs)
            want_rows, want_rhs, want_piv = _row_reduce_reference(rows, rhs, ncols, order)
            got_rows, got_rhs, got_piv = reduced_dicts(rows, rhs, ncols, order)
            assert got_rows == want_rows and got_rhs == want_rhs, (order, label)
            assert list(got_piv.items()) == list(want_piv.items()), (order, label)
            assert ([dict(r) for r in rows], list(rhs)) == before, (order, label)


# -- _reduce_system on the row forms of the probe's systems, against both
# -- references


def mixed_system(rng, order, consistent):
    """(rows, held, rhs, ncols) in the form multiplication_system hands to
    _reduce_system: None for an empty row, a (col, coeff) pair, or a dict of
    two or more entries.  It mixes pairs alone on their column, pairs on a
    column other rows hold, dict rows and empty rows, whose right sides are
    nonzero unless `consistent`."""
    ncols = rng.randint(3, 9)
    cols = list(range(ncols))
    rng.shuffle(cols)
    k = rng.randint(1, ncols - 2)
    alone, shared = cols[:k], cols[k:]
    rows = [(c, fraction_pivot(rng, order)) for c in alone]
    rows += [(rng.choice(shared), random_scalar(rng, order)) for _ in range(rng.randint(1, 3))]
    rows += [{c: random_scalar(rng, order)
              for c in rng.sample(shared, rng.randint(2, min(3, len(shared))))}
             for _ in range(rng.randint(0, 3))]
    rows += [None] * rng.randint(0, 2)
    rng.shuffle(rows)
    held = [0] * ncols
    for row in rows:
        for c in ((row[0],) if type(row) is tuple else row or ()):
            held[c] += 1
    x = {c: random_scalar(rng, order) for c in range(ncols) if rng.random() < 0.6}
    rhs = rows_times([as_dict(row) for row in rows], x, order)
    if not consistent:
        zero = CycScalar.zero(order)
        rhs = [random_scalar(rng, order) if row is None or rng.random() < 0.3 else
               zero if rng.random() < 0.5 else b for row, b in zip(rows, rhs)]
    return rows, held, rhs, ncols


def as_dict(row, one=None):
    """A row of a system as {col: coeff}; a pair as {col: one} if one is given."""
    if row is None:
        return {}
    if type(row) is tuple:
        return {row[0]: row[1] if one is None else one}
    return dict(row)


def system_rows(sc, x, side):
    """The rows of multiplication_system as dicts, an empty row as {}."""
    return [as_dict(row) for row in multiplication_system(sc, x, side)[0]]


def reduced_dicts(rows, rhs, ncols, order):
    """_reduce_system on copies of dict rows, with the reduced rows as dicts:
    a settled pair read as {col: one}, a row left empty as {}."""
    rows, rhs, pivots = _reduce_system(*_system_of(rows, rhs, ncols), ncols, order)
    one = CycScalar.one(order)
    return [as_dict(row, one) for row in rows], rhs, pivots


def test_reduce_system_matches_references_on_mixed_rows():
    rng = random.Random(4127)
    seen = set()
    for order in (1, 3, 7):
        one = CycScalar.one(order)
        for i in range(40):
            rows, held, rhs, ncols = mixed_system(rng, order, consistent=i % 3 == 0)
            dict_rows = [as_dict(row) for row in rows]
            want_rows, want_rhs, want_piv = _row_reduce_reference(dict_rows, rhs, ncols, order)
            system = [dict(row) if type(row) is dict else row for row in rows]
            got_rows, got_rhs, got_piv = _reduce_system(system, list(held), list(rhs),
                                                        ncols, order)
            assert [as_dict(row, one) for row in got_rows] == want_rows, (order, i)
            assert got_rhs == want_rhs, (order, i)
            assert list(got_piv.items()) == list(want_piv.items()), (order, i)
            # a pair among the reduced rows was settled where it lay
            settled = [r for r, row in enumerate(got_rows) if type(row) is tuple]
            assert all(got_rows[r] is rows[r] for r in settled), (order, i)
            assert {rows[r][0] for r in settled} == {row[0] for row in rows
                                                     if type(row) is tuple and held[row[0]] == 1}
            got = _read_solution(got_rows, got_rhs, got_piv, order)
            assert got == _solve_linear_reference(dict_rows, rhs, ncols, order), (order, i)
            assert got == solve_linear(dict_rows, rhs, ncols, order), (order, i)
            if isinstance(got, Inconsistency):
                # the certificate's row: the lowest-numbered row the
                # elimination leaves empty with a nonzero right side
                assert got.row_index == min(r for r, row in enumerate(want_rows)
                                            if not row and not want_rhs[r].is_zero())
                seen.add(("emptied" if rows[got.row_index] else "empty", True))
            else:
                seen.add((len(got_piv) == ncols, False))
            seen.update(("alone", "shared")[held[c] > 1] for c in (row[0] for row in rows
                                                                   if type(row) is tuple))
    assert {"alone", "shared", ("empty", True), ("emptied", True)} <= seen, seen
    assert (True, False) in seen and (False, False) in seen, seen


def test_inconsistency_names_the_lowest_row_left_empty_with_a_nonzero_right_side():
    order = 1
    a, b, c = rat(2), rat(3), rat(5)
    zero = CycScalar.zero(order)
    # row 0 is empty with a zero right side, row 2 is emptied by row 1's
    # pivot with right side -1, and row 3 is empty from the start with right
    # side c: rows 2 and 3 are inconsistent, and row 2 is named, although it
    # held entries and row 3 never did
    rows = [None, {0: a, 1: b}, {0: a, 1: b}, None, (2, c)]
    held = [2, 2, 1]
    rhs = [zero, ONE, zero, c, c]
    dict_rows = [as_dict(r) for r in rows]
    reduced, reduced_rhs, pivots = _reduce_system(rows, held, list(rhs), 3, order)
    assert list(pivots.items()) == [(0, 1), (2, 4)]
    assert reduced[2] == {} and reduced[4] == (2, c) and reduced_rhs[4] is ONE
    cert = _read_solution(reduced, reduced_rhs, pivots, order)
    assert cert == Inconsistency(row_index=2, rhs=rat(-1))
    assert cert == _solve_linear_reference(dict_rows, rhs, 3, order)
    # with row 2's right side equal to row 1's, the elimination cancels it,
    # and row 3 is named
    rhs[2] = ONE
    assert solve_linear(dict_rows, rhs, 3, order) == Inconsistency(3, c)


# -- the dense Gauss-Jordan that invert_map replaced, copied verbatim as the
# -- reference


def _invert_map_reference(m: LinearMap) -> LinearMap:
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


def random_map(rng, order, n):
    """(label, map): invertible-looking random columns, or a map made singular
    by a zero column, a repeated column or a column summing two others."""
    cols = [{i: random_scalar(rng, order) for i in range(n) if rng.random() < 0.6}
            for _ in range(n)]
    kind = rng.choice(("random", "zero", "repeat", "sum")) if n > 1 else "random"
    j = rng.randrange(n)
    if kind == "zero":
        cols[j] = {}
    elif kind == "repeat":
        cols[j] = dict(cols[(j + 1) % n])
    elif kind == "sum":
        a, b = cols[(j + 1) % n], cols[(j + 2) % n]
        cols[j] = {i: a.get(i, CycScalar.zero(order)) + b.get(i, CycScalar.zero(order))
                   for i in set(a) | set(b)}
    return kind, LinearMap(n, order, cols)


def test_invert_map_matches_gauss_jordan_reference():
    rng = random.Random(11)
    seen = set()
    for order in (1, 3, 7):
        for _ in range(25):
            kind, m = random_map(rng, order, rng.randint(1, 5))
            try:
                want = _invert_map_reference(m)
            except SingularMapError:
                with pytest.raises(SingularMapError):
                    invert_map(m)
                seen.add((kind, True))
                continue
            assert invert_map(m) == want, (order, kind)
            seen.add((kind, False))
    assert ("random", False) in seen
    assert {("zero", True), ("repeat", True), ("sum", True)} <= seen


# -- the three leg maps that one shared loop replaced, copied verbatim as the
# -- references


def _split_leg_reference(cop: Coproduct, t: SparseTensor, leg: int) -> SparseTensor:
    """Apply the coproduct to one leg (1-based), raising the degree by one."""
    pos = leg - 1
    out: dict = {}
    for key, c in t.entries.items():
        for (j, k), cd in cop.of_basis(key[pos]):
            nk = key[:pos] + (j, k) + key[pos + 1 :]
            prev = out.get(nk)
            out[nk] = c * cd if prev is None else prev + c * cd
    return SparseTensor(t.dim, t.degree + 1, t.order, out)


def _apply_leg_reference(m: LinearMap, t: SparseTensor, leg: int) -> SparseTensor:
    pos = leg - 1
    out: dict = {}
    for key, c in t.entries.items():
        for i, cm in m.cols[key[pos]].items():
            nk = key[:pos] + (i,) + key[pos + 1 :]
            prev = out.get(nk)
            out[nk] = c * cm if prev is None else prev + c * cm
    return SparseTensor(t.dim, t.degree, t.order, out)


def _counit_leg_reference(eps: dict, t: SparseTensor, leg: int) -> SparseTensor:
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


def test_leg_maps_match_per_map_references():
    rng = random.Random(8)
    n, order = 4, 3
    cops = [Coproduct(n, order, {a: tuple(((x, (a - x) % n), random_scalar(rng, order))
                                          for x in range(n)) for a in range(n)}),
            Coproduct(n, order, {0: (((1, 2), random_scalar(rng, order)),
                                     ((3, 3), random_scalar(rng, order))),
                                 2: (((0, 0), random_scalar(rng, order)),)})]
    maps = [LinearMap(n, order, [{i: random_scalar(rng, order) for i in range(n)
                                  if rng.random() < 0.5} for _ in range(n)])
            for _ in range(3)]
    assert any(len(col) > 1 for m in maps for col in m.cols)  # not a permutation
    plain_rng = random.Random(8110)
    cops.append(Coproduct(n, order, {
        a: tuple(((x, (a - x) % n), plain_ones_coeff(plain_rng, order)) for x in range(n))
        for a in range(n)}))
    maps.append(LinearMap(n, order, [{i: plain_ones_coeff(plain_rng, order) for i in range(n)
                                      if plain_rng.random() < 0.6} for _ in range(n)]))
    assert_ones_interned((c for ent in cops[-1].table.values() for _, c in ent), order)
    assert_ones_interned((c for _, ims in maps[-1].images.items() for _, c in ims), order)
    eps = {0: random_scalar(rng, order), 1: CycScalar.one(order),
           3: random_scalar(rng, order)}
    for degree in range(1, 5):
        for _ in range(4):
            entries = {tuple(rng.randrange(n) for _ in range(degree)): random_scalar(rng, order)
                       for _ in range(rng.randint(0, 12))}
            t = SparseTensor(n, degree, order, entries)
            for leg in range(1, degree + 1):
                for cop in cops:
                    assert split_leg(cop, t, leg) == _split_leg_reference(cop, t, leg)
                for m in maps:
                    assert apply_leg(m, t, leg) == _apply_leg_reference(m, t, leg)
                assert counit_leg(eps, t, leg) == _counit_leg_reference(eps, t, leg)


def rat3(x):
    return CycScalar.from_rational(3, x)


def _nested_reference(t: SparseTensor, steps) -> SparseTensor:
    """The steps of map_legs as nested per-map reference calls."""
    for m, leg in steps:
        t = (_split_leg_reference if isinstance(m, Coproduct) else _apply_leg_reference)(m, t, leg)
    return t


def test_map_legs_in_one_pass_matches_nested_references():
    rng = random.Random(9041)
    n, order = 3, 3
    one = CycScalar.one(order)
    # e0 and e1 have the same image, so t = e0 - e1 on a leg sums to zero
    # after it; one pass carries both terms through the later steps
    collapse = LinearMap(n, order, [{2: one, 0: rat3(2)}, {2: one, 0: rat3(2)}, {1: one}])
    swap_sum = LinearMap(n, order, [{0: one, 1: one}, {0: one, 1: -one}, {2: rat3(-1)}])
    partial = Coproduct(n, order, {0: (((1, 2), random_scalar(rng, order)),
                                       ((2, 2), one)),
                                   2: (((0, 0), random_scalar(rng, order)),)})
    full = Coproduct(n, order, {a: tuple(((x, (a - x) % n), random_scalar(rng, order))
                                         for x in range(n)) for a in range(n)})
    maps = [collapse, swap_sum, partial, full,
            LinearMap(n, order, [{i: random_scalar(rng, order) for i in range(n)
                                  if rng.random() < 0.6} for _ in range(n)])]
    t = SparseTensor(n, 2, order, {(0, 1): one, (1, 1): -one, (2, 0): rat3(3)})
    assert map_legs(t, (collapse, 1)) == SparseTensor(n, 2, order, {(1, 0): rat3(3)})
    for steps in [((collapse, 1), (full, 1)), ((collapse, 1), (swap_sum, 2), (full, 2)),
                  ((partial, 2), (collapse, 1), (full, 3), (swap_sum, 4))]:
        assert map_legs(t, *steps) == _nested_reference(t, steps), steps
    zero = map_legs(SparseTensor(n, 1, order, {(0,): one, (1,): -one}), (collapse, 1),
                    (full, 1))
    assert zero.is_zero() and zero.degree == 2
    for degree in range(1, 4):
        for _ in range(12):
            entries = {tuple(rng.randrange(n) for _ in range(degree)): random_scalar(rng, order)
                       for _ in range(rng.randint(0, 10))}
            t = SparseTensor(n, degree, order, entries)
            steps, d = [], degree
            for _ in range(rng.randint(1, 4)):
                m = rng.choice(maps)
                steps.append((m, rng.randint(1, d)))
                d += isinstance(m, Coproduct)
            got = map_legs(t, *steps)
            assert got == _nested_reference(t, steps), steps
            assert got.degree == d and got.order == order
    # the entry guard checks the tensor against every step's map
    other_order = LinearMap.identity(n, 4)
    other_dim = Coproduct(n + 1, order, {0: (((0, 0), one),)})
    t = SparseTensor(n, 2, order, {(0, 1): one})
    for steps in [((full, 1), (other_order, 2)), ((other_dim, 1),), ((swap_sum, 2), (other_dim, 1))]:
        with pytest.raises(AlgebraError):
            map_legs(t, *steps)


def test_kernels_refuse_tensors_of_another_order():
    # every coefficient of the order-3 algebra, coproduct and map is the
    # interned one, so only the entry guard sees the order-4 tensor
    one3 = CycScalar.one(3)
    sc = StructureConstants(1, 3, {(0, 0): ((0, one3),)}, {0: one3})
    cop = Coproduct(1, 3, {0: (((0, 0), one3),)})
    m = LinearMap.identity(1, 3)
    x = SparseTensor(1, 1, 4, {(0,): CycScalar(4, (-1, 0))})
    y = SparseTensor(1, 1, 4, {(0,): CycScalar.one(4)})
    x2 = SparseTensor(1, 2, 4, {(0, 0): CycScalar(4, (-1, 0))})
    with pytest.raises(AlgebraError):
        multiply(sc, x, y)
    with pytest.raises(AlgebraError):
        merge_pair(sc, x, y, ((("a", 0), ("b", 0)),))
    with pytest.raises(AlgebraError):
        multiplication_system(sc, x2, "right")
    with pytest.raises(AlgebraError):
        split_leg(cop, x, 1)
    with pytest.raises(AlgebraError):
        apply_leg(m, x, 1)
    # counit_leg has no order of its own to guard; a counit of another
    # order still fails in CycScalar.__mul__
    with pytest.raises(OrderMismatchError):
        counit_leg({0: one3}, x, 1)
    # the same tensors in their own order pass
    sc4 = StructureConstants(1, 4, {(0, 0): ((0, CycScalar.one(4)),)}, {0: CycScalar.one(4)})
    assert multiply(sc4, x, y) == x


def test_kernels_refuse_tensors_of_another_dimension():
    # a dim-2 tensor against the dim-4 tables of zn:4:1: without the entry
    # guard apply_leg and merge_pair return dim-2 tensors keyed by indices
    # of the dim-4 algebra
    H = build_k_omega_G(cyclic_cocycle(4, 1))
    one = CycScalar.one(H.order)
    x = SparseTensor(2, 1, H.order, {(1,): one})
    x2 = SparseTensor(2, 2, H.order, {(1, 1): one})
    y = SparseTensor(H.dim, 1, H.order, {(1,): one})
    unit0 = SparseTensor(H.dim, 0, H.order, {(): one})
    kernels = (
        lambda: apply_leg(H.antipode, x, 1),
        lambda: split_leg(H.coproduct, x, 1),
        lambda: merge_pair(H.mult, x, y, ((("a", 0), ("b", 0)),)),
        lambda: merge_pair(H.mult, y, x, ((("a", 0),), (("b", 0),))),
        lambda: merge_pair(H.mult, x, unit0, ((("a", 0),),)),
        lambda: multiplication_system(H.mult, x2, "right"),
        lambda: multiply(H.mult, x, x),
    )
    for kernel in kernels:
        with pytest.raises(AlgebraError):
            kernel()
    # the same calls over the algebra's own dimension pass
    assert apply_leg(H.antipode, y, 1).dim == H.dim
    assert merge_pair(H.mult, y, unit0, ((("a", 0),),)) == y


def test_chain_pairs_matches_vec_mult_fold():
    # the merge_pair reference above shares _chain_pairs, so check it on its
    # own: a left-to-right fold of vec_mult over the same factors
    rng = random.Random(8112)
    for sc in (function_algebra(3), matrix_units_algebra(), group_algebra_s3(),
               lopsided_algebra(), plain_ones_algebra(random.Random(8113))):
        one = CycScalar.one(sc.order)

        def coeff():
            return plain_ones_coeff(rng, sc.order) if sc.order > 1 else rat(rng.choice((1, -2)))

        for _ in range(60):
            chain = [rng.randrange(sc.dim) if rng.random() < 0.6 else
                     {i: coeff() for i in rng.sample(range(sc.dim), rng.randint(1, sc.dim))}
                     for _ in range(rng.randint(1, 4))]
            want = None
            for it in chain:
                v = {it: one} if isinstance(it, int) else it
                want = v if want is None else sc.vec_mult(want, v)
            assert dict(_chain_pairs(sc.table, chain, one)) == want, chain


# -- the probe's stacked solve from the reductions of its two systems ------------


def stacked_from_reduced(sides, ncols, order):
    """As probe_invertibility stacks two consistent systems: each side's
    reduced pivot rows with their right sides, or, at full rank, the unit
    rows with its solution as their right sides."""
    one, zero = CycScalar.one(order), CycScalar.zero(order)
    rows, rhs = [], []
    for side_rows, side_rhs in sides:
        reduced, reduced_rhs, pivots = reduced_dicts(side_rows, side_rhs, ncols, order)
        if len(pivots) == ncols:
            sol = solve_linear(side_rows, side_rhs, ncols, order)
            rows += [{c: one} for c in range(ncols)]
            rhs += [sol.get(c, zero) for c in range(ncols)]
        else:
            rows += [reduced[r] for r in pivots.values()]
            rhs += [reduced_rhs[r] for r in pivots.values()]
    return solve_linear(rows, rhs, ncols, order)


def kernel_vector(rows, ncols, order):
    """A nonzero v with rows * v = 0 read off the reduced rows, or None."""
    zero = CycScalar.zero(order)
    reduced, _, pivots = reduced_dicts(rows, [zero] * len(rows), ncols, order)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    v = {f: CycScalar.one(order)}
    for col, r in pivots.items():
        if f in reduced[r]:
            v[col] = -reduced[r][f]
    return v


def test_stacked_solve_from_reduced_rows_matches_from_scratch():
    """Same row space, so the same RREF: each consistent side's reduced pivot
    rows, or its unit rows at full rank, solve stacked as rows_l + rows_r
    does (the probe stacks only two consistent systems)."""
    rng = random.Random(29)
    seen = set()
    for order in (1, 3, 7):
        for _ in range(15):
            ncols = rng.randint(2, 7)
            x = {c: random_scalar(rng, order) for c in range(ncols) if rng.random() < 0.7}
            rows_l = random_rows(rng, order, rng.randint(1, ncols), ncols, 0.5)
            rows_l.append(rows_l[0])  # a repeated row: L is never of full row rank
            rhs_l = rows_times(rows_l, x, order)
            assert not isinstance(solve_linear(rows_l, rhs_l, ncols, order), Inconsistency)
            kernel = kernel_vector(rows_l, ncols, order)
            if kernel is not None:
                assert all(v.is_zero() for v in rows_times(rows_l, kernel, order))
            rows_r = random_rows(rng, order, rng.randint(1, ncols + 1), ncols, 0.5)
            # R with a row on each column: of full rank, so stacked as unit rows
            full_r = rows_r + [{c: random_scalar(rng, order)} for c in range(ncols)]
            shifted = dict(x)
            for c, v in (kernel or {}).items():  # L x = L shifted, R tells them apart
                shifted[c] = shifted[c] + v if c in shifted else v
            for rows_r in (rows_r, full_r):
                full = kernel_vector(rows_r, ncols, order) is None
                for rhs_r in (rows_times(rows_r, x, order), rows_times(rows_r, shifted, order),
                              [random_scalar(rng, order) for _ in rows_r]):
                    want = solve_linear(rows_l + rows_r, rhs_l + rhs_r, ncols, order)
                    if isinstance(solve_linear(rows_r, rhs_r, ncols, order), Inconsistency):
                        assert isinstance(want, Inconsistency)
                        continue
                    sides = (rows_r, rhs_r), (rows_l, rhs_l)
                    for got in (stacked_from_reduced(sides, ncols, order),
                                stacked_from_reduced(sides[::-1], ncols, order)):
                        assert isinstance(got, Inconsistency) == isinstance(want, Inconsistency)
                        if not isinstance(want, Inconsistency):
                            assert got == want, (order, ncols)
                    seen.add((kernel is not None, full, isinstance(want, Inconsistency)))
    assert {(True, False, False), (True, False, True), (True, True, False),
            (True, True, True), (False, True, False)} <= seen, seen


# -- multiply with placed factors against the built leg_embed tensors


def _rand_over(rng, dim, degree, order, density):
    """Random tensor with small multiples of roots of unity as coefficients."""
    import itertools

    entries = {}
    for key in itertools.product(range(dim), repeat=degree):
        if rng.random() < density:
            c = CycScalar.from_rational(order, rng.choice((-2, -1, 1, 3)))
            entries[key] = c * root_of_unity(order, rng.randrange(order))
    return SparseTensor(dim, degree, order, entries)


def _bad_unit_algebra() -> StructureConstants:
    """The matrix units with stored unit E11 + 2 E12: no unit law holds."""
    sc = matrix_units_algebra()
    return StructureConstants(sc.dim, sc.order, sc.table, {0: ONE, 1: rat(2)})


def _left_unit_algebra(n: int = 3) -> StructureConstants:
    """e_i e_j = e_j with stored unit e_0: associative, and e_0 is a left
    unit but no right one, since e_i e_0 = e_0."""
    return StructureConstants(n, 1, {(i, j): ((j, ONE),) for i in range(n) for j in range(n)},
                              {0: ONE})


def test_placed_products_match_leg_embed():
    # merge_pair drops the unit factor on H and the double, whose stored
    # units are two-sided, and multiplies it in on the other two tables
    rng = random.Random(1313)
    H = build_k_omega_G(cyclic_cocycle(3, 1))
    double = build_H1(build_k_omega_G(cyclic_cocycle(2, 1))).sc
    bad, left = _bad_unit_algebra(), _left_unit_algebra()
    assert double.check_associative()  # nonassociative
    assert not H.mult.check_unit() and not double.check_unit()
    assert bad.check_unit() == [0, 1, 2]  # the stored unit is no unit
    assert left.check_unit() == [1, 2] and not left.check_associative()  # a left unit only
    for sc, density in ((H.mult, 0.5), (double, 0.3), (bad, 0.6), (left, 0.6)):
        def built(p):
            return leg_embed(p.tensor, p.legs, p.degree, sc.unit)

        for _ in range(2):
            s = _rand_over(rng, sc.dim, 2, sc.order, density)
            v = _rand_over(rng, sc.dim, 1, sc.order, 0.7)
            t = _rand_over(rng, sc.dim, 3, sc.order, density / 2)
            placed = [Placement(s, legs, 3) for legs in ((1, 2), (1, 3), (2, 3), (3, 1))]
            placed += [Placement(v, (leg,), 3) for leg in (1, 2, 3)]
            for p in placed:
                # one factor placed, either side
                assert multiply(sc, p, t) == _multiply_reference(sc, built(p), t)
                assert multiply(sc, t, p) == _multiply_reference(sc, t, built(p))
                # both factors placed
                for q in placed:
                    got = multiply(sc, p, q)
                    assert got == _multiply_reference(sc, built(p), built(q))
                    assert got.degree == 3 and got.order == sc.order
        # a unit leg on both sides of one output leg
        p = Placement(v, (1,), 3)
        assert multiply(sc, p, p) == _multiply_reference(sc, built(p), built(p))
        assert multiply(sc, Placement(t, (1, 2, 3), 3), t) == multiply(sc, t, t)


def test_unit_factor_is_dropped_only_where_the_unit_is_two_sided(monkeypatch):
    # a unit leg of a Placement against a tensor leg is a fold per index on
    # a table whose unit fails a side, and a passed-through index otherwise
    import qhd.algebra as algebra

    folds = []
    chain_pairs = algebra._chain_pairs
    monkeypatch.setattr(algebra, "_chain_pairs",
                        lambda *args: folds.append(args) or chain_pairs(*args))
    rng = random.Random(2707)
    H = build_k_omega_G(cyclic_cocycle(3, 1)).mult
    for sc, two_sided in ((H, True), (_left_unit_algebra(), False), (_bad_unit_algebra(), False)):
        s = sparse_tensor(rng, sc, 2, 6)
        t = sparse_tensor(rng, sc, 3, 12)
        folds.clear()
        got = multiply(sc, Placement(s, (1, 2), 3), t)
        assert got == _multiply_reference(sc, leg_embed(s, (1, 2), 3, sc.unit), t)
        assert bool(folds) != two_sided, sc.dim


def test_unit_law_is_computed_once_and_only_for_a_unit_factor(monkeypatch):
    calls = []
    check_unit = StructureConstants.check_unit
    monkeypatch.setattr(StructureConstants, "check_unit",
                        lambda sc: calls.append(sc) or check_unit(sc))
    rng = random.Random(3301)
    sc = build_k_omega_G(cyclic_cocycle(3, 1)).mult
    s, t = sparse_tensor(rng, sc, 2, 6), sparse_tensor(rng, sc, 2, 6)
    # no group holds the unit: full x full, the unit alone in its group, and
    # a vector equal to the unit that is not the table's own
    multiply(sc, s, t)
    merge_pair(sc, s, t, ((("a", 0), ("b", 0)), (("a", 1), ("b", 1)), (("v", 0),)), (sc.unit,))
    merge_pair(sc, s, t, ((("a", 0), ("b", 0)), (("a", 1), ("v", 0), ("b", 1))), (dict(sc.unit),))
    assert calls == []
    multiply(sc, Placement(s, (1, 2), 3), Placement(t, (2, 3), 3))
    multiply(sc, Placement(s, (1, 3), 3), Placement(t, (1, 2), 3))
    assert sc.unit_failures() == () and calls == [sc]


# the groups of 2.10 (quasihopf._qR_intertwining) and 4.2 (_U_slide), with
# the unit as vector 0: (degree of a, degree of b, groups)
UNIT_GROUP_SHAPES = (
    (4, 2, ((("a", 0),), (("v", 0), ("b", 0), ("a", 1)), (("a", 3), ("b", 1), ("a", 2)))),
    (2, 2, ((("a", 0),), (("a", 1), ("b", 0)), (("v", 0), ("b", 1)))),
    (2, 2, ((("a", 0),), (("b", 0), ("v", 0)), (("b", 1), ("a", 1)))),
    (4, 2, ((("a", 0),), (("a", 1), ("b", 0), ("a", 3)), (("a", 2), ("b", 1), ("v", 0)))),
)


def test_merge_pair_unit_groups_match_interpreted_plan():
    # the plan reference multiplies every unit factor in; merge_pair drops
    # it on H, the nonassociative double and kS3^F, and keeps it on the
    # tables whose unit fails a side
    from helpers import gauge_twisted_kS3
    from qhd.cli import parse_input

    s3 = parse_input(os.path.join(os.path.dirname(__file__), "data", "s3_sign.qhd"))[0]
    H = build_k_omega_G(cyclic_cocycle(3, 1))
    rng = random.Random(5077)
    for sc in (H.mult, build_H1(H).sc, gauge_twisted_kS3(s3).mult, _bad_unit_algebra(),
               _left_unit_algebra()):
        for da, db, groups in UNIT_GROUP_SHAPES:
            terms = 0
            for na, nb in ((60, 20), (15, 40)):
                a, b = sparse_tensor(rng, sc, da, na), sparse_tensor(rng, sc, db, nb)
                want = _merge_pair_plan_reference(sc, a, b, groups, (sc.unit,))
                got = merge_pair(sc, a, b, groups, (sc.unit,))
                assert list(got.entries.items()) == list(want.entries.items()), (sc.dim, groups)
                terms += len(got.entries)
            assert terms, (sc.dim, groups)


def test_placement_guards():
    H = build_k_omega_G(cyclic_cocycle(4, 1))
    one = CycScalar.one(H.order)
    s = SparseTensor(H.dim, 2, H.order, {(0, 1): one})
    t2 = SparseTensor(H.dim, 2, H.order, {(1, 1): one})
    t3 = SparseTensor(H.dim, 3, H.order, {(1, 1, 2): one})
    # the leg positions are checked as leg_embed checks them
    for legs in ((1, 4), (2, 2), (1,), (0, 1)):
        with pytest.raises(AlgebraError):
            Placement(s, legs, 3)
        with pytest.raises(AlgebraError):
            leg_embed(s, legs, 3, H.unit_vec())
    # degree, dimension and order of the two factors and the algebra
    other_dim = SparseTensor(2, 2, H.order, {(0, 1): one})
    other_order = SparseTensor(H.dim, 2, 3, {(0, 1): CycScalar.one(3)})
    for x, y in ((Placement(s, (1, 2), 3), t2), (t2, Placement(s, (2, 3), 3)),
                 (Placement(s, (1, 2), 3), Placement(s, (1, 2), 4)),
                 (Placement(other_dim, (1, 2), 3), t3), (t3, Placement(other_order, (1, 3), 3)),
                 (Placement(other_dim, (1, 2), 3), Placement(other_dim, (2, 3), 3)),
                 (Placement(other_order, (1, 2), 3), Placement(other_order, (2, 3), 3))):
        with pytest.raises(AlgebraError):
            multiply(H.mult, x, y)
    assert multiply(H.mult, Placement(s, (1, 2), 3), t3) == \
        multiply(H.mult, leg_embed(s, (1, 2), 3, H.unit_vec()), t3)


# -- Mapped factors against the built map_legs tensor they stand for --------


@lru_cache(maxsize=None)
def view_algebras() -> tuple:
    """(name, table, maps) for the Mapped tests: zn:3:1, v4:3 and kS3^F with
    their coproduct and antipode, and the nonassociative dual-side double of
    zn:3:1; each with a random coproduct and a map that sends e0 and e1 to
    one image, so e0 - e1 on a leg maps to zero."""
    from qhd.cli import resolve_builtin
    from qhd.heisenberg import build_H1_dual

    rng = random.Random(7723)
    zn3 = build_k_omega_G(cyclic_cocycle(3, 1))
    cases = [("zn:3:1", zn3.mult, [zn3.coproduct, zn3.antipode])]
    v4 = build_k_omega_G(resolve_builtin("v4:3"))
    cases += [("v4:3", v4.mult, [v4.coproduct, v4.antipode]),
              ("kS3^F", kS3F().mult, [kS3F().coproduct, kS3F().antipode]),
              ("zn:3:1 dual double", build_H1_dual(zn3).sc, [])]
    out = []
    for name, sc, maps in cases:
        n, order = sc.dim, sc.order
        one = CycScalar.one(order)

        def coeff():
            return (root_of_unity(order, rng.randrange(order))
                    * CycScalar.from_rational(order, rng.choice((-2, -1, 1, 3))))

        shared = {rng.randrange(n): coeff() for _ in range(2)}
        collapse = LinearMap(n, order, [shared, shared] + [{rng.randrange(n): coeff(), 0: one}
                                                           for _ in range(n - 2)])
        cop = Coproduct(n, order, {i: tuple(((rng.randrange(n), rng.randrange(n)), coeff())
                                            for _ in range(rng.randint(0, 2))) for i in range(n)})
        out.append((name, sc, tuple(maps) + (collapse, cop)))
    return tuple(out)


def _view_tensor(rng, sc, degree, size):
    """A random tensor where each drawn key on index 0 of some leg comes with
    its negative on index 1, so a map of e0 and e1 to one image cancels it."""
    t = sparse_tensor(rng, sc, degree, size)
    entries = dict(t.entries)
    for key, c in list(entries.items()):
        if degree and rng.random() < 0.5:
            leg = rng.randrange(degree)
            entries[key[:leg] + (0,) + key[leg + 1:]] = c
            entries[key[:leg] + (1,) + key[leg + 1:]] = -c
    return SparseTensor(sc.dim, degree, sc.order, entries)


def _random_view(rng, sc, maps, degree, size):
    """(Mapped, the built map_legs tensor) for one or two random steps."""
    t = _view_tensor(rng, sc, degree, size)
    steps, d = [], degree
    for _ in range(rng.randint(1, 2)):
        m = rng.choice(maps)
        steps.append((m, rng.randint(1, d)))
        d += isinstance(m, Coproduct)
    return Mapped(t, *steps), map_legs(t, *steps)


def _same(got, want):
    assert got == want and got.degree == want.degree
    assert not any(c.is_zero() for c in got.entries.values())


@pytest.mark.parametrize("which", range(4))
def test_merge_pair_reads_a_mapped_factor_as_the_built_tensor(which):
    _, sc, maps = view_algebras()[which]
    rng = random.Random(5501 + which)
    vecs = tuple({k[0]: c for k, c in sparse_tensor(rng, sc, 1, 2).entries.items()}
                 for _ in range(2)) + (sc.unit,)
    for _ in range(30):
        view, built = _random_view(rng, sc, maps, rng.randint(1, 2), rng.choice((1, 3, 6)))
        other, other_built = (_random_view(rng, sc, maps, 1, 3)
                              if rng.random() < 0.3 else (sparse_tensor(rng, sc, 2, 5),) * 2)
        db = other.degree
        groups = random_groups(rng, view.degree, db, len(vecs))
        flipped = tuple(tuple(({"a": "b", "b": "a"}.get(k, k), i) for k, i in g) for g in groups)
        _same(merge_pair(sc, view, other, groups, vecs),
              merge_pair(sc, built, other_built, groups, vecs))
        _same(merge_pair(sc, other, view, flipped, vecs),
              merge_pair(sc, other_built, built, flipped, vecs))
        # a leg of the view summed against a leg of the other factor
        i, j = rng.randrange(view.degree), rng.randrange(db)
        rest = tuple((("a", x),) for x in range(view.degree) if x != i) + \
            tuple((("b", y), ("v", 2)) for y in range(db) if y != j)
        if rest:
            _same(merge_pair(sc, view, other, rest, vecs, sums=((i, j),)),
                  merge_pair(sc, built, other_built, rest, vecs, sums=((i, j),)))
    # e0 (x) e2 alone maps to a nonzero view, e0 (x) e2 - e1 (x) e2 to zero:
    # the kernel adds the two entries' terms, which cancel and are pruned
    one = CycScalar.one(sc.order)
    unit0 = SparseTensor(sc.dim, 0, sc.order, {(): one})
    for t, zero in (({(0, 2): one}, False), ({(0, 2): one, (1, 2): -one}, True)):
        view = Mapped(SparseTensor(sc.dim, 2, sc.order, t), (maps[-2], 1))
        got = merge_pair(sc, view, unit0, ((("a", 0),), (("a", 1),)))
        assert got.is_zero() == zero and got.degree == 2


@pytest.mark.parametrize("which", range(4))
def test_multiply_reads_a_mapped_factor_as_the_built_tensor(which):
    _, sc, maps = view_algebras()[which]
    rng = random.Random(6607 + which)
    cop = maps[0] if which < 3 else maps[-1]
    for _ in range(12):
        t = _view_tensor(rng, sc, 2, rng.choice((1, 5, 12)))
        s = sparse_tensor(rng, sc, 2, 6)
        steps = [(rng.choice([m for m in maps if isinstance(m, LinearMap)]), 1),
                 (cop, rng.randint(1, 2))]
        view, built = Mapped(t, *steps), map_legs(t, *steps)
        u = sparse_tensor(rng, sc, 3, 10)
        for legs in ((1, 2), (2, 3), (3, 1)):
            _same(multiply(sc, view, Placement(s, legs, 3)),
                  multiply(sc, built, Placement(s, legs, 3)))
            _same(multiply(sc, Placement(s, legs, 3), view),
                  multiply(sc, Placement(s, legs, 3), built))
        # a view placed on two legs of three, and two views
        step = (rng.choice([m for m in maps if isinstance(m, LinearMap)]), rng.randint(1, 2))
        small, small_built = Mapped(s, step), map_legs(s, step)
        for legs in ((1, 3), (3, 2)):
            _same(multiply(sc, Placement(small, legs, 3), u),
                  multiply(sc, Placement(small_built, legs, 3), u))
            _same(multiply(sc, u, Placement(small, legs, 3)),
                  multiply(sc, u, Placement(small_built, legs, 3)))
        _same(multiply(sc, view, Mapped(t, *steps)), multiply(sc, built, built))
        _same(multiply(sc, u, view), multiply(sc, u, built))


def test_mapped_factor_guards():
    H = build_k_omega_G(cyclic_cocycle(3, 1))
    one = CycScalar.one(H.order)
    t = SparseTensor(H.dim, 2, H.order, {(0, 1): one})
    with pytest.raises(AlgebraError):
        Mapped(t, (LinearMap.identity(H.dim, 4), 1))
    with pytest.raises(AlgebraError):
        Mapped(t, (Coproduct(H.dim + 1, H.order, {}), 2))
    view = Mapped(t, (H.coproduct, 2), (H.antipode, 1))
    assert view.degree == 3 and view.entries is t.entries
    with pytest.raises(AlgebraError, match="exactly once"):
        merge_pair(H.mult, view, t, ((("a", 0), ("b", 0)), (("a", 1), ("b", 1))))
    other = build_k_omega_G(cyclic_cocycle(4, 1))
    with pytest.raises(AlgebraError):
        multiply(other.mult, view, view)
    with pytest.raises(AlgebraError):
        multiply(H.mult, view, t)


def test_mapped_plans_differ_by_shape_alone(monkeypatch):
    # the per-leg shape of a Mapped factor joins the plan signature, on
    # either side; its maps and images do not, so two tables share the plans
    import qhd.algebra as algebra

    monkeypatch.setattr(algebra, "_KERNELS", {})
    groups = ((("a", 0), ("b", 0)), (("a", 1), ("b", 1)), (("a", 2),))
    flipped = ((("b", 0), ("a", 0)), (("b", 1), ("a", 1)), (("b", 2),))
    shapes = []
    for A in (build_k_omega_G(cyclic_cocycle(3, 1)), build_k_omega_G(klein_cocycle(3))):
        t = SparseTensor(A.dim, 2, A.order, {(0, 1): A.one(), (1, 2): A.one()})
        for steps, shape in ((((A.coproduct, 2),), ((1, 1),)),
                             (((A.antipode, 1), (A.coproduct, 2)), ((0, 0), (1, 1))),
                             (((A.antipode, 2), (A.coproduct, 1)), ((0, 1), (1, 0)))):
            built = map_legs(t, *steps)
            assert merge_pair(A.mult, Mapped(t, *steps), t, groups) == \
                merge_pair(A.mult, built, t, groups)
            assert merge_pair(A.mult, t, Mapped(t, *steps), flipped) == \
                merge_pair(A.mult, t, built, flipped)
            shapes += [(shape, ()), ((), shape)]
    assert sorted(sig[6:] for sig in algebra._KERNELS) == sorted([*set(shapes), (), ()])
