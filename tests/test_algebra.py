"""Core tensor/linear layer over the exact scalars."""

import random

import pytest

from qhd.algebra import (
    AlgebraError,
    Coproduct,
    Inconsistency,
    LinearMap,
    SingularMapError,
    SparseTensor,
    StructureConstants,
    convolution,
    harpoon,
    invert_map,
    leg_embed,
    merge_pair,
    multiply,
    slice_leg,
    solve_linear,
    tensor_product,
    vec_tensor,
)
from qhd.scalar import CycScalar, root_of_unity

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


def group_coproduct(n: int) -> Coproduct:
    """Coproduct on functions over Z/n split along group factorizations."""
    table = {}
    for a in range(n):
        table[a] = tuple(((x, (a - x) % n), ONE) for x in range(n))
    return Coproduct(n, 1, table)


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


def test_convolution_group_dual_is_group_algebra():
    n = 6
    cop = group_coproduct(n)
    for a in range(n):
        for b in range(n):
            got = convolution(cop, {a: ONE}, {b: ONE})
            assert got == {(a + b) % n: ONE}


def test_convolution_counit_is_unit():
    n = 4
    cop = group_coproduct(n)
    eps = {0: ONE}  # dual of the identity delta function
    rng = random.Random(3)
    for _ in range(10):
        nu = {i: rat(rng.randint(-3, 3)) for i in range(n) if rng.random() < 0.7}
        nu = {k: v for k, v in nu.items() if not v.is_zero()}
        assert convolution(cop, eps, nu) == nu
        assert convolution(cop, nu, eps) == nu


def test_convolution_associative_on_coalgebra():
    n = 4
    cop = group_coproduct(n)
    rng = random.Random(5)
    for _ in range(10):
        xs = [
            {i: rat(rng.randint(-2, 2)) for i in range(n)}
            for _ in range(3)
        ]
        a, b, c = ({k: v for k, v in x.items() if not v.is_zero()} for x in xs)
        lhs = convolution(cop, convolution(cop, a, b), c)
        rhs = convolution(cop, a, convolution(cop, b, c))
        assert lhs == rhs


def test_harpoon_examples_and_axioms():
    sc = function_algebra(2)
    # unit acts trivially on both sides
    xi = {0: rat(2), 1: rat(-1)}
    assert harpoon(sc, sc.unit, xi, "left") == xi
    assert harpoon(sc, sc.unit, xi, "right") == xi
    # delta_0 -> e^0 = e^0 in the two-point function algebra
    assert harpoon(sc, {0: ONE}, {0: ONE}, "left") == {0: ONE}
    assert harpoon(sc, {0: ONE}, {1: ONE}, "left") == {}
    # action axioms, exhaustively over the basis
    for scn in (function_algebra(3), matrix_units_algebra()):
        m = scn.dim
        for h1 in range(m):
            for h2 in range(m):
                hh = scn.vec_mult({h1: ONE}, {h2: ONE})
                for i in range(m):
                    xi = {i: ONE}
                    lhs = harpoon(scn, hh, xi, "left")
                    rhs = harpoon(scn, {h1: ONE},
                                  harpoon(scn, {h2: ONE}, xi, "left"), "left")
                    assert lhs == rhs
                    lhs = harpoon(scn, hh, xi, "right")
                    rhs = harpoon(scn, {h2: ONE},
                                  harpoon(scn, {h1: ONE}, xi, "right"), "right")
                    assert lhs == rhs
                    # the two actions commute
                    a = harpoon(scn, {h2: ONE},
                                harpoon(scn, {h1: ONE}, xi, "left"), "right")
                    b = harpoon(scn, {h1: ONE},
                                harpoon(scn, {h2: ONE}, xi, "right"), "left")
                    assert a == b


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
        assert minv.compose(m) == LinearMap.identity(n, 1)
        assert m.compose(minv) == LinearMap.identity(n, 1)


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


def test_merge_pair_agrees_with_multiply():
    rng = random.Random(9)
    for sc in (function_algebra(3), matrix_units_algebra()):
        for _ in range(10):
            x = rand_tensor(rng, sc.dim, 2)
            y = rand_tensor(rng, sc.dim, 2)
            via_merge = merge_pair(
                sc, x, y, groups=((("a", 0), ("b", 0)), (("a", 1), ("b", 1))))
            assert via_merge == multiply(sc, x, y)


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


def test_tensor_entries_prune_zeros_and_compare():
    a = SparseTensor(2, 2, 1, {(0, 0): ONE, (1, 1): ZERO})
    b = SparseTensor(2, 2, 1, {(0, 0): ONE})
    assert a == b
    assert (a - b).is_zero()


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


def test_multiply_matches_leg0_join_reference():
    from qhd.heisenberg import build_H1
    from qhd.twisted import build_k_omega_G, cyclic_cocycle

    diagonal = build_k_omega_G(cyclic_cocycle(4, 1)).mult
    double = build_H1(build_k_omega_G(cyclic_cocycle(3, 1))).sc
    rng = random.Random(2604)
    sizes = (0, 1, 3, 12, 40, 120)
    for sc in (diagonal, group_algebra_s3(), double, partial_algebra()):
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
