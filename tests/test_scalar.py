"""Scalar layer: cyclotomic polynomials and exact field arithmetic."""

import random
from fractions import Fraction

import pytest

from qhd.scalar import (
    MEMO_SIZE,
    CycScalar,
    OrderMismatchError,
    ZeroDivisionScalarError,
    _cyclotomic,
    _field_data,
    _interned,
    cyclotomic_polynomial,
    root_of_unity,
)


# -- independent polynomial oracle (plain Fraction lists, ascending) ---------


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    dd = len(den) - 1
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd] / den[dd]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return q, num[:dd]


def x_power_minus_one(n):
    return [-1] + [0] * (n - 1) + [1]


def test_phi_1_and_2():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]


def test_phi_6_by_exact_division():
    # divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3 with the oracle above
    den = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    q, r = poly_divmod(x_power_minus_one(6), den)
    assert all(c == 0 for c in r)
    assert q == [1, -1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]


def test_product_over_divisors_up_to_24():
    for n in range(1, 25):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == x_power_minus_one(n), f"divisor product failed at n={n}"


def test_roots_of_unity_small():
    assert root_of_unity(2, 1) == CycScalar.from_rational(2, -1)
    assert root_of_unity(4, 2) == CycScalar.from_rational(4, -1)
    z3 = root_of_unity(3, 1)
    assert (z3 * z3 + z3 + CycScalar.one(3)).is_zero()


def test_root_of_unity_homomorphism():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        for k in range(-2 * n, 2 * n + 1):
            for m in range(-n, n + 1):
                assert root_of_unity(n, k) * root_of_unity(n, m) == root_of_unity(n, k + m)
        assert root_of_unity(n, 0).is_one()
        # kernel is exactly the multiples of n
        for k in range(1, n):
            assert not root_of_unity(n, k).is_one()
        assert root_of_unity(n, n).is_one()


def test_arith_examples():
    z3 = root_of_unity(3, 1)
    assert z3 + z3 * z3 == CycScalar.from_rational(3, -1)
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == CycScalar.from_rational(4, -1)


def test_mul_matches_reduce_oracle_zeta5():
    # (z5 + 1)(z5 - 1) computed by naive multiply-then-reduce
    one = [Fraction(1), Fraction(0)]
    z = [Fraction(0), Fraction(1)]
    lhs = poly_mul([a + b for a, b in zip(z, one)], [a - b for a, b in zip(z, one)])
    _, rem = poly_divmod(lhs, cyclotomic_polynomial(5))
    rem += [Fraction(0)] * (4 - len(rem))
    z5 = root_of_unity(5, 1)
    one5 = CycScalar.one(5)
    got = (z5 + one5) * (z5 - one5)
    assert list(got.coeffs) == rem
    assert got == z5 * z5 - one5


def test_invert_examples():
    assert CycScalar.one(7).inverse().is_one()
    for n in (2, 3, 4, 5, 8):
        for k in range(n):
            assert root_of_unity(n, k).inverse() == root_of_unity(n, -k)
    # 1 + z3 has inverse -z3 (the product comes out to 1 exactly)
    z3 = root_of_unity(3, 1)
    a = CycScalar.one(3) + z3
    inv = a.inverse()
    assert inv == -z3
    assert (a * inv).is_one()


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionScalarError):
        CycScalar.zero(5).inverse()


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        CycScalar.one(3) + CycScalar.one(4)


def random_scalar(rng, n):
    phi = len(cyclotomic_polynomial(n)) - 1
    return CycScalar(n, tuple(rng.randint(-3, 3) for _ in range(phi)))


def test_field_axioms_random_samples():
    rng = random.Random(20240817)
    for n in (1, 3, 4, 5, 6, 8):
        one = CycScalar.one(n)
        for _ in range(40):
            a, b, c = (random_scalar(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
            assert a * one == a
            assert (a - a).is_zero()


def test_float_evaluation_consistent():
    import cmath

    for n in (3, 4, 5, 8, 12):
        for k in range(n):
            got = root_of_unity(n, k).to_complex()
            want = cmath.exp(2j * cmath.pi * k / n)
            assert abs(got - want) < 1e-12


# -- the extended-Euclid inverse that the Galois-conjugate inverse replaced,
# -- copied verbatim as the reference (a method, so its argument is `self`)


def _inverse_reference(self) -> "CycScalar":
    """Multiplicative inverse via the extended Euclidean algorithm."""
    if self.is_zero():
        raise ZeroDivisionScalarError("inverse of zero")
    modulus = [Fraction(c) for c in _cyclotomic(self.order)]
    a = [Fraction(c) for c in self.coeffs]
    # invariants: r0 = s0*a (mod Phi), r1 = s1*a (mod Phi)
    r0, s0 = modulus, [Fraction(0)]
    r1, s1 = a, [Fraction(1)]
    while True:
        r1 = _trim(r1)
        if len(r1) == 1:
            inv = 1 / r1[0]
            phi = len(self.coeffs)
            _, rem = _poly_divmod([c * inv for c in s1], modulus)
            rem = list(rem) + [Fraction(0)] * phi
            return CycScalar(self.order, tuple(rem[:phi]))
        q, r = _poly_divmod(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        r0, s0, r1, s1 = r1, s1, r, s


def _trim(p):
    i = len(p)
    while i > 1 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod(num, den):
    num = list(num)
    den = _trim(list(den))
    dd = len(den) - 1
    lead = den[dd]
    if len(num) <= dd:
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd] / lead
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, _trim(num[:dd]) if dd else [Fraction(0)]


def test_inverse_matches_euclid_reference():
    rng = random.Random(6)
    for n in (1, 2, 3, 4, 7, 8, 12, 16, 32):
        phi = len(cyclotomic_polynomial(n)) - 1
        samples = [root_of_unity(n, k) for k in range(n)]
        for _ in range(12):
            ints = [rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(phi)]
            fracs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(phi)]
            mixed = [rng.choice((x, y)) for x, y in zip(ints, fracs)]
            samples += [CycScalar(n, c) for c in (ints, fracs, mixed)]
        for a in samples:
            if a.is_zero():
                continue
            got, want = a.inverse(), _inverse_reference(a)
            assert got.coeffs == want.coeffs, (n, a)
            assert list(map(type, got.coeffs)) == list(map(type, want.coeffs)), (n, a)


# -- the full product that __mul__ computed before the memo and the one
# -- short-circuit, copied verbatim as the reference


def _mul_reference(self, other):
    self._check(other)
    a, b = self.coeffs, other.coeffs
    phi, rows = _field_data(self.order)
    if phi == 1:
        return CycScalar(self.order, (a[0] * b[0],))
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for j in range(phi - 1):
        t = conv[phi + j]
        if t:
            row = rows[j]
            for i in range(phi):
                if row[i]:
                    out[i] += t * row[i]
    return CycScalar(self.order, out)


def test_mul_by_one_matches_full_product():
    rng = random.Random(1208)
    draws = {
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        "mixed": lambda: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3))),
    }
    for n in (1, 3, 4, 7, 8, 12):
        phi = len(cyclotomic_polynomial(n)) - 1
        ones = [
            CycScalar.one(n),
            root_of_unity(n, 0),
            CycScalar(n, (Fraction(1),) + (0,) * (phi - 1)),
        ]
        # interned: the three ways of making one give one object
        assert ones[1] is ones[0] and ones[2] is ones[0]
        for kind, draw in draws.items():
            for _ in range(15):
                x = CycScalar(n, tuple(draw() for _ in range(phi)))
                for one in ones:
                    assert one * x == _mul_reference(one, x), (n, kind, one)
                    assert x * one == _mul_reference(x, one), (n, kind, one)
                    assert one * x == x == x * one
        for a in ones:
            for b in ones:
                assert a * b == _mul_reference(a, b) == CycScalar.one(n)


def test_mul_by_one_still_checks_orders():
    x = CycScalar(4, (Fraction(1, 2), -1))
    with pytest.raises(OrderMismatchError):
        CycScalar.one(3) * x
    with pytest.raises(OrderMismatchError):
        x * CycScalar.one(3)
    with pytest.raises(OrderMismatchError):
        CycScalar.one(3) * CycScalar.one(4)


# -- interning and the memos of *, + and -


def test_every_construction_path_gives_one_object_per_value():
    for n in (1, 3, 4, 7, 8, 12):
        phi = len(cyclotomic_polynomial(n)) - 1
        pad = (0,) * (phi - 1)
        two = CycScalar(n, (2,) + pad)
        assert CycScalar.from_rational(n, 2) is two
        assert CycScalar.from_rational(n, Fraction(2)) is two
        assert CycScalar(n, (Fraction(2),) + pad) is two
        assert CycScalar(n, [Fraction(4, 2)] + list(pad)) is two
        assert CycScalar.one(n) + CycScalar.one(n) is two
        assert two * CycScalar.one(n) is two
        assert CycScalar.from_rational(n, 3) - CycScalar.one(n) is two
        assert CycScalar.from_rational(n, Fraction(1, 2)).inverse() is two
        # an integral Fraction is stored as the int, however it is made
        assert type(CycScalar(n, (Fraction(6, 3),) + pad).coeffs[0]) is int
        assert CycScalar.zero(n) is CycScalar(n, (0,) * phi)
        for k in range(-n, 2 * n):
            assert root_of_unity(n, k) is root_of_unity(n, k % n)
            assert root_of_unity(n, k) is CycScalar(n, root_of_unity(n, k).coeffs)
            assert root_of_unity(n, 1) * root_of_unity(n, k - 1) is root_of_unity(n, k)
        # equality is identity, and hashing follows it
        assert two == CycScalar(n, (2,) + pad) and two != CycScalar.one(n)
        assert len({two, CycScalar.from_rational(n, Fraction(2)), CycScalar.one(n)}) == 2
    assert CycScalar.one(3) is not CycScalar.one(4)


def test_intern_table_keeps_only_live_values():
    key = (7, (123457, 0, 0, 0, 0, 0))
    x = CycScalar(*key)
    assert _interned[key] is x
    del x
    assert key not in _interned


def test_is_zero_flag_and_cached_complex():
    z5 = root_of_unity(5, 1)
    assert (z5 - z5).is_zero() and not z5.is_zero()
    assert (z5 - z5) is CycScalar.zero(5)
    assert z5.to_complex() is z5.to_complex()


def test_memoized_ops_match_full_computation():
    rng = random.Random(1313)
    draws = {
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    }
    for n in (1, 3, 4, 7, 8, 12):
        phi = len(cyclotomic_polynomial(n)) - 1
        for kind, draw in draws.items():
            xs = [CycScalar(n, tuple(draw() for _ in range(phi))) for _ in range(12)]
            for _ in range(2):  # the second round is served by the memos
                for a in xs:
                    for b in xs[:4]:
                        assert a * b is _mul_reference(a, b), (n, kind)
                        assert a + b is CycScalar(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])
                        assert a - b is CycScalar(n, [x - y for x, y in zip(a.coeffs, b.coeffs)])


def test_memos_still_check_orders_when_warm():
    x3, x4 = root_of_unity(3, 1), root_of_unity(4, 1)
    for a, b in ((x3, x3), (x4, x4)):
        a * b, a + b, a - b  # warm the memos on both orders
    for a, b in ((x3, x4), (x4, x3)):
        for op in (lambda: a * b, lambda: a + b, lambda: a - b):
            for _ in range(2):  # a pair that raised was not stored
                with pytest.raises(OrderMismatchError):
                    op()


def test_memos_stay_within_their_bound():
    three = CycScalar.from_rational(1, 3)
    for op in (CycScalar.__mul__, CycScalar.__add__, CycScalar.__sub__):
        before = op.cache_info().misses
        for i in range(MEMO_SIZE + 100):
            op(CycScalar.from_rational(1, i + 10**9), three)
        info = op.cache_info()
        assert info.misses - before >= MEMO_SIZE + 100
        assert info.currsize <= info.maxsize == MEMO_SIZE
    inverse = CycScalar.inverse
    before = inverse.cache_info().misses
    for i in range(MEMO_SIZE + 100):
        assert CycScalar.from_rational(1, i + 10**9).inverse() is \
            CycScalar.from_rational(1, Fraction(1, i + 10**9))
    info = inverse.cache_info()
    assert info.misses - before >= MEMO_SIZE + 100
    assert info.currsize <= info.maxsize == MEMO_SIZE


def test_inverse_memo_serves_repeats_and_stores_no_failure():
    a = root_of_unity(7, 1) + CycScalar.from_rational(7, 3)
    inv = a.inverse()
    hits = CycScalar.inverse.cache_info().hits
    assert a.inverse() is inv and (a * inv).is_one()
    assert CycScalar.inverse.cache_info().hits == hits + 1
    for _ in range(2):  # the zero that raised was not stored
        with pytest.raises(ZeroDivisionScalarError):
            CycScalar.zero(7).inverse()
