"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_N).

A CycScalar is a residue mod the N-th cyclotomic polynomial, stored as a
coefficient vector of length phi(N) over Q.  Working mod Phi_N (and not mod
x^N - 1, which has zero divisors) makes equality of sums of roots of unity
an honest field equality, which every identity check below relies on.

Coefficients are kept as plain ints whenever possible and only become
Fractions where division forces them to; the two mix freely.

Every value is interned: each value of Q(zeta_N) that is alive exists as
exactly one CycScalar, held by a weak-value table, so the tensor kernels
compare coefficients by identity and test for one with `is`.  The few
distinct values a run meets make *, + and - memos keyed on the operand
pair pay off, and an inverse memo keyed on the value; their size is
bounded by MEMO_SIZE.
"""

from __future__ import annotations

import cmath
import weakref
from fractions import Fraction
from functools import lru_cache
from math import gcd


class ScalarError(ValueError):
    pass


class OrderMismatchError(ScalarError):
    """Raised when scalars from different cyclotomic orders are mixed."""


class ZeroDivisionScalarError(ScalarError):
    pass


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending degree, monic over Z."""
    if n < 1:
        raise ScalarError(f"cyclotomic order must be >= 1, got {n}")
    return list(_cyclotomic(n))


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division over Z.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _poly_div_exact(num: list[int], den) -> list[int]:
    """Divide num by monic den, requiring zero remainder."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[:dd]):
        raise ScalarError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def _field_data(n: int):
    """(phi, reduction rows) where rows[j] reduces x^(phi+j) mod Phi_n."""
    poly = _cyclotomic(n)
    phi = len(poly) - 1
    # x^phi = -(lower part of Phi_n); higher powers follow by shifting.
    rows = []
    cur = [-c for c in poly[:phi]]
    rows.append(tuple(cur))
    for _ in range(phi - 2):
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            cur = [a + top * b for a, b in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return phi, tuple(rows)


# Operand pairs (values, for inverse) kept by each memo of *, + and -: far
# more than the distinct pairs a run meets (at most a few hundred on the
# examples), and a bound on the memory held when a run meets many.
MEMO_SIZE = 1 << 14

# (order, coeffs) -> the one live CycScalar of that value
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class CycScalar:
    """Element of Q(zeta_N), N fixed per instance.

    Immutable and interned: CycScalar(order, coeffs) returns the one live
    object of that value, so equal values are the same object and equality
    is identity.  *, + and - are memoized on the operand pair, inverse on
    the value.  Mixing different orders raises OrderMismatchError rather
    than coercing.
    """

    __slots__ = ("order", "coeffs", "_zero", "_complex", "__weakref__")

    def __new__(cls, order: int, coeffs):
        coeffs = tuple(coeffs)
        self = _interned.get((order, coeffs))
        if self is None:
            phi, _ = _field_data(order)
            if len(coeffs) != phi:
                raise ScalarError(
                    f"need {phi} coefficients for order {order}, got {len(coeffs)}"
                )
            # Fraction(2) and 2 are one value, found under one key; an integral
            # Fraction is stored as the int, however the value was first made
            coeffs = tuple(c.numerator if type(c) is Fraction and c.denominator == 1 else c
                           for c in coeffs)
            self = object.__new__(cls)
            object.__setattr__(self, "order", order)
            object.__setattr__(self, "coeffs", coeffs)
            object.__setattr__(self, "_zero", not any(coeffs))
            object.__setattr__(self, "_complex", None)
            _interned[order, coeffs] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(order: int, value) -> "CycScalar":
        phi, _ = _field_data(order)
        c = [0] * phi
        c[0] = value if isinstance(value, int) else Fraction(value)
        return CycScalar(order, c)

    @staticmethod
    def zero(order: int) -> "CycScalar":
        return CycScalar.from_rational(order, 0)

    @staticmethod
    def one(order: int) -> "CycScalar":
        return CycScalar.from_rational(order, 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._zero

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycScalar"):
        if self.order != other.order:
            raise OrderMismatchError(
                f"cannot mix cyclotomic orders {self.order} and {other.order}"
            )

    # Each memo computes a miss exactly, order test included; a pair that
    # raises is not stored.

    @lru_cache(maxsize=MEMO_SIZE)
    def __add__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        return CycScalar(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    @lru_cache(maxsize=MEMO_SIZE)
    def __sub__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        return CycScalar(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.order, tuple(-a for a in self.coeffs))

    @lru_cache(maxsize=MEMO_SIZE)
    def __mul__(self, other: "CycScalar") -> "CycScalar":
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

    @lru_cache(maxsize=MEMO_SIZE)
    def inverse(self) -> "CycScalar":
        """Multiplicative inverse: the product of the other Galois conjugates
        sigma_k(a) = sum a_i zeta^(k i), k coprime to N, over the norm
        N(a) = a * (that product), which is rational.  Memoized like *, +
        and -, since the probe's systems invert a few values many times."""
        if self._zero:
            raise ZeroDivisionScalarError("inverse of zero")
        n = self.order
        rest = CycScalar.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = [0] * len(self.coeffs)
                for i, c in enumerate(self.coeffs):
                    if c:
                        for j, r in enumerate(root_of_unity(n, k * i).coeffs):
                            conj[j] += c * r
                rest = rest * CycScalar(n, conj)
        norm = Fraction((self * rest).coeffs[0])
        return CycScalar(n, tuple(c / norm for c in rest.coeffs))

    # -- conversions ---------------------------------------------------------

    def to_complex(self) -> complex:
        acc = self._complex
        if acc is None:
            z = cmath.exp(2j * cmath.pi / self.order)
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * z + complex(c)
            object.__setattr__(self, "_complex", acc)
        return acc

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "z" if i == 1 else f"z^{i}"
                sign = "-" if c < 0 else ("+" if terms else "")
                terms.append(f"{sign}{mag}{var}" if not terms else f" {sign} {mag}{var}")
        return "".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"CycScalar({self.order}, {self.coeffs!r})"


@lru_cache(maxsize=None)
def root_of_unity(order: int, k: int) -> CycScalar:
    """zeta_order^k as a CycScalar, reduced mod Phi_order."""
    phi, rows = _field_data(order)
    k %= order
    if k < phi:
        c = [0] * phi
        c[k] = 1
        return CycScalar(order, c)
    # shift-and-reduce x^k mod Phi_order, one power at a time
    cur = [0] * phi
    cur[phi - 1] = 1
    for _ in range(k - phi + 1):
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            row = rows[0]
            cur = [a + top * b for a, b in zip(cur, row)]
    return CycScalar(order, cur)
