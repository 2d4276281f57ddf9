"""Fraction-free coefficients: a numerator of Gaussian-integer pairs over
a positive integer, and over Gaussian-integer polynomials for a quotient.

A :class:`GaussPoly` is the value ``num / (den * prod(den_factors))`` of a
polynomial ``num`` with Gaussian-integer coefficients in a chart's legs,
a positive integer ``den`` and, for a quotient by a non-constant
polynomial, a tuple ``den_factors`` of non-constant Gaussian-integer
polynomials, the divisors as they were read; it is None for a
polynomial.  A numerator is a plain dict that maps each monomial, a
tuple of exponents in leg order, to its coefficient ``x + iy`` as the
pair ``(x, y)`` of Python ints; no pair ``(0, 0)`` is ever stored, so the
zero polynomial is the empty dict, and a zero value has denominator 1
and no ``den_factors``.

Every kernel operation runs on the numerators, in integers: a sum over
equal denominators adds numerators, any other sum scales each side by
its quotient of the least common multiple of the two integer
denominators, and a product multiplies numerators and denominators.  A
polynomial takes that path alone.  A quotient adds over the factors
that its denominator shares with the other's, cross-multiplying by the
rest, differentiates by the quotient rule, and leaves the ring only
through :meth:`GaussPoly.fraction`.  Factors are matched when they are
equal numerators, never by a gcd, and are never expanded into one
denominator, so the fraction reader can remove a removable singularity
factor by factor.  No operation takes a gcd, so a representation is not
unique: ``(2p, 6)`` and ``(p, 3)`` are one value, and so are ``p*q / q``
and ``p``.  Equality cross-multiplies by the denominators, and a value
is zero when its numerator is.

A polynomial is put in lowest terms only where it leaves the kernel:
reading it into the Gaussian-rational ring ``QQ_I[legs]``
(:meth:`GaussPoly.to_field`, for the solvers and the fraction reader),
converting it to a sympy expression, and printing it; a quotient leaves
as its numerator and factor polynomials.  A :class:`GaussRing` is
built on that Gaussian-rational ring, reads values from it and from
sympy, and makes the generators, ``zero``, ``one`` and ``i``.

A value meets a sympy expression through Python's operators: ``+``,
``-``, ``*``, ``/`` and ``==`` return ``NotImplemented`` for a sympy
operand, which reads the value with :meth:`GaussPoly.as_expr`.  So
coefficients of either kind combine with no test of their kind.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Optional
from math import gcd, lcm, prod
from operator import add

import sympy
from sympy.polys.rings import PolyElement, PolyRing

# a numerator: monomial -> (re, im), with no (0, 0) stored
Numerator = dict[tuple[int, ...], tuple[int, int]]


def _times(num: Numerator, x: int, y: int) -> Numerator:
    """``num`` times the nonzero Gaussian integer ``x + iy``."""
    if y:
        return {m: (a * x - b * y, a * y + b * x) for m, (a, b) in num.items()}
    if x == 1:
        return num
    return {m: (a * x, b * x) for m, (a, b) in num.items()}


def _sum(p: Numerator, q: Numerator) -> Numerator:
    if len(q) > len(p):
        p, q = q, p
    out = dict(p)
    for m, c in q.items():
        old = out.get(m)
        if old is None:
            out[m] = c
        else:
            x, y = old[0] + c[0], old[1] + c[1]
            if x or y:
                out[m] = (x, y)
            else:
                del out[m]
    return out


def _product(p: Numerator, q: Numerator) -> Numerator:
    out: Numerator = {}
    merged = False
    for mp, (xp, yp) in p.items():
        for mq, (xq, yq) in q.items():
            m = tuple(map(add, mp, mq))
            x, y = xp * xq - yp * yq, xp * yq + yp * xq
            old = out.get(m)
            if old is not None:
                x, y, merged = x + old[0], y + old[1], True
            out[m] = (x, y)
    # a product of nonzero Gaussian integers is nonzero, so only a merged
    # sum can be a zero pair
    return {m: c for m, c in out.items() if c[0] or c[1]} if merged else out


# the polynomial part of a quotient's denominator: its non-constant
# factors, as read (or None, for a polynomial)
Factors = Optional[tuple[Numerator, ...]]


def _times_all(p: Numerator, factors) -> Numerator:
    """``p`` times each of ``factors``."""
    for f in factors:
        p = _product(p, f)
    return p


def _apart(a: Factors, b: Factors) -> tuple[list, list]:
    """The factors of ``a`` that ``b`` lacks and those of ``b`` that ``a``
    lacks, equal factors matched one to one: ``a`` times the second list
    is the least common multiple of the factor lists, and ``b`` times the
    first."""
    rest = list(b or ())
    only_a = []
    for f in a or ():
        if f in rest:
            rest.remove(f)
        else:
            only_a.append(f)
    return only_a, rest


def _joined(a: Factors, b) -> Factors:
    """The factors of ``a`` and then of ``b``; None when there are none."""
    return (*(a or ()), *b) or None


def _diff(num: Numerator, j: int) -> Numerator:
    out = {}
    for monom, (x, y) in num.items():
        e = monom[j]
        if e:
            out[monom[:j] + (e - 1,) + monom[j + 1:]] = (x * e, y * e)
    return out


def _conjugate(num: Numerator, conj) -> Numerator:
    return {tuple([monom[j] for j in conj]): (x, -y) for monom, (x, y) in num.items()}


class GaussRing:
    """The values of the Gaussian-rational polynomial ring ``field`` as
    ``num / den``: ``num`` a dict of Gaussian-integer pairs in the same
    generators, ``den`` a positive integer."""

    __slots__ = ("field", "zero_monom", "gens", "zero", "one", "i")

    def __init__(self, field: PolyRing):
        self.field = field
        n = field.ngens
        self.zero_monom = (0,) * n
        self.gens = tuple(GaussPoly(self, {(0,) * j + (1,) + (0,) * (n - j - 1): (1, 0)}, 1)
                          for j in range(n))
        self.zero = GaussPoly(self, {}, 1)
        self.one = GaussPoly(self, {self.zero_monom: (1, 0)}, 1)
        self.i = GaussPoly(self, {self.zero_monom: (0, 1)}, 1)

    def __eq__(self, other):
        return isinstance(other, GaussRing) and self.field == other.field

    def __hash__(self):
        return hash(self.field)

    def from_field(self, p: Mapping) -> "GaussPoly":
        """An element of :attr:`field`, or its nonzero terms as a dict, over
        the least common denominator of its coefficients."""
        terms = [(monom, c.x, c.y) for monom, c in p.items()]
        den = lcm(*(q.denominator for _, x, y in terms for q in (x, y)))
        num = {monom: (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
               for monom, x, y in terms}
        return GaussPoly(self, num, den)

    def ground_new(self, value) -> "GaussPoly":
        """The constant ``value``: an int or a ``Fraction``, taken straight to
        its numerator and denominator; or an element of ``QQ_I`` or ``QQ``,
        or a sympy Gaussian rational such as ``Rational(1, 3)`` or ``I``,
        read through :attr:`field`'s domain."""
        if isinstance(value, (int, Fraction)):
            if not value:
                return self.zero
            return GaussPoly(self, {self.zero_monom: (value.numerator, 0)}, value.denominator)
        c = self.field.domain.convert(value)
        return self.from_field({self.zero_monom: c} if c else {})

    def __call__(self, value) -> "GaussPoly":
        """``value`` as :attr:`field` reads it: a number, an expression (a
        polynomial over ``QQ_I`` in the legs, else ``ValueError``) or a
        ``{monomial: coefficient}`` dict."""
        return self.from_field(self.field(value))


class GaussPoly:
    """``num / (den * prod(den_factors))``: ``num`` a dict
    ``{monomial: (re, im)}`` of Python ints with no zero pair, ``den`` a
    positive int, ``den_factors`` a tuple of non-constant numerators, or
    None for a polynomial.

    Immutable; the arithmetic accepts two elements of one ring, or an
    element and an int, and leaves any other operand to it.  Two
    polynomials take the integer-denominator path alone.
    """

    __slots__ = ("ring", "num", "den", "den_factors")

    def __init__(self, ring: GaussRing, num: Numerator, den: int, den_factors: Factors = None):
        self.ring = ring
        self.num = num
        self.den = den
        self.den_factors = den_factors

    def _coerce(self, other) -> "GaussPoly":
        if type(other) is GaussPoly:
            return other
        if isinstance(other, int):
            return self.ring.ground_new(other)
        return NotImplemented

    def _new(self, num: Numerator, den: int, den_factors: Factors = None) -> "GaussPoly":
        if not num:
            return GaussPoly(self.ring, num, 1)
        return GaussPoly(self.ring, num, den, den_factors)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        p, q, factors = self.num, other.num, self.den_factors
        if factors != other.den_factors:  # a quotient: over the common factors
            only_self, only_other = _apart(factors, other.den_factors)
            p, q = _times_all(p, only_other), _times_all(q, only_self)
            factors = _joined(factors, only_other)
        den = self.den
        if den == other.den:
            return self._new(_sum(p, q), den, factors)
        den = lcm(den, other.den)
        return self._new(_sum(_times(p, den // self.den, 0), _times(q, den // other.den, 0)),
                         den, factors)

    __radd__ = __add__

    def __neg__(self):
        return self._new(_times(self.num, -1, 0), self.den, self.den_factors)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if self.den_factors is not None or other.den_factors is not None:
            return self._new(_product(self.num, other.num), self.den * other.den,
                             _joined(self.den_factors, other.den_factors or ()))
        p, q, zero = self.num, other.num, self.ring.zero_monom
        if len(q) == 1 and zero in q:
            num = _times(p, *q[zero])
        elif len(p) == 1 and zero in p:
            num = _times(q, *p[zero])
        else:
            num = _product(p, q)
        return self._new(num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """``self ** n`` for an int ``n >= 0``; ``0 ** 0`` is a ``ValueError``."""
        if n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n}")
        if not (n or self.num):
            raise ValueError("0**0")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, k):
        """``self / k`` for a nonzero int or element ``k``."""
        if type(k) is GaussPoly:
            return self * k.inverse()
        if not isinstance(k, int):
            return NotImplemented
        if not k:
            raise ZeroDivisionError("division by zero")
        return self._new(self.num if k > 0 else _times(self.num, -1, 0), self.den * abs(k),
                         self.den_factors)

    def __rtruediv__(self, k):
        """``k / self`` for an int ``k`` and a nonzero ``self``."""
        k = self._coerce(k)
        if k is NotImplemented:
            return k
        return k * self.inverse()

    def inverse(self) -> "GaussPoly":
        """``1 / self`` for a nonzero value.  A nonzero constant's is in lowest
        terms, ``den * conj(g) / |g|**2`` for the numerator ``g``; any other
        value's swaps its numerator and denominator, and its numerator
        becomes one factor."""
        if not self.num:
            raise ZeroDivisionError(f"{self} is zero")
        ring, zero, num = self.ring, self.ring.zero_monom, self.num
        factors = self.den_factors or ()
        if len(num) == 1 and zero in num:
            gx, gy = num[zero]
            x, y, norm = self.den * gx, -self.den * gy, gx * gx + gy * gy
            if not factors:
                k = gcd(x, y, norm)
                return GaussPoly(ring, {zero: (x // k, y // k)}, norm // k)
            return GaussPoly(ring, _times(_times_all({zero: (1, 0)}, factors), x, y), norm)
        return GaussPoly(ring, _times_all({zero: (self.den, 0)}, factors), 1, (num,))

    def diff(self, j: int) -> "GaussPoly":
        """The partial derivative in the ``j``-th leg; a quotient's by the
        quotient rule on the product ``e`` of its factors in the leg:
        ``(num' e - num e') / (den * prod(den_factors) * e)``."""
        factors = self.den_factors
        if factors is None:
            return self._new(_diff(self.num, j), self.den)
        moving = [f for f in factors if any(monom[j] for monom in f)]
        if not moving:
            return self._new(_diff(self.num, j), self.den, factors)
        e = _times_all(moving[0], moving[1:])
        num = _sum(_product(_diff(self.num, j), e), _times(_product(self.num, _diff(e, j)), -1, 0))
        return self._new(num, self.den, _joined(factors, moving))

    def conjugate(self, conj) -> "GaussPoly":
        """The formal conjugate: each exponent moves to the slot ``conj``
        names for it, and each coefficient is conjugated."""
        factors = self.den_factors
        return self._new(_conjugate(self.num, conj), self.den,
                         factors and tuple(_conjugate(f, conj) for f in factors))

    # -- comparison ------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        """Equal values, by cross-multiplying the denominators; an int
        compares as a constant, and ``0`` as a zero numerator.  Against a
        sympy value, ``NotImplemented`` lets sympy compare it with
        :meth:`as_expr`."""
        if type(other) is int and not other:
            return not self.num
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if self.den_factors != other.den_factors:
            only_self, only_other = _apart(self.den_factors, other.den_factors)
            return (_times(_times_all(self.num, only_other), other.den, 0)
                    == _times(_times_all(other.num, only_self), self.den, 0))
        if self.den == other.den:
            return self.num == other.num
        return _times(self.num, other.den, 0) == _times(other.num, self.den, 0)

    def __hash__(self):
        """The hash of the value in lowest terms, so equal values hash alike."""
        if self.den_factors is None:
            return hash(self.as_expr())
        num, factors = self.fraction()
        num, den = num.to_field(), prod(f.to_field() for f in factors)
        common = num.gcd(den)
        num, den = num.exquo(common), den.exquo(common)
        num, den = num.quo_ground(den.LC), den.monic()
        return hash(self.ring.from_field(num).as_expr()) if den.is_one else hash((num, den))

    # -- leaving the kernel ----------------------------------------------

    @property
    def is_ground(self) -> bool:
        """Whether the value is a constant polynomial."""
        num = self.num
        return not num or (len(num) == 1 and self.ring.zero_monom in num
                           and self.den_factors is None)

    def fraction(self) -> tuple["GaussPoly", list["GaussPoly"]]:
        """The value as a numerator polynomial, ``num / den``, over the
        product of the factor polynomials of ``den_factors``; a polynomial
        is itself over no factor."""
        ring = self.ring
        if self.den_factors is None:
            return self, []
        return GaussPoly(ring, self.num, self.den), [GaussPoly(ring, f, 1)
                                                     for f in self.den_factors]

    def to_field(self, field: PolyRing | None = None) -> PolyElement:
        """A polynomial value in lowest terms in ``ring.field``, or in
        ``field``: a ring over ``QQ_I`` whose first generators are the legs."""
        if self.den_factors is not None:
            raise ValueError(f"{self} is not a polynomial")
        field = self.ring.field if field is None else field
        domain, den = field.domain, self.den
        rationals = domain.dom
        pad = (0,) * (field.ngens - self.ring.field.ngens)
        out = field.zero
        for monom, (x, y) in self.num.items():
            out[monom + pad] = domain.dtype.new(rationals(x, den), rationals(y, den))
        return out

    def as_expr(self) -> sympy.Expr:
        """The value as a sympy expression, each coefficient in lowest
        terms; a constant is its number, and a quotient is its numerator
        over the product of its factors."""
        if self.den_factors is not None:
            num, factors = self.fraction()
            return num.as_expr() / sympy.Mul(*(f.as_expr() for f in factors))
        if self.is_ground:
            x, y = self.num.get(self.ring.zero_monom, (0, 0))
            return sympy.Rational(x, self.den) + sympy.Rational(y, self.den) * sympy.I
        return self.to_field().as_expr()

    def _sympy_(self) -> sympy.Expr:
        return self.as_expr()

    def __str__(self):
        if self.den_factors is not None:
            num, factors = self.fraction()
            return f"({num})/" + "/".join(f"({f})" for f in factors)
        return str(self.to_field())

    __repr__ = __str__
