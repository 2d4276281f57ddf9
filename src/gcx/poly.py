"""Fraction-free polynomial coefficients: a numerator of Gaussian-integer
pairs over one positive integer denominator.

A :class:`GaussPoly` is the value ``num / den`` of a polynomial ``num``
with Gaussian-integer coefficients in a chart's legs and a positive
integer ``den``.  The numerator is a plain dict that maps each monomial,
a tuple of exponents in leg order, to its coefficient ``x + iy`` as the
pair ``(x, y)`` of Python ints; no pair ``(0, 0)`` is ever stored, so the
zero polynomial is the empty dict, and a zero value has denominator 1.

Every kernel operation runs on the numerators, in integers: a sum over
equal denominators adds numerators, any other sum scales each side by
its quotient of the least common multiple of the two denominators, and a
product multiplies numerators and denominators.  No operation takes the
content gcd of a numerator, so a representation is not unique: ``(2p, 6)``
and ``(p, 3)`` are one value.  Equality cross-multiplies by the
denominators, and a value is zero when its numerator is.

A value is put in lowest terms only where it leaves the kernel: reading
it into the Gaussian-rational ring ``QQ_I[legs]`` (:meth:`GaussPoly.to_field`,
for the solvers and the fraction reader), converting it to a sympy
expression, and printing it.  A :class:`GaussRing` is built on that
Gaussian-rational ring, reads values from it and from sympy, and makes
the generators, ``zero``, ``one`` and ``i``.

A value meets a sympy expression through Python's operators: ``+``,
``-``, ``*`` and ``==`` return ``NotImplemented`` for a sympy operand,
which reads the value with :meth:`GaussPoly.as_expr`.  So coefficients of
either kind combine with no test of their kind.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
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
    """``num / den``: ``num`` a dict ``{monomial: (re, im)}`` of Python ints
    with no zero pair, ``den`` a positive int.

    Immutable; the arithmetic accepts two elements of one ring, or an
    element and an int, and leaves any other operand to it.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: GaussRing, num: Numerator, den: int):
        self.ring = ring
        self.num = num
        self.den = den

    def _coerce(self, other) -> "GaussPoly":
        if type(other) is GaussPoly:
            return other
        if isinstance(other, int):
            return self.ring.ground_new(other)
        return NotImplemented

    def _new(self, num: Numerator, den: int) -> "GaussPoly":
        return GaussPoly(self.ring, num, den if num else 1)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        den = self.den
        if den == other.den:
            return self._new(_sum(self.num, other.num), den)
        den = lcm(den, other.den)
        return self._new(_sum(_times(self.num, den // self.den, 0),
                              _times(other.num, den // other.den, 0)), den)

    __radd__ = __add__

    def __neg__(self):
        return self._new(_times(self.num, -1, 0), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + -other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
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
        """``self / k`` for a nonzero int ``k``."""
        if not isinstance(k, int):
            return NotImplemented
        if not k:
            raise ZeroDivisionError("division by zero")
        return self._new(self.num if k > 0 else _times(self.num, -1, 0), self.den * abs(k))

    def inverse(self) -> "GaussPoly":
        """``1 / self`` for a nonzero constant, in lowest terms:
        ``den * conj(g) / |g|**2`` for the numerator ``g``."""
        if not (self.num and self.is_ground):
            raise ZeroDivisionError(f"{self} is not a nonzero constant")
        gx, gy = self.num[self.ring.zero_monom]
        x, y, norm = self.den * gx, -self.den * gy, gx * gx + gy * gy
        k = gcd(x, y, norm)
        return GaussPoly(self.ring, {self.ring.zero_monom: (x // k, y // k)}, norm // k)

    def diff(self, j: int) -> "GaussPoly":
        """The partial derivative in the ``j``-th leg."""
        out = {}
        for monom, (x, y) in self.num.items():
            e = monom[j]
            if e:
                out[monom[:j] + (e - 1,) + monom[j + 1:]] = (x * e, y * e)
        return self._new(out, self.den)

    def conjugate(self, conj) -> "GaussPoly":
        """The formal conjugate: each exponent moves to the slot ``conj``
        names for it, and each coefficient is conjugated."""
        return self._new({tuple([monom[j] for j in conj]): (x, -y)
                          for monom, (x, y) in self.num.items()}, self.den)

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
        if self.den == other.den:
            return self.num == other.num
        return _times(self.num, other.den, 0) == _times(other.num, self.den, 0)

    def __hash__(self):
        return hash(self.as_expr())

    # -- leaving the kernel ----------------------------------------------

    @property
    def is_ground(self) -> bool:
        num = self.num
        return not num or (len(num) == 1 and self.ring.zero_monom in num)

    def to_field(self, field: PolyRing | None = None) -> PolyElement:
        """The value in lowest terms in ``ring.field``, or in ``field``: a
        ring over ``QQ_I`` whose first generators are the legs."""
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
        terms; a constant is its number."""
        if self.is_ground:
            x, y = self.num.get(self.ring.zero_monom, (0, 0))
            return sympy.Rational(x, self.den) + sympy.Rational(y, self.den) * sympy.I
        return self.to_field().as_expr()

    def _sympy_(self) -> sympy.Expr:
        return self.as_expr()

    def __str__(self):
        return str(self.to_field())

    __repr__ = __str__
