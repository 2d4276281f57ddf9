"""Fraction-free polynomial coefficients: a numerator in ``ZZ_I[legs]`` over
one positive integer denominator.

A :class:`GaussPoly` is the value ``num / den`` of a polynomial ``num``
with Gaussian-integer coefficients in a chart's legs and a positive
integer ``den``.  Every kernel operation runs on the numerators, in
integers: a sum over equal denominators adds numerators, any other sum
scales each side by its quotient of the least common multiple of the two
denominators, and a product multiplies numerators and denominators.  No
operation takes the content gcd of a numerator, so a representation is
not unique: ``(2p, 6)`` and ``(p, 3)`` are one value.  Equality
cross-multiplies by the denominators, and a value is zero when its
numerator is.

A value is put in lowest terms only where it leaves the kernel: reading
it into the Gaussian-rational ring ``QQ_I[legs]`` (:meth:`GaussPoly.to_field`,
for the solvers and the fraction reader), converting it to a sympy
expression, and printing it.  A :class:`GaussRing` is built on that
Gaussian-rational ring, reads values from it and from sympy, and makes
the generators, ``zero`` and ``one``.

A value meets a sympy expression through Python's operators: ``+``,
``-``, ``*`` and ``==`` return ``NotImplemented`` for a sympy operand,
which reads the value with :meth:`GaussPoly.as_expr`.  So coefficients of
either kind combine with no test of their kind.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy.polys.domains import ZZ_I
from sympy.polys.rings import PolyElement, PolyRing

_GAUSSIAN_INTEGER = ZZ_I.dtype


def _scaled(num: PolyElement, k: int) -> PolyElement:
    """``num`` times the positive integer ``k``."""
    if k == 1:
        return num
    out = num.ring.zero
    for monom, c in num.items():
        out[monom] = c.new(c.x * k, c.y * k)
    return out


class GaussRing:
    """The values of the Gaussian-rational polynomial ring ``field`` as
    ``num / den``: ``num`` in the same generators over ``ZZ_I``
    (``numerators``), ``den`` a positive integer."""

    __slots__ = ("field", "numerators", "gens", "zero", "one")

    def __init__(self, field: PolyRing):
        self.field = field
        self.numerators = field.clone(domain=ZZ_I)
        self.gens = tuple(GaussPoly(self, g, 1) for g in self.numerators.gens)
        self.zero = GaussPoly(self, self.numerators.zero, 1)
        self.one = GaussPoly(self, self.numerators.one, 1)

    def __eq__(self, other):
        return isinstance(other, GaussRing) and self.field == other.field

    def __hash__(self):
        return hash(self.field)

    def from_field(self, p: Mapping) -> "GaussPoly":
        """An element of :attr:`field`, or its nonzero terms as a dict, over
        the least common denominator of its coefficients."""
        terms = [(monom, c.x, c.y) for monom, c in p.items()]
        den = lcm(*(q.denominator for _, x, y in terms for q in (x, y)))
        num = self.numerators.zero
        for monom, x, y in terms:
            num[monom] = _GAUSSIAN_INTEGER.new(x.numerator * (den // x.denominator),
                                               y.numerator * (den // y.denominator))
        return GaussPoly(self, num, den)

    def ground_new(self, value) -> "GaussPoly":
        """The constant ``value``: an int or a ``Fraction``, taken straight to
        its numerator and denominator; or an element of ``QQ_I``, ``QQ`` or
        ``ZZ_I``, or a sympy Gaussian rational such as ``Rational(1, 3)`` or
        ``I``, read through :attr:`field`'s domain."""
        if isinstance(value, (int, Fraction)):
            num = self.numerators.zero
            if value:
                num[self.numerators.zero_monom] = _GAUSSIAN_INTEGER.new(value.numerator, 0)
            return GaussPoly(self, num, value.denominator)
        c = self.field.domain.convert(value)
        return self.from_field({self.field.zero_monom: c} if c else {})

    def __call__(self, value) -> "GaussPoly":
        """``value`` as :attr:`field` reads it: a number, an expression (a
        polynomial over ``QQ_I`` in the legs, else ``ValueError``) or a
        ``{monomial: coefficient}`` dict."""
        return self.from_field(self.field(value))


class GaussPoly:
    """``num / den``: ``num`` in ``ring.numerators``, ``den`` a positive int.

    Immutable; the arithmetic accepts two elements of one ring, or an
    element and an int, and leaves any other operand to it.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: GaussRing, num: PolyElement, den: int):
        self.ring = ring
        self.num = num
        self.den = den

    def _coerce(self, other) -> "GaussPoly":
        if type(other) is GaussPoly:
            return other
        if isinstance(other, int):
            return self.ring.ground_new(other)
        return NotImplemented

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        den = self.den
        if den == other.den:
            num = self.num + other.num
        else:
            den = lcm(den, other.den)
            num = _scaled(self.num, den // self.den) + _scaled(other.num, den // other.den)
        return GaussPoly(self.ring, num, den if num else 1)

    __radd__ = __add__

    def __neg__(self):
        return GaussPoly(self.ring, -self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + -other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        num = self.num * other.num
        return GaussPoly(self.ring, num, self.den * other.den if num else 1)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return GaussPoly(self.ring, self.num ** n, self.den ** n)

    def __truediv__(self, k):
        """``self / k`` for a nonzero int ``k``."""
        if not isinstance(k, int):
            return NotImplemented
        if not k:
            raise ZeroDivisionError("division by zero")
        return GaussPoly(self.ring, self.num if k > 0 else -self.num, self.den * abs(k))

    def inverse(self) -> "GaussPoly":
        """``1 / self`` for a nonzero constant, in lowest terms:
        ``den * conj(g) / |g|**2`` for the numerator ``g``."""
        if not (self.num and self.num.is_ground):
            raise ZeroDivisionError(f"{self} is not a nonzero constant")
        g = self.num.LC
        x, y, norm = self.den * g.x, -self.den * g.y, g.x * g.x + g.y * g.y
        k = gcd(x, y, norm)
        return GaussPoly(self.ring, self.ring.numerators.ground_new(
            _GAUSSIAN_INTEGER.new(x // k, y // k)), norm // k)

    def diff(self, j: int) -> "GaussPoly":
        """The partial derivative in the ``j``-th leg."""
        out = self.num.ring.zero
        for monom, c in self.num.items():
            e = monom[j]
            if e:
                out[monom[:j] + (e - 1,) + monom[j + 1:]] = c.new(c.x * e, c.y * e)
        return GaussPoly(self.ring, out, self.den if out else 1)

    def conjugate(self, conj) -> "GaussPoly":
        """The formal conjugate: each exponent moves to the slot ``conj``
        names for it, and each coefficient is conjugated."""
        out = self.num.ring.zero
        for monom, c in self.num.items():
            out[tuple(monom[j] for j in conj)] = c.new(c.x, -c.y)
        return GaussPoly(self.ring, out, self.den)

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
        return _scaled(self.num, other.den) == _scaled(other.num, self.den)

    def __hash__(self):
        return hash(self.as_expr())

    # -- leaving the kernel ----------------------------------------------

    @property
    def is_ground(self) -> bool:
        return self.num.is_ground

    def to_field(self, field: PolyRing | None = None) -> PolyElement:
        """The value in lowest terms in ``ring.field``, or in ``field``: a
        ring over ``QQ_I`` whose first generators are the legs."""
        field = self.ring.field if field is None else field
        domain, den = field.domain, self.den
        rationals = domain.dom
        pad = (0,) * (field.ngens - self.ring.field.ngens)
        out = field.zero
        for monom, c in self.num.items():
            out[monom + pad] = domain.dtype.new(rationals(c.x, den), rationals(c.y, den))
        return out

    def as_expr(self) -> sympy.Expr:
        """The value as a sympy expression, each coefficient in lowest
        terms; a constant is its number."""
        if self.num.is_ground:
            c = self.num.LC
            return sympy.Rational(c.x, self.den) + sympy.Rational(c.y, self.den) * sympy.I
        return self.to_field().as_expr()

    def _sympy_(self) -> sympy.Expr:
        return self.as_expr()

    def __str__(self):
        return str(self.to_field())

    __repr__ = __str__
