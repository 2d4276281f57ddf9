"""Mixed-degree differential forms and the exterior-calculus operation set.

A :class:`MixedForm` maps strictly increasing leg-index tuples (the
empty tuple is degree 0) to coefficients.  Keys are canonically sorted
on construction with the antisymmetry sign applied, and zero
coefficients are dropped.

Each coefficient is decided on its own.  It is an element of the chart's
polynomial ring while it is a polynomial over the Gaussian rationals in
the legs, or a quotient of two that the kernel formed, and a sympy
expression otherwise.  Coefficients combine with ``+``, ``*`` and
``==``: two ring elements add and multiply in the ring, and a ring
element meets an expression as the expression it converts to
(:mod:`gcx.poly`).  So ``d``, conjugation, pullback along a polynomial
map and :func:`form_equal` keep a polynomial coefficient exact beside a
transcendental one.  A coefficient is zero when it is structurally zero
(:func:`~gcx.scalars.is_structural_zero`): a ring element with a zero
numerator, ``0``, or a numeric zero such as ``Float(0.0)``.  No
assumption query runs, so a coefficient that only simplifies to zero is
kept until an identity check decides it.

A ring element is fraction-free (:class:`~gcx.poly.GaussPoly`): a
numerator with Gaussian-integer coefficients over a positive integer,
and for a quotient by a non-constant polynomial over a Gaussian-integer
polynomial too.  So the kernel's sums, products, derivatives, conjugates
and pullback substitutions run on integers and take no gcd.  Two ring
elements are compared by cross-multiplying their denominators.  A ring
element is put in lowest terms only when it leaves the kernel: when it is
read into ``QQ_I``, converted to an expression (a constant to its number)
or printed.

Package code reads ``coefficients`` as stored.  ``terms`` and
:meth:`MixedForm.coefficient` are the expression view for callers
outside the package; a ring coefficient is converted once, when first
read there.
"""

from __future__ import annotations

import random
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import sympy

from .chart import Chart, Region
from .poly import GaussPoly
from .scalars import compile_exprs, expr_equal, is_structural_zero, to_ring


class FormError(ValueError):
    """Ill-formed differential-form operation (chart/degree mismatch...)."""


def _sort_key(key: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Sorted key and the permutation sign; sign 0 for repeated indices.

    One insertion sort, each swap flipping the sign; a key is at most
    ``chart.dim`` long.
    """
    out = list(key)
    sign = 1
    for i in range(1, len(out)):
        j = i
        while j and out[j - 1] > out[j]:
            out[j - 1], out[j] = out[j], out[j - 1]
            sign = -sign
            j -= 1
        if j and out[j - 1] == out[j]:
            return (), 0
    return tuple(out), sign


def as_expr(c) -> sympy.Expr:
    """A coefficient as an expression: a ring element is converted, a
    constant one to its number."""
    return c.as_expr() if isinstance(c, GaussPoly) else sympy.sympify(c)


def scalar_of(chart: Chart, value):
    """``value`` as an element of ``chart.ring`` when it is one or a
    polynomial over the Gaussian rationals in the legs, else as an
    expression.  An element of another chart's ring raises
    :class:`FormError`."""
    if isinstance(value, GaussPoly):
        if value.ring != chart.ring:
            raise FormError("coefficient chart mismatch")
        return value
    ring = to_ring(chart, value)
    return ring if ring is not None else sympy.sympify(value)


def _add_to(data: dict, key, value) -> None:
    old = data.get(key)
    data[key] = value if old is None else old + value


def _signed(sign: int, c):
    """``sign * c`` for a sign of +1 or -1, with no int read into the ring."""
    return c if sign > 0 else -c


class _ExprView(MappingABC):
    """The expression-valued ``terms`` of a form: each ring coefficient is
    converted when first read and kept."""

    __slots__ = ("_coefficients", "_exprs")

    def __init__(self, coefficients: dict):
        self._coefficients = coefficients
        self._exprs: dict[tuple[int, ...], sympy.Expr] = {}

    def __getitem__(self, key) -> sympy.Expr:
        expr = self._exprs.get(key)
        if expr is None:
            expr = self._exprs[key] = as_expr(self._coefficients[key])
        return expr

    def __contains__(self, key) -> bool:
        return key in self._coefficients

    def __iter__(self):
        return iter(self._coefficients)

    def __len__(self) -> int:
        return len(self._coefficients)


class MixedForm:
    """Immutable mixed-degree complex differential form on a chart.

    ``coefficients`` holds each coefficient as it is stored: an element
    of ``chart.ring`` as given, any other value as a sympy expression.
    """

    # _compiled: region bump pins -> (keys, compiled coefficients), filled
    # by evaluate_at
    __slots__ = ("chart", "coefficients", "terms", "_compiled")

    def __init__(self, chart: Chart, terms: Mapping | None = None):
        self.chart = chart
        self._compiled = {}
        ring = chart.ring
        data: dict[tuple[int, ...], object] = {}
        for key, coeff in (terms or {}).items():
            if type(coeff) is GaussPoly:
                if coeff.ring is not ring and coeff.ring != ring:
                    raise FormError("coefficient chart mismatch")
            else:
                coeff = sympy.sympify(coeff)
            skey, sign = _sort_key(key)
            if sign:
                _add_to(data, skey, _signed(sign, coeff))
        self.coefficients = {k: v for k, v in data.items() if not is_structural_zero(v)}
        self.terms = _ExprView(self.coefficients)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "MixedForm":
        return cls(chart, {})

    @classmethod
    def one(cls, chart: Chart) -> "MixedForm":
        return cls(chart, {(): chart.ring.one})

    @classmethod
    def scalar(cls, chart: Chart, expr) -> "MixedForm":
        return cls(chart, {(): expr})

    @classmethod
    def basis(cls, chart: Chart, leg: str) -> "MixedForm":
        return cls(chart, {(chart.leg_index(leg),): chart.ring.one})

    # -- queries ---------------------------------------------------------

    def coefficient(self, key: Iterable[int]) -> sympy.Expr:
        skey, sign = _sort_key(key)
        if sign == 0:
            return sympy.Integer(0)
        return sign * self.terms.get(skey, sympy.Integer(0))

    def degree_block(self, k: int) -> "MixedForm":
        return MixedForm(
            self.chart,
            {key: c for key, c in self.coefficients.items() if len(key) == k},
        )

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({len(k) for k in self.coefficients}))

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_homogeneous(self, k: int | None = None) -> bool:
        degs = self.degrees
        if k is None:
            return len(degs) <= 1
        return degs in ((), (k,))

    def key_name(self, key: tuple[int, ...]) -> str:
        return "^".join("d" + self.chart.legs[i].name for i in key) or "1"

    def __repr__(self):
        if not self.terms:
            return "MixedForm(0)"
        bits = [f"({c})*{self.key_name(k)}" for k, c in sorted(self.terms.items())]
        return "MixedForm(" + " + ".join(bits) + ")"

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "MixedForm"):
        if not isinstance(other, MixedForm):
            raise FormError(f"expected MixedForm, got {type(other).__name__}")
        if self.chart != other.chart:
            raise FormError(
                f"chart mismatch: {self.chart.name!r} vs {other.chart.name!r}"
            )

    def __add__(self, other: "MixedForm") -> "MixedForm":
        self._check(other)
        data = dict(self.coefficients)
        for key, c in other.coefficients.items():
            _add_to(data, key, c)
        return MixedForm(self.chart, data)

    def __sub__(self, other: "MixedForm") -> "MixedForm":
        return self + (-other)

    def __neg__(self) -> "MixedForm":
        return MixedForm(self.chart, {k: -c for k, c in self.coefficients.items()})

    def scale(self, scalar) -> "MixedForm":
        """Multiply by a scalar: an expression or a ring element.  A ring
        coefficient scaled by a polynomial stays in the ring."""
        factor = scalar_of(self.chart, scalar)
        return MixedForm(self.chart, {k: factor * c for k, c in self.coefficients.items()})

    def conjugate(self) -> "MixedForm":
        chart = self.chart
        data = {}
        for key, c in self.coefficients.items():
            _add_to(data, tuple(chart.conj_index(i) for i in key), chart.conjugate(c))
        return MixedForm(chart, data)

    def real_part(self) -> "MixedForm":
        return (self + self.conjugate()).scale(sympy.Rational(1, 2))

    def imag_part(self) -> "MixedForm":
        return (self - self.conjugate()).scale(sympy.Rational(1, 2) / sympy.I)

    # -- evaluation --------------------------------------------------------

    def evaluate_at(self, point, region: Optional[Region] = None) -> dict[tuple[int, ...], complex]:
        """Numeric coefficients at a point, after region bump pinnings.

        The coefficients are pinned and compiled by :func:`compile_exprs`,
        which puts them in lowest terms in the chart's ring, once per set
        of region pins, and kept on the form; each call then evaluates them
        at the point in complex arithmetic.  Coefficients that are zero in
        the ring are left out.
        """
        pins = region.bump_values if region is not None else ()
        compiled = self._compiled.get(pins)
        if compiled is None:
            values_at = compile_exprs(list(self.coefficients.values()), self.chart, dict(pins))
            keys = [(i, key) for i, key in enumerate(self.coefficients) if i not in values_at.zeros]
            compiled = self._compiled[pins] = (keys, values_at)
        keys, values_at = compiled
        values = values_at(point)
        return {key: values[i] for i, key in keys}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def wedge(a: MixedForm, b: MixedForm) -> MixedForm:
    """Graded-commutative exterior product."""
    a._check(b)
    data: dict[tuple[int, ...], object] = {}
    for k1, c1 in a.coefficients.items():
        for k2, c2 in b.coefficients.items():
            if set(k1) & set(k2):
                continue
            _add_to(data, k1 + k2, c1 * c2)
    return MixedForm(a.chart, data)


def wedge_list(forms: Iterable[MixedForm]) -> MixedForm:
    forms = list(forms)
    if not forms:
        raise FormError("empty wedge")
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def d(a: MixedForm) -> MixedForm:
    """Exterior derivative; opaque symbols use their formal derivatives.  An
    expression is differentiated only in the legs it holds."""
    chart = a.chart
    data: dict[tuple[int, ...], object] = {}
    for key, c in a.coefficients.items():
        ring = type(c) is GaussPoly
        free = None if ring else c.free_symbols
        for j, v in enumerate(chart.symbols):
            if j in key or not (ring or v in free):
                continue
            dc = c.diff(j if ring else v)
            if is_structural_zero(dc):
                continue
            _add_to(data, (j,) + key, dc)
    return MixedForm(chart, data)


def d_scalar(chart: Chart, expr) -> MixedForm:
    return d(MixedForm.scalar(chart, expr))


def interior(X: Mapping[str, sympy.Expr], a: MixedForm) -> MixedForm:
    """Interior product with a vector field given as leg-name -> coefficient.

    A ring coefficient stays in the ring where the field's coefficient is
    a polynomial.
    """
    chart = a.chart
    idx = {chart.leg_index(name): scalar_of(chart, c) for name, c in X.items()}
    data: dict[tuple[int, ...], object] = {}
    for key, c in a.coefficients.items():
        for t, j in enumerate(key):
            xc = idx.get(j)
            if xc is not None:
                _add_to(data, key[:t] + key[t + 1:], _signed((-1) ** t, xc) * c)
    return MixedForm(chart, data)


def lie_derivative(X: Mapping[str, sympy.Expr], a: MixedForm) -> MixedForm:
    """Cartan's formula: L_X = d(i_X a) + i_X(d a)."""
    return d(interior(X, a)) + interior(X, d(a))


def exp_form(b: MixedForm) -> MixedForm:
    """Finite exponential series of a nilpotent even-degree form."""
    degs = b.degrees
    if any(k == 0 or k % 2 for k in degs):
        raise FormError(
            f"exp_form needs even positive degrees, got degrees {degs}"
        )
    out = MixedForm.one(b.chart)
    power = MixedForm.one(b.chart)
    kfact = 1
    for k in range(1, b.chart.dim // 2 + 1):
        power = wedge(power, b)
        if power.is_zero():
            break
        kfact *= k
        out = out + power.scale(sympy.Rational(1, kfact))
    return out


def mukai(a: MixedForm, b: MixedForm) -> MixedForm:
    """The Mukai pairing (a, b): the top-degree part of sigma(a) ^ b, where
    sigma multiplies a k-form by (-1)^(k(k-1)/2).  Each term of a meets
    only the complementary term of b."""
    a._check(b)
    full = tuple(range(a.chart.dim))
    data: dict[tuple[int, ...], object] = {}
    for k1, c1 in a.coefficients.items():
        k2 = tuple(i for i in full if i not in k1)
        c2 = b.coefficients.get(k2)
        if c2 is not None:
            _add_to(data, k1 + k2, _signed((-1) ** (len(k1) * (len(k1) - 1) // 2), c1) * c2)
    return MixedForm(a.chart, data)


@dataclass(frozen=True)
class GeneralizedSection:
    """A section X + xi of TM + T*M on a single chart.

    Each vector coefficient is stored as :func:`scalar_of` reads it, an
    element of ``chart.ring`` or an expression, and a structural zero is
    left out.
    """

    chart: Chart
    vector: tuple[tuple[str, object], ...]
    covector: MixedForm

    @staticmethod
    def make(chart: Chart, vector: Mapping[str, object] | None = None,
             covector: MixedForm | None = None) -> "GeneralizedSection":
        vec = []
        for name, v in (vector or {}).items():
            chart.leg_index(name)
            c = scalar_of(chart, v)
            if not is_structural_zero(c):
                vec.append((name, c))
        vec = tuple(sorted(vec))
        cov = covector if covector is not None else MixedForm.zero(chart)
        if cov.chart != chart:
            raise FormError("covector part lives on a different chart")
        if not cov.is_homogeneous(1):
            raise FormError("covector part must be a 1-form")
        return GeneralizedSection(chart, vec, cov)

    @property
    def vector_map(self) -> dict[str, object]:
        return dict(self.vector)

    def is_zero(self) -> bool:
        return all(is_structural_zero(v) for _, v in self.vector) and self.covector.is_zero()


def clifford(section: GeneralizedSection, rho: MixedForm) -> MixedForm:
    """(X + xi) . rho = i_X rho + xi ^ rho."""
    if section.chart != rho.chart:
        raise FormError("chart mismatch")
    return interior(section.vector_map, rho) + wedge(section.covector, rho)


def pairing(s1: GeneralizedSection, s2: GeneralizedSection) -> sympy.Expr:
    """Symmetric pairing <X+xi, Y+eta> = (eta(X) + xi(Y)) / 2."""
    if s1.chart != s2.chart:
        raise FormError("chart mismatch")
    chart = s1.chart
    val = sympy.Integer(0)
    for name, x in s1.vector:
        val += as_expr(x) * as_expr(s2.covector.coefficients.get((chart.leg_index(name),), 0))
    for name, y in s2.vector:
        val += as_expr(y) * as_expr(s1.covector.coefficients.get((chart.leg_index(name),), 0))
    return sympy.Rational(1, 2) * val


def vector_bracket(X: Mapping[str, object], Y: Mapping[str, object],
                   chart: Chart) -> dict[str, sympy.Expr]:
    """Coordinate Lie bracket [X, Y]; the fields' coefficients are
    expressions or ring elements, each converted to an expression once."""
    xs = [as_expr(X.get(leg.name, 0)) for leg in chart.legs]
    ys = [as_expr(Y.get(leg.name, 0)) for leg in chart.legs]
    out: dict[str, sympy.Expr] = {}
    for leg, xk, yk in zip(chart.legs, xs, ys):
        acc = sympy.Integer(0)
        for legj, xj, yj in zip(chart.legs, xs, ys):
            acc += xj * sympy.diff(yk, legj.symbol) - yj * sympy.diff(xk, legj.symbol)
        if not is_structural_zero(acc):
            out[leg.name] = acc
    return out


def courant_bracket(s1: GeneralizedSection, s2: GeneralizedSection,
                    H: MixedForm | None = None) -> GeneralizedSection:
    """H-twisted Courant bracket of two generalized sections."""
    if s1.chart != s2.chart:
        raise FormError("chart mismatch")
    chart = s1.chart
    if H is None:
        H = MixedForm.zero(chart)
    if not H.is_zero() and not H.is_homogeneous(3):
        raise FormError("twisting form must be of pure degree 3")
    X, Y = s1.vector_map, s2.vector_map
    xi, eta = s1.covector, s2.covector
    vec = vector_bracket(X, Y, chart)
    cov = lie_derivative(X, eta) - lie_derivative(Y, xi)
    eta_x = interior(X, eta)  # scalar eta(X) as a 0-form
    xi_y = interior(Y, xi)
    half = sympy.Rational(1, 2)
    cov = cov - d(eta_x - xi_y).scale(half)
    cov = cov + interior(Y, interior(X, H))
    return GeneralizedSection.make(chart, vec, cov)


@dataclass(frozen=True)
class EqualityResult:
    """Verdict of :func:`form_equal`: true when no coefficient differs."""

    key: Optional[tuple[int, ...]]  # first differing key, None when equal
    name: Optional[str] = None  # that key as a wedge of differentials

    def __bool__(self):
        return self.key is None


def form_equal(a: MixedForm, b: MixedForm, region: Optional[Region] = None,
               samples: int = 32, seed: int = 0, tol: float = 1e-9) -> EqualityResult:
    """Coefficient-wise equality over the union of the two key sets.

    Keys are compared in sorted order; the result names the first key
    whose coefficients differ.  Each key's two coefficients go to
    :func:`expr_equal` as they are stored, a missing one as the ring's
    zero, all of them with one shared sampling rng; so two ring elements
    are compared in the ring, exactly and with no sampling.
    """
    a._check(b)
    zero = a.chart.ring.zero
    rng = random.Random(seed)
    for key in sorted(set(a.coefficients) | set(b.coefficients)):
        if not expr_equal(a.coefficients.get(key, zero), b.coefficients.get(key, zero), a.chart,
                          region=region, samples=samples, tol=tol, rng=rng):
            return EqualityResult(key, a.key_name(key))
    return EqualityResult(None)
