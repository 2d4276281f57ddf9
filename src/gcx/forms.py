"""Mixed-degree differential forms and the exterior-calculus operation set.

A :class:`MixedForm` maps strictly increasing leg-index tuples (the
empty tuple is degree 0) to coefficients.  Keys are canonically sorted
on construction with the antisymmetry sign applied, and zero
coefficients are dropped.

Coefficients have one of two representations, chosen by the input:

* a form whose coefficients are all polynomials over the Gaussian
  rationals in the chart's legs keeps them as elements of the chart's
  polynomial ring (``ring_terms``).  Sums, scaling by a polynomial,
  wedge, ``d``, conjugation, pullback along a polynomial map and
  :func:`form_equal` stay in the ring, where a zero is an exact zero
  and equality is decided without sampling;
* any other form keeps sympy expressions.  Zero there means
  structurally zero (:func:`~gcx.scalars.is_structural_zero`): the
  coefficient is ``0`` or a numeric zero such as ``Float(0.0)``.  No
  assumption query runs, so a coefficient that only simplifies to zero
  is kept until an identity check decides it.

An operation with one form of each kind works on expressions.  ``terms``
and :meth:`MixedForm.coefficient` are expression-valued for both kinds;
on a ring form each coefficient is converted once, when first read.
"""

from __future__ import annotations

import random
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import sympy
from sympy.polys.rings import PolyElement

from .chart import Chart, Region
from .scalars import (
    compile_exprs,
    expr_equal,
    is_structural_zero,
    pin_bumps,
)


class FormError(ValueError):
    """Ill-formed differential-form operation (chart/degree mismatch...)."""


def _sort_key(key: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Sorted key and the permutation sign; sign 0 for repeated indices."""
    key = tuple(key)
    if len(set(key)) != len(key):
        return (), 0
    perm = sorted(range(len(key)), key=lambda i: key[i])
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return tuple(sorted(key)), (-1) ** inv


def _merge_sign(k1: tuple[int, ...], k2: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation of two sorted disjoint keys."""
    inv = sum(1 for i in k1 for j in k2 if i > j)
    return (-1) ** inv


def _add_to(data: dict, key, value) -> None:
    data[key] = data[key] + value if key in data else value


def as_expr(c) -> sympy.Expr:
    """A coefficient as an expression: a ring element is converted."""
    return c.as_expr() if isinstance(c, PolyElement) else sympy.sympify(c)


def _signed(sign: int, c):
    """``sign * c``; a ring element is negated, since multiplying it by an
    integer converts the integer into the coefficient domain first."""
    if isinstance(c, PolyElement):
        return c if sign > 0 else -c
    return sign * c


class _ExprView(MappingABC):
    """The expression-valued ``terms`` of a ring form: each coefficient is
    converted when first read and kept."""

    __slots__ = ("_ring_terms", "_exprs")

    def __init__(self, ring_terms: dict):
        self._ring_terms = ring_terms
        self._exprs: dict[tuple[int, ...], sympy.Expr] = {}

    def __getitem__(self, key) -> sympy.Expr:
        expr = self._exprs.get(key)
        if expr is None:
            expr = self._exprs[key] = self._ring_terms[key].as_expr()
        return expr

    def __contains__(self, key) -> bool:
        return key in self._ring_terms

    def __iter__(self):
        return iter(self._ring_terms)

    def __len__(self) -> int:
        return len(self._ring_terms)


class MixedForm:
    """Immutable mixed-degree complex differential form on a chart.

    Coefficients given as elements of ``chart.ring`` make a ring form,
    kept in ``ring_terms``; any other coefficient makes every coefficient
    an expression, and ``ring_terms`` is None.  A form with no terms is
    a ring form.
    """

    # _compiled: region bump pins -> (keys, compiled coefficients), filled
    # by evaluate_at
    __slots__ = ("chart", "terms", "ring_terms", "_compiled")

    def __init__(self, chart: Chart, terms: Mapping | None = None):
        self.chart = chart
        self._compiled = {}
        terms = terms or {}
        polynomial = all(isinstance(c, PolyElement) for c in terms.values())
        data: dict[tuple[int, ...], object] = {}
        for key, coeff in terms.items():
            if isinstance(coeff, PolyElement):
                if coeff.ring != chart.ring:
                    raise FormError("coefficient chart mismatch")
                if not polynomial:
                    coeff = coeff.as_expr()
            else:
                coeff = sympy.sympify(coeff)
            skey, sign = _sort_key(key)
            if sign == 0:
                continue
            _add_to(data, skey, _signed(sign, coeff))
        data = {k: v for k, v in data.items() if not is_structural_zero(v)}
        if polynomial:
            self.ring_terms = data
            self.terms = _ExprView(data)
        else:
            self.ring_terms = None if data else {}
            self.terms = data

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

    def as_ring(self) -> "MixedForm":
        """This form with its coefficients in ``chart.ring`` when every one
        converts with :meth:`~gcx.chart.Chart.to_ring`; otherwise itself."""
        if self.ring_terms is not None:
            return self
        data = {}
        for key, c in self.terms.items():
            data[key] = self.chart.to_ring(c)
            if data[key] is None:
                return self
        return MixedForm(self.chart, data)

    @property
    def _coefficients(self) -> Mapping:
        """The stored coefficients: ring elements on a ring form."""
        return self.ring_terms if self.ring_terms is not None else self.terms

    def degree_block(self, k: int) -> "MixedForm":
        return MixedForm(
            self.chart,
            {key: c for key, c in self._coefficients.items() if len(key) == k},
        )

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({len(k) for k in self.terms}))

    def is_zero(self) -> bool:
        return not self.terms

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
        mine, theirs = _operands(self, other)
        data = dict(mine)
        for key, c in theirs.items():
            _add_to(data, key, c)
        return MixedForm(self.chart, data)

    def __sub__(self, other: "MixedForm") -> "MixedForm":
        return self + (-other)

    def __neg__(self) -> "MixedForm":
        return MixedForm(self.chart, {k: -c for k, c in self._coefficients.items()})

    def scale(self, scalar) -> "MixedForm":
        """Multiply by a scalar: an expression or a ring element.

        A ring form scaled by a polynomial stays a ring form.
        """
        if self.ring_terms is not None:
            factor = self.chart.to_ring(scalar)
            if factor is not None:
                return MixedForm(self.chart, {k: factor * c for k, c in self.ring_terms.items()})
        scalar = as_expr(scalar)
        return MixedForm(self.chart, {k: scalar * c for k, c in self.terms.items()})

    def conjugate(self) -> "MixedForm":
        chart = self.chart
        conj = chart.conj_poly if self.ring_terms is not None else chart.conj_expr
        data = {}
        for key, c in self._coefficients.items():
            skey, sign = _sort_key(chart.conj_index(i) for i in key)
            _add_to(data, skey, _signed(sign, conj(c)))
        return MixedForm(chart, data)

    def map_coefficients(self, fn) -> "MixedForm":
        return MixedForm(self.chart, {k: fn(c) for k, c in self.terms.items()})

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
        at the point in complex arithmetic.  A ring form hands over its ring
        elements as they are.  Coefficients that are zero in the ring are
        left out.
        """
        pins = region.bump_values if region is not None else ()
        compiled = self._compiled.get(pins)
        if compiled is None:
            if self.ring_terms is not None:
                coefficients = list(self.ring_terms.values())
            else:
                coefficients = [pin_bumps(c, dict(pins)) for c in self.terms.values()]
            values_at = compile_exprs(coefficients, self.chart)
            keys = [(i, key) for i, key in enumerate(self.terms) if i not in values_at.zeros]
            compiled = self._compiled[pins] = (keys, values_at)
        keys, values_at = compiled
        values = values_at(point)
        return {key: values[i] for i, key in keys}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _operands(a: MixedForm, b: MixedForm) -> tuple[Mapping, Mapping]:
    """Both forms' coefficients: ring elements when both are ring forms,
    else expressions."""
    if a.ring_terms is not None and b.ring_terms is not None:
        return a.ring_terms, b.ring_terms
    return a.terms, b.terms


def wedge(a: MixedForm, b: MixedForm) -> MixedForm:
    """Graded-commutative exterior product."""
    a._check(b)
    ca, cb = _operands(a, b)
    data: dict[tuple[int, ...], object] = {}
    for k1, c1 in ca.items():
        for k2, c2 in cb.items():
            if set(k1) & set(k2):
                continue
            _add_to(data, tuple(sorted(k1 + k2)), _signed(_merge_sign(k1, k2), c1) * c2)
    return MixedForm(a.chart, data)


def wedge_list(forms: Iterable[MixedForm]) -> MixedForm:
    forms = list(forms)
    if not forms:
        raise FormError("empty wedge")
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def wedge_power(a: MixedForm, n: int) -> MixedForm:
    if n < 0:
        raise FormError("negative wedge power")
    out = MixedForm.one(a.chart)
    for _ in range(n):
        out = wedge(out, a)
    return out


def d(a: MixedForm) -> MixedForm:
    """Exterior derivative; opaque symbols use their formal derivatives."""
    chart = a.chart
    polynomial = a.ring_terms is not None
    variables = chart.ring.gens if polynomial else chart.symbols
    data: dict[tuple[int, ...], object] = {}
    for key, c in a._coefficients.items():
        for j, v in enumerate(variables):
            if j in key:
                continue
            dc = c.diff(v) if polynomial else sympy.diff(c, v)
            if is_structural_zero(dc):
                continue
            pos = sum(1 for i in key if i < j)
            _add_to(data, tuple(sorted(key + (j,))), _signed((-1) ** pos, dc))
    return MixedForm(chart, data)


def d_scalar(chart: Chart, expr) -> MixedForm:
    return d(MixedForm.scalar(chart, expr))


def interior(X: Mapping[str, sympy.Expr], a: MixedForm) -> MixedForm:
    """Interior product with a vector field given as leg-name -> coefficient.

    A ring form stays in the ring when every coefficient of X converts
    with :meth:`~gcx.chart.Chart.to_ring`.
    """
    chart = a.chart
    idx = {chart.leg_index(name): c for name, c in X.items()}
    ring_idx = ({j: chart.to_ring(c) for j, c in idx.items()}
                if a.ring_terms is not None else None)
    if ring_idx is not None and all(c is not None for c in ring_idx.values()):
        idx, coefficients = ring_idx, a.ring_terms
    else:
        idx = {j: as_expr(c) for j, c in idx.items()}
        coefficients = a.terms
    data: dict[tuple[int, ...], object] = {}
    for key, c in coefficients.items():
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


@dataclass(frozen=True)
class GeneralizedSection:
    """A section X + xi of TM + T*M on a single chart."""

    chart: Chart
    vector: tuple[tuple[str, sympy.Expr], ...]
    covector: MixedForm

    @staticmethod
    def make(chart: Chart, vector: Mapping[str, object] | None = None,
             covector: MixedForm | None = None) -> "GeneralizedSection":
        vec = tuple(
            sorted((name, as_expr(v)) for name, v in (vector or {}).items())
        )
        for name, _ in vec:
            chart.leg_index(name)
        cov = covector if covector is not None else MixedForm.zero(chart)
        if cov.chart != chart:
            raise FormError("covector part lives on a different chart")
        if not cov.is_homogeneous(1):
            raise FormError("covector part must be a 1-form")
        return GeneralizedSection(chart, vec, cov)

    @property
    def vector_map(self) -> dict[str, sympy.Expr]:
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
        val += x * s2.covector.coefficient((chart.leg_index(name),))
    for name, y in s2.vector:
        val += y * s1.covector.coefficient((chart.leg_index(name),))
    return sympy.Rational(1, 2) * val


def vector_bracket(X: Mapping[str, sympy.Expr], Y: Mapping[str, sympy.Expr],
                   chart: Chart) -> dict[str, sympy.Expr]:
    """Coordinate Lie bracket [X, Y]."""
    out: dict[str, sympy.Expr] = {}
    for leg in chart.legs:
        acc = sympy.Integer(0)
        for j, legj in enumerate(chart.legs):
            xj = sympy.sympify(X.get(legj.name, 0))
            yj = sympy.sympify(Y.get(legj.name, 0))
            yk = sympy.sympify(Y.get(leg.name, 0))
            xk = sympy.sympify(X.get(leg.name, 0))
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
    """Coefficient-wise expr_equal over the union of the two key sets.

    Keys are compared in sorted order; the result names the first key
    whose coefficients differ.  Two ring forms are compared element by
    element, exactly and with no sampling; otherwise every key goes
    through :func:`expr_equal` with one shared sampling rng.
    """
    a._check(b)
    if a.ring_terms is not None and b.ring_terms is not None:
        zero = a.chart.ring.zero

        def same(key):
            return a.ring_terms.get(key, zero) == b.ring_terms.get(key, zero)
    else:
        rng = random.Random(seed)

        def same(key):
            return expr_equal(a.coefficient(key), b.coefficient(key), a.chart,
                              region=region, samples=samples, tol=tol, rng=rng)
    for key in sorted(set(a.terms) | set(b.terms)):
        if not same(key):
            return EqualityResult(key, a.key_name(key))
    return EqualityResult(None)
