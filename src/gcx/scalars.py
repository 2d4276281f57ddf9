"""Exact symbolic scalars with opaque smooth symbols and region-aware equality.

Scalars are sympy expressions over the chart symbols.  Algebraic
operations stay exact (Gaussian rationals); transcendental nodes (log,
exp, sqrt, trig) and opaque bump functions are kept symbolic, with
derivative rules built in, and are only ever evaluated numerically
during sampling.

Coefficients are read into the chart's rings here and nowhere else:
:func:`to_ring` reads a polynomial value into the kernel's ring
(:class:`~gcx.poly.GaussPoly`), and :func:`read_fractions` reads values,
a quotient of the kernel's ring among them, as fractions over the
chart's ring over ``QQ_I``, each subexpression that is not a field
operation on legs and constants (``pi``, a float, a bump, ``sin``) one
extra generator, with no gcd taken.

Equality is decided exactly wherever it can be.  :func:`expr_equal`
compares two elements of the kernel's ring, polynomials or quotients, by
cross-multiplying their denominators.  Otherwise, after pinning the
bumps of its expression sides, it reads both, and they are equal when
their numerators over the least common denominator agree, whatever the
extra generators.  A
nonzero difference is final only when every extra generator is a
constant (:func:`is_constant_extra`).  Any other difference is sampled: a
Schwartz-Zippel-style verdict at tolerance ``tol``.  A zero test is
structural (:func:`is_structural_zero`) and never queries sympy's
assumptions on a compound expression.

Numeric evaluation has one path, :func:`compile_exprs`.  It reads the
expressions with the same fraction reader, puts each fraction in lowest
terms in the ring, so that a removable singularity, such as that of the
surgery spinor at z1 = 0, is gone, and prints the numerators and
denominators from their terms as plain Python.  The extra generators are
printed into the same function from their sympy trees
(:class:`_ExtraPrinter`): arithmetic, ``sqrt``, elementary functions from
``cmath``, ``re``, ``im``, ``conjugate``, ``Abs``, ``atan2`` and bumps
through their specs; any other node raises :class:`EvaluationError` when
evaluated.  The function is compiled once and evaluated at each sample
point on Python ``complex`` values.  Forms compile once per set of region
pins; equality compiles the two fractions it has read.

An opaque smooth symbol like the radial bump ``xi`` is a sympy Function
class made by :func:`opaque_function`.  A bump's class carries its own
:class:`BumpSpec` as ``cls.spec``: identically 0 up to one threshold,
identically 1 from another, and a concrete smooth step in between for
numeric evaluation.  Differentiation produces the formal derivative
``xi_prime``, whose class carries the same spec.  Nothing is registered
anywhere: a class depends only on its name, spec and derivative order,
so two scenarios declaring ``xi`` differently get two classes and
cannot change each other's verdicts.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import sympy
from sympy.polys.rings import PolyElement, PolyRing

from .chart import Chart, Region, everywhere
from .poly import GaussPoly


class EvaluationError(ValueError):
    """Numeric evaluation hit a singularity or an unbound symbol."""


@dataclass(frozen=True)
class BumpSpec:
    """Concrete smooth-step backing an opaque bump: 0 below, 1 above."""

    name: str
    zero_upto: float
    one_from: float

    def __post_init__(self):
        if not self.zero_upto < self.one_from:
            raise ValueError("bump thresholds must satisfy zero_upto < one_from")

    def value(self, t: float) -> float:
        if t <= self.zero_upto:
            return 0.0
        if t >= self.one_from:
            return 1.0
        return _smoothstep((t - self.zero_upto) / (self.one_from - self.zero_upto))

    def derivative(self, t: float) -> float:
        if t <= self.zero_upto or t >= self.one_from:
            return 0.0
        w = self.one_from - self.zero_upto
        return _smoothstep_d((t - self.zero_upto) / w) / w


def _bump_f(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0.0 else 0.0


def _smoothstep(s: float) -> float:
    a, b = _bump_f(s), _bump_f(1.0 - s)
    return a / (a + b)


def _smoothstep_d(s: float) -> float:
    h = 1e-6
    lo, hi = max(s - h, 0.0), min(s + h, 1.0)
    return (_smoothstep(hi) - _smoothstep(lo)) / (hi - lo)


def opaque_function(name: str, spec: Optional[BumpSpec] = None, order: int = 0) -> type:
    """A sympy Function class for an opaque smooth real-valued symbol.

    The class depends only on its arguments, so equal declarations share
    one class and no declaration changes another's.  A bump's class
    carries its thresholds as ``cls.spec``: numeric arguments fold to the
    spec's value (its derivative for ``order`` 1), and
    :func:`compile_exprs` evaluates it through the spec.  Differentiation
    produces ``<name>_prime``, ``<name>_prime_prime`` and so on, which
    carry the same spec, and only a first derivative has a numeric value.
    Each class names the symbol it is or derives from as ``cls.bump``.
    """
    # one cache key per meaning, however the arguments were passed
    return _opaque_class(name, spec, order)


@functools.cache
def _opaque_class(name: str, spec: Optional[BumpSpec], order: int) -> type:
    def eval_(cls_, arg):
        if spec is None or order > 1 or not (arg.is_Number and arg.is_real):
            return None
        t = float(arg)
        if order:
            return sympy.Float(spec.derivative(t))
        if t <= spec.zero_upto:
            return sympy.Integer(0)
        if t >= spec.one_from:
            return sympy.Integer(1)
        return sympy.Float(spec.value(t))

    def fdiff(self, argindex=1):
        return _opaque_class(name, spec, order + 1)(self.args[0])

    return type(
        name + "_prime" * order,
        (sympy.Function,),
        {
            "eval": classmethod(eval_),
            "fdiff": fdiff,
            "is_real": True,
            "spec": spec,
            "order": order,
            "bump": name,
            "_gcx_opaque": True,
        },
    )


def bump_function(name: str, zero_upto: float, one_from: float) -> type:
    """The opaque bump ``name``: 0 up to ``zero_upto``, 1 from ``one_from``."""
    return opaque_function(name, BumpSpec(name, float(zero_upto), float(one_from)))


def pin_bumps(expr: sympy.Expr, bump_values: Mapping[str, int]) -> sympy.Expr:
    """Substitute region-pinned bump values (0 or 1), and 0 for their
    derivatives of every order."""
    if not bump_values:
        return expr

    def repl(node):
        value = bump_values.get(node.func.bump)
        if value is None:
            return node
        return sympy.Integer(0 if node.func.order else value)

    return sympy.sympify(expr).replace(
        lambda n: getattr(n.func, "_gcx_opaque", False), repl
    )


# ---------------------------------------------------------------------------
# Numeric evaluation and structural/probabilistic equality.
# ---------------------------------------------------------------------------


def _real_argument(fn: Callable[..., float]) -> Callable:
    """``fn`` of real arguments, called on compiled values."""
    return lambda *args: fn(*map(_real, args))


def _real(t: complex) -> float:
    # compiled arguments such as sqrt(z1*z1b) arrive as complex numbers
    # whose imaginary part is zero up to rounding
    t = complex(t)
    if abs(t.imag) > 1e-12 * max(1.0, abs(t.real)):
        raise TypeError(f"argument {t} is not real")
    return t.real


_NON_FINITE = (sympy.zoo, sympy.nan, sympy.oo, -sympy.oo)


def _require_finite(expr: sympy.Expr, chart: Chart) -> sympy.Expr:
    if expr.has(*_NON_FINITE):
        raise EvaluationError(f"infinite or undefined value in {expr} on chart {chart.name!r}")
    return expr


def to_ring(chart: Chart, value) -> Optional[GaussPoly]:
    """``value`` as a polynomial of ``chart.ring``, or None when it is not a
    polynomial over the Gaussian rationals in the legs; a quotient of the
    ring is None, whatever its value, as its expression is.  A value with an
    extra generator of :func:`read_fractions` (a float, a foreign symbol,
    a function, ``pi``, a non-integer power) is None at once, with no
    extended ring built, and so is one whose denominator is not a nonzero
    constant; a float is not read as the rational it rounds to."""
    if isinstance(value, GaussPoly):
        return value if value.ring == chart.ring and value.den_factors is None else None
    value = sympy.sympify(value)
    if _opaque_nodes(value, chart.leg_gens, {}):
        return None
    try:
        num, den = _read_fraction(value, chart.extended_ring(0), chart.leg_gens)
    except ZeroDivisionError:
        return None
    return None if den else chart.ring.from_field(num)


def read_fractions(values: Sequence, chart: Chart,
                   pins: Optional[Mapping[str, int]] = None) -> tuple[list, tuple]:
    """The values as ``(pairs, extras)`` over ``chart.extended_ring``, with
    no gcd taken; each expression has the bumps in ``pins`` pinned first.

    Sums, products, integer powers, legs, Gaussian rationals and ``I`` are
    read in the ring; every other subexpression (``pi``, a float, a bump,
    any other function, a non-integer power) is one extra generator,
    shared by equal subexpressions, listed in ``extras``.  An element of
    ``chart.ring`` is read in lowest terms, a quotient of it as its
    numerator over its monic denominator factors, with their leading
    coefficients moved into the numerator and no gcd taken.  ``pairs``
    holds a ``(numerator, denominator)`` per value; a denominator maps each
    distinct non-constant factor to its multiplicity (``{}`` is 1).  An
    infinite or undefined constant (``zoo``, ``nan``, ``oo``), or a
    negative power of a base that is zero in the ring, raises
    :class:`EvaluationError`.
    """
    found: dict = {}
    values = [v if isinstance(v, GaussPoly)
              else _require_finite(pin_bumps(sympy.sympify(v), pins), chart) for v in values]
    for v in values:
        if not isinstance(v, GaussPoly):
            _opaque_nodes(v, chart.leg_gens, found)
    extended = chart.extended_ring(len(found))
    gens = dict(zip(chart.symbols + tuple(found), extended.gens))
    try:
        return [_ring_fraction(v, extended) if isinstance(v, GaussPoly)
                else _read_fraction(v, extended, gens) for v in values], tuple(found)
    except ZeroDivisionError as exc:
        raise EvaluationError(f"infinite or undefined value on chart {chart.name!r}: "
                              f"{exc}") from None


def _ring_fraction(v: GaussPoly, R: PolyRing) -> tuple[PolyElement, dict]:
    """An element of a chart's ring as (numerator, denominator) over ``R``,
    each denominator factor monic, its leading coefficient moved into the
    numerator."""
    num, factors = v.fraction()
    num, den = num.to_field(R), {}
    for f in factors:
        f = f.to_field(R)
        num = num.quo_ground(f.LC)
        f = f.monic()
        den[f] = den.get(f, 0) + 1
    return num, den


def _opaque_nodes(e: sympy.Expr, legs: Mapping, found: dict) -> dict:
    """Add to ``found``, and return it, each subexpression of ``e`` that
    :func:`_read_fraction` does not read as a field operation on legs and
    Gaussian rationals."""
    if e.is_Add or e.is_Mul:
        for a in e.args:
            _opaque_nodes(a, legs, found)
    elif e.is_Pow and e.exp.is_Integer:
        _opaque_nodes(e.base, legs, found)
    elif not (e.is_Rational or e is sympy.I or e in legs):
        found[e] = None
    return found


def _read_fraction(e: sympy.Expr, R: PolyRing, gens: dict) -> tuple[PolyElement, dict]:
    """``e`` as (numerator, denominator) over ``R``, whose generators
    ``gens`` maps from sympy.  The denominator maps each distinct monic
    non-constant factor to its multiplicity, so a repeated factor is never
    multiplied in twice; constants go to the numerator.  Every opaque
    subexpression of ``e`` (:func:`_opaque_nodes`) must be in ``gens``.
    ``ZeroDivisionError`` at a negative power of a base that is zero in
    ``R``."""
    gen = gens.get(e)
    if gen is not None:
        return gen, {}
    if e.is_Add or e.is_Mul:
        parts = [_read_fraction(a, R, gens) for a in e.args]
        return _sum(parts, R) if e.is_Add else _product(parts, R)
    if e.is_Pow and e.exp.is_Integer:
        num, den = _read_fraction(e.base, R, gens)
        n = int(e.exp)
        if n >= 0:
            return num ** n, {f: m * n for f, m in den.items()}
        if not num:
            raise ZeroDivisionError(f"{e.base} is zero")
        n = -n
        lc = num.LC
        inverse = R.ground_new(R.domain.revert(lc) ** n)
        for f, m in den.items():
            inverse *= f ** (m * n)
        factor = num.quo_ground(lc)
        return inverse, ({} if factor.is_ground else {factor: n})
    # a Gaussian rational or I
    return R.ground_new(R.domain.from_sympy(e)), {}


def _product(parts: list, R: PolyRing) -> tuple[PolyElement, dict]:
    num, den = R.one, {}
    for n, d in parts:
        num *= n
        for f, m in d.items():
            den[f] = den.get(f, 0) + m
    return (num, den) if num else (R.zero, {})


def _sum(parts: list, R: PolyRing) -> tuple[PolyElement, dict]:
    """The sum over the least common denominator."""
    common = common_denominator(d for _, d in parts)
    total = sum((over(n, d, common) for n, d in parts), R.zero)
    return (total, common) if total else (R.zero, {})


def common_denominator(dens: Iterable[Mapping]) -> dict:
    """The least common denominator: each factor at its largest multiplicity."""
    common: dict = {}
    for den in dens:
        for f, m in den.items():
            if common.get(f, 0) < m:
                common[f] = m
    return common


def over(num: PolyElement, den: Mapping, common: Mapping) -> PolyElement:
    """The numerator of ``num / den`` over ``common``, a multiple of
    ``den`` such as :func:`common_denominator` gives."""
    for f, m in common.items():
        if m != den.get(f, 0):
            num = num * f ** (m - den.get(f, 0))
    return num


def compile_exprs(exprs: Sequence, chart: Chart, pins: Optional[Mapping[str, int]] = None
                  ) -> Callable[[Mapping[str, complex]], list[complex]]:
    """Compile expressions over the chart's legs: point -> list of complex.

    :func:`read_fractions` pins the bumps in ``pins`` and reads every
    expression as a fraction over the chart's ring, and raises at once,
    rather than at every point, on an infinite or undefined value.  Each
    fraction is put in lowest terms in the ring (:func:`lowest_terms`), so
    a removable singularity, such as that of the surgery spinor at z1 = 0,
    is gone.  The numerator and
    denominator are printed from their terms as plain Python, one complex
    literal per coefficient.  The extra generators (a bump application,
    ``exp``, ``sqrt``, ``pi``, a float) are printed by
    :class:`_ExtraPrinter` into the same function, which computes each one
    once from the leg values and then the fractions; it is compiled once.
    The printer covers legs, numbers, ``I``, ``pi``, ``E``, sums, products,
    powers, the elementary functions of ``cmath``, ``re``, ``im``,
    ``conjugate``, ``Abs``, ``atan2``, and bumps and their first
    derivatives.  Two bumps with one name and different thresholds raise
    :class:`EvaluationError` here.

    The callable canonicalises its point with ``Chart.point`` and raises
    :class:`EvaluationError` on a singular or non-finite value, on a
    symbol that is not a leg of the chart, and on any other node, such as
    an opaque function with no bump spec or a bump's second derivative.
    The callable's ``zeros`` holds the indices of the expressions that are
    zero in the ring.
    """
    return compile_fractions(*read_fractions(exprs, chart, pins), chart)


def compile_fractions(pairs: Sequence, extras: Sequence[sympy.Expr],
                      chart: Chart) -> Callable[[Mapping[str, complex]], list[complex]]:
    """:func:`compile_exprs` of the ``(pairs, extras)`` of :func:`read_fractions`."""
    # every symbol that is not a leg sits in an extra generator
    unbound = set().union(*(e.free_symbols for e in extras)) - set(chart.symbols)
    fractions = [lowest_terms(*pair) for pair in pairs]
    values_at = None if unbound else _compile_values(fractions, extras, chart)
    names = [leg.name for leg in chart.legs]

    def evaluate(point: Mapping[str, complex]) -> list[complex]:
        if unbound:
            raise EvaluationError(f"unbound symbols {unbound} on chart {chart.name!r}")
        pt = chart.point(point)
        try:
            values = values_at(*[pt[n] for n in names])
        except (ZeroDivisionError, OverflowError, ValueError, TypeError) as exc:
            raise EvaluationError(f"cannot evaluate at {dict(point)!r}: {exc}") from exc
        if not all(map(cmath.isfinite, values)):
            raise EvaluationError(f"non-finite value at {dict(point)!r}")
        return values

    evaluate.zeros = frozenset(i for i, (num, _) in enumerate(fractions) if not num)
    return evaluate


def _compile_values(fractions: Sequence, extras: Sequence[sympy.Expr], chart: Chart) -> Callable:
    """One compiled function from the leg values to the fractions' values:
    it binds each extra generator to ``e<j>`` and returns the fractions."""
    legs = [f"x{i}" for i in range(chart.dim)]
    namespace: dict = {}
    printer = _ExtraPrinter(dict(zip(chart.symbols, legs)), namespace)
    body = "".join(f"    e{j} = {printer.code(e)}\n" for j, e in enumerate(extras))
    gens = legs + [f"e{j}" for j in range(len(extras))]
    code = ", ".join(_fraction_code(num, factors, gens) for num, factors in fractions)
    exec(f"def values_at({', '.join(legs)}):\n{body}    return [{code}]\n", namespace)
    return namespace["values_at"]


# numeric functions by sympy class: the elementary functions on complex
# values, and atan2, in which sympy writes re and im of a power
_FUNCTIONS = {getattr(sympy, name): getattr(cmath, name) for name in (
    "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "asin", "acos", "atan", "asinh", "acosh", "atanh")}
_FUNCTIONS[sympy.atan2] = _real_argument(math.atan2)
# parts of a complex value, read from the value itself
_PARTS = {sympy.re: "({}).real", sympy.im: "({}).imag",
          sympy.conjugate: "({}).conjugate()", sympy.Abs: "abs({})"}
_ROOTS = (sympy.Rational(1, 2), sympy.Rational(-1, 2))


class _ExtraPrinter:
    """Python source for extra generators over the legs' argument names.

    Legs, numbers, ``I``, ``pi``, ``E``, sums, products and powers print as
    Python arithmetic, a power of 1/2 or -1/2 as ``sqrt`` or ``1/sqrt``.
    ``exp``, ``log``, ``sin``, ``cos`` and the other functions of
    :data:`_FUNCTIONS` call ``cmath``, and ``atan2`` ``math`` at real
    arguments; ``re``, ``im``, ``conjugate`` and ``Abs`` read the complex
    value; a bump or its first derivative calls its class's spec through
    :func:`_real_argument`.  Any other node, such as
    an opaque function with no spec or a bump's second derivative, calls a
    function that raises ``ValueError`` when it is evaluated.  Every
    function the source calls is bound in ``namespace`` under a generated
    name, never under a name from the expressions.  Two bumps with one name
    and different thresholds raise :class:`EvaluationError` here, at
    compile time.
    """

    def __init__(self, legs: Mapping[sympy.Symbol, str], namespace: dict):
        self.legs = legs
        self.namespace = namespace
        self.names: dict = {}  # a function class or an unevaluable node -> its bound name
        self.bumps: dict[str, type] = {}

    def bind(self, key, fn: Callable) -> str:
        """The generated name of ``fn``, bound once per ``key``."""
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"f{len(self.names)}"
            self.namespace[name] = fn
        return name

    def operand(self, e: sympy.Expr) -> str:
        """``code(e)``, parenthesised unless it is a name, a call or a
        nonnegative integer or float."""
        code = self.code(e)
        if (e in self.legs or e.is_Function or e is sympy.I
                or (e.is_Integer or e.is_Float or e.is_NumberSymbol) and e.is_nonnegative):
            return code
        return f"({code})"

    def code(self, e: sympy.Expr) -> str:
        leg = self.legs.get(e)
        if leg is not None:
            return leg
        if e is sympy.I:
            return "1j"
        if e.is_Rational:
            if max(abs(e.p), e.q) > sys.float_info.max:  # too long to print as digits
                return repr(_float(e.p, e.q))
            return str(e.p) if e.is_Integer else f"{e.p}/{e.q}"
        if e.is_Float or e.is_NumberSymbol:
            value = float(e)
            # a Float beyond a double's range raises as a rational does
            if not math.isfinite(value):
                exact = sympy.Rational(e)
                value = _float(exact.p, exact.q)
            return repr(value)
        if e.is_Add:
            return " + ".join(map(self.code, e.args))
        if e.is_Mul:
            return "*".join(map(self.operand, e.args))
        if e.is_Pow:
            if e.exp in _ROOTS:
                root = f"{self.bind(cmath.sqrt, cmath.sqrt)}({self.code(e.base)})"
                return root if e.exp.is_positive else f"1/{root}"
            return f"{self.operand(e.base)}**{self.operand(e.exp)}"
        fn = e.func
        if fn in _FUNCTIONS:
            return f"{self.bind(fn, _FUNCTIONS[fn])}({', '.join(map(self.code, e.args))})"
        if fn in _PARTS:
            return _PARTS[fn].format(self.code(e.args[0]))
        if getattr(fn, "spec", None) is not None and fn.order <= 1:
            if self.bumps.setdefault(fn.__name__, fn) is not fn:
                raise EvaluationError(f"two bumps named {fn.__name__!r} with different thresholds")
            spec = fn.spec
            step = self.bind(fn, _real_argument(spec.derivative if fn.order else spec.value))
            return f"{step}({self.code(e.args[0])})"
        return f"{self.bind(e, _no_value(e))}()"


def _no_value(node: sympy.Expr) -> Callable:
    def fail():
        raise ValueError(f"{node} has no numeric value")

    return fail


def _fraction_code(num: PolyElement, factors: list, names: Sequence[str]) -> str:
    """Python source for ``num / prod(f**m)`` over the generator names."""
    code = _poly_code(num, names)
    if not num or not factors:
        return code
    den = "*".join(f"({_poly_code(f, names)})" + (f"**{m}" if m > 1 else "") for f, m in factors)
    return f"({code})/({den})"


def _poly_code(p: PolyElement, names: Sequence[str]) -> str:
    """Python source for ``p``: one complex literal per coefficient."""
    terms = []
    for monom, c in p.iterterms():
        powers = "".join(f"*{x}" if k == 1 else f"*{x}**{k}" for x, k in zip(names, monom) if k)
        value = complex(*(_float(q.numerator, q.denominator) for q in (c.x, c.y)))
        terms.append(repr(value) + powers)
    return " + ".join(terms) or "0j"


def _float(p: int, q: int) -> float:
    """``p/q`` as a float.  :class:`EvaluationError` when it is beyond a
    float's range, naming it by its leading digits and decimal exponent,
    since its decimal form may be too long for Python to print."""
    try:
        return p / q
    except OverflowError:
        exponent = math.log10(abs(p)) - math.log10(q)
        whole = math.floor(exponent)
        raise EvaluationError(f"the number {'-' if p < 0 else ''}{10 ** (exponent - whole):.6g}"
                              f"e+{whole} is too large for floating point") from None


def _irreducible(f: PolyElement) -> bool:
    """A cheap sufficient test that ``f`` is irreducible: it has degree 1
    in some generator x, as ``f = a*x + r``, and ``a`` or ``r`` is a nonzero
    constant.  A factorisation would then have a factor free of x that
    divides both ``a`` and ``r``, so a constant."""
    n = f.ring.ngens
    for i in range(n):
        if f.degree(i) != 1:
            continue
        linear = [m for m in f.itermonoms() if m[i]]
        rest = [m for m in f.itermonoms() if not m[i]]
        if sum(linear[0]) == 1 == len(linear) or rest == [(0,) * n]:
            return True
    return False


def lowest_terms(num: PolyElement, den: Mapping) -> tuple[PolyElement, list]:
    """``num / den`` in lowest terms, as ``(numerator, [(factor, power)])``.

    Each denominator factor is divided out of the numerator as often as it
    divides exactly.  A factor that is left over and not provably
    irreducible (:func:`_irreducible`) has its gcd with the numerator
    divided out, so every removable singularity is gone.
    """
    factors = []
    for f, m in den.items():
        while m:
            quotient, remainder = num.div(f)
            if remainder:
                break
            num, m = quotient, m - 1
        if m and not _irreducible(f):
            f, m = f ** m, 1
            g = num.gcd(f)
            num, f = num.exquo(g), f.exquo(g)
        if m:
            factors.append((f, m))
    return num, factors


def evaluate_expr(expr: sympy.Expr, chart: Chart, point: Mapping[str, complex]) -> complex:
    """One expression at one point, through :func:`compile_exprs`."""
    return compile_exprs([expr], chart)(point)[0]


def is_structural_zero(expr) -> bool:
    """True when the expression is literally zero.

    A sympy ``Float(0.0)`` does not compare equal to ``0``, so a numeric
    zero is caught through its value; compound expressions are never
    handed to the assumptions engine.  A polynomial ring element compares
    equal to ``0`` exactly when it is zero.
    """
    return expr == 0 or (isinstance(expr, sympy.Number) and expr.is_zero)


_FINAL_EXTRAS = frozenset({sympy.pi, sympy.E})


def is_constant_extra(extra: sympy.Expr) -> bool:
    """Whether an extra generator of :func:`read_fractions` is a constant of
    a verdict: ``pi`` or ``E``, read as algebraically independent
    transcendentals, as sympy's ``cancel`` reads them.  Any other extra may
    obey relations the reader does not see, such as sqrt(u)**2 = u."""
    return extra in _FINAL_EXTRAS


def expr_equal(
    a,
    b,
    chart: Chart,
    region: Optional[Region] = None,
    samples: int = 32,
    tol: float = 1e-9,
    rng=None,
) -> bool:
    """Equality of two scalars on a region: ring, structural, exact or sampled.

    Each side is taken as stored, a ``chart.ring`` element or an
    expression.  Two ring elements, polynomials or quotients, are compared
    in the ring, by cross-multiplying their denominators.  Expression
    sides have their region-pinned bumps substituted, once, and two
    structurally identical ones are equal before they are read, unless
    they hold ``zoo``, ``nan`` or ``oo``, which raises
    :class:`EvaluationError`.  Other sides are read with
    :func:`read_fractions`, a ring side as it is, which raises it on such
    a value or on a negative power of a base that is zero in the ring, so
    a zero base is reported only when the sides differ.  The verdict is
    exact when the numerators over the least common denominator agree
    (equal, whatever the extra generators), or when they differ and every
    extra generator is a constant of :func:`is_constant_extra`
    (different).  A nonzero rational function cannot vanish on an open
    region, and the Wirtinger legs (z, zb) are an invertible linear change
    of the real coordinates, so no sampling is needed there.  Any other difference, one with a
    float among them, is sampled: both fractions read are compiled once
    and evaluated at up to ``samples`` points of the region, drawn with
    ``rng`` (by default ``random.Random(0)``), where ``|a - b|`` must stay
    within ``tol`` times ``max(1, |a|)``.  A point where either side is
    singular is skipped.
    """
    rings = isinstance(a, GaussPoly), isinstance(b, GaussPoly)
    if all(rings):
        return a == b
    pins = region.bump_map if region is not None else {}
    a, b = (v if ring else pin_bumps(sympy.sympify(v), pins) for v, ring in zip((a, b), rings))
    if not any(rings) and a == b:
        _require_finite(a, chart)
        return True
    pairs, extras = read_fractions((a, b), chart)
    common = common_denominator(den for _, den in pairs)
    if over(*pairs[0], common) == over(*pairs[1], common):
        return True
    if all(map(is_constant_extra, extras)):
        return False
    region = everywhere(chart) if region is None else region
    rng = random.Random(0) if rng is None else rng
    sides_at = compile_fractions(pairs, extras, chart)
    failures = tried = 0
    for _ in range(samples * 4):
        if tried >= samples:
            break
        point = region.sample(rng)
        try:
            va, vb = sides_at(point)
        except EvaluationError:
            failures += 1
            if failures > samples * 3:
                raise EvaluationError("sampling cannot avoid singular loci")
            continue
        tried += 1
        if abs(va - vb) > tol * max(1.0, abs(va)):
            return False
    if tried == 0:
        raise EvaluationError("sampling cannot avoid singular loci")
    return True
