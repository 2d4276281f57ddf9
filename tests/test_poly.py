"""Fraction-free coefficients against the Gaussian-rational reference.

Each property draws polynomials over the Gaussian rationals, reads them
as :class:`GaussPoly` values, some in unreduced form (numerator and
denominator both scaled by an integer), and checks every operation
against the same operation on sympy's ``QQ_I`` polynomials.
"""

import cmath
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I

from conftest import GAUSSIAN_RATIONALS, gaussian_polys
from gcx import Chart, MixedForm, bump_function
from gcx.forms import as_expr
from gcx.maps import _substitute
from gcx.poly import GaussPoly

_CHART = Chart("poly", [("z1", "complex"), ("z2", "complex"), ("x1", "real"), ("r", "radial")])
_RING = _CHART.ring
_FIELD = _CHART.extended_ring(0)
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _times(num: dict, k: int) -> dict:
    """A numerator ``{monomial: (re, im)}`` times the positive int ``k``."""
    return {monom: (x * k, y * k) for monom, (x, y) in num.items()}


def _unreduced(value: GaussPoly, k: int) -> GaussPoly:
    """The value with numerator and denominator both multiplied by ``k``."""
    return GaussPoly(_RING, _times(value.num, k), value.den * k)


@st.composite
def _pairs(draw):
    """(value, its reference in QQ_I[legs]); the value's numerator and
    denominator are both multiplied by a drawn integer."""
    reference = _FIELD.from_expr(sympy.expand(draw(gaussian_polys(_CHART))))
    value = _RING.from_field(reference)
    return _unreduced(value, draw(st.integers(1, 12))), reference


def _canonical(value: GaussPoly) -> bool:
    """No zero pair is stored, every coefficient is a plain pair of ints
    under a monomial of one exponent per leg, and zero is over 1."""
    return (all(type(c) is tuple and len(c) == 2 and type(c[0]) is int and type(c[1]) is int
                and (c[0] or c[1]) and len(monom) == _CHART.dim
                for monom, c in value.num.items())
            and (bool(value.num) or value.den == 1))


def _is(value: GaussPoly, reference) -> bool:
    """The value is the reference, in lowest terms and as an expression,
    and stores its numerator canonically."""
    return (value.to_field() == reference and value.as_expr() == reference.as_expr()
            and bool(value) == bool(reference) and _canonical(value))


@_SETTINGS
@given(_pairs(), _pairs())
def test_ring_operations_match_the_reference(p, q):
    (a, ref_a), (b, ref_b) = p, q
    assert _is(a + b, ref_a + ref_b)
    assert _is(a - b, ref_a - ref_b)
    assert _is(-a, -ref_a)
    assert _is(a * b, ref_a * ref_b)
    assert _is(a + 3, ref_a + 3) and _is(2 * a, ref_a * 2) and _is(a / -6, ref_a / -6)


@_SETTINGS
@given(_pairs(), st.integers(0, 3))
def test_powers_match_the_reference(p, n):
    a, ref = p
    if not a and n == 0:
        with pytest.raises(ValueError):
            a ** n
        return
    assert _is(a ** n, ref ** n)


@_SETTINGS
@given(_pairs())
def test_derivatives_and_conjugates_match_the_reference(p):
    a, ref = p
    for j in range(_CHART.dim):
        assert _is(a.diff(j), ref.diff(_FIELD.gens[j]))
    conj = [leg.conj for leg in _CHART.legs]
    assert _is(_CHART.conjugate(a), _FIELD({
        tuple(monom[j] for j in conj): _FIELD.domain.new(c.x, -c.y) for monom, c in ref.items()}))


@_SETTINGS
@given(_pairs(), st.lists(_pairs(), min_size=6, max_size=6))
def test_substitution_matches_the_reference(p, images):
    a, ref = p
    got = _substitute(a, tuple(value for value, _ in images), _RING)
    assert _is(got, ref.compose(list(zip(_FIELD.gens, (image for _, image in images)))))


@_SETTINGS
@given(_pairs(), _pairs(), st.integers(1, 12))
def test_equality_of_unreduced_representatives(p, q, k):
    (a, ref_a), (b, ref_b) = p, q
    scaled = _unreduced(a, k)
    assert scaled == a and hash(scaled) == hash(a)
    assert (a == b) == (ref_a == ref_b)
    assert (a == 0) == (not ref_a)
    # against a sympy value, sympy compares the expression
    assert a == ref_a.as_expr()


def test_unreduced_example():
    z1 = _RING.gens[0]
    p = z1 * _RING.ground_new(sympy.Rational(1, 3)) + 1
    assert _unreduced(p, 2) == p
    assert (p.num, p.den) != (_times(p.num, 2), p.den * 2)
    assert str(_unreduced(p, 2)) == str(p.to_field())


def test_constants_are_read_and_inverted_over_one_denominator():
    c = _RING.ground_new(sympy.Rational(3, 2) + sympy.I / 3)
    assert (c.num, c.den) == ({_RING.zero_monom: (9, 2)}, 6)
    assert _RING.i == _RING.ground_new(sympy.I) and _RING.i.num == {_RING.zero_monom: (0, 1)}
    inverse = c.inverse()
    assert inverse * c == 1 and inverse.as_expr() == sympy.Rational(54, 85) - sympy.I * 12 / 85
    assert inverse.den == 85
    assert _RING.ground_new(-4).inverse().as_expr() == sympy.Rational(-1, 4)
    with pytest.raises(ZeroDivisionError):
        _RING.zero.inverse()
    # any other nonzero value swaps its numerator and denominator
    z1 = _RING.gens[0]
    assert z1.inverse().den_factors == (z1.num,) and z1.inverse() * z1 == 1
    assert z1.inverse().inverse() == z1 and z1.inverse().inverse().den_factors is None


def test_equal_quotients_hash_alike():
    # no gcd is taken, so one value has many quotients; each hashes as the
    # value in lowest terms, a polynomial as itself
    z1, z1b = _RING.gens[:2]
    p, q = 1 + z1 * z1b, -z1 + 2
    assert (2 * p) / (2 * q) == p / q and hash((2 * p) / (2 * q)) == hash(p / q)
    assert (p * q) / q == p and hash((p * q) / q) == hash(p)
    assert hash(q / (2 * q)) == hash(_RING.one / 2)


def test_an_int_subtracts_and_divides_from_the_left():
    # int - value and int / value, for a polynomial and for a quotient
    z1, z1b = _RING.gens[:2]
    for value in (z1, (1 + z1 * z1b) / (z1 - 2)):
        assert type(2 - value) is GaussPoly and 2 - value == -(value - 2)
        assert type(1 / value) is GaussPoly and 1 / value == value.inverse()
        assert 3 / value == 3 * value.inverse()
    with pytest.raises(TypeError):
        1.5 - z1
    with pytest.raises(TypeError):
        1.5 / z1


def test_kernel_arithmetic_keeps_denominators_unreduced():
    # sums, products, derivatives and conjugates run on the numerators and
    # divide out no content: (2p, 6) stays over 6 until it leaves the kernel
    z1, z1b, z2, z2b, x1, r = _RING.gens
    p = z1 * 3 + x1 * z2b
    a = GaussPoly(_RING, _times(p.num, 2), 6)
    b = (r * z1b - 2) / 4
    assert (a + a).den == 6 and (a + b).den == 12 and (a * b).den == 24
    assert (a ** 3).den == 216 and a.diff(0).den == 6 and _CHART.conjugate(a).den == 6
    assert a + a == p * 2 / 3 and a * b == p * (r * z1b - 2) / 12
    assert a.to_field() == (p / 3).to_field()


# number tokens as the scenario parser reads them: digits, a point, digits
_NUMBER_TEXTS = st.one_of(
    st.integers(0, 10 ** 12).map(str),
    st.builds("{}.{}".format, st.integers(0, 10 ** 6), st.from_regex(r"\A\d{0,8}\Z")),
    st.from_regex(r"\A\.\d{1,8}\Z"),
)


@_SETTINGS
@given(_NUMBER_TEXTS, st.booleans())
def test_ground_values_are_read_straight_to_numerator_and_denominator(text, negative):
    value = -Fraction(text) if negative else Fraction(text)
    got = _RING.ground_new(value)
    reference = _RING.ground_new(QQ_I(QQ(value), QQ.zero))
    assert got == reference and (got.num, got.den) == (reference.num, reference.den)
    if value.denominator == 1:
        assert _RING.ground_new(int(value)) == reference
    assert _is(got, _FIELD.ground_new(QQ_I(QQ(value), QQ.zero)))


_Z1, _Z1B, _Z2, _Z2B, _X1, _R = _CHART.symbols
# expression coefficients: transcendental, or a polynomial beside pi or a bump
_EXPRESSIONS = st.sampled_from([
    sympy.sin(_X1), sympy.pi * _Z1, bump_function("xi", 0.25, 0.5)(_R),
    _Z1B * sympy.exp(_X1) + 2, sympy.sqrt(_R) / 3,
])


@_SETTINGS
@given(_pairs(), _EXPRESSIONS)
def test_ring_elements_meet_expressions_through_the_operators(p, e):
    a, _ = p
    ea = as_expr(a)

    def same(got, want):
        assert isinstance(got, sympy.Expr)
        assert sympy.expand(got - want) == 0

    same(a + e, ea + e)
    same(e + a, e + ea)
    same(a * e, ea * e)
    same(e * a, e * ea)
    same(a - e, ea - e)
    same(e - a, e - ea)
    assert a == ea and ea == a
    assert (a == e) == (ea == e) and (e == a) == (e == ea)


@_SETTINGS
@given(_pairs(), st.integers(1, 12))
def test_zero_test_is_exact_on_unreduced_representatives(p, k):
    a, ref = p
    unreduced = _unreduced(a, 2 * k)
    assert (unreduced == 0) == (0 == unreduced) == (not ref)
    assert GaussPoly(_RING, (a - a).num, 6 * k) == 0


@_SETTINGS
@given(_pairs(), _pairs())
def test_cancellations_store_no_zero_pair(p, q):
    (a, _), (b, _) = p, q
    z1, z1b, z2, z2b, x1, r = _RING.gens
    zero = a - a
    zeros = [zero, a + -a, a * (b - b), (a + z1) - z1 - a, a * 0, -zero, zero / 3, zero ** 2,
             zero.diff(0), _CHART.conjugate(zero),
             _substitute(z1 - z1b, (z1, z1, z2, z2b, x1, r), _RING),
             _substitute(zero, (b, b, b, b, b, b), _RING)]
    # opposite terms that cancel inside a product and inside a sum
    others = [(z1 + z1b) * (z1 - z1b), (a + z1b) - z1b, a * (b + 1) - a * b]
    assert all(_canonical(value) for value in zeros + others)
    assert not any(zeros)


@_SETTINGS
@given(_pairs(), GAUSSIAN_RATIONALS, st.integers(1, 12))
def test_products_with_a_constant_match_the_reference(p, constant, k):
    a, ref = p
    c = _unreduced(_RING.ground_new(constant), k)
    ref_c = _FIELD.ground_new(_FIELD.domain.from_sympy(constant))
    assert _is(a * c, ref * ref_c) and _is(c * a, ref_c * ref)


# -- quotients against sympy expressions of the same text -------------------

_QUOTIENT_CHARTS = [Chart("q2", [("z1", "complex")]),
                    Chart("q3", [("z1", "complex"), ("x1", "real")]),
                    Chart("r3", [("x1", "real"), ("y1", "real"), ("r", "radial")])]
_SMALL = st.sampled_from(["1", "2", "1/2", "-1/3", "2/3 + i", "-i", "3/2 - 2*i"])
# the texts of + - * and / over three polynomial texts; a quotient adds over
# an equal denominator or cross-multiplies, and divides again
_TEMPLATES = ["({P})/({Q})", "({P})/({Q}) + {R}", "({P})/({Q}) - ({R})/({Q})",
              "({P})/({Q}) + ({R})/({P})", "({P})/({Q}) * ({R})/({P})",
              "(({P})/({Q}))**2 - {R}", "(({P})/({Q}))/(({R})/({Q}) + 1)"]


@st.composite
def _poly_text(draw, chart: Chart, degree: int = 2):
    """A nonzero polynomial in the legs, as scenario text: one or two terms,
    each of at most the given degree."""
    names = [leg.name for leg in chart.legs]
    terms = draw(st.lists(st.tuples(_SMALL, st.lists(st.sampled_from(names), max_size=degree)),
                          min_size=1, max_size=2))
    return " + ".join(f"({c})" + "".join(f"*{x}" for x in mono) for c, mono in terms)


@st.composite
def _quotient_case(draw):
    chart = draw(st.sampled_from(_QUOTIENT_CHARTS))
    texts = {k: draw(_poly_text(chart)) for k in "PQR"}
    first, second = draw(st.lists(st.sampled_from(_TEMPLATES), min_size=2, max_size=2,
                                  unique=True))
    images = [draw(_poly_text(chart, degree=1)) for _ in chart.coords]
    return chart, first.format(**texts), second.format(**texts), images


def _sympy_of(chart: Chart, text: str) -> sympy.Expr:
    names = {leg.name: leg.symbol for leg in chart.legs} | {"i": sympy.I}
    return sympy.parse_expr(text, local_dict=names)


def _conj_of(chart: Chart, e: sympy.Expr) -> sympy.Expr:
    swap = {leg.symbol: chart.legs[leg.conj].symbol for leg in chart.legs}
    return e.xreplace({**swap, sympy.I: -sympy.I})


def _parsed(chart: Chart, body: str, images) -> MixedForm:
    """The form ``body`` parses to on the chart, beside the map ``f`` of the
    chart to itself with the given images of its coordinates."""
    from gcx import parse_scenario
    kinds = ", ".join(f"{c.kind} {c.name}" for c in chart.coords)
    assignments = ", ".join(f"{c.name} -> {image}" for c, image in zip(chart.coords, images))
    sc = parse_scenario(f"chart C = {kinds}\nmap f : C -> C = {assignments}\n"
                        f"form F on C = {body}\n")
    return sc.forms["F"]


def _agree(chart, value, reference, rng) -> None:
    """``value``, kept in the ring, equals ``reference`` in expr_equal's
    verdict and at sample points through compile_exprs."""
    from gcx.chart import everywhere
    from gcx.scalars import EvaluationError, compile_exprs, expr_equal
    assert isinstance(value, GaussPoly)
    assert expr_equal(value, reference, chart)
    ring_at, expr_at = compile_exprs([value], chart), compile_exprs([reference], chart)
    for _ in range(3):
        point = everywhere(chart).sample(rng)
        try:
            want = expr_at(point)[0]
        except EvaluationError:
            continue
        assert cmath.isclose(ring_at(point)[0], want, rel_tol=1e-7, abs_tol=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_quotient_case())
def test_quotients_agree_with_sympy_expressions_of_the_same_text(case):
    import random

    from gcx.scalars import expr_equal
    chart, text, other, images = case
    rng = random.Random(0)
    form = _parsed(chart, text, images)
    value = form.coefficients.get((), chart.ring.zero)
    assume(isinstance(value, GaussPoly))  # a divisor that is zero in the ring
    reference = _sympy_of(chart, text)
    _agree(chart, value, reference, rng)
    # a different text: the ring compare, and the ring against the
    # expression, give cancel's verdict
    other_value = _parsed(chart, other, images).coefficients.get((), chart.ring.zero)
    other_reference = _sympy_of(chart, other)
    assume(isinstance(other_value, GaussPoly))
    same = sympy.cancel(reference - other_reference) == 0
    assert (value == other_value) == same
    assert expr_equal(value, other_reference, chart) == same
    # d, conj and pullback along the polynomial map stay in the ring
    derivative = _parsed(chart, f"d({text})", images).coefficients
    for j, leg in enumerate(chart.legs):
        _agree(chart, derivative.get((j,), chart.ring.zero), sympy.diff(reference, leg.symbol),
               rng)
    conjugate = _parsed(chart, f"conj({text})", images).coefficients
    _agree(chart, conjugate.get((), chart.ring.zero), _conj_of(chart, reference), rng)
    table = {}
    for c, image in zip(chart.coords, images):
        table[chart.symbol(c.name)] = _sympy_of(chart, image)
        if c.kind == "complex":
            table[chart.symbol(c.name + "b")] = _conj_of(chart, _sympy_of(chart, image))
    pulled = _parsed(chart, f"pullback(f, {text})", images).coefficients.get((), chart.ring.zero)
    assume(isinstance(pulled, GaussPoly))  # a denominator that pulls back to zero
    _agree(chart, pulled, reference.xreplace(table), rng)
