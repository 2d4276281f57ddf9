"""Opaque bumps, compiled evaluation, and exact or sampled scalar equality."""

import cmath
import math
import random
import re

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import gcx.forms as forms
import gcx.scalars as scalars
import gcx.spinor as spinor
from conftest import GAUSSIAN_RATIONALS, gaussian_polys, real_chart
from gcx import (Chart, MixedForm, Region, bump_function, build_gluck_spinor, check_integrable,
                 opaque_function)
from gcx.scalars import (
    EvaluationError,
    compile_exprs,
    evaluate_expr,
    expr_equal,
    is_structural_zero,
    pin_bumps,
    read_fractions,
    to_ring,
)


def test_bump_thresholds():
    xi = bump_function("xi_t", 0.25, 0.5)
    assert xi(sympy.Float(0.1)) == 0
    assert xi(sympy.Float(0.25)) == 0
    assert xi(sympy.Float(0.9)) == 1
    mid = float(xi(sympy.Float(0.4)))
    assert 0.0 < mid < 1.0


def test_bump_derivative_vanishes_on_plateaus():
    xi = bump_function("xi_d", 0.25, 0.5)
    t = sympy.Symbol("t", real=True)
    deriv = sympy.diff(xi(t), t)
    assert float(deriv.subs(t, 0.1)) == 0.0
    assert float(deriv.subs(t, 0.9)) == 0.0
    assert float(deriv.subs(t, 0.4)) != 0.0


def test_bump_smooth_and_monotone_in_window():
    spec = bump_function("xi_t", 0.25, 0.5).spec
    values = [spec.value(0.25 + 0.25 * k / 20) for k in range(21)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_pin_bumps_kills_derivatives():
    xi = bump_function("xi_p", 0.25, 0.5)
    r = sympy.Symbol("r", positive=True)
    expr = xi(r) * r + sympy.diff(xi(r), r)
    assert pin_bumps(expr, {"xi_p": 0}) == 0
    assert pin_bumps(expr, {"xi_p": 1}) == r
    # of every order: the second derivative of xi(r**2) holds xi_p_prime_prime
    second = sympy.diff(xi(r ** 2), r, 2)
    assert second.has(sympy.diff(xi(r), r, 2).func)
    assert pin_bumps(second, {"xi_p": 1}) == 0
    assert pin_bumps(sympy.diff(xi(r), r, 3) + xi(r), {"xi_p": 1}) == 1


def test_expr_equal_algebraic_exact():
    ch = real_chart(2)
    x1, x2 = ch.symbols
    assert expr_equal((x1 + x2) ** 2, x1 ** 2 + 2 * x1 * x2 + x2 ** 2, ch)
    assert not expr_equal(x1 * x2, x1 * x2 + sympy.Rational(1, 10 ** 9), ch)
    # differences far below any sampling tolerance are still differences
    assert not expr_equal(x1 * x2, x1 * x2 + sympy.Rational(1, 10 ** 13), ch)
    assert not expr_equal(x1 / (x2 ** 2 + 1) / 10 ** 13, 0, ch)


def _no_sampling(monkeypatch):
    def refuse(exprs, *args):
        raise AssertionError(f"sampled {exprs}")

    for module in (scalars, forms, spinor):
        monkeypatch.setattr(module, "compile_exprs", refuse)
    monkeypatch.setattr(scalars, "compile_fractions", refuse)


def test_expr_equal_algebraic_decided_without_sampling(monkeypatch):
    _no_sampling(monkeypatch)
    ch = Chart("cz", [("z1", "complex"), ("x1", "real")])
    z1, z1b, x1 = ch.symbols
    p = z1 * z1b + sympy.I * x1 / 3
    q = x1 ** 2 - 2 * z1
    assert expr_equal((p + q) * (p - q), p ** 2 - q ** 2, ch)
    assert expr_equal((p ** 2 - q ** 2) / (p - q), p + q, ch)
    assert expr_equal(sympy.pi * p * q, sympy.pi * sympy.expand(p * q), ch)
    assert not expr_equal((p + q) ** 2, p ** 2 + q ** 2, ch)
    assert not expr_equal(p / q, q / p, ch)
    assert not expr_equal(sympy.pi * p, sympy.E * p, ch)
    # a formal zero is exact whatever the extra generators: here a bump and sin
    xi = bump_function("xi_e", 0.25, 0.5)(z1 * z1b)
    assert expr_equal(xi * (p + q) / (1 + z1 * z1b), xi * p / (1 + z1 * z1b)
                      + xi * q / (1 + z1 * z1b), ch)
    assert expr_equal(sympy.sin(x1) * (x1 + 1), sympy.sin(x1) * x1 + sympy.sin(x1), ch)
    # a quotient beside a transcendental factor, with no gcd taken
    assert expr_equal(sympy.sin(x1) * (x1 ** 2 - 1) / (x1 - 1), sympy.sin(x1) * (x1 + 1), ch)


def test_expr_equal_takes_ring_elements_as_stored(monkeypatch):
    _no_sampling(monkeypatch)
    ch = Chart("cz", [("z1", "complex"), ("x1", "real")])
    z1, z1b, x1 = ch.symbols
    expr = z1 * z1b + sympy.I * x1 / 3
    p = to_ring(ch, expr)
    # a ring side is read as it is, beside an expression side
    assert expr_equal(p, sympy.expand(expr * (x1 + 1)) / (x1 + 1), ch)
    assert expr_equal(expr, p, ch)
    assert not expr_equal(p, expr + sympy.pi, ch)
    assert not expr_equal(sympy.E * expr, p, ch)

    def refuse(values, *args, **kwargs):
        raise AssertionError(f"read {values}")

    # two ring sides are compared in the ring, and nothing is read
    monkeypatch.setattr(scalars, "read_fractions", refuse)
    assert expr_equal(p * p, to_ring(ch, sympy.expand(expr ** 2)), ch)
    assert not expr_equal(p, p + 1, ch)


def test_expr_equal_zero_denominator_is_undefined(monkeypatch):
    _no_sampling(monkeypatch)
    ch = Chart("cz", [("z1", "complex"), ("x1", "real")])
    z1, z1b, x1 = ch.symbols
    # the base is zero in the ring but not to sympy's Add
    singular = 1 / (x1 * (x1 + 1) - x1 ** 2 - x1)
    xi = bump_function("xi_z", 0.25, 0.5)(z1 * z1b)
    for other in (sympy.Integer(1), xi, sympy.Float(0.5) * x1):
        with pytest.raises(EvaluationError, match="infinite or undefined"):
            expr_equal(singular * other, other, ch)


def test_gluck_stored_certificate_compiles_nothing(monkeypatch):
    s = build_gluck_spinor((1, 3, 1, 2))
    _no_sampling(monkeypatch)
    result = check_integrable(s)
    assert result.ok and result.path == "stored"


def test_expr_equal_transcendental_still_samples(monkeypatch):
    _no_sampling(monkeypatch)
    ch = real_chart(1)
    (x1,) = ch.symbols
    with pytest.raises(AssertionError, match="sampled"):
        expr_equal(sympy.sin(x1) ** 2 + sympy.cos(x1) ** 2, 1, ch)
    # exp(x1 (x1 + 1)) and exp(x1) exp(x1**2) are two extra generators apart
    with pytest.raises(AssertionError, match="sampled"):
        expr_equal(sympy.exp(x1 * (x1 + 1)), sympy.exp(x1) * sympy.exp(x1 ** 2), ch)
    monkeypatch.undo()
    assert expr_equal(sympy.exp(x1 * (x1 + 1)), sympy.exp(x1) * sympy.exp(x1 ** 2), ch)


def test_expr_equal_reads_each_side_once(monkeypatch):
    # the sampled comparison compiles the fractions its exact test read
    ch = real_chart(1)
    (x1,) = ch.symbols
    calls = []
    real_read = scalars.read_fractions

    def spy(values, *args, **kwargs):
        calls.append(list(values))
        return real_read(values, *args, **kwargs)

    monkeypatch.setattr(scalars, "read_fractions", spy)
    assert expr_equal(sympy.sin(x1) ** 2 + sympy.cos(x1) ** 2, 1, ch)
    assert calls == [[sympy.sin(x1) ** 2 + sympy.cos(x1) ** 2, 1]]


_PROPERTY_CHART = Chart("pc", [("z1", "complex"), ("x1", "real")])
_PROPERTY_BUMP = bump_function("xi_h", 0.25, 0.5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gaussian_polys(_PROPERTY_CHART), gaussian_polys(_PROPERTY_CHART),
       gaussian_polys(_PROPERTY_CHART), st.integers(0, 6))
def test_expr_equal_agrees_with_cancel(p, q, r, shape):
    ch = _PROPERTY_CHART
    z1, z1b, _ = ch.symbols
    bump = _PROPERTY_BUMP(z1 * z1b)
    if shape == 0:  # polynomials: equal when p == q or r == 0
        a, b = p * r, q * r
    elif shape == 1:  # one quotient in two spellings: always equal
        assume(not is_structural_zero(sympy.expand(q)))
        a, b = p * r / q, sympy.expand(p * r) / q
    elif shape == 2:  # (p^2 - q^2)/(p - q) = p + q + r: equal when r == 0
        assume(not is_structural_zero(sympy.expand(p - q)))
        a, b = (p ** 2 - q ** 2) / (p - q), p + q + r
    elif shape == 3:  # a bump and pi times one quotient in two spellings
        assume(not is_structural_zero(sympy.expand(q)))
        a, b = sympy.pi * bump * p * r / q, bump * sympy.pi * sympy.expand(p * r) / q
    elif shape == 4:  # pi (p^2 - q^2)/(p - q) = pi (p + q) + r: exact, equal when r == 0
        assume(not is_structural_zero(sympy.expand(p - q)))
        a, b = sympy.pi * (p ** 2 - q ** 2) / (p - q), sympy.pi * (p + q) + r
    elif shape == 5:  # a bump factor: equal when r == 0, else sampled where the bump is 1
        a, b = bump * (p * q + r), bump * sympy.expand(p * q)
    else:  # a float coefficient over a denominator: equal when r == 0, else sampled
        half = sympy.Float(0.5) / (1 + z1 * z1b)
        a, b = half * (p * q + r), half * sympy.expand(p * q)
    # the reference is cancel(together(a - b)) == 0, except that cancel has
    # no generator on a symbol-free difference and leaves constants such as
    # (1 + I/2)**2 - 3/4 - I unexpanded; the expanded numerator of
    # together(a - b) decides those too
    diff = sympy.together(a - b)
    expected = sympy.cancel(diff) == 0 or sympy.expand(diff.as_numer_denom()[0]) == 0
    assert expr_equal(a, b, ch) == expected


_LEGS = st.sampled_from(_PROPERTY_CHART.symbols + (sympy.I,))
# a float, and atoms that are not legs: the name of a leg with other assumptions
_OTHER_LEAVES = st.sampled_from((sympy.Float(0.5), sympy.pi, sympy.Symbol("w"), sympy.Symbol("x1"),
                                 sympy.sin(sympy.Symbol("x1", real=True)),
                                 sympy.sqrt(sympy.Symbol("z1"))))


def _candidates(children):
    return st.one_of(
        st.builds(lambda a, b: a + b, children, children),
        st.builds(lambda a, b: a * b, children, children),
        st.builds(lambda a, n: a ** n, children, st.integers(0, 3)),
        st.builds(lambda a, n: a / n, children, st.integers(1, 4)),
        # an expanded non-constant polynomial divisor.  An unexpanded one
        # may be a constant, such as z1*(1 - I) + z1*(-1 + I) + I, which
        # to_ring reads as the Gaussian rational it is and from_expr refuses
        st.builds(lambda a, d: a / d, children,
                  gaussian_polys(_PROPERTY_CHART).map(sympy.expand)
                  .filter(lambda d: d.free_symbols)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(st.one_of(_LEGS, _LEGS, GAUSSIAN_RATIONALS, _OTHER_LEAVES),
                    _candidates, max_leaves=8))
def test_to_ring_agrees_with_from_expr(expr):
    ch = _PROPERTY_CHART
    if expr.has(sympy.Float):
        assert to_ring(ch, expr) is None
        return
    try:
        expected = ch.ring(expr)
    except ValueError:  # a denominator, a function, pi, a foreign symbol
        expected = None
    assert to_ring(ch, expr) == expected


def test_to_ring_extends_no_ring_for_an_opaque_value():
    ch = Chart("tr", [("z1", "complex"), ("r", "radial")])
    z1, z1b, r = ch.symbols
    zero_base = z1 * (z1 + 1) - z1 ** 2 - z1
    for value in (sympy.sin(z1), sympy.pi * z1, sympy.Float(0.5) * z1, 1 / z1, 1 / zero_base):
        assert to_ring(ch, value) is None
    x1, x1b, xr = ch.ring.gens
    assert to_ring(ch, z1 * z1b / 2 + sympy.I * r) == x1 * x1b / 2 + ch.ring(sympy.I) * xr
    assert set(ch._rings) == {0}


def test_read_fractions_pins_bumps_and_rejects_undefined_values():
    ch = Chart("rf", [("z1", "complex")])
    z1, z1b = ch.symbols
    xi = bump_function("xi_read", 0.25, 0.5)(z1 * z1b)
    # a ring value is read as it is, into the fraction reader's ring
    x1, read_x1 = ch.ring.gens[0], ch.extended_ring(0).gens[0]
    assert read_fractions([xi * z1 + 1, x1], ch, {"xi_read": 1}) == (
        [(read_x1 + 1, {}), (read_x1, {})], ())
    assert read_fractions([xi * z1], ch)[1] == (xi,)
    for value in (sympy.zoo * z1, sympy.nan, 1 / (z1 * (z1 + 1) - z1 ** 2 - z1)):
        with pytest.raises(EvaluationError, match="infinite or undefined value"):
            read_fractions([z1, value], ch)


def test_expr_equal_transcendental_sampled():
    ch = real_chart(1)
    (x1,) = ch.symbols
    assert expr_equal(sympy.sin(2 * x1), 2 * sympy.sin(x1) * sympy.cos(x1), ch)
    assert not expr_equal(sympy.sin(x1), sympy.cos(x1), ch)


# ---------------------------------------------------------------------------
# The compiled evaluation path
# ---------------------------------------------------------------------------


def _complex_chart() -> Chart:
    return Chart("cz", [("z1", "complex"), ("r", "radial")])


def test_compiled_division_by_zero_raises():
    ch = _complex_chart()
    z1 = ch.symbol("z1")
    with pytest.raises(EvaluationError):
        compile_exprs([1 / z1], ch)({"z1": 0, "r": 1.0})
    with pytest.raises(EvaluationError):
        evaluate_expr(1 / z1, ch, {"z1": 0, "r": 1.0})
    assert evaluate_expr(1 / z1, ch, {"z1": 2j, "r": 1.0}) == pytest.approx(-0.5j)


def test_compiled_zero_denominators_raise():
    ch = _complex_chart()
    z1, z1b, _ = ch.symbols
    xi = bump_function("xi_sing", 0.25, 0.5)(z1 * z1b)
    zero_base = z1 * (z1 + 1) - z1 ** 2 - z1  # zero in the ring, not to sympy's Add
    point = {"z1": 0.5, "r": 1.0}
    for c in (1 / (z1 - z1), xi / zero_base, xi * zero_base ** -2 + z1):
        with pytest.raises(EvaluationError):
            compile_exprs([z1, c], ch)(point)
        with pytest.raises(EvaluationError):
            MixedForm(ch, {(): c, (0,): 1}).evaluate_at(point)


def test_compiled_symbol_off_chart_raises():
    ch = real_chart(2)
    x1, _ = ch.symbols
    point = {"x1": 0.5, "x2": 0.25}
    with pytest.raises(EvaluationError):
        compile_exprs([x1 + sympy.Symbol("w")], ch)(point)
    # same name as a leg but not the leg's symbol (different assumptions)
    with pytest.raises(EvaluationError):
        compile_exprs([x1 + sympy.Symbol("x2")], ch)(point)


def test_compiled_opaque_function_without_bump_raises():
    ch = real_chart(1)
    (x1,) = ch.symbols
    f = opaque_function("f_unbumped")
    with pytest.raises(EvaluationError):
        compile_exprs([1 + f(x1)], ch)({"x1": 0.3})


def test_bump_classes_carry_their_own_specs():
    low, high = bump_function("xi_s", 0.6, 0.9), bump_function("xi_s", 0.25, 0.5)
    assert low is bump_function("xi_s", 0.6, 0.9) and low is not high
    assert low(sympy.Float(0.5)) == 0 and high(sympy.Float(0.5)) == 1
    assert sympy.diff(low(sympy.Symbol("t")), "t").func.spec == low.spec
    ch = real_chart(1)
    (x1,) = ch.symbols
    assert compile_exprs([low(x1)], ch)({"x1": 0.5})[0] == 0
    assert compile_exprs([high(x1)], ch)({"x1": 0.5})[0] == 1
    # one name cannot stand for two specs in compiled code
    with pytest.raises(EvaluationError):
        compile_exprs([low(x1) + high(x1)], ch)


def test_compiled_bumps_match_spec_in_window():
    xi = bump_function("xi_c", 0.25, 0.5)
    spec = xi.spec
    ch = _complex_chart()
    z1, z1b, r = ch.symbols
    at_r = compile_exprs([xi(r), sympy.diff(xi(r), r)], ch)
    at_z = compile_exprs([xi(sympy.sqrt(z1 * z1b)), sympy.diff(xi(z1 * z1b), z1)], ch)
    for k in range(1, 20):
        t = 0.25 + 0.25 * k / 20
        value, slope = at_r({"z1": 1.0, "r": t})
        assert value == spec.value(t) and slope == spec.derivative(t)
        assert 0.0 < value.real < 1.0 and slope.real > 0.0
        z = t * cmath.exp(0.7j * k)
        value, dz = at_z({"z1": z, "r": 1.0})
        assert value == pytest.approx(spec.value(abs(z)), rel=1e-12)
        # d/dz1 xi(z1 z1b) = z1b xi'(|z1|^2)
        assert dz == pytest.approx(z.conjugate() * spec.derivative(abs(z) ** 2), rel=1e-9)
    assert at_r({"z1": 1.0, "r": 0.1}) == [0, 0]
    assert at_r({"z1": 1.0, "r": 0.9}) == [1, 0]


def test_compiled_non_finite_raises():
    ch = real_chart(1)
    (x1,) = ch.symbols
    with pytest.raises(EvaluationError):
        compile_exprs([sympy.log(x1)], ch)({"x1": 0.0})
    assert compile_exprs([sympy.log(x1)], ch)({"x1": -1.0})[0] == pytest.approx(math.pi * 1j)
    # a float product that overflows raises nothing in Python, and is caught
    with pytest.raises(EvaluationError, match="non-finite value at"):
        compile_exprs([sympy.Float(1e300) * x1], ch)({"x1": 1e10})


def test_compiled_float_beyond_a_double_names_the_number():
    # a Float that no double can hold raises as a rational does, naming it
    ch = Chart("C", [("x", "real")])
    (x,) = ch.symbols
    for text, name in (("1e400", "1e+400"), ("-2.5e999", "-2.5e+999")):
        with pytest.raises(EvaluationError, match=re.escape(f"the number {name} is too large")):
            compile_exprs([sympy.Float(text) * sympy.sin(x)], ch)({"x": 0.5})


def test_compiled_unevaluable_nodes_raise_when_evaluated():
    ch = real_chart(1)
    (x1,) = ch.symbols
    second = sympy.diff(bump_function("xi_2", 0.25, 0.5)(x1), x1, 2)
    for expr in (1 + opaque_function("f_late")(x1), second):
        at = compile_exprs([x1, expr], ch)
        with pytest.raises(EvaluationError, match="has no numeric value"):
            at({"x1": 0.3})


def test_compiled_names_never_collide_with_bump_names():
    # the printed code names legs x<i>, extras e<j> and helpers f<k>, and
    # binds no name from the expressions
    ch = real_chart(2)
    x1, x2 = ch.symbols
    names = ("math", "cmath", "sqrt", "exp", "x0", "e0", "f0", "f1")
    bumps = [bump_function(name, 0.25, 0.5) for name in names]
    extras = sympy.exp(x2) + sympy.sqrt(x1) + sympy.sin(x1)
    at = compile_exprs([sum(b(x1) for b in bumps) * extras, bumps[0](x2) * extras], ch)
    point = {"x1": 0.9, "x2": 0.1}
    expected = cmath.exp(0.1) + cmath.sqrt(0.9) + cmath.sin(0.9)
    assert at(point) == [pytest.approx(len(names) * expected, rel=1e-14), 0]


def test_compiled_negated_real_leg_takes_the_principal_branch():
    # -x1 is -0.5 with a zero imaginary part of sign +, as in sympy, so log
    # and sqrt land on the upper side of their cut
    ch = real_chart(1)
    (x1,) = ch.symbols
    at = compile_exprs([sympy.log(-x1), sympy.sqrt(-x1), sympy.log(-x1) - sympy.log(x1)], ch)
    log_half, root, difference = at({"x1": 0.5})
    assert log_half == pytest.approx(complex(math.log(0.5), math.pi), rel=1e-15)
    assert root == pytest.approx(1j * math.sqrt(0.5), rel=1e-15)
    assert difference == pytest.approx(1j * math.pi, rel=1e-15)
    region = Region.make(ch, "positive", bounds={"x1": (0.1, 1)})
    assert expr_equal(sympy.log(-x1), sympy.log(x1) + sympy.I * sympy.pi, ch, region)


_DIFF_CHART = Chart("dc", [("z1", "complex"), ("x1", "real")])
_DIFF_BUMP = bump_function("xi_diff", 0.25, 0.75)
# added to an argument with a branch cut, so that an argument that is
# identically real or imaginary stays off the cut
_OFF_CUT = sympy.Rational(1, 2) + sympy.I * sympy.Rational(2, 7)
_ENTIRE = (sympy.exp, sympy.sin, sympy.cos, sympy.tan, sympy.sinh, sympy.cosh, sympy.tanh)
_CUT = (sympy.log, sympy.asin, sympy.acos, sympy.atan, sympy.asinh, sympy.acosh, sympy.atanh)
_PARTS = (sympy.re, sympy.im, sympy.conjugate, sympy.Abs)
_BUMPS = (_DIFF_BUMP, opaque_function("xi_diff", _DIFF_BUMP.spec, 1))
_DIFF_LEAVES = st.one_of(
    st.sampled_from(_DIFF_CHART.symbols),
    st.sampled_from((sympy.I, sympy.pi, sympy.E, sympy.Float(0.37), sympy.Float(-1.25))),
    st.builds(sympy.Rational, st.integers(-3, 3), st.integers(1, 4)),
)
_EXPONENTS = st.one_of(
    st.sampled_from((sympy.Rational(1, 2), -sympy.Rational(1, 2), sympy.Rational(1, 3),
                     -sympy.Rational(2, 3), sympy.Float(0.7))),
    st.sampled_from(_DIFF_CHART.symbols),
)


def _diff_nodes(children):
    return st.one_of(
        st.builds(lambda a, b: a + b, children, children),
        st.builds(lambda a, b: a * b, children, children),
        st.builds(lambda a, n: a ** n, children, st.integers(-2, 3)),
        st.builds(lambda a, q: (a + _OFF_CUT) ** q, children, _EXPONENTS),
        st.builds(lambda f, a: f(a), st.sampled_from(_ENTIRE + _PARTS), children),
        st.builds(lambda f, a: f(a + _OFF_CUT), st.sampled_from(_CUT), children),
        # a bump's argument is real
        st.builds(lambda f, a: f(sympy.Abs(a)), st.sampled_from(_BUMPS), children),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.recursive(_DIFF_LEAVES, _diff_nodes, max_leaves=6), st.integers(0, 2 ** 16))
def test_compiled_extras_match_sympy_evaluation(expr, seed):
    assume(not expr.has(*scalars._NON_FINITE))
    ch = _DIFF_CHART
    at = compile_exprs([expr], ch)
    rng = random.Random(seed)
    for _ in range(3):
        point = {"z1": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), "x1": rng.uniform(-1, 1)}
        subs = {ch.symbol(n): v for n, v in ch.point(point).items()}
        # a bump folds to its spec's value at a real number, so its
        # argument, real but not always folded by sympy, is evaluated first
        value = expr.subs(subs).replace(lambda n: n.func in _BUMPS,
                                        lambda n: n.func(sympy.re(sympy.N(n.args[0]))))
        want = complex(sympy.N(value))
        (got,) = at(point)
        assert abs(got - want) <= 1e-12 * abs(want), (expr, point, got, want)
