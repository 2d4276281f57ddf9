"""Opaque bumps, compiled evaluation and sampled scalar equality."""

import cmath
import math
import random

import pytest
import sympy

from conftest import real_chart
from gcx import Chart, register_bump, opaque_function
from gcx.scalars import (
    EvaluationError,
    bump_spec,
    compile_exprs,
    evaluate_expr,
    expr_equal,
    pin_bumps,
)


def test_bump_thresholds():
    xi = register_bump("xi_t", 0.25, 0.5)
    assert xi(sympy.Float(0.1)) == 0
    assert xi(sympy.Float(0.25)) == 0
    assert xi(sympy.Float(0.9)) == 1
    mid = float(xi(sympy.Float(0.4)))
    assert 0.0 < mid < 1.0


def test_bump_derivative_vanishes_on_plateaus():
    register_bump("xi_d", 0.25, 0.5)
    xi = opaque_function("xi_d")
    t = sympy.Symbol("t", real=True)
    deriv = sympy.diff(xi(t), t)
    assert float(deriv.subs(t, 0.1)) == 0.0
    assert float(deriv.subs(t, 0.9)) == 0.0
    assert float(deriv.subs(t, 0.4)) != 0.0


def test_bump_smooth_and_monotone_in_window():
    spec = bump_spec("xi_t") or register_bump("xi_t", 0.25, 0.5) and bump_spec("xi_t")
    values = [spec.value(0.25 + 0.25 * k / 20) for k in range(21)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_pin_bumps_kills_derivatives():
    register_bump("xi_p", 0.25, 0.5)
    xi = opaque_function("xi_p")
    r = sympy.Symbol("r", positive=True)
    expr = xi(r) * r + sympy.diff(xi(r), r)
    assert pin_bumps(expr, {"xi_p": 0}) == 0
    assert pin_bumps(expr, {"xi_p": 1}) == r


def test_expr_equal_algebraic_exact():
    ch = real_chart(2)
    x1, x2 = ch.symbols
    assert expr_equal((x1 + x2) ** 2, x1 ** 2 + 2 * x1 * x2 + x2 ** 2, ch)
    assert not expr_equal(x1 * x2, x1 * x2 + sympy.Rational(1, 10 ** 9), ch)


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


def test_compiled_bumps_match_spec_in_window():
    register_bump("xi_c", 0.25, 0.5)
    spec = bump_spec("xi_c")
    xi = opaque_function("xi_c")
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
    assert at_r({"z1": 1.0, "r": 0.1}).tolist() == [0, 0]
    assert at_r({"z1": 1.0, "r": 0.9}).tolist() == [1, 0]


def test_compiled_non_finite_raises():
    ch = real_chart(1)
    (x1,) = ch.symbols
    with pytest.raises(EvaluationError):
        compile_exprs([sympy.log(x1)], ch)({"x1": 0.0})
    assert compile_exprs([sympy.log(x1)], ch)({"x1": -1.0})[0] == pytest.approx(math.pi * 1j)
