"""Coordinate maps: construction, composition, conjugate auto-fill."""

import pytest
import sympy

from conftest import real_chart
from gcx import Chart, CoordinateMap, MixedForm, pullback
from gcx.maps import MapError
import gcx.maps as maps_module


def test_identity_pullback_is_identity():
    ch = real_chart(3)
    ident = CoordinateMap.make(ch, ch, {leg.name: leg.symbol for leg in ch.legs})
    a = MixedForm(ch, {(0, 1): ch.symbol("x3"), (): sympy.Integer(2)})
    assert (pullback(ident, a) - a).is_zero()


def test_conjugate_leg_autofill():
    cx = Chart("cx", [("z1", "complex")])
    pol = Chart("pol", [("r", "radial"), ("t", "angle")])
    r, t = pol.symbols
    f = CoordinateMap.make(pol, cx, {"z1": r * sympy.exp(sympy.I * t)})
    assert f.table["z1b"] == r * sympy.exp(-sympy.I * t)


def test_missing_leg_rejected():
    A = real_chart(1, "A")
    B = real_chart(2, "B")
    with pytest.raises(MapError):
        CoordinateMap.make(A, B, {"x1": A.symbol("x1")})


def test_non_source_symbol_rejected():
    A = real_chart(1, "A")
    B = real_chart(1, "B")
    alien = sympy.Symbol("alien")
    with pytest.raises(MapError):
        CoordinateMap.make(A, B, {"x1": alien})


def test_compose_shared_names_simultaneous():
    # source and target share symbol names; composition must not chain
    # substitutions through the shared symbols
    A = real_chart(2, "A")
    B = real_chart(2, "B")
    C = real_chart(2, "C")
    x1, x2 = A.symbols
    f = CoordinateMap.make(A, B, {"x1": x2, "x2": x1})  # swap
    g = CoordinateMap.make(B, C, {"x1": x1 + x2, "x2": x1 - x2})
    gf = f.compose(g)
    assert sympy.expand(gf.table["x1"] - (x1 + x2)) == 0
    assert sympy.expand(gf.table["x2"] - (x2 - x1)) == 0


@pytest.mark.parametrize("polynomial", [True, False], ids=["ring", "expression"])
def test_pullback_differentiates_each_image_once(monkeypatch, polynomial):
    A, B = real_chart(2, "A"), real_chart(2, "B")
    x1, x2 = A.symbols
    f = CoordinateMap.make(A, B, {"x1": x1 * x2, "x2": x1 + x2 ** 2})
    calls = []
    real_d_scalar = maps_module.d_scalar

    def counting(chart, value):
        calls.append(value)
        return real_d_scalar(chart, value)

    monkeypatch.setattr(maps_module, "d_scalar", counting)
    y1, y2 = B.symbols
    scalar = y1 * y2 if polynomial else sympy.exp(y1)
    a = MixedForm(B, {(0,): scalar, (0, 1): y2}).as_ring()
    first = pullback(f, a)
    assert (first.ring_terms is not None) == polynomial
    pullback(f, a)
    pullback(f, MixedForm(B, {(1,): scalar}).as_ring())
    assert len(calls) == B.dim
