"""Coordinate maps: construction, composition, conjugate auto-fill."""

import pytest
import sympy

from conftest import real_chart, ring_coefficients
from gcx import (Chart, CoordinateMap, MixedForm, build_luttinger_spinor, form_equal,
                 parse_scenario, pullback)
from gcx.forms import scalar_of
from gcx.maps import MapError
from gcx.poly import GaussPoly
from gcx.scalars import to_ring
from gcx.spinor import collar_charts, disk_to_complex_map, luttinger_gluing_map
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
    a = MixedForm(B, {(0,): scalar_of(B, scalar), (0, 1): scalar_of(B, y2)})
    first = pullback(f, a)
    assert (ring_coefficients(first) is not None) == polynomial
    pullback(f, a)
    pullback(f, MixedForm(B, {(1,): scalar_of(B, scalar)}))
    assert len(calls) == B.dim


def test_ring_pullback_along_a_polynomial_map_converts_nothing(monkeypatch):
    # the xreplace substitution of the map's expressions is built only for
    # a coefficient that needs it
    A, B = real_chart(2, "A"), real_chart(2, "B")
    x1, x2 = A.symbols
    f = CoordinateMap.make(A, B, {"x1": x1 * x2, "x2": x1 + x2 ** 2 / 3})
    y1, y2 = B.symbols
    a = MixedForm(B, {(0,): scalar_of(B, y1 * y2 / 2), (0, 1): scalar_of(B, y2)})
    conversions = []

    def spy(c):
        conversions.append(c)
        return sympy.sympify(c)

    monkeypatch.setattr(maps_module, "as_expr", spy)
    monkeypatch.setattr(GaussPoly, "as_expr", spy)
    pulled = pullback(f, a)
    assert conversions == []
    assert ring_coefficients(pulled) is not None
    monkeypatch.undo()
    # the same form with expression coefficients takes the xreplace path
    assert form_equal(pulled, pullback(f, MixedForm(B, {(0,): y1 * y2 / 2, (0, 1): y2})))


MAP_SCENARIO = """\
chart C = complex z1, complex z2, real x1
chart D = complex w1, real u1
map f : C -> D = w1 -> (1/3 + 2*i)*z1*z2b + x1**2/(2 - i), u1 -> x1 - z1*z1b
map g : C -> D = w1 -> sqrt(z1), u1 -> x1
map h : C -> D = w1 -> z1, u1 -> sin(x1)
"""


def test_parsed_polynomial_map_keeps_ring_images():
    sc = parse_scenario(MAP_SCENARIO)
    f, C = sc.maps["f"], sc.charts["C"]
    values = dict(f.assignments)
    # the parser's ring elements, with the conjugate leg filled in the ring
    assert all(isinstance(values[leg.name], GaussPoly) for leg in f.target.legs)
    assert values["w1b"] == C.conjugate(values["w1"])
    images = f.ring_images
    assert [to_ring(C, f.table[leg.name]) for leg in f.target.legs] == list(images)


@pytest.mark.parametrize("name", ["g", "h"])
def test_non_polynomial_map_takes_the_expression_path(name):
    sc = parse_scenario(MAP_SCENARIO)
    cmap, D = sc.maps[name], sc.charts["D"]
    assert cmap.ring_images is None
    form = MixedForm.basis(D, "w1")
    assert ring_coefficients(form) is not None
    assert ring_coefficients(pullback(cmap, form)) is None


def test_collar_maps_are_expression_maps():
    # the gluing phi and the chart change psi that the collar checks pull along
    params = (1, 3, 1, 2)
    phi, _ = luttinger_gluing_map(params)
    polar, _ = collar_charts()
    psi = disk_to_complex_map(polar, build_luttinger_spinor(params).chart)
    r, t0, t1, t2 = polar.symbols
    assert phi.table == {"rt": sympy.sqrt(sympy.log(r * sympy.E)), "s0": t0 + t2,
                         "s1": t1, "s2": 3 * t0 + 2 * t2}
    assert psi.table == {"z1": r * sympy.exp(sympy.I * t0), "z1b": r * sympy.exp(-sympy.I * t0),
                         "z2": t1 + sympy.I * t2, "z2b": t1 - sympy.I * t2}
    for cmap in (phi, psi):
        assert all(isinstance(v, sympy.Expr) for _, v in cmap.assignments)
        assert cmap.ring_images is None
