"""Exterior algebra kernel: exact identities on randomized instances."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.rings import PolyElement

import gcx
import gcx.forms as forms_module
import gcx.scalars as scalars_module
from gcx.poly import GaussPoly

from conftest import (
    gaussian_polys,
    random_form,
    random_polynomial_map,
    random_poly,
    random_section,
    random_vector,
    real_chart,
    ring_coefficients,
)
from gcx import (
    Chart,
    CoordinateMap,
    FormError,
    GeneralizedSection,
    Interval,
    MixedForm,
    Region,
    RegionError,
    bump_function,
    check_integrable,
    clifford,
    courant_bracket,
    d,
    everywhere,
    exp_form,
    form_equal,
    interior,
    load_scenario,
    pairing,
    parse_scenario,
    pullback,
    validate_surgery_params,
    wedge,
)
from gcx.forms import lie_derivative, mukai, vector_bracket
from gcx.runner import corpus_dir, corpus_files, run
from gcx.scalars import compile_exprs, pin_bumps, to_ring
from gcx.spinor import (RADIAL_PROFILES, build_gluck_spinor, build_luttinger_spinor,
                        collar_charts, disk_to_complex_map, luttinger_gluing_map,
                        surgery_exponent, surgery_regions)


def is_structurally_zero(a: MixedForm) -> bool:
    return all(sympy.expand(c) == 0 for c in a.terms.values())


def test_wedge_antisymmetry_basics():
    ch = real_chart(3)
    dx = MixedForm.basis(ch, "x1")
    dy = MixedForm.basis(ch, "x2")
    assert wedge(dx, dx).is_zero()
    assert wedge(dx, dy).coefficient((0, 1)) == 1
    assert wedge(dy, dx).coefficient((0, 1)) == -1


def test_d_squared_zero_200():
    rng = random.Random(0)
    ch = real_chart(4)
    for _ in range(200):
        a = random_form(ch, rng)
        assert is_structurally_zero(d(d(a)))


def test_leibniz_200():
    rng = random.Random(1)
    ch = real_chart(4)
    for _ in range(200):
        ka = rng.randint(0, 2)
        a = random_form(ch, rng, degree=ka)
        b = random_form(ch, rng, degree=rng.randint(0, 2))
        lhs = d(wedge(a, b))
        rhs = wedge(d(a), b) + wedge(a, d(b)).scale((-1) ** ka)
        assert is_structurally_zero(lhs - rhs)


def test_pullback_functoriality_200():
    rng = random.Random(2)
    A, B, C = real_chart(2, "A"), real_chart(2, "B"), real_chart(2, "C")
    for _ in range(200):
        f = random_polynomial_map(A, B, rng)
        g = random_polynomial_map(B, C, rng)
        a = random_form(C, rng)
        lhs = pullback(f.compose(g), a)
        rhs = pullback(f, pullback(g, a))
        assert is_structurally_zero(lhs - rhs)


def test_pullback_commutes_with_d_200():
    rng = random.Random(3)
    A, B = real_chart(2, "A"), real_chart(2, "B")
    for _ in range(200):
        f = random_polynomial_map(A, B, rng)
        a = random_form(B, rng)
        assert is_structurally_zero(pullback(f, d(a)) - d(pullback(f, a)))


def test_interior_squared_zero_200():
    rng = random.Random(4)
    ch = real_chart(4)
    for _ in range(200):
        X = random_vector(ch, rng)
        a = random_form(ch, rng)
        assert is_structurally_zero(interior(X, interior(X, a)))


def test_interior_antiderivation():
    rng = random.Random(5)
    ch = real_chart(4)
    for _ in range(50):
        X = random_vector(ch, rng)
        ka = rng.randint(0, 2)
        a = random_form(ch, rng, degree=ka)
        b = random_form(ch, rng, degree=rng.randint(0, 2))
        lhs = interior(X, wedge(a, b))
        rhs = wedge(interior(X, a), b) + wedge(a, interior(X, b)).scale((-1) ** ka)
        assert is_structurally_zero(lhs - rhs)


def test_pairing_symmetry_200():
    rng = random.Random(6)
    ch = real_chart(3)
    for _ in range(200):
        s1 = random_section(ch, rng)
        s2 = random_section(ch, rng)
        assert sympy.expand(pairing(s1, s2) - pairing(s2, s1)) == 0


def test_exp_form_additivity_200():
    rng = random.Random(7)
    ch = real_chart(6)
    for _ in range(200):
        a = random_form(ch, rng, degree=2)
        b = random_form(ch, rng, degree=2)
        lhs = exp_form(a + b) if not (a + b).is_zero() else MixedForm.one(ch)
        ea = exp_form(a) if not a.is_zero() else MixedForm.one(ch)
        eb = exp_form(b) if not b.is_zero() else MixedForm.one(ch)
        assert is_structurally_zero(lhs - wedge(ea, eb))


def test_exp_form_rejects_odd_degrees():
    ch = real_chart(3)
    with pytest.raises(FormError):
        exp_form(MixedForm.basis(ch, "x1"))


def _reversed(a: MixedForm) -> MixedForm:
    """sigma(a): a k-form times (-1)^(k(k-1)/2)."""
    return MixedForm(a.chart, {k: (-1) ** (len(k) * (len(k) - 1) // 2) * c
                               for k, c in a.terms.items()})


@pytest.mark.parametrize("dim", [4, 6])
def test_mukai_is_the_top_block_of_the_reversed_wedge_and_graded_symmetric(dim):
    # (a, b) = (-1)^(dim(dim-1)/2) (b, a), which is (-1)^m (b, a) with m = dim/2
    rng = random.Random(dim)
    ch = real_chart(dim)
    for _ in range(20):
        a, b = random_form(ch, rng, nterms=6), random_form(ch, rng, nterms=6)
        pairing_ab = mukai(a, b)
        assert pairing_ab.degrees in ((), (dim,))
        assert is_structurally_zero(pairing_ab - wedge(_reversed(a), b).degree_block(dim))
        assert is_structurally_zero(pairing_ab - mukai(b, a).scale((-1) ** (dim // 2)))


def test_sort_key_matches_an_inversion_count():
    for k in range(5):
        for key in itertools.product(range(4), repeat=k):
            inversions = sum(1 for i, j in itertools.combinations(range(k), 2) if key[i] > key[j])
            expected = ((), 0) if len(set(key)) < k else (tuple(sorted(key)), (-1) ** inversions)
            assert forms_module._sort_key(iter(key)) == expected


# ---------------------------------------------------------------------------
# Courant bracket against an independent term-by-term oracle
# ---------------------------------------------------------------------------


def _oracle_courant(ch: Chart, X, xi, Y, eta, H3):
    """Direct coordinate computation of the H-twisted Courant bracket.

    Sections are (vector dict, 1-form dict leg->coeff); H3 is a dict of
    increasing index triples -> coefficient.  Every term is computed by
    raw partial derivatives, independent of the library's d / interior /
    Lie-derivative implementations.
    """
    syms = {leg.name: leg.symbol for leg in ch.legs}
    names = [leg.name for leg in ch.legs]

    def get(m, k):
        return sympy.sympify(m.get(k, 0))

    # Lie bracket of vectors
    vec = {}
    for k in names:
        acc = sympy.Integer(0)
        for j in names:
            acc += get(X, j) * sympy.diff(get(Y, k), syms[j])
            acc -= get(Y, j) * sympy.diff(get(X, k), syms[j])
        vec[k] = acc
    # Lie derivative of a 1-form: (L_X w)_k = X^j d_j w_k + w_j d_k X^j
    def lie(V, w):
        out = {}
        for k in names:
            acc = sympy.Integer(0)
            for j in names:
                acc += get(V, j) * sympy.diff(get(w, k), syms[j])
                acc += get(w, j) * sympy.diff(get(V, j), syms[k])
            out[k] = acc
        return out

    # d of a scalar
    def grad(f):
        return {k: sympy.diff(f, syms[k]) for k in names}

    pair_eta_x = sum(get(X, k) * get(eta, k) for k in names)
    pair_xi_y = sum(get(Y, k) * get(xi, k) for k in names)
    lx_eta, ly_xi = lie(X, eta), lie(Y, xi)
    dpair = grad(pair_eta_x - pair_xi_y)
    # i_Y i_X H with H given on increasing triples
    iyix = {k: sympy.Integer(0) for k in names}
    for (i, j, k), c in H3.items():
        for perm, sign in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            a, b, c2 = perm
            iyix[names[c2]] += sign * c * get(X, names[a]) * get(Y, names[b])
    cov = {
        k: lx_eta[k] - ly_xi[k] - sympy.Rational(1, 2) * dpair[k] + iyix[k]
        for k in names
    }
    return vec, cov


def test_courant_bracket_vs_oracle_50():
    rng = random.Random(9)
    ch = real_chart(3)
    names = [leg.name for leg in ch.legs]
    for _ in range(50):
        s1, s2 = random_section(ch, rng), random_section(ch, rng)
        H = random_form(ch, rng, degree=3)
        got = courant_bracket(s1, s2, H)
        xi = {names[k[0]]: c for k, c in s1.covector.terms.items()}
        eta = {names[k[0]]: c for k, c in s2.covector.terms.items()}
        H3 = dict(H.terms)
        vec, cov = _oracle_courant(ch, s1.vector_map, xi, s2.vector_map, eta, H3)
        got_vec = got.vector_map
        for k in names:
            assert sympy.expand(sympy.sympify(got_vec.get(k, 0)) - vec[k]) == 0
            idx = ch.leg_index(k)
            assert sympy.expand(got.covector.coefficient((idx,)) - cov[k]) == 0


def test_vector_bracket_jacobi():
    rng = random.Random(10)
    ch = real_chart(3)
    for _ in range(25):
        X, Y, Z = (random_vector(ch, rng) for _ in range(3))
        ab = vector_bracket(X, Y, ch)
        bc = vector_bracket(Y, Z, ch)
        ca = vector_bracket(Z, X, ch)
        total = {}
        for first, second in ((ab, Z), (bc, X), (ca, Y)):
            term = vector_bracket(first, second, ch)
            for k, v in term.items():
                total[k] = total.get(k, sympy.Integer(0)) + v
        assert all(sympy.expand(v) == 0 for v in total.values())


def test_lie_derivative_cartan_consistency():
    rng = random.Random(11)
    ch = real_chart(3)
    for _ in range(25):
        X = random_vector(ch, rng)
        a = random_form(ch, rng)
        lhs = lie_derivative(X, d(a))
        rhs = d(lie_derivative(X, a))
        assert is_structurally_zero(lhs - rhs)


def test_form_equal_detects_difference():
    ch = real_chart(2)
    x1 = ch.symbol("x1")
    a = MixedForm.scalar(ch, x1 ** 2)
    b = MixedForm.scalar(ch, x1 ** 2 + sympy.Rational(1, 10 ** 6))
    assert form_equal(a, a)
    assert form_equal(a, a).key is None
    assert not form_equal(a, b)


def test_form_equal_names_first_differing_key():
    ch = real_chart(3)
    x1, x2, x3 = ch.symbols
    a = MixedForm(ch, {(): x1, (0,): x2, (1, 2): x3})
    b = MixedForm(ch, {(): x1, (0,): x2 + 1, (1, 2): 2 * x3})
    result = form_equal(a, b)
    assert not result and result.key == (0,)
    assert form_equal(a, MixedForm(ch, {(): x1, (0,): x2, (1, 2): -x3})).key == (1, 2)


def test_zero_coefficients_dropped_structurally():
    ch = real_chart(2)
    x1, x2 = ch.symbols
    form = MixedForm(ch, {(0,): sympy.Float(0.0), (1,): sympy.Integer(0), (): x1 - x1, (0, 1): x2})
    assert form.terms == {(0, 1): x2}
    assert MixedForm.scalar(ch, sympy.Float(0.0)).is_zero()
    assert GeneralizedSection.make(ch, {"x1": sympy.Float(0.0)}).is_zero()


def test_section_accepts_ring_element_coefficients():
    ch = Chart("C", [("z1", "complex"), ("z2", "complex")])
    rho = MixedForm.scalar(ch, ch.symbol("z2")) + MixedForm.basis(ch, "z1")
    from_ring = GeneralizedSection.make(ch, {"z1": ch.ring.gens[0]})
    from_symbol = GeneralizedSection.make(ch, {"z1": ch.symbol("z1")})
    assert from_ring.vector == from_symbol.vector
    assert form_equal(clifford(from_ring, rho), clifford(from_symbol, rho))
    z1z2 = ch.symbol("z1") * ch.symbol("z2")
    from_product = GeneralizedSection.make(ch, {"z1": ch.ring.gens[0] * ch.ring.gens[2]})
    assert from_product.vector == GeneralizedSection.make(ch, {"z1": z1z2}).vector


def test_ring_element_of_another_chart_is_refused():
    # read as an expression, it would carry the other chart's legs as
    # foreign symbols
    C = Chart("C", [("z1", "complex")])
    D = Chart("D", [("w1", "complex")])
    w1 = D.ring.gens[0]
    with pytest.raises(FormError, match="coefficient chart mismatch"):
        MixedForm(C, {(0,): w1})
    with pytest.raises(FormError, match="coefficient chart mismatch"):
        MixedForm.basis(C, "z1").scale(w1)
    with pytest.raises(FormError, match="coefficient chart mismatch"):
        interior({"z1": w1}, MixedForm.basis(C, "z1"))
    with pytest.raises(FormError, match="coefficient chart mismatch"):
        GeneralizedSection.make(C, {"z1": w1})


def test_section_stores_its_vector_as_read(monkeypatch):
    sc = parse_scenario("chart C = complex z1, complex z2\nspinor s = on C; rho z1 + dz1^dz2; "
                        "vector z1b = 0, z2 = 3*z1b; covector 0*dz1\n")
    C, s = sc.charts["C"], sc.spinors["s"]
    z1, z1b, z2, z2b = C.ring.gens
    # the structural zero is left out, and 3*z1b stays a ring element
    assert s.certificate.vector == (("z2", 3 * z1b),)
    assert isinstance(s.certificate.vector_map["z2"], GaussPoly)
    seen = []
    scalar_of = forms_module.scalar_of

    def spy(chart, value):
        seen.append(value)
        return scalar_of(chart, value)

    monkeypatch.setattr(forms_module, "scalar_of", spy)
    check_integrable(s)
    assert seen and all(isinstance(v, GaussPoly) for v in seen)


def test_ring_vectors_pair_and_bracket_as_expressions():
    ch = Chart("C", [("z1", "complex"), ("x1", "real")])
    z1, z1b, x1 = ch.symbols
    X = {"z1": z1 * x1 / 3, "x1": sympy.Integer(2)}
    Y = {"z1b": x1 ** 2, "z1": sympy.I * z1b}
    ring_X, ring_Y = ({k: to_ring(ch, v) for k, v in V.items()} for V in (X, Y))
    xi = MixedForm(ch, {(0,): z1b, (2,): sympy.sin(x1)})
    eta = MixedForm(ch, {(1,): x1 / 2, (2,): z1})
    s1, s2 = GeneralizedSection.make(ch, ring_X, xi), GeneralizedSection.make(ch, ring_Y, eta)
    assert all(isinstance(v, GaussPoly) for _, v in s1.vector + s2.vector)
    # eta(X) = z1 * 2 and xi(Y) = z1b * i z1b
    assert sympy.expand(pairing(s1, s2) - (2 * z1 + sympy.I * z1b ** 2) / 2) == 0
    bracket = vector_bracket(X, Y, ch)
    assert set(vector_bracket(ring_X, ring_Y, ch)) == set(bracket)
    for name, value in vector_bracket(ring_X, ring_Y, ch).items():
        assert sympy.expand(value - bracket[name]) == 0


def test_vector_bracket_converts_each_ring_entry_once(monkeypatch):
    ch = Chart("C", [("z1", "complex"), ("z2", "complex"), ("x1", "real"), ("r", "radial")])
    z1, z1b, z2, z2b, x1, r = ch.symbols
    X = {"z1": z1 * x1 / 3 + z2b, "z2b": r ** 2 - sympy.I * z1, "x1": sympy.Integer(2),
         "r": x1 * z2}
    Y = {"z1b": x1 ** 2, "z1": sympy.I * z1b * r, "z2": z2 * z2b / 5}
    ring_X, ring_Y = ({k: to_ring(ch, v) for k, v in V.items()} for V in (X, Y))
    bracket = vector_bracket(X, Y, ch)
    calls = []
    original = GaussPoly.as_expr

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GaussPoly, "as_expr", counted)
    got = vector_bracket(ring_X, ring_Y, ch)
    assert len(calls) <= len(ring_X) + len(ring_Y)
    assert set(got) == set(bracket)
    for name, value in got.items():
        assert sympy.expand(value - bracket[name]) == 0


# ---------------------------------------------------------------------------
# Compiled evaluation against a subs + N reference
# ---------------------------------------------------------------------------


def _reference_values(form: MixedForm, point, region) -> dict:
    """Pin, cancel, then sympy subs + N: an evaluation independent of compile_exprs."""
    pins = region.bump_map if region is not None else {}
    subs = {form.chart.symbol(n): v for n, v in form.chart.point(point).items()}
    out = {}
    for key, c in form.terms.items():
        c = sympy.cancel(sympy.together(pin_bumps(c, pins)))
        if not c.is_zero:
            out[key] = complex(sympy.N(c.subs(subs)))
    return out


def _assert_matches_reference(form: MixedForm, region, seed: int, points: int = 3):
    rng = random.Random(seed)
    sampler = region if region is not None else everywhere(form.chart)
    for _ in range(points):
        pt = sampler.sample(rng)
        got = form.evaluate_at(pt, region)
        want = _reference_values(form, pt, region)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), (key, got[key], value)


def test_evaluate_at_matches_reference_cor_2_8():
    sc = load_scenario(corpus_dir() / "cor_2_8.gcx")
    _assert_matches_reference(sc.spinors["s"].rho, None, seed=0)


@pytest.mark.parametrize("name", ["core", "annulus"])
def test_evaluate_at_matches_reference_luttinger(name):
    s = build_luttinger_spinor((1, 3, 1, 2))
    region = surgery_regions(s.chart)[name]
    _assert_matches_reference(s.rho, region, seed=1)
    _assert_matches_reference(d(s.rho), region, seed=2, points=1)


@pytest.mark.parametrize("name", ["core", "annulus", None])
def test_evaluate_at_matches_reference_gluck(name):
    s = build_gluck_spinor((1, 3, 1, 2))
    region = surgery_regions(s.chart, squared=True)[name] if name else None
    _assert_matches_reference(s.rho, region, seed=3)


_REMOVABLE = (
    "chart C = complex z1, complex z2\n"
    "spinor a = (z1**2 - 1)/(z1 - 1) + dz1^dz2\n"
    "spinor b = (z1 - 1)/(z1**2 - 1) + dz1^dz2\n"
    "spinor c = (z1*z2 - z2)/(z1**2 - 1) + dz1^dz2\n"
)


def test_evaluate_at_needs_no_lambdify_or_cancel(monkeypatch):
    rho = load_scenario(corpus_dir() / "cor_2_8.gcx").spinors["s"].rho
    probes = parse_scenario(_REMOVABLE).spinors
    legs = {"z2": 0.4, "x1": 0.1, "y1": 0.2, "x2": 0.3, "y2": 0.4}
    cases = [(rho, {**legs, "z1": z1}) for z1 in (0, 0.7)]
    cases += [(probes[name].rho, {"z1": 1, "z2": 0.5}) for name in "abc"]
    want = [_reference_values(form, pt, None) for form, pt in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("sympy printed or cancelled a coefficient")

    for name in ("lambdify", "cancel", "together"):
        monkeypatch.setattr(sympy, name, forbidden)
    for (form, pt), values in zip(cases, want):
        got = form.evaluate_at(pt)
        assert got.keys() == values.keys()
        for key, value in values.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), (key, got[key], value)
    # the removable singularities at z1 = 1 are gone
    assert [want[k][()] for k in (2, 3, 4)] == [2, 0.5, 0.25]


def test_form_compiles_once_per_pin_set(monkeypatch):
    compiled = []

    def counting(exprs, chart, pins=None):
        compiled.append(len(exprs))
        return compile_exprs(exprs, chart, pins)

    monkeypatch.setattr(forms_module, "compile_exprs", counting)
    s = build_luttinger_spinor((1, 3, 1, 2))
    regions = surgery_regions(s.chart)
    rng = random.Random(0)
    for name in ("core", "annulus", "core", "annulus"):
        for _ in range(3):
            s.rho.evaluate_at(regions[name].sample(rng), regions[name])
    assert len(compiled) == 2
    # a different region with the same pins reuses the compiled coefficients
    same_pins = Region.make(s.chart, "inner", bounds={"z1": (0.05, 0.2)}, bump_values={"xi": 0})
    s.rho.evaluate_at(same_pins.sample(rng), same_pins)
    assert len(compiled) == 2


def test_pinned_bump_zeroes_second_derivatives_in_form_equal():
    ch = Chart("C", [("z1", "complex"), ("z2", "complex")])
    xi = bump_function("xi", 0.25, 0.5)
    z1, z1b = ch.symbol("z1"), ch.symbol("z1b")
    f = MixedForm.basis(ch, "z2").scale(sympy.diff(xi(z1 * z1b), z1) / z1)
    plateau = Region.make(ch, "A", bounds={"z1": (0.8, 0.9)}, bump_values={"xi": 1})
    assert form_equal(d(f), MixedForm.zero(ch), region=plateau)


def test_region_with_an_empty_window_cannot_sample():
    ch = Chart("C", [("z1", "complex"), ("x", "real")])
    rng = random.Random(0)
    backwards = Region.make(ch, "backwards", bounds={"z1": (0.5, 0.2), "x": (0, 1)})
    with pytest.raises(RegionError, match="region 'backwards' leaves no room to sample 'z1'"):
        backwards.sample(rng)
    just_x = Region.make(ch, "x only", bounds={"x": (2, 1)})
    with pytest.raises(RegionError, match="'x': its window \\(2, 1\\) is empty"):
        just_x.sample(rng)


@pytest.mark.parametrize("kind, bound, nonzero, window", [
    # nonzero would start |z1| at 0.25, above the bound's 0.2; 0.02 > 0 excludes 0
    ("complex", Interval(0.02, 0.2), True, (0.02, 0.2)),
    # the default radial window starts at 0.25; below 0.1 it starts at half of it
    ("radial", Interval(None, 0.1), False, (0.05, 0.1)),
    # the default modulus window ends at 2; above 3 it is one width, 2, wide
    ("complex", Interval(3.0, None), False, (3.0, 5.0)),
], ids=["nonzero modulus", "radial upper bound", "modulus lower bound"])
def test_region_keeps_the_given_end_where_the_default_window_is_empty(kind, bound, nonzero, window):
    ch = Chart("C", [("u", kind)])
    region = Region.make(ch, "R", bounds={"u": bound}, nonzero=["u"] if nonzero else [])
    rng = random.Random(0)
    for _ in range(200):
        value = abs(region.sample(rng)["u"])
        assert window[0] <= value <= window[1]


def test_region_sampling_of_a_non_empty_window_is_unchanged():
    ch = Chart("C", [("z1", "complex"), ("r", "radial"), ("x", "real")])
    region = Region.make(ch, "R", bounds={"z1": (0.1, 1.0), "x": (None, 1.0)},
                         nonzero=["z1"])
    rng = random.Random(3)
    radius, angle, r, x = (rng.uniform(0.25, 1.0), rng.uniform(0.0, 2 * math.pi),
                           rng.uniform(0.25, 2.0), rng.uniform(-2.0, 1.0))
    point = region.sample(random.Random(3))
    assert point["z1"] == radius * complex(math.cos(angle), math.sin(angle))
    assert (point["r"], point["x"]) == (r, x)


def test_evaluation_loads_no_numpy_star_import():
    code = (
        "import sys, gcx\n"
        "from gcx.spinor import build_luttinger_spinor, surgery_regions\n"
        "s = build_luttinger_spinor((1, 3, 1, 2))\n"
        "core = surgery_regions(s.chart)['core']\n"
        "import random\n"
        "assert s.rho.evaluate_at(core.sample(random.Random(0)), core)\n"
        "assert 'numpy.f2py' not in sys.modules, 'numpy.f2py was imported'\n"
        "from gcx.runner import corpus_dir, load_scenario, run\n"
        "assert all(run(load_scenario(p)).ok for p in sorted(corpus_dir().glob('*.gcx')))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(gcx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Ring forms against an expression reference
# ---------------------------------------------------------------------------

_RING_CHART = Chart("ring6", [("z1", "complex"), ("z2", "complex"),
                              ("x1", "real"), ("y1", "real")])
_POLY = gaussian_polys(_RING_CHART)


def _keys(max_degree: int = 3, exact: int | None = None):
    legs = st.integers(0, _RING_CHART.dim - 1)
    if exact is not None:
        keys = st.sets(legs, min_size=exact, max_size=exact)
    else:
        keys = st.sets(legs, max_size=max_degree)
    return keys.map(lambda k: tuple(sorted(k)))


def _coefficient_dicts(keys):
    return st.dictionaries(keys, _POLY, min_size=1, max_size=3)


def _ring_form(exprs: dict) -> MixedForm:
    return MixedForm(_RING_CHART, {k: to_ring(_RING_CHART, c) for k, c in exprs.items()})


def _sorted_sign(key) -> tuple[tuple[int, ...], int]:
    inversions = sum(1 for i in range(len(key)) for j in range(i + 1, len(key))
                     if key[i] > key[j])
    return tuple(sorted(key)), (-1) ** inversions


def _ref_add(data: dict, key, value):
    data[key] = sympy.expand(data.get(key, 0) + value)


def _ref_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if not set(k1) & set(k2):
                key, sign = _sorted_sign(k1 + k2)
                _ref_add(out, key, sign * c1 * c2)
    return out


def _ref_d(a: dict, chart: Chart = _RING_CHART) -> dict:
    out: dict = {}
    for key, c in a.items():
        for j, sym in enumerate(chart.symbols):
            if j not in key:
                nkey, sign = _sorted_sign((j,) + key)
                _ref_add(out, nkey, sign * sympy.diff(c, sym))
    return out


def _assert_terms_equal(form: MixedForm, ref: dict):
    assert ring_coefficients(form) is not None, "expected a ring form"
    for key in set(form.terms) | set(ref):
        assert sympy.expand(form.coefficient(key) - ref.get(key, 0)) == 0, key


_RING_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@_RING_SETTINGS
@given(_coefficient_dicts(_keys()), _coefficient_dicts(_keys()))
def test_ring_wedge_matches_reference(a, b):
    _assert_terms_equal(wedge(_ring_form(a), _ring_form(b)), _ref_wedge(a, b))


@_RING_SETTINGS
@given(_coefficient_dicts(_keys()))
def test_ring_d_and_conjugate_match_reference(a):
    form = _ring_form(a)
    _assert_terms_equal(d(form), _ref_d(a))
    legs = _RING_CHART.legs
    swap = {leg.symbol: legs[leg.conj].symbol for leg in legs}
    swap[sympy.I] = -sympy.I
    ref: dict = {}
    for key, c in a.items():
        ckey, sign = _sorted_sign(tuple(legs[i].conj for i in key))
        _ref_add(ref, ckey, sign * c.subs(swap, simultaneous=True))
    _assert_terms_equal(form.conjugate(), ref)


@_RING_SETTINGS
@given(_coefficient_dicts(_keys(exact=2)))
def test_ring_exp_form_matches_reference(b):
    ref, power = {(): sympy.Integer(1)}, {(): sympy.Integer(1)}
    for k in range(1, _RING_CHART.dim // 2 + 1):
        power = _ref_wedge(power, b)
        for key, c in power.items():
            _ref_add(ref, key, c / sympy.factorial(k))
    _assert_terms_equal(exp_form(_ring_form(b)), ref)


def _ref_pullback(f: CoordinateMap, a: dict) -> dict:
    """The pullback of the expression coefficients ``a`` along f, built
    from sympy's simultaneous ``subs`` and the reference wedge and d."""
    subs = {leg.symbol: f.table[leg.name] for leg in f.target.legs}
    dlegs = [_ref_d({(): f.table[leg.name]}, f.source) for leg in f.target.legs]
    ref: dict = {}
    for key, c in a.items():
        term = {(): c.subs(subs, simultaneous=True)}
        for i in key:
            term = _ref_wedge(term, dlegs[i])
        for k, v in term.items():
            _ref_add(ref, k, v)
    return ref


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_coefficient_dicts(_keys()), st.lists(_POLY, min_size=4, max_size=4))
def test_ring_pullback_matches_reference(a, images):
    ch = _RING_CHART
    f = CoordinateMap.make(ch, ch, dict(zip(("z1", "z2", "x1", "y1"), images)))
    _assert_terms_equal(pullback(f, _ring_form(a)), _ref_pullback(f, a))


def _assert_matches_pullback_reference(f: CoordinateMap, a: MixedForm):
    got = pullback(f, a)
    # xreplace is a complete substitution only for trees with no bound variable
    assert not any(c.has(sympy.Derivative, sympy.Subs) for c in got.terms.values())
    subs = {leg.symbol: f.table[leg.name] for leg in f.target.legs}
    # the degree-0 part is the substituted coefficient itself, node for node
    assert got.terms.get(()) == (a.terms[()].subs(subs, simultaneous=True)
                                 if () in a.terms else None)
    # sympy distributes a rational factor over a sum depending on the order
    # of the products, so higher degrees are compared as rational functions
    # of their expanded atoms
    ref = _ref_pullback(f, dict(a.terms))
    for key in set(got.terms) | set(ref):
        assert sympy.cancel(sympy.expand(got.coefficient(key)) - ref.get(key, 0)) == 0, key


_EXPR_CHART = Chart("expr3", [("z1", "complex"), ("x1", "real")])
_XI_PULL = bump_function("xi_pull", 0.25, 0.5)
_EZ1, _EZ1B, _EX1 = _EXPR_CHART.symbols
_EXPR_ATOMS = (_XI_PULL(sympy.sqrt(_EZ1 * _EZ1B)), sympy.exp(sympy.I * _EX1),
               sympy.log(1 + _EZ1 * _EZ1B), sympy.pi * _EZ1, _EX1 ** 2 - _EZ1B / 3)
# self-maps of the chart: source and target share every symbol name
_SELF_MAPS = (
    CoordinateMap.make(_EXPR_CHART, _EXPR_CHART, {
        "z1": _EZ1B * sympy.exp(sympy.I * _EX1), "x1": sympy.log(1 + _EZ1 * _EZ1B) + _EX1}),
    CoordinateMap.make(_EXPR_CHART, _EXPR_CHART, {
        "z1": sympy.sqrt(2) * _EZ1 + _EX1, "x1": sympy.pi * _EX1}),
    CoordinateMap.make(_EXPR_CHART, _EXPR_CHART, {"z1": _EZ1B, "x1": _EX1 ** 2}),
)
_EXPR_KEYS = st.sets(st.integers(0, _EXPR_CHART.dim - 1), max_size=2).map(
    lambda k: tuple(sorted(k)))
_EXPR_COEFFICIENTS = st.lists(st.sampled_from(_EXPR_ATOMS), min_size=1, max_size=2).map(
    lambda atoms: sympy.Mul(*atoms))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.dictionaries(_EXPR_KEYS, _EXPR_COEFFICIENTS, min_size=1, max_size=3),
       st.sampled_from(_SELF_MAPS))
def test_expression_pullback_matches_reference(a, f):
    form = MixedForm(_EXPR_CHART, a)
    _assert_matches_pullback_reference(f, form)
    _assert_matches_pullback_reference(f, d(form))


def test_d_of_a_bump_holds_no_bound_variable():
    # an opaque function differentiates to its named derivative
    dxi = d(MixedForm.scalar(_EXPR_CHART, _EX1 * _EXPR_ATOMS[0]))
    names = {node.func.__name__ for c in dxi.terms.values() for node in c.atoms(sympy.Function)}
    assert "xi_pull_prime" in names
    assert not any(c.has(sympy.Derivative, sympy.Subs) for c in dxi.terms.values())


@pytest.mark.parametrize("profile", RADIAL_PROFILES)
@pytest.mark.parametrize("params", [(0, 1, 1, 0), (1, 3, 1, 2)], ids=str)
def test_collar_pullbacks_match_reference(params, profile):
    s = build_luttinger_spinor(params)
    psi = disk_to_complex_map(collar_charts()[0], s.chart)
    phi, omega_tilde = luttinger_gluing_map(params, profile)
    exponent = surgery_exponent(s.chart, validate_surgery_params(*params))
    for f, a in ((psi, s.rho), (psi, exponent), (phi, omega_tilde),
                 (phi, exp_form(omega_tilde.scale(sympy.I)))):
        _assert_matches_pullback_reference(f, a)


def _ref_interior(vector: dict, a: dict) -> dict:
    out: dict = {}
    for key, c in a.items():
        for t, j in enumerate(key):
            if j in vector:
                _ref_add(out, key[:t] + key[t + 1:], (-1) ** t * vector[j] * c)
    return out


@_RING_SETTINGS
@given(_coefficient_dicts(_keys()),
       st.dictionaries(st.integers(0, _RING_CHART.dim - 1), _POLY, max_size=3))
def test_ring_interior_matches_expression_path(a, vector):
    X = {_RING_CHART.legs[j].name: c for j, c in vector.items()}
    ring = interior(X, _ring_form(a))
    expression = interior(X, MixedForm(_RING_CHART, a))
    _assert_terms_equal(ring, _ref_interior(vector, a))
    for key in set(ring.terms) | set(expression.terms):
        assert sympy.expand(ring.coefficient(key) - expression.coefficient(key)) == 0, key
    # the sqrt(2) component of z1 makes an expression of each coefficient
    # it reaches, and leaves every other coefficient in the ring
    others = {name: c for name, c in X.items() if name != "z1"}
    form = _ring_form(a)
    mixed = interior({**others, "z1": sympy.sqrt(2)}, form)
    reached = {tuple(i for i in key if i != 0) for key in form.coefficients if 0 in key}
    assert reached <= set(mixed.coefficients)
    for key, c in mixed.coefficients.items():
        assert isinstance(c, GaussPoly) == (key not in reached), key
    assert form_equal(mixed, interior(others, form) + interior({"z1": sympy.sqrt(2)}, form))
    # a ring-element field acts on an expression form too
    ring_X = {name: to_ring(_RING_CHART, c) for name, c in X.items()}
    assert form_equal(interior(ring_X, MixedForm(_RING_CHART, a)), ring)


def test_ring_form_equal_compiles_and_samples_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ring forms compared through compiled sampling")

    monkeypatch.setattr(gcx.scalars, "compile_exprs", forbidden)
    monkeypatch.setattr(Region, "sample", forbidden)
    z1, x1 = _RING_CHART.symbols[0], _RING_CHART.symbols[4]
    a = _ring_form({(0,): z1 ** 2, (2,): sympy.I / 3})
    b = _ring_form({(1,): x1 - 1})
    w = wedge(a, b)
    assert form_equal(w, wedge(b, a).scale(-1), region=everywhere(_RING_CHART))
    result = form_equal(w, wedge(b, a))
    assert not result and result.key == (0, 1)
    # w ^ w = 0, since both of its terms contain dz1b
    assert form_equal(exp_form(w), MixedForm.one(_RING_CHART) + w)


def test_ring_d_of_d_has_no_terms():
    ch = _RING_CHART
    z1, z1b, z2, z2b, x1, y1 = ch.symbols
    m = _ring_form({(): z1 ** 2 * z2b + sympy.I * x1 * y1, (0,): z1b * x1 ** 3,
                    (2, 5): (1 + sympy.I) * z2 * y1 ** 2})
    ddm = d(d(m))
    assert ring_coefficients(ddm) == {} and not ddm.terms


def test_form_equal_decides_ring_keys_of_a_mixed_form_in_the_ring(monkeypatch):
    # the pi coefficients differ structurally, so they must be read
    sc = parse_scenario("chart C = complex z1, complex z2\n"
                        "form F on C = z1**2*dz1 + pi*(z2 + 1)*dz2\n"
                        "form G on C = z1*z1*dz1 + (pi*z2 + pi)*dz2\n")
    F, G = sc.forms["F"], sc.forms["G"]
    assert isinstance(F.coefficients[(0,)], GaussPoly)
    assert isinstance(G.coefficients[(0,)], GaussPoly)
    reads = []
    real_read = scalars_module.read_fractions

    def spy(values, *args, **kwargs):
        reads.append(tuple(values))
        return real_read(values, *args, **kwargs)

    monkeypatch.setattr(scalars_module, "read_fractions", spy)
    assert form_equal(F, G)
    assert reads == [(F.coefficients[(2,)], G.coefficients[(2,)])]


@_RING_SETTINGS
@given(_coefficient_dicts(_keys()), _coefficient_dicts(_keys()), st.booleans())
def test_form_equal_reads_a_ring_coefficient_as_its_expression(a, b, same):
    ring_a = _ring_form(a)
    ring_b = ring_a if same else _ring_form(b)
    a_expr = MixedForm(_RING_CHART, {k: c.as_expr() for k, c in ring_a.coefficients.items()})
    assert form_equal(a_expr, ring_b) == form_equal(ring_a, ring_b)


def test_polynomial_coefficients_stay_in_the_ring_beside_an_expression():
    sc = parse_scenario("chart C = complex z1, complex z2\n"
                        "map f : C -> C = z1 -> z1*z2 + z2**2, z2 -> z2\n"
                        "form F on C = z1*dz1 + pi*dz2\n"
                        "form G on C = z1*z2b*dz1 + pi*z1*dz1b\n")
    C, F, G, f = sc.charts["C"], sc.forms["F"], sc.forms["G"], sc.maps["f"]
    z1, z1b, z2, z2b = C.ring.gens
    assert F.coefficients == {(0,): z1, (2,): sympy.pi}
    assert ring_coefficients(F) is None and ring_coefficients(G) is None
    # d(z1*z2b*dz1) = -z1*dz1^dz2b stays in the ring; d(pi*z1*dz1b) is an
    # expression
    dG = d(G)
    assert dG.coefficients[(0, 3)] == -z1
    assert not isinstance(dG.coefficients[(0, 1)], GaussPoly)
    # f*F = (z1*z2 + z2**2)*(z2*dz1 + (z1 + 2*z2)*dz2) + pi*dz2
    pulled = pullback(f, F)
    assert pulled.coefficients[(0,)] == (z1 * z2 + z2 ** 2) * z2
    assert not isinstance(pulled.coefficients[(2,)], GaussPoly)


def test_corpus_pass_converts_no_ring_constant(monkeypatch):
    # a ring constant becomes an expression as its number: no polynomial
    # conversion runs for it, as a factor of an expression or anywhere else
    ground = []
    as_expr = PolyElement.as_expr

    def spy(self, *symbols):
        if self.is_ground:
            ground.append(self)
        return as_expr(self, *symbols)

    monkeypatch.setattr(PolyElement, "as_expr", spy)
    for path in corpus_files():
        assert run(load_scenario(path)).ok, path.name
    assert ground == []
