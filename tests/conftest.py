"""Shared helpers: random charts, polynomial forms, maps, and a reader
of ring-valued forms."""

from __future__ import annotations

import random

import sympy
from hypothesis import strategies as st

from gcx import Chart, CoordinateMap, GeneralizedSection, MixedForm
from gcx.poly import GaussPoly


def real_chart(n: int, name: str = "R") -> Chart:
    return Chart(name, [(f"x{i}", "real") for i in range(1, n + 1)])


def ring_coefficients(form: MixedForm) -> dict | None:
    """The form's coefficients when every one is an element of
    ``chart.ring``, else None."""
    if all(isinstance(c, GaussPoly) for c in form.coefficients.values()):
        return form.coefficients
    return None


def random_poly(chart: Chart, rng: random.Random, max_degree: int = 2) -> sympy.Expr:
    """Small random polynomial in the chart symbols with rational coefficients."""
    syms = chart.symbols
    expr = sympy.Integer(rng.randint(-3, 3))
    for _ in range(rng.randint(1, 3)):
        monomial = sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3))
        for _ in range(rng.randint(0, max_degree)):
            monomial *= rng.choice(syms)
        expr += monomial
    return sympy.expand(expr)


def random_form(chart: Chart, rng: random.Random, degree: int | None = None,
                nterms: int = 2) -> MixedForm:
    """Random form with polynomial coefficients; mixed degrees unless fixed."""
    n = len(chart.legs)
    terms = {}
    for _ in range(nterms):
        k = degree if degree is not None else rng.randint(0, n)
        key = tuple(rng.sample(range(n), k))
        terms[key] = random_poly(chart, rng)
    return MixedForm(chart, terms)


def random_vector(chart: Chart, rng: random.Random) -> dict[str, sympy.Expr]:
    out = {}
    for leg in chart.legs:
        if rng.random() < 0.7:
            out[leg.name] = random_poly(chart, rng, max_degree=1)
    return out


def random_section(chart: Chart, rng: random.Random) -> GeneralizedSection:
    return GeneralizedSection.make(
        chart, random_vector(chart, rng), random_form(chart, rng, degree=1)
    )


def random_polynomial_map(source: Chart, target: Chart,
                          rng: random.Random) -> CoordinateMap:
    table = {leg.name: random_poly(source, rng) for leg in target.legs}
    return CoordinateMap.make(source, target, table)


GAUSSIAN_RATIONALS = st.builds(
    lambda re, im, den: sympy.Rational(re, den) + sympy.I * sympy.Rational(im, den),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
)


@st.composite
def gaussian_polys(draw, chart: Chart):
    """Sums of up to four Gaussian-rational monomials of degree at most 2."""
    syms = chart.symbols
    terms = draw(st.lists(
        st.tuples(GAUSSIAN_RATIONALS, st.lists(st.sampled_from(syms), max_size=2)),
        max_size=4))
    return sum((c * sympy.Mul(*mono) for c, mono in terms), sympy.Integer(0))
