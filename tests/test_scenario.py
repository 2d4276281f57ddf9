"""Scenario language: parsing, round trips, error localization."""

import cmath
import math

import pytest
import sympy
from sympy.polys.domains import QQ, QQ_I

from conftest import ring_coefficients
import gcx.scenario as scenario_module
from gcx import MixedForm, ParseError, Region, parse_scenario
from gcx.poly import GaussPoly
from gcx.runner import _Runner, corpus_files, load_scenario, run


SMALL = """\
title "round trip"
chart C = complex z1, complex z2
region disk on C = z1 in (0.05, 1.0)
form omega0 on C = (i/2) * (dz1^dz1b + dz2^dz2b)
spinor rho0 = on C; rho (z1 + dz1^dz2) ^ exp(i * omega0)
check type rho0 at z1 = 0, z2 = 1 expect 2
check integrable rho0 expect true
"""


def test_parse_small_scenario():
    sc = parse_scenario(SMALL)
    assert sc.title == "round trip"
    assert set(sc.charts) == {"C"}
    assert set(sc.regions) == {"disk"}
    assert set(sc.forms) == {"omega0"}
    assert set(sc.spinors) == {"rho0"}
    assert len(sc.commands) == 2


def test_pretty_round_trip():
    sc = parse_scenario(SMALL)
    again = parse_scenario(sc.pretty())
    assert again.statements == sc.statements
    assert set(again.charts) == set(sc.charts)
    assert len(again.commands) == len(sc.commands)
    assert again.pretty() == sc.pretty()


def test_corpus_round_trips():
    for path in corpus_files():
        sc = load_scenario(path)
        again = parse_scenario(sc.pretty())
        assert again.statements == sc.statements, path.name
        assert len(again.commands) == len(sc.commands), path.name


def test_wedge_shared_leg_warns():
    sc = parse_scenario(
        "chart C = complex z1\nform w on C = dz1 ^ dz1\n"
    )
    assert sc.forms["w"].is_zero()
    assert sc.warnings == ["line 2: wedge with repeated differential is zero"]


def test_parse_errors_carry_line_numbers():
    bad = "title \"x\"\nchart C = complex z1\nform w on C = dz9\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError) as err2:
        parse_scenario("form w = dz1\n")  # no chart in scope
    assert "line 1" in str(err2.value)


def test_comments_and_strings():
    sc = parse_scenario(
        'title "has # hash"  # trailing comment\n# full-line comment\n'
    )
    assert sc.title == "has # hash"
    # a run of whitespace, Unicode's included, reads as one space; like
    # "\n", "\x0b" ends a line (str.splitlines), so the form is on line 2
    sc = parse_scenario("chart\tC =\u00a0complex z1,\u3000real \t x1 \x0b"
                        "\u3000form w\ton C = z1 *\u00a0\u3000dx1\t\n")
    assert sc.statements == ["chart C = complex z1, real x1", "form w on C = z1 * dx1"]
    with pytest.raises(ParseError, match="line 2"):
        parse_scenario("chart\tC = complex z1\x0bform\u3000w on C = dz9\n")


def test_mutated_expectation_fails_exactly_one_check():
    src = SMALL.replace("expect 2", "expect 1")
    report = run(parse_scenario(src))
    assert len(report.failures) == 1
    assert "type" in report.failures[0]
    # the unmutated scenario is clean
    assert not run(parse_scenario(SMALL)).failures


@pytest.mark.parametrize("text, value", [
    ("pi", math.pi),
    ("sin(1)", math.sin(1)),
    ("0.3 - 0.8*i", 0.3 - 0.8j),
])
def test_point_values_read_i_as_a_name_only(text, value):
    sc = parse_scenario(
        f"chart C = complex z1\nspinor s = z1\ncheck type s at z1 = {text} expect 0\n"
    )
    assert cmath.isclose(sc.commands[0].payload["point"]["z1"], value)


def test_parser_keeps_polynomial_forms_in_the_ring():
    sc = parse_scenario(
        "chart C = complex z1, real x1\n"
        "form P on C = ((1/3 + 2*i)*z1**2 - x1/2) * dz1 ^ dx1 + conj(z1)**3\n"
        "form Q on C = d(P) + exp(dz1 ^ dz1b) ^ P / (2 - i)\n"
        "form T on C = pi * dz1\n"
        "form U on C = dz1 / (1 + sin(z1))\n"
        "form V on C = dz1 / (1 + z1)\n"
    )
    assert ring_coefficients(sc.forms["P"]) is not None
    assert ring_coefficients(sc.forms["Q"]) is not None
    assert ring_coefficients(sc.forms["T"]) is None
    assert ring_coefficients(sc.forms["U"]) is None
    assert ring_coefficients(sc.forms["V"]) is not None


CHART6 = "chart C = complex z1, complex z2, real x1, real y1\n"


def test_polynomial_form_line_builds_few_forms(monkeypatch):
    calls = []
    init = MixedForm.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MixedForm, "__init__", counting)
    sc = parse_scenario(CHART6 + "form F on C = (1/3 + 2/3*i)*z1*z2**2*dz1 + (5/3)*x1^dy1\n")
    monkeypatch.undo()
    # the scalars stay in the ring; forms are the two differentials, x1 as
    # a wedge factor, the wedge, the two scalings and the sum: 7 of them
    assert len(calls) <= 8
    ring = sc.charts["C"].ring
    z1, z1b, z2, z2b, x1, y1 = ring.gens
    coefficient = ring.ground_new(QQ_I(QQ(1, 3), QQ(2, 3)))
    assert ring_coefficients(sc.forms["F"]) == {
        (0,): coefficient * z1 * z2 ** 2,
        (5,): ring.ground_new(QQ(5, 3)) * x1,
    }


def test_each_token_and_each_statement_end_is_scanned_once(monkeypatch):
    scans = []
    token_re = scenario_module._TOKEN_RE

    class Counting:
        def match(self, text, pos):
            scans.append((text, pos))
            return token_re.match(text, pos)

    monkeypatch.setattr(scenario_module, "_TOKEN_RE", Counting())
    sc = parse_scenario(CHART6 + "form F on C = ((z1 + 2)*dz1)^x1\n"
                        "spinor s = on C; rho z1 + dz1^dz2\n"
                        "check type s at z1 = 0, z2 = 1, x1 = 0, y1 = pi expect 2\n")
    monkeypatch.undo()
    assert set(sc.forms) == {"F"} and set(sc.spinors) == {"s"}
    assert len(scans) == len(set(scans))


@pytest.mark.parametrize("text", ["12", "1.5", "1.", ".5", "007", "i"])
def test_number_tokens_are_ring_constants(text):
    sc = parse_scenario(CHART6 + f"form c on C = {text}\n")
    ring = sc.charts["C"].ring
    value = sympy.I if text == "i" else sympy.Rational(text)
    assert ring_coefficients(sc.forms["c"]) == {(): ring.ground_new(value)}


def test_division_by_a_constant_stays_in_the_ring():
    sc = parse_scenario(CHART6 + "form a on C = z1/(1+i)\nform b on C = z1*(1-i)/2\n"
                        "form M on C = z1*dz1 + 2\nform Z on C = 0*M\n")
    a, b = sc.forms["a"], sc.forms["b"]
    assert ring_coefficients(a) is not None and ring_coefficients(a) == ring_coefficients(b)
    assert sc.forms["Z"].is_zero()


def test_division_by_zero_takes_the_expression_path():
    sc = parse_scenario(CHART6 + "form U on C = 1/(z1 - z1)\n"
                        "check equal on C 1/(z1 - z1), 1 expect equal\n")
    assert ring_coefficients(sc.forms["U"]) is None
    assert sc.forms["U"].coefficient(()) == sympy.zoo
    report = run(sc)
    assert len(report.failures) == 1
    assert "infinite or undefined value in zoo" in report.render()


def test_division_by_a_polynomial_stays_in_the_ring():
    # the quotient is a ring element over a polynomial denominator, with no
    # gcd taken; d, conj and equality keep it there
    sc = parse_scenario(CHART6 + "form U on C = (z1**2 - x1**2)/(z1 - x1) * dz2\n"
                        "form V on C = -2*z1b/(1 + z1*z1b)**2\n"
                        "check equal on C (z1**2 - x1**2)/(z1 - x1), z1 + x1 expect equal\n"
                        "check equal on C d(1/(1 + z1*z1b)), V/2*dz1 + conj(V)/2*dz1b"
                        " expect equal\n"
                        "check equal on C U, (z1 - x1)*dz2 expect different\n")
    u, v = sc.forms["U"].coefficients[(2,)], sc.forms["V"].coefficients[()]
    z1, z1b, _, _, x1, _ = sc.charts["C"].ring.gens
    assert isinstance(u, GaussPoly) and u.den_factors is not None and u == z1 + x1
    assert isinstance(v, GaussPoly) and v * (1 + z1 * z1b) ** 2 == -2 * z1b
    report = run(sc)
    assert report.ok, report.render()


def test_pullback_call_lands_on_the_source_chart():
    text = ("chart C = real x, real y\nchart D = real u, real v\n"
            "map f : C -> D = u -> x + y, v -> x*y\nform w on D = u*dv\n")
    report = run(parse_scenario(
        text + "check equal on C pullback(f, w), (x + y)*(y*dx + x*dy) expect equal\n"
               "check equal on C pullback(f, w), x*dy expect different\n"))
    assert report.ok, report.render()
    with pytest.raises(ParseError, match="line 5: pullback along 'f' lands on 'C'"):
        parse_scenario(text + "check equal on D pullback(f, w), w expect equal\n")


def test_spinor_region_pins_its_bumps():
    # on the core the bump term is pinned away and a constant certificate
    # exists; on the whole chart the bump is opaque to the linear solve
    text = ("chart C = complex z1, complex z2\nbump xi = 0 upto 0.25, 1 from 0.5\n"
            "region core on C = |z1| in (0, 0.25), xi = 0\n"
            "spinor s = on C; rho z1 + xi(z1*z1b)*z2 + dz1^dz2{}\n"
            "check integrable s expect true\n")
    assert "(certificate found by linear solve)" in run(parse_scenario(
        text.format("; region core"))).render()
    report = run(parse_scenario(text.format("")))
    assert not report.ok and "integrability undecided" in report.render()


def test_run_report_lists_parse_warnings_first():
    report = run(parse_scenario("chart C = complex z1\nform w on C = dz1 ^ dz1\n"
                                "check equal on C w, 0 expect equal\n"))
    assert report.ok
    assert report.render().splitlines()[1:3] == [
        "[warn] line 2: wedge with repeated differential is zero",
        "[ok] #1 check equal on C w, 0 expect equal  (got equal)"]


@pytest.mark.parametrize("product", [
    "surgery N = luttinger M at L params (1, 3, 1, 2)",
    "surgery N = gluck M at G params (1, 3, 1, 2)",
    "cover N = M degree 3",
    "branched-cover N = M degree 2",
    "branched-cover N = M degree 2; branch F chi 2 indices 2",
    "branched-cover B = M degree 2; branch F chi 2 indices 2\ncover N = B degree 3",
    "cover B = M degree 2\nbranched-cover N = B degree 2",
])
@pytest.mark.parametrize("sigma", ["; sigma 3", ""], ids=["sigma", "no-sigma"])
def test_parse_time_signature_rule_matches_the_runner(product, sigma):
    # `check sigma N` parses exactly when the product the runner stores has a signature
    text = (f"manifold M = dim 4; chi 2{sigma}\nlocus L on M = kind luttinger\n"
            f"locus G on M = kind gluck\n{product}\n")
    try:
        parse_scenario(text + "check sigma N expect 0\n")
        known = True
    except ParseError as exc:
        assert "the signature of manifold 'N' is unknown" in str(exc)
        known = False
    runner = _Runner(parse_scenario(text), seed=0, samples=1, tol=1e-9)
    assert runner.run().ok
    assert known == (runner.manifolds["N"].signature is not None)


def test_abelianization_of_an_unknown_pi1_fails_its_check():
    report = run(parse_scenario("manifold M = dim 4; chi 2; pi1 unknown\n"
                                "check abelianization M expect rank 0 torsion []\n"))
    assert "[FAIL] #1 check abelianization M expect rank 0 torsion []  " \
           "(manifold 'M' has unknown pi1)" in report.render()


def test_check_equal_skips_singular_sample_points(monkeypatch):
    drawn = []
    real_sample = Region.sample

    def counting(self, rng):
        drawn.append(None)
        return real_sample(self, rng)

    monkeypatch.setattr(Region, "sample", counting)
    text = ("chart C = real x1, real y1, complex z1\nbump xi = 0 upto 0.25, 1 from 0.5\n"
            "check equal on C xi({0})*(sin(y1)**2 + cos(y1)**2), xi({0}) expect equal\n")
    # a bump's argument must be real: sqrt(x1) is not where x1 < 0
    assert run(parse_scenario(text.format("sqrt(x1)"))).ok
    assert len(drawn) > 32
    # and z1 never is
    assert "(sampling cannot avoid singular loci)" in run(parse_scenario(
        text.format("z1"))).render()
