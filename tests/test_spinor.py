"""Spinor structures: type, stability, integrability, transforms, gluing."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import gcx

from conftest import GAUSSIAN_RATIONALS, gaussian_polys, ring_coefficients

from gcx import (
    Chart,
    GeneralizedSection,
    MixedForm,
    Region,
    SpinorError,
    SpinorStructure,
    assembly_check,
    b_field_transform,
    build_gluck_spinor,
    build_luttinger_spinor,
    check_integrable,
    check_nondegenerate,
    check_stable,
    clifford,
    d,
    exp_form,
    form_equal,
    lemma_extension_check,
    type_at,
    validate_surgery_params,
    wedge,
)
from gcx.scalars import bump_function, compile_exprs, to_ring
from gcx.runner import corpus_dir, load_scenario
from gcx.scenario import parse_scenario
from gcx.spinor import (
    XI,
    _exact_certificate,
    surgery_certificate,
    surgery_exponent,
    surgery_regions,
)


def _c2():
    return Chart("c2", [("z1", "complex"), ("z2", "complex")])


def _local_model(ch):
    """(z1 + dz1 ^ dz2) ^ e^{i omega0} with omega0 the standard Kahler form."""
    z1 = ch.symbol("z1")
    dz1, dz1b = MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")
    dz2, dz2b = MixedForm.basis(ch, "z2"), MixedForm.basis(ch, "z2b")
    omega0 = (wedge(dz1, dz1b) + wedge(dz2, dz2b)).scale(sympy.I / 2)
    front = MixedForm.scalar(ch, z1) + wedge(dz1, dz2)
    return wedge(front, exp_form(omega0.scale(sympy.I))), omega0, front


def test_local_model_type_jump():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    assert type_at(rho, {"z1": 0.7 + 0.1j, "z2": 0.3}) == 0
    assert type_at(rho, {"z1": 0, "z2": 0.3}) == 2
    assert type_at(rho, {"z1": 0, "z2": -1.2 + 0.4j}) == 2


def test_type_at_rejects_vanishing_spinor():
    ch = _c2()
    rho = MixedForm.scalar(ch, ch.symbol("z1"))
    with pytest.raises(SpinorError):
        type_at(rho, {"z1": 0, "z2": 1})


def _plateau_case():
    """A chart, a bump xi(|z1|) with thresholds 0.25 and 0.5, and the region
    core that pins xi to 0."""
    ch = Chart("C", [("z1", "complex")])
    xi = bump_function("xi", 0.25, 0.5)
    r = sympy.sqrt(ch.symbol("z1") * ch.symbol("z1b"))
    core = Region.make(ch, "core", bounds={"z1": (0.02, 0.25)}, bump_values={"xi": 0})
    return ch, xi(r), core


def test_type_at_point_off_the_pinned_plateau_fails():
    ch, bump, core = _plateau_case()
    dz1, dz1b = MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")
    rho = MixedForm.scalar(ch, 1 - bump) + wedge(dz1, dz1b).scale(bump)
    assert type_at(rho, {"z1": 0.9}) == 2
    # the bounds of core are not the test: z1 = 0 lies on its plateau
    assert type_at(rho, {"z1": 0}, region=core) == 0
    with pytest.raises(SpinorError, match="bump 'xi'.*region 'core' pins it to 0"):
        type_at(rho, {"z1": 0.9}, region=core)
    # a second derivative of the bump is held to the plateau too
    t = sympy.Symbol("t")
    second = sympy.diff(bump.func(t), t, 2).subs(t, bump.args[0])
    with pytest.raises(SpinorError, match="bump 'xi'.*region 'core' pins it to 0"):
        type_at(MixedForm.scalar(ch, 1 + second), {"z1": 0.9}, region=core)


def test_nondegenerate_point_off_the_pinned_plateau_fails():
    ch, bump, core = _plateau_case()
    omega = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")).scale(bump * sympy.I / 2)
    s = SpinorStructure.make(exp_form(omega.scale(sympy.I)), region=core)
    assert not check_nondegenerate(s, {"z1": 0.1})
    with pytest.raises(SpinorError, match="bump 'xi'.*region 'core'"):
        check_nondegenerate(s, {"z1": 0.9})


def test_local_model_integrable_and_stable():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    s = SpinorStructure.make(rho)
    res = check_integrable(s)
    assert res.ok and "linear solve" in res.message
    # the found certificate actually reproduces d rho
    assert form_equal(d(rho), clifford(res.certificate, rho))
    stab = check_stable(s)
    assert stab.stable


def test_expression_held_polynomial_spinor_is_solved_exactly():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    assert ring_coefficients(rho) is None  # built from MixedForm.scalar(ch, z1)
    res = check_integrable(SpinorStructure.make(rho))
    assert res.ok and res.path == "exact" and res.rank == 6
    assert res.certificate.vector_map == {"z2": -1}
    assert res.certificate.covector.terms == {(ch.leg_index("z2b"),): sympy.Rational(-1, 2)}


def _forbid_sampling(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact decision sampled")

    for module in (gcx.scalars, gcx.forms, gcx.spinor):
        for name in ("compile_exprs", "compile_fractions"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(Region, "sample", forbidden)


def test_certificate_1009_is_exact(monkeypatch):
    _forbid_sampling(monkeypatch)
    ch = _c2()
    rho = MixedForm.scalar(ch, ch.symbol("z1")) + wedge(
        MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2")).scale(1009)
    res = check_integrable(SpinorStructure.make(rho))
    assert res.ok and res.path == "exact"
    assert res.certificate.vector_map == {"z2": sympy.Rational(-1, 1009)}
    assert res.certificate.covector.is_zero()


def test_inconsistent_ring_system_fails_exactly(monkeypatch):
    _forbid_sampling(monkeypatch)
    ch = _c2()
    # d(z1^2) = 2 z1 dz1 has a z1 dz1 term no constant certificate can reach
    rho = MixedForm.scalar(ch, ch.symbol("z1") ** 2) + wedge(
        MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2"))
    res = check_integrable(SpinorStructure.make(rho))
    assert not res and res.certificate is None
    assert res.message == "not integrable: no constant certificate"
    assert res.path == "exact" and res.rank is not None


def test_non_polynomial_spinor_is_solved_exactly(monkeypatch):
    _forbid_sampling(monkeypatch)
    ch = _c2()
    z1, z2 = ch.symbol("z1"), ch.symbol("z2")
    res = check_integrable(SpinorStructure.make(MixedForm.scalar(ch, sympy.exp(z2))))
    assert res.ok and res.path == "exact" and res.rank is not None
    assert res.certificate.vector_map == {}
    assert res.certificate.covector.terms == {(ch.leg_index("z2"),): 1}
    res = check_integrable(SpinorStructure.make(MixedForm.scalar(ch, 1 / z1)))
    assert not res and res.path == "exact" and res.certificate is None
    assert res.message == "not integrable: no constant certificate"


# rho = s0 + c w on chart C with w = dz1^dz2, as (s0, c), and the exact
# certificate (X, xi) as {leg: coefficient} maps
_INTEGRABLE = [
    (("exp(z2)", "1"), ({}, {"z2": 1})),
    (("pi*z1", "1"), ({"z2": -sympy.pi}, {})),
    (("E*z1", "1"), ({"z2": -sympy.E}, {})),
    (("exp(z2)*z1", "1009*exp(z2)"), ({"z2": sympy.Rational(-1, 1009)}, {"z2": 1})),
]

# (s0, c) whose linear system is inconsistent with an opaque extra generator
_INTEGRABILITY_UNDECIDED = [
    ("z1*exp(2*z2)", "0"),
    ("sqrt(z1*z1b)", "0"),
    ("xi(sqrt(z1*z1b))*z1", "1"),
    ("(sin(z2)**2 + cos(z2)**2)*z1", "1"),
    ("0.5*z1", "1"),
]


def _rho_name(s0: str, c: str) -> str:
    return {"0": s0, "1": f"{s0} + w"}.get(c, f"{s0} + {c}*w")


def _integrability_spinor(s0: str, c: str) -> SpinorStructure:
    ch = _c2()
    names = {leg.name: leg.symbol for leg in ch.legs} | {"xi": XI}
    w = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2"))
    return SpinorStructure.make(MixedForm.scalar(ch, sympy.sympify(s0, locals=names))
                                + w.scale(sympy.sympify(c, locals=names)))


@pytest.mark.parametrize("spinor, certificate", _INTEGRABLE,
                         ids=[_rho_name(*row[0]) for row in _INTEGRABLE])
def test_integrability_certificates_are_exact(monkeypatch, spinor, certificate):
    s = _integrability_spinor(*spinor)
    _forbid_sampling(monkeypatch)
    res = check_integrable(s)
    assert res.ok and res.path == "exact"
    vector, covector = certificate
    ch = s.chart
    assert res.certificate.vector_map == vector
    assert res.certificate.covector.terms == {(ch.leg_index(k),): v for k, v in covector.items()}


@pytest.mark.parametrize("spinor", _INTEGRABILITY_UNDECIDED,
                         ids=[_rho_name(*row) for row in _INTEGRABILITY_UNDECIDED])
def test_integrability_with_opaque_generators_is_undecided(monkeypatch, spinor):
    s = _integrability_spinor(*spinor)
    _forbid_sampling(monkeypatch)
    with pytest.raises(SpinorError, match="^integrability undecided: no constant certificate"):
        check_integrable(s)


def test_integrability_solve_pins_the_regions_bumps(monkeypatch):
    # xi(|z1|) z1 + w is undecided everywhere, but on the annulus xi is 1
    ch = _c2()
    s = _integrability_spinor("xi(sqrt(z1*z1b))*z1", "1")
    annulus = surgery_regions(ch)["annulus"]
    _forbid_sampling(monkeypatch)
    res = check_integrable(SpinorStructure(ch, s.rho, s.h, annulus))
    assert res.ok and res.path == "exact"
    assert res.certificate.vector_map == {"z2": -1} and res.certificate.covector.is_zero()


_C = "chart C = complex z1, complex z2"
_X = "chart C = real x1, real x2"
_R = "chart C = radial r, radial s"
_CR = "chart C = complex z1, radial r"
_TWO_FORMS = {_C: "dz1^dz2", _X: "dx1^dx2", _R: "dr^ds", _CR: "dz1^dr"}

# s0, chart, (stable, message): check stable's verdict on rho = s0 + a
# 2-form of the chart; the base point and the axes hold the witnesses
_STABILITY = [
    ("z1**2 + z2**2 - 1", _C, (True, "transverse: Groebner basis {1}; "
                                     "type change locus {z1**2 + z2**2 - 1 = 0}")),
    ("z1 + i*z2**2/3", _C, (True, "transverse: Groebner basis {1}; "
                                  "type change locus {z1 + I*z2**2/3 = 0}")),
    ("z1*z2 - 1", _C, (True, "transverse: Groebner basis {1}; type change locus {z1*z2 - 1 = 0}")),
    ("z1**2 - 1/4", _C, (True, "transverse: Groebner basis {1}; "
                               "type change locus {z1**2 - 1/4 = 0}")),
    ("z1**3 - 1", _C, (True, "transverse: Groebner basis {1}; type change locus {z1**3 - 1 = 0}")),
    ("x1 + i*x2", _X, (True, "transverse: Groebner basis {1}; type change locus {x1 + I*x2 = 0}")),
    ("z1*z2", _C, (False, "real differential drops rank at z1 = 0, z2 = 0")),
    ("z1**2", _C, (False, "real differential drops rank at z1 = 0, z2 = 0")),
    ("z1**3 - z2**2", _C, (False, "real differential drops rank at z1 = 0, z2 = 0")),
    ("z1 + z1b", _C, (False, "real differential drops rank at z1 = 0, z2 = 0")),
    ("z1*z1b - 1/4", _C, (False, "real differential drops rank at z1 = 1/2, z2 = 0")),
    ("(z1 - 1)**2", _C, (False, "real differential drops rank at z1 = 1, z2 = 0")),
    ("(1 + i)*x1", _X, (False, "real differential drops rank at x1 = 0, x2 = 0")),
    # off its axis a radial coordinate is 1, not 0
    ("(r - 1)**2", _R, (False, "real differential drops rank at r = 1, s = 1")),
    ("z1*z1b - 1/4", _CR, (False, "real differential drops rank at z1 = 1/2, r = 1")),
    ("3", _C, (True, "degree-0 part has empty zero set")),
]

# s0, chart, the SpinorError's message
_STABILITY_UNDECIDED = [
    ("z1*z1b + 1/4", _C, "stability undecided: no Groebner certificate and no rational real witness"),
    ("pi*z1", _C, "degree-0 part pi*z1 is not a polynomial over QQ_I"),
    ("0", _C, "degree-0 part vanishes identically: not a pure spinor"),
]


def _stability_spinor(s0: str, chart: str) -> SpinorStructure:
    return parse_scenario(f"{chart}\nspinor s = on C; rho {s0} + {_TWO_FORMS[chart]}\n").spinors["s"]


@pytest.mark.parametrize("s0, chart, verdict", _STABILITY,
                         ids=[s0 if chart in (_C, _X) else f"{s0} on {chart.split(' = ')[1]}"
                              for s0, chart, _ in _STABILITY])
def test_stability_verdicts(s0, chart, verdict):
    res = check_stable(_stability_spinor(s0, chart))
    assert (res.stable, res.message) == verdict
    assert (res.locus is None) == (s0 == "3")


@pytest.mark.parametrize("s0, chart, message", _STABILITY_UNDECIDED,
                         ids=[row[0] for row in _STABILITY_UNDECIDED])
def test_stability_undecided_raises(s0, chart, message):
    with pytest.raises(SpinorError, match=re.escape(message)):
        check_stable(_stability_spinor(s0, chart))


def test_stability_never_samples(monkeypatch):
    spinors = [(_stability_spinor(s0, chart), verdict) for s0, chart, verdict in _STABILITY]
    undecided = [(_stability_spinor(s0, chart), message)
                 for s0, chart, message in _STABILITY_UNDECIDED]
    _forbid_sampling(monkeypatch)
    for s, verdict in spinors:
        res = check_stable(s)
        assert (res.stable, res.message) == verdict
    for s, message in undecided:
        with pytest.raises(SpinorError, match=re.escape(message)):
            check_stable(s)


@pytest.mark.parametrize("stem, name", [("cor_2_8", "s"), ("ex_2_9", "s"),
                                        ("prop_3_8", "L"), ("sec_4_gluck", "g")])
def test_corpus_stability_is_certified_without_sampling(monkeypatch, stem, name):
    s = load_scenario(corpus_dir() / f"{stem}.gcx").spinors[name]
    _forbid_sampling(monkeypatch)
    res = check_stable(s)
    assert res.stable and res.locus == s.chart.symbol("z1")
    assert res.message == "transverse: Groebner basis {1}; type change locus {z1 = 0}"


_C2 = _c2()
_C2_POLY = gaussian_polys(_C2)
_C2_KEYS = st.sets(st.integers(0, _C2.dim - 1), max_size=3).map(lambda k: tuple(sorted(k)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.dictionaries(_C2_KEYS, _C2_POLY, min_size=1, max_size=4),
       st.lists(GAUSSIAN_RATIONALS, min_size=2 * _C2.dim, max_size=2 * _C2.dim))
def test_exact_solve_recovers_a_constant_certificate(terms, coeffs):
    ch = _C2
    rho = MixedForm(ch, {k: to_ring(ch, c) for k, c in terms.items()})
    n = ch.dim
    true = GeneralizedSection.make(
        ch, {leg.name: coeffs[i] for i, leg in enumerate(ch.legs)},
        MixedForm(ch, {(i,): to_ring(ch, coeffs[n + i]) for i in range(n)}))
    target = clifford(true, rho)
    assert ring_coefficients(target) is not None
    found, rank, _ = _exact_certificate(rho, target)
    assert found is not None and rank <= 2 * n
    # with free unknowns the certificate need not be unique; its action is
    action = clifford(found, rho)
    assert ring_coefficients(action) is not None and form_equal(action, target)


def test_stability_detects_degenerate_s0():
    # s0 = z1^2 has a non-transverse zero at z1 = 0
    ch = _c2()
    z1 = ch.symbol("z1")
    rho = MixedForm.scalar(ch, z1 ** 2) + wedge(
        MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2")
    )
    s = SpinorStructure.make(rho)
    assert not check_stable(s).stable


def test_nondegenerate_symplectic_spinor():
    # rho = e^{i omega}: (rho, conj(rho)) is a nonzero multiple of omega^2
    ch = _c2()
    _, omega0, _ = _local_model(ch)
    s = SpinorStructure.make(exp_form(omega0.scale(sympy.I)))
    assert check_nondegenerate(s, {"z1": 0.5, "z2": 0.2})
    # a rank-deficient omega makes the pairing vanish
    degenerate = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")).scale(
        sympy.I / 2
    )
    s2 = SpinorStructure.make(exp_form(degenerate.scale(sympy.I)))
    assert not check_nondegenerate(s2, {"z1": 0.5, "z2": 0.2})


def test_nondegenerate_on_an_odd_dimensional_chart_raises():
    ch = Chart("C", [("z1", "complex"), ("x", "real")])
    with pytest.raises(SpinorError, match="odd-dimensional chart"):
        check_nondegenerate(SpinorStructure.make(MixedForm.one(ch)), {"z1": 0.5, "x": 0.1})


def test_nondegenerate_is_invariant_under_a_real_b_field():
    # (e^B rho, e^B conj(rho)) = (rho, conj(rho)) for a real B
    ch = _c2()
    rho, _, _ = _local_model(ch)
    z1, z1b = ch.symbol("z1"), ch.symbol("z1b")
    b = (wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2b")).scale(z1b)
         + wedge(MixedForm.basis(ch, "z1b"), MixedForm.basis(ch, "z2")).scale(z1))
    degenerate = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")).scale(sympy.I / 2)
    for form, verdict in ((rho, True), (exp_form(degenerate.scale(sympy.I)), False)):
        s = SpinorStructure.make(form)
        moved = b_field_transform(s, b)
        assert not form_equal(moved.rho, s.rho)
        for point in ({"z1": 0.5, "z2": 0.2}, {"z1": 0, "z2": 1}, {"z1": 0.3 - 0.8j, "z2": -1j}):
            assert check_nondegenerate(s, point) is verdict
            assert check_nondegenerate(moved, point) is verdict


@pytest.mark.parametrize("scenario, name, point", [
    ("cor_2_8", "s", {"z1": 0.1 + 0.1j, "z2": 0.3 + 0.2j, "x1": 0.3, "y1": 0.3, "x2": 0.3,
                      "y2": 0.3}),
    ("ex_2_9", "s", {"z1": 0.1 + 0.1j, "z2": 0.3 + 0.2j, "x1": 0.3, "y1": 0.3}),
    ("ex_2_9", "sB", {"z1": 0.1 + 0.1j, "z2": 0.3 + 0.2j, "x1": 0.3, "y1": 0.3}),
    ("prop_3_8", "L", {"z1": 0.1 + 0.1j, "z2": 0.3 + 0.2j, "x1": 0.3, "y1": 0.3}),
])
def test_corpus_spinors_are_nondegenerate(scenario, name, point):
    s = load_scenario(corpus_dir() / f"{scenario}.gcx").spinors[name]
    assert check_nondegenerate(s, point)


@pytest.mark.parametrize("z1", [0, 0.4, 0.4j, 0.9, -0.9])
def test_luttinger_spinor_is_nondegenerate(z1):
    # the top coefficient is xi - 3/2: pb xi - aq has no zero for xi in [0, 1]
    assert check_nondegenerate(build_luttinger_spinor((1, 3, 1, 2)), {"z1": z1, "z2": 0.3})


def test_twisting_form_validation():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    with pytest.raises(SpinorError):
        SpinorStructure.make(rho, h=MixedForm.basis(ch, "z1"))  # not a 3-form
    z1 = ch.z1 if hasattr(ch, "z1") else ch.symbol("z1")
    not_closed = wedge(
        wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2")),
        MixedForm.basis(ch, "z2b"),
    ).scale(z1 * ch.symbol("z1b"))
    with pytest.raises(SpinorError):
        SpinorStructure.make(rho, h=not_closed)


# ---------------------------------------------------------------------------
# B-field transforms
# ---------------------------------------------------------------------------


def test_b_transform_composition_law():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    s = SpinorStructure.make(rho)
    b1 = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")).scale(sympy.I)
    b2 = wedge(MixedForm.basis(ch, "z2"), MixedForm.basis(ch, "z2b")).scale(2 * sympy.I)
    once = b_field_transform(b_field_transform(s, b1), b2)
    both = b_field_transform(s, b1 + b2)
    assert form_equal(once.rho, both.rho)
    assert form_equal(once.h, both.h)


def test_b_transform_twists_h_and_certificate():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    s = SpinorStructure.make(rho)
    cert = check_integrable(s).certificate
    s = SpinorStructure(s.chart, s.rho, s.h, s.region, cert)
    z1b = ch.symbol("z1b")
    b = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")).scale(
        sympy.I * z1b * ch.symbol("z1")
    )
    out = b_field_transform(s, b)
    assert form_equal(out.h, d(b).scale(-1))
    # the transported certificate still witnesses twisted integrability
    res = check_integrable(out)
    assert res.ok and res.message == "stored certificate verified"


def test_b_transform_rejects_bad_b():
    ch = _c2()
    rho, _, _ = _local_model(ch)
    s = SpinorStructure.make(rho)
    with pytest.raises(SpinorError):
        b_field_transform(s, MixedForm.basis(ch, "z1"))
    complex_b = wedge(MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z2"))
    with pytest.raises(SpinorError):
        b_field_transform(s, complex_b)


# ---------------------------------------------------------------------------
# Surgery builders
# ---------------------------------------------------------------------------


def test_luttinger_spinor_multiplicity_zero_exact():
    s = build_luttinger_spinor((0, 1, 1, 0))
    ch = s.chart
    i1, i2, i2b = ch.leg_index("z1"), ch.leg_index("z2"), ch.leg_index("z2b")
    assert s.rho.coefficient(()) == ch.symbol("z1")
    assert s.rho.coefficient((i1, i2)) == sympy.Rational(-1, 4)
    assert s.rho.coefficient((i1, i2b)) == sympy.Rational(-3, 4)
    live = {k for k, c in s.rho.terms.items() if not sympy.sympify(c).is_zero}
    assert live == {(), (i1, i2), (i1, i2b)}


def test_luttinger_spinor_integrable_and_typed():
    s = build_luttinger_spinor((1, 3, 1, 2))
    res = check_integrable(s, samples=12)
    assert res.ok and res.message == "stored certificate verified"
    regions = surgery_regions(s.chart)
    assert type_at(s.rho, {"z1": 0.1, "z2": 0.4}, region=regions["core"]) == 0
    assert type_at(s.rho, {"z1": 0.8, "z2": 0.4}, region=regions["annulus"]) == 0
    assert check_stable(s).stable


def test_surgery_certificate_is_smooth():
    ch = _c2()
    for tup in ((0, 1, 1, 0), (1, 3, 1, 2), (1, 2, 2, 3)):
        params = validate_surgery_params(*tup)
        exponent = surgery_exponent(ch, params)
        cert = surgery_certificate(ch, params, exponent)
        z1 = ch.symbol("z1")
        for c in cert.covector.terms.values():
            assert not sympy.denom(sympy.cancel(sympy.together(c))).has(z1)


def test_surgery_certificate_keeps_a_pole_of_mismatched_parameters():
    # the field chosen for (1, 3, 1, 2) leaves dz1/z1 of the (0, 1, 1, 0)
    # exponent uncancelled
    ch = _c2()
    exponent = surgery_exponent(ch, validate_surgery_params(0, 1, 1, 0))
    with pytest.raises(SpinorError, match="failed to desingularize"):
        surgery_certificate(ch, validate_surgery_params(1, 3, 1, 2), exponent)


@pytest.mark.parametrize("build, squared", [(build_luttinger_spinor, False),
                                            (build_gluck_spinor, True)],
                         ids=["luttinger", "gluck"])
@pytest.mark.parametrize("bump", [XI, bump_function("xi", 0.3, 0.7)], ids=["default", "0.3-0.7"])
def test_surgery_regions_pin_the_bump_they_sample(build, squared, bump):
    s = build((1, 3, 1, 2), bump=bump)
    # the bump's argument as the builder wrote it: |z1| or |z1|^2
    (arg,) = {node.args[0] for c in s.rho.terms.values()
              for node in c.find(lambda n: n.func is bump)}
    arg_at = compile_exprs([arg], s.chart)
    regions = surgery_regions(s.chart, bump, squared=squared)
    rng = random.Random(0)
    for name, pin in (("core", 0), ("annulus", 1)):
        assert regions[name].bump_map == {"xi": pin}
        for _ in range(100):
            assert bump.spec.value(arg_at(regions[name].sample(rng))[0].real) == pin


@pytest.mark.parametrize("build", [build_luttinger_spinor, build_gluck_spinor],
                         ids=["luttinger", "gluck"])
def test_surgery_certificate_when_a_is_2q(build):
    # a == 2q leaves no z2 direction to cancel dz1/z1, so X lies along z2b
    s = build((1, 1, 2, 1))
    assert s.certificate.vector_map == {"z2b": 1}
    res = check_integrable(s, samples=10)
    assert res.ok and res.message == "stored certificate verified"


def test_default_luttinger_regions_are_unchanged():
    regions = surgery_regions(_c2())
    assert regions["core"].bound_for("z1") == gcx.Interval(0.02, 0.25)
    assert regions["annulus"].bound_for("z1") == gcx.Interval(0.6, 0.95)


def test_gluck_spinor():
    s = build_gluck_spinor((1, 3, 1, 2))
    res = check_integrable(s, samples=10)
    assert res.ok and res.message == "stored certificate verified"
    pt = {"z1": 0.8, "z2": 0.3, "z3": 0.2 + 0.1j}
    regions = surgery_regions(s.chart)
    assert type_at(s.rho, pt, region=regions["annulus"]) == 0


# ---------------------------------------------------------------------------
# Extension lemma and piecewise assembly
# ---------------------------------------------------------------------------


def test_lemma_profile_discriminates():
    assert lemma_extension_check((0, 1, 1, 0), profile="lemma", samples=16)
    assert not lemma_extension_check((0, 1, 1, 0), profile="paper", samples=16)
    with pytest.raises(SpinorError):
        lemma_extension_check((0, 1, 1, 0), profile="cubic")


def test_lemma_names_the_differing_coefficient():
    res = lemma_extension_check((0, 1, 1, 0), profile="paper", samples=16)
    assert not res
    assert res.name == "dr^dt2"  # the imaginary exponent's radial-angular block
    assert lemma_extension_check((0, 1, 1, 0), samples=16).name is None


def test_lemma_check_loads_no_sympy_physics():
    # sympy.simplify imports sympy.physics.units on its first call
    code = (
        "import sys\n"
        "from gcx.runner import corpus_dir, run\n"
        "assert run(corpus_dir() / 'lemma_3_3.gcx').ok\n"
        "assert 'sympy.physics' not in sys.modules, 'sympy.physics was imported'\n"
    )
    src = str(Path(gcx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_assembly_agrees_on_collar():
    assert assembly_check((0, 1, 1, 0), samples=8)


def test_assembly_uses_its_radial_profile():
    glued = assembly_check((0, 1, 1, 0), profile="paper", samples=8)
    assert not glued
    assert glued.name == "dr^dt0^dt1^dt2"
    with pytest.raises(SpinorError, match="unknown radial profile"):
        assembly_check((0, 1, 1, 0), profile="cubic", samples=8)


def test_assembly_detects_perturbed_b_field(monkeypatch):
    collar = gcx.spinor._collar

    def perturbed(params, profile):
        # scale the real part B0 of the collar exponent by 11/10
        rho, exponent, *rest = collar(params, profile)
        return (rho, exponent + exponent.real_part().scale(sympy.Rational(1, 10)), *rest)

    monkeypatch.setattr(gcx.spinor, "_collar", perturbed)
    assert not assembly_check((0, 1, 1, 0), samples=8)
