"""End-to-end acceptance gate: discrete claims plus property suites."""

import itertools
import random
import time

import sympy

from conftest import (
    random_form,
    random_polynomial_map,
    random_section,
    random_vector,
    real_chart,
)
from gcx import (
    Chart,
    GroupPresentation,
    ManifoldDescriptor,
    MixedForm,
    SpinorStructure,
    SurgeryLocus,
    TopologyError,
    TypeChangeComponent,
    abelianization,
    apply_cover,
    apply_gluck,
    apply_luttinger,
    assembly_check,
    b_field_transform,
    check_integrable,
    check_stable,
    classify_from_surface,
    clifford,
    components_report,
    d,
    exp_form,
    interior,
    lemma_extension_check,
    pairing,
    pullback,
    riemann_hurwitz_check,
    type_at,
    validate_surgery_params,
    wedge,
)
from gcx.chart import everywhere
from gcx.cli import main
from gcx.runner import corpus_dir, run
from test_forms import _oracle_courant, is_structurally_zero


# -- 1. local model ----------------------------------------------------------


def _local_model_chart():
    ch = Chart("C2R4", [
        ("z1", "complex"), ("z2", "complex"),
        ("x1", "real"), ("y1", "real"), ("x2", "real"), ("y2", "real"),
    ])
    dz1, dz1b = MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")
    dz2, dz2b = MixedForm.basis(ch, "z2"), MixedForm.basis(ch, "z2b")
    omega0 = (wedge(dz1, dz1b) + wedge(dz2, dz2b)).scale(sympy.I / 2)
    omega0 = omega0 + wedge(MixedForm.basis(ch, "x1"), MixedForm.basis(ch, "y1"))
    omega0 = omega0 + wedge(MixedForm.basis(ch, "x2"), MixedForm.basis(ch, "y2"))
    front = MixedForm.scalar(ch, ch.symbol("z1")) + wedge(dz1, dz2)
    rho0 = wedge(front, exp_form(omega0.scale(sympy.I)))
    return ch, rho0, omega0


def test_local_model_type_stability_integrability():
    ch, rho0, _ = _local_model_chart()
    rng = random.Random(0)
    region = everywhere(ch)
    for _ in range(10):
        pt = region.sample(rng)
        pt["z1"], pt["z1b"] = 0.0, 0.0
        assert type_at(rho0, pt) == 2
    for _ in range(10):
        pt = region.sample(rng)
        if abs(pt["z1"]) < 1e-3:
            pt["z1"] = 0.5 + 0.5j
            pt["z1b"] = pt["z1"].conjugate()
        assert type_at(rho0, pt) == 0
    s = SpinorStructure.make(rho0)
    assert check_stable(s).stable
    res = check_integrable(s)
    assert res.ok
    residual = d(rho0) - clifford(res.certificate, rho0)
    for _ in range(32):
        values = residual.evaluate_at(region.sample(rng))
        assert all(abs(v) <= 1e-9 for v in values.values())


# -- 2. B-field transform laws -----------------------------------------------


def test_b_field_transform_laws_20_pairs():
    ch = Chart("c2", [("z1", "complex"), ("z2", "complex")])
    dz1, dz1b = MixedForm.basis(ch, "z1"), MixedForm.basis(ch, "z1b")
    dz2, dz2b = MixedForm.basis(ch, "z2"), MixedForm.basis(ch, "z2b")
    rng = random.Random(1)
    region = everywhere(ch)
    for trial in range(20):
        a1 = sympy.Rational(rng.randint(1, 4), rng.randint(1, 3))
        a2 = sympy.Rational(rng.randint(1, 4), rng.randint(1, 3))
        c = sympy.Rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        omega = (wedge(dz1, dz1b).scale(a1) + wedge(dz2, dz2b).scale(a2)).scale(
            sympy.I / 2
        )
        rho = wedge(
            MixedForm.scalar(ch, ch.symbol("z1")) + wedge(dz1, dz2).scale(c),
            exp_form(omega.scale(sympy.I)),
        )
        s = SpinorStructure.make(rho)
        found = check_integrable(s, seed=trial)
        assert found.ok, trial
        s = SpinorStructure(ch, rho, s.h, None, found.certificate)
        beta = random_form(ch, rng, degree=2)
        b = beta + beta.conjugate()
        if b.is_zero():
            b = wedge(dz1, dz1b).scale(sympy.I)
        out = b_field_transform(s, b)
        # H -> H - dB with the certificate transported, still verifying
        assert is_structurally_zero(out.h + d(b))
        res = check_integrable(out, samples=12, seed=trial)
        assert res.ok and res.message == "stored certificate verified", trial
        # type is preserved pointwise, including on the type-change locus
        pts = [region.sample(rng) for _ in range(3)]
        zero = region.sample(rng)
        zero["z1"], zero["z1b"] = 0.0, 0.0
        pts.append(zero)
        for pt in pts:
            assert type_at(rho, pt) == type_at(out.rho, pt)


# -- 3. gluing parameter box ---------------------------------------------------


def test_gluing_parameter_box_exhaustive():
    # the reference tuple, quoted in (p, a, b, q) order as (0, 1, 0, 1)
    validate_surgery_params(0, 1, 1, 0)
    for p, q, a, b in itertools.product(range(-3, 4), repeat=4):
        det = p * b - a * q
        f0, f1 = -a * q, p * b - a * q
        want = abs(det) == 1 and f0 * f1 > 0
        try:
            params = validate_surgery_params(p, q, a, b)
            got = True
        except TopologyError:
            got = False
        assert got == want, (p, q, a, b)
        if got:
            m = params.matrix
            det3 = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert abs(det3) == 1


# -- 4. extension equivalence and assembly -------------------------------------


def test_extension_lemma_and_assembly():
    assert lemma_extension_check((0, 1, 1, 0), samples=64, seed=0)
    assert lemma_extension_check((1, 3, 1, 2), samples=64, seed=0)
    assert assembly_check((0, 1, 1, 0), samples=16, seed=0)


# -- 5. invariant preservation over random descriptors -------------------------


def _valid_param_pool():
    pool = []
    for tup in itertools.product(range(-3, 4), repeat=4):
        try:
            pool.append(validate_surgery_params(*tup))
        except TopologyError:
            pass
    return pool


def test_invariant_preservation_50_descriptors():
    rng = random.Random(2)
    pool = _valid_param_pool()
    complement = GroupPresentation.make(["l1", "l2"], ["[l1,l2]"])
    for trial in range(50):
        dim = rng.choice([4, 6])
        sig = rng.randint(-8, 8) if dim % 4 == 0 else None
        ncomp = rng.randint(0, 2)
        m = ManifoldDescriptor(
            f"M{trial}", dim, rng.randint(-6, 24), signature=sig,
            spin=rng.choice(["spin", "non-spin", "unknown"]),
            components=tuple(TypeChangeComponent.make("T2") for _ in range(ncomp)),
        )
        params = rng.choice(pool)
        kind = rng.choice(["luttinger", "gluck"])
        locus = SurgeryLocus(
            "L", kind, sigma_label="pt", complement=complement,
            meridian="1", circle1="l1", circle2="l2",
        )
        apply_fn = apply_luttinger if kind == "luttinger" else apply_gluck
        out = apply_fn(m, locus, params)
        assert out.euler == m.euler
        assert out.signature == m.signature
        assert len(out.components) == len(m.components) + 1


# -- 6. fundamental group pipelines --------------------------------------------


def _locus(complement):
    return SurgeryLocus(
        "T", "luttinger", sigma_label="pt", complement=complement,
        meridian="1", circle1="l1", circle2="l2",
    )


def test_fundamental_group_pipelines():
    # multiplicity-zero surgery: abelianization ab(pi1 X) + Z
    base = ManifoldDescriptor("X", 4, 12, signature=-8)
    params0 = validate_surgery_params(0, 1, 1, 0)
    trivial = GroupPresentation.make(["l1", "l2"], ["[l1,l2]"])
    out = apply_luttinger(base, _locus(trivial), params0)
    assert (abelianization(out.pi1).rank, abelianization(out.pi1).torsion) == (1, ())
    finite = GroupPresentation.make(
        ["g", "l1", "l2"], ["g^2", "[g,l1]", "[g,l2]", "[l1,l2]"]
    )
    out2 = apply_luttinger(base, _locus(finite), params0)
    inv2 = abelianization(out2.pi1)
    assert (inv2.rank, inv2.torsion) == (1, (2,))
    # torsion family: rank 1, torsion [q]
    for q in (2, 3, 5, 12):
        params = validate_surgery_params(1, q, 1, q - 1)
        outq = apply_luttinger(base, _locus(trivial), params)
        inv = abelianization(outq.pi1)
        assert (inv.rank, inv.torsion) == (1, (q,)), q


# -- 7. classification strings --------------------------------------------------


def test_classification_strings():
    assert classify_from_surface(10, 1, "non-spin") == "S2x~S3 # #_10 S2xS3"
    assert classify_from_surface(8, 1, "non-spin") == "S2x~S3 # #_8 S2xS3"
    assert classify_from_surface(4, 2, "non-spin") == "S2x~S3 # #_6 S2xS3"


# -- 8. two-surgery heterogeneity ------------------------------------------------


def test_two_surgery_heterogeneous_components():
    complement = GroupPresentation.make(["l1", "l2"], ["[l1,l2]"])
    m = ManifoldDescriptor("W", 6, 0)
    params = validate_surgery_params(0, 1, 1, 0)
    locus_t = SurgeryLocus("LT", "luttinger", sigma_label="T2",
                           complement=complement, meridian="1",
                           circle1="l1", circle2="l2")
    locus_s = SurgeryLocus("LS", "luttinger", sigma_label="Sigma_2",
                           complement=complement, meridian="1",
                           circle1="l1", circle2="l2")
    out = apply_luttinger(apply_luttinger(m, locus_t, params), locus_s, params)
    labels = [c.label for c in out.components]
    assert labels == ["T2xT2", "Sigma_2xT2"]
    assert [c.b1 for c in out.components] == [4, 6]
    rep = components_report(out)
    assert rep.heterogeneous
    assert "heterogeneous" in str(rep)


# -- 9. covering laws -------------------------------------------------------------


def test_covering_laws():
    for k in range(1, 6):
        base = ManifoldDescriptor(
            "N", 4, 6, signature=2,
            components=tuple(TypeChangeComponent.make("T2") for _ in range(k)),
        )
        for dg in range(1, 6):
            out = apply_cover(base, dg)
            assert out.euler == dg * base.euler
            assert len(out.components) == dg * k
    riemann_hurwitz_check(1, 0, 2, (2, 2, 2, 2))
    for g_base in range(5):
        for g_cover in range(g_base):
            for dg in (1, 2, 3):
                try:
                    riemann_hurwitz_check(g_cover, g_base, dg, ())
                    raise AssertionError((g_cover, g_base, dg))
                except TopologyError:
                    pass
    # doubling scenario: chi doubles and the component count doubles twice
    report = run(corpus_dir() / "ex_5_3_elliptic.gcx", seed=0)
    assert report.ok, report.render()
    chi_values = {v for k, v in report.values.items() if k.startswith("chi_")}
    assert {"24", "48"} <= chi_values
    comp_values = {v for k, v in report.values.items()
                   if k.startswith("components_")}
    assert {"2", "4"} <= comp_values


# -- 10. kernel property suites ----------------------------------------------------


def test_kernel_property_suites():
    rng = random.Random(3)
    ch = real_chart(4)
    for _ in range(200):
        a = random_form(ch, rng)
        assert is_structurally_zero(d(d(a)))
    for _ in range(200):
        ka = rng.randint(0, 2)
        a = random_form(ch, rng, degree=ka)
        b = random_form(ch, rng, degree=rng.randint(0, 2))
        lhs = d(wedge(a, b))
        rhs = wedge(d(a), b) + wedge(a, d(b)).scale((-1) ** ka)
        assert is_structurally_zero(lhs - rhs)
    A, B, C = real_chart(2, "A"), real_chart(2, "B"), real_chart(2, "C")
    for _ in range(200):
        f = random_polynomial_map(A, B, rng)
        g = random_polynomial_map(B, C, rng)
        a = random_form(C, rng)
        assert is_structurally_zero(
            pullback(f.compose(g), a) - pullback(f, pullback(g, a))
        )
    for _ in range(200):
        X = random_vector(ch, rng)
        a = random_form(ch, rng)
        assert is_structurally_zero(interior(X, interior(X, a)))
    ch3 = real_chart(3)
    for _ in range(200):
        s1, s2 = random_section(ch3, rng), random_section(ch3, rng)
        assert sympy.expand(pairing(s1, s2) - pairing(s2, s1)) == 0
    ch6 = real_chart(6)
    for _ in range(200):
        a = random_form(ch6, rng, degree=2)
        b = random_form(ch6, rng, degree=2)
        ab = a + b
        lhs = exp_form(ab) if not ab.is_zero() else MixedForm.one(ch6)
        ea = exp_form(a) if not a.is_zero() else MixedForm.one(ch6)
        eb = exp_form(b) if not b.is_zero() else MixedForm.one(ch6)
        assert is_structurally_zero(lhs - wedge(ea, eb))


def test_courant_bracket_oracle_50_pairs():
    from gcx import courant_bracket

    rng = random.Random(4)
    ch = real_chart(3)
    names = [leg.name for leg in ch.legs]
    for _ in range(50):
        s1, s2 = random_section(ch, rng), random_section(ch, rng)
        H = random_form(ch, rng, degree=3)
        got = courant_bracket(s1, s2, H)
        xi = {names[k[0]]: c for k, c in s1.covector.terms.items()}
        eta = {names[k[0]]: c for k, c in s2.covector.terms.items()}
        vec, cov = _oracle_courant(ch, s1.vector_map, xi, s2.vector_map, eta,
                                   dict(H.terms))
        for k in names:
            assert sympy.expand(
                sympy.sympify(got.vector_map.get(k, 0)) - vec[k]
            ) == 0
            idx = ch.leg_index(k)
            assert sympy.expand(got.covector.coefficient((idx,)) - cov[k]) == 0


# -- 11. corpus gate -----------------------------------------------------------------


def test_corpus_gate_under_60s(capsys):
    start = time.monotonic()
    assert main(["corpus", "run-all"]) == 0
    assert time.monotonic() - start < 60.0
    out = capsys.readouterr().out
    assert "0 failing" in out
