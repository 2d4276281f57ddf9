"""Descriptor surgery calculus: parameters, covers, classification."""

import itertools

import pytest

from gcx import (
    BranchComponent,
    BranchingData,
    GroupPresentation,
    ManifoldDescriptor,
    SurgeryLocus,
    TopologyError,
    TypeChangeComponent,
    abelianization,
    apply_branched_cover,
    apply_cover,
    apply_gluck,
    apply_luttinger,
    classify_from_surface,
    classify_simply_connected_5,
    components_report,
    riemann_hurwitz_check,
    validate_surgery_params,
)


def _params_ok_direct(p, q, a, b):
    """Independent restatement of the gluing conditions."""
    if abs(p * b - a * q) != 1:
        return False
    f0, f1 = -a * q, p * b - a * q
    return f0 != 0 and f1 != 0 and f0 * f1 > 0


def test_params_exhaustive_box():
    checked = accepted = 0
    for p, q, a, b in itertools.product(range(-3, 4), repeat=4):
        checked += 1
        want = _params_ok_direct(p, q, a, b)
        try:
            params = validate_surgery_params(p, q, a, b)
            got = True
        except TopologyError:
            got = False
        assert got == want, (p, q, a, b)
        if got:
            accepted += 1
            assert abs(params.determinant) == 1
            mat = params.matrix
            det3 = (
                mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
            )
            assert abs(det3) == 1
    assert checked == 7 ** 4
    assert 0 < accepted < checked


def test_params_known_cases():
    validate_surgery_params(0, 1, 1, 0)
    validate_surgery_params(1, 3, 1, 2)
    with pytest.raises(TopologyError):
        validate_surgery_params(1, 0, 0, 1)  # f(0) = 0
    with pytest.raises(TopologyError):
        validate_surgery_params(2, 1, 1, 1)  # f changes sign
    with pytest.raises(TopologyError):
        validate_surgery_params(2, 2, 1, 1)  # |det| = 0


def test_component_labels_and_b1():
    assert TypeChangeComponent.make("T2xT2").b1 == 4
    assert TypeChangeComponent.make("Sigma_2xT2").b1 == 6
    assert TypeChangeComponent.make("T2xRxS2", r_b1=3).b1 == 5
    assert TypeChangeComponent.make("pt").b1 == 0
    with pytest.raises(TopologyError):
        TypeChangeComponent.make("K3")
    with pytest.raises(TopologyError):
        TypeChangeComponent.make("Sigma_x")


def test_descriptor_validation():
    with pytest.raises(TopologyError):
        ManifoldDescriptor("m", 5, 0)
    with pytest.raises(TopologyError):
        ManifoldDescriptor("m", 6, 0, signature=0)
    with pytest.raises(TopologyError):
        ManifoldDescriptor("m", 4, 0, spin="maybe")
    with pytest.raises(TopologyError):
        ManifoldDescriptor("m", 4, 0, b2=-1)
    m = ManifoldDescriptor("m", 4, 12, signature=-8, spin="non-spin")
    assert "chi=12" in m.describe()


def _torus_locus(name="L", sigma_label="pt", **kw):
    # simply connected ambient manifold: the complement is carried by the
    # boundary torus circles alone, with a nullhomotopic meridian
    comp = GroupPresentation.make(["l1", "l2"], ["[l1,l2]"])
    return SurgeryLocus(
        name, "luttinger", sigma_label=sigma_label, complement=comp,
        meridian="1", circle1="l1", circle2="l2", **kw,
    )


def test_luttinger_preserves_chi_and_adds_component():
    m = ManifoldDescriptor("X", 4, 12, signature=-8, spin="non-spin")
    params = validate_surgery_params(0, 1, 1, 0)
    out = apply_luttinger(m, _torus_locus(), params)
    assert out.euler == m.euler and out.signature == m.signature
    assert [c.label for c in out.components] == ["T2"]
    out2 = apply_luttinger(m, _torus_locus(sigma_label="Sigma_2"), params)
    assert out2.components[-1].label == "Sigma_2xT2"


def test_luttinger_requires_locus_conditions():
    m = ManifoldDescriptor("X", 4, 12, signature=-8)
    params = validate_surgery_params(0, 1, 1, 0)
    with pytest.raises(TopologyError):
        apply_luttinger(m, _torus_locus(neighborhood_trivial=False), params)
    with pytest.raises(TopologyError):
        apply_luttinger(m, _torus_locus(j_symplectic=False), params)
    gluck = SurgeryLocus("G", "gluck", sigma_label="pt")
    with pytest.raises(TopologyError):
        apply_luttinger(m, gluck, params)


def test_surgery_pi1_torsion_family():
    # multiplicity-zero base with trivial complement: pi1 after the
    # (1, q, 1, q-1) surgery abelianizes to Z_q x Z
    m = ManifoldDescriptor("X", 4, 12, signature=-8)
    for q in (2, 3, 5, 12):
        params = validate_surgery_params(1, q, 1, q - 1)
        out = apply_luttinger(m, _torus_locus(), params)
        inv = abelianization(out.pi1)
        assert (inv.rank, inv.torsion) == (1, (q,)), q


def test_surgery_pi1_kill_case():
    m = ManifoldDescriptor("X", 4, 12)
    params = validate_surgery_params(0, 1, 1, 0)
    out = apply_luttinger(m, _torus_locus(), params)
    inv = abelianization(out.pi1)
    assert (inv.rank, inv.torsion) == (1, ())


def test_gluck_labels():
    m = ManifoldDescriptor("Y", 6, 0)
    params = validate_surgery_params(1, 3, 1, 2)
    loc = SurgeryLocus(
        "G", "gluck", sigma_label="pt",
        complement=GroupPresentation.make(
            ["g", "l1", "l2"], ["[g,l1]", "[g,l2]", "[l1,l2]"]
        ),
        meridian="1", circle1="l1", circle2="l2",
    )
    out = apply_gluck(m, loc, params)
    assert out.components[-1].label == "T2xS2"
    loc2 = SurgeryLocus("G2", "gluck", sigma_label="R", r_b1=2,
                        complement=loc.complement, meridian="1",
                        circle1="l1", circle2="l2")
    out2 = apply_gluck(m, loc2, params)
    assert out2.components[-1].label == "T2xRxS2"
    assert out2.components[-1].b1 == 4


def test_cover_laws():
    base = ManifoldDescriptor(
        "Z", 4, 6, signature=2, components=(TypeChangeComponent.make("T2"),)
    )
    for d in range(1, 6):
        for k in range(1, 6):
            m = base
            if k > 1:
                m = ManifoldDescriptor(
                    "Z", 4, 6, signature=2,
                    components=tuple(TypeChangeComponent.make("T2") for _ in range(k)),
                )
            out = apply_cover(m, d)
            assert out.euler == d * m.euler
            assert len(out.components) == d * k
            if d > 1:
                assert out.signature == d * m.signature
    assert apply_cover(base, 1) is base
    with pytest.raises(TopologyError):
        apply_cover(base, 0)


def test_branched_cover_chi():
    m = ManifoldDescriptor("E1", 4, 12, signature=-8,
                           components=(TypeChangeComponent.make("T2"),))
    branching = BranchingData(2, (BranchComponent("fiber", 0, (2,)),
                                  BranchComponent("fiber2", 0, (2,))))
    out = apply_branched_cover(m, branching)
    assert out.euler == 24  # torus branch loci contribute no defect
    assert out.signature is None
    assert len(out.components) == 2
    sphere = ManifoldDescriptor("S2", 2, 2)
    twopts = BranchingData(2, (BranchComponent("p", 1, (2,)),
                               BranchComponent("q", 1, (2,))))
    assert apply_branched_cover(sphere, twopts).euler == 2
    # empty branching degenerates to the unbranched cover
    assert apply_branched_cover(m, BranchingData(3)).euler == 36


def test_branching_data_validation():
    with pytest.raises(TopologyError):
        BranchComponent("c", 0, (1,))
    with pytest.raises(TopologyError):
        BranchingData(2, (BranchComponent("c", 0, (2, 2)),))
    with pytest.raises(TopologyError):
        BranchingData(0)


def test_riemann_hurwitz_check():
    riemann_hurwitz_check(2, 1, 2, (2, 2))
    riemann_hurwitz_check(3, 2, 2, ())
    riemann_hurwitz_check(1, 0, 2, (2, 2, 2, 2))
    riemann_hurwitz_check(3, 2, 2, ())
    with pytest.raises(TopologyError):
        riemann_hurwitz_check(2, 1, 2, (2,))
    with pytest.raises(TopologyError):
        riemann_hurwitz_check(0, 1, 1, ())
    with pytest.raises(TopologyError):
        riemann_hurwitz_check(2, 1, 2, (1,))
    with pytest.raises(TopologyError):
        riemann_hurwitz_check(2, 1, 0, ())


def test_riemann_hurwitz_rejects_genus_drop():
    for g_base in range(5):
        for g_cover in range(g_base):
            for d in range(1, 6):
                with pytest.raises(TopologyError):
                    riemann_hurwitz_check(g_cover, g_base, d, ())


def test_classify_simply_connected_5():
    assert classify_simply_connected_5(1, "spin") == "S2xS3"
    assert classify_simply_connected_5(3, "spin") == "#_3 S2xS3"
    assert classify_simply_connected_5(1, "non-spin") == "S2x~S3"
    assert classify_simply_connected_5(11, "non-spin") == "S2x~S3 # #_10 S2xS3"
    with pytest.raises(TopologyError):
        classify_simply_connected_5(0, "spin")
    with pytest.raises(TopologyError):
        classify_simply_connected_5(2, "unknown")
    with pytest.raises(TopologyError):
        classify_simply_connected_5(2, "spin", torsion=(2,))


def test_classify_from_surface():
    assert classify_from_surface(10, 1, "non-spin") == "S2x~S3 # #_10 S2xS3"
    assert classify_from_surface(4, 2, "non-spin") == "S2x~S3 # #_6 S2xS3"
    assert classify_from_surface(8, 1, "non-spin") == "S2x~S3 # #_8 S2xS3"
    assert classify_from_surface(2, 0, "spin") == "S2xS3"


def test_components_report():
    m = ManifoldDescriptor(
        "W", 6, 0,
        components=(TypeChangeComponent.make("T2xT2"),
                    TypeChangeComponent.make("Sigma_2xT2")),
    )
    rep = components_report(m)
    assert rep.heterogeneous
    assert "2 component(s)" in str(rep)
    homo = ManifoldDescriptor(
        "V", 6, 0,
        components=(TypeChangeComponent.make("T2xT2"),
                    TypeChangeComponent.make("T2xT2")),
    )
    assert not components_report(homo).heterogeneous
    bad = ManifoldDescriptor(
        "B", 4, 0, components=(TypeChangeComponent.make("T2xT2"),)
    )
    with pytest.raises(TopologyError):
        components_report(bad)
