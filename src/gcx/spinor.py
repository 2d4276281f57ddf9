"""Pure spinors: type, nondegeneracy, stability, twisted integrability,
B-field transforms, and the glued surgery spinors.

Nondegeneracy is read from rho alone: a pure spinor line is a generalized
complex structure where its Mukai pairing (rho, conj(rho))
(:func:`~gcx.forms.mukai`) is nonzero (Gualtieri, *Generalized complex
geometry*, 2011), so no decomposition rho = e^{B + i omega} ^ Omega is
supplied.

A spinor structure is a mixed form rho together with a closed twisting
3-form H.  Integrability means d_H rho = (X + xi) . rho for some
generalized section; a certificate is either supplied and verified, or
searched for among constant ones, which makes the condition linear in
the 2n unknowns.  The search is exact for every spinor: the fraction
reader (:func:`~gcx.scalars.read_fractions`) reads the coefficients over
the chart's ring over ``QQ_I``, each opaque subexpression (a bump,
``exp``, ``sqrt``, a float) one extra generator, and each pair (form key,
monomial) is one equation.  ``pi`` and ``E`` are constants of the solve
(:func:`~gcx.scalars.is_constant_extra`), as they are of
:func:`~gcx.scalars.expr_equal`'s verdicts, so ``rref`` runs over
``QQ_I`` or ``QQ_I(pi, E)``.  A solution is the certificate, with free
unknowns set to 0; an inconsistent system proves that none exists when
the extra generators are at most ``pi`` and ``E``, and leaves the check
undecided otherwise, since an opaque generator may obey relations
(sqrt(u)**2 = u, sin**2 + cos**2 = 1) that the solve does not see.

:class:`IntegrabilityResult` names the path taken (``"stored"`` or
``"exact"``) and the rank of an exact solve.

Stability is decided exactly, over ``QQ_I`` in the chart's legs
(:meth:`~gcx.chart.Chart.extended_ring`).  With p the degree-0
part s0 and q its conjugate, ds0 ^ ds0bar is the sum of the 2x2 minors of
the Jacobian of (p, q) in the legs times the legs' 2-forms.  A reduced
Groebner basis {1} of p, q and the minors certifies that no complex point,
so no real one, has p and every minor zero (the weak Nullstellensatz): s0
vanishes transversally.  A Gaussian-rational real point where p and every
minor vanish is the witness that it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.groebnertools import groebner
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement, ring

from .chart import Chart, Region
from .forms import (
    EqualityResult,
    GeneralizedSection,
    MixedForm,
    as_expr,
    clifford,
    d,
    exp_form,
    form_equal,
    interior,
    mukai,
    scalar_of,
    wedge,
)
from .maps import CoordinateMap, pullback
from .poly import GaussPoly
from .scalars import (
    bump_function,
    common_denominator,
    compile_exprs,
    is_constant_extra,
    is_structural_zero,
    lowest_terms,
    over,
    read_fractions,
    to_ring,
)
from .topology import SurgeryParams, validate_surgery_params


class SpinorError(ValueError):
    """Ill-formed spinor structure or failed geometric precondition."""


_BUILD_SAMPLES = 8  # for the identity checks made while a spinor is built
_T_RING = ring("t", QQ_I)[0]  # check_stable's polynomials on an axis


@dataclass(frozen=True)
class SpinorStructure:
    chart: Chart
    rho: MixedForm
    h: MixedForm
    region: Optional[Region] = None
    certificate: Optional[GeneralizedSection] = None

    @staticmethod
    def make(rho: MixedForm, h: Optional[MixedForm] = None,
             region: Optional[Region] = None,
             certificate: Optional[GeneralizedSection] = None) -> "SpinorStructure":
        chart = rho.chart
        if h is None:
            h = MixedForm.zero(chart)
        if not h.is_zero() and not h.is_homogeneous(3):
            raise SpinorError("twisting form must be a 3-form")
        if not form_equal(d(h), MixedForm.zero(chart), region=region, samples=_BUILD_SAMPLES):
            raise SpinorError("twisting 3-form is not closed")
        return SpinorStructure(chart, rho, h, region, certificate)


# ---------------------------------------------------------------------------
# Pointwise checks
# ---------------------------------------------------------------------------


def _require_plateau(form: MixedForm, point: Mapping[str, complex],
                     region: Optional[Region]) -> None:
    """Raise :class:`SpinorError` unless the point is on every plateau the
    region pins: the argument of a bump pinned to 0 must be at most its
    ``zero_upto``, of one pinned to 1 at least its ``one_from``."""
    if region is None or not region.bump_values:
        return
    pins = region.bump_map
    # a ring coefficient holds no bump
    nodes = list(dict.fromkeys(
        node for c in form.coefficients.values() if not isinstance(c, GaussPoly)
        for node in c.atoms(sympy.Function)
        if getattr(node.func, "spec", None) is not None and node.func.bump in pins))
    args = compile_exprs([node.args[0] for node in nodes], form.chart)(point)
    for node, t in zip(nodes, (a.real for a in args)):
        name, spec = node.func.bump, node.func.spec
        if t > spec.zero_upto if pins[name] == 0 else t < spec.one_from:
            raise SpinorError(f"point is off the plateau of bump {name!r}: region "
                              f"{region.name!r} pins it to {pins[name]}, but its argument is {t:.6g}")


def type_at(rho: MixedForm, point: Mapping[str, complex],
            region: Optional[Region] = None, tol: float = 1e-9) -> int:
    """Lowest degree with a nonvanishing coefficient block at the point,
    which must lie on the region's bump plateaus."""
    _require_plateau(rho, point, region)
    values = rho.evaluate_at(point, region)
    live = [len(k) for k, v in values.items() if abs(v) > tol]
    if not live:
        raise SpinorError(f"spinor vanishes at {dict(point)!r}: not pure there")
    return min(live)


def check_nondegenerate(s: SpinorStructure, point: Mapping[str, complex],
                        tol: float = 1e-9) -> bool:
    """Whether the top coefficient of (rho, conj(rho)) is nonzero at the
    point, which must lie on the plateaus of the spinor's region."""
    chart = s.chart
    if chart.dim % 2:
        raise SpinorError("odd-dimensional chart")
    top = mukai(s.rho, s.rho.conjugate())
    _require_plateau(top, point, s.region)
    values = top.evaluate_at(point, s.region)
    return abs(values.get(tuple(range(chart.dim)), 0.0)) > tol


# ---------------------------------------------------------------------------
# Integrability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityResult:
    ok: bool
    certificate: Optional[GeneralizedSection]
    message: str
    path: str  # "stored" (a supplied certificate verified) or "exact" (rref)
    rank: Optional[int] = None  # rank of the exact solve's system

    def __bool__(self):
        return self.ok


def check_integrable(s: SpinorStructure, samples: int = 32, seed: int = 0,
                     tol: float = 1e-9) -> IntegrabilityResult:
    """Verify a stored certificate, or solve exactly for a constant one
    (:func:`_exact_certificate`); ``samples``, ``seed`` and ``tol`` are
    those of the stored certificate's comparison.

    :class:`SpinorError` is raised when no constant certificate exists
    with the extra generators of the solve read as independent, and one
    of them is not ``pi`` or ``E``: it may obey a relation the solve
    cannot see.
    """
    rho = s.rho
    target = d(rho) + wedge(s.h, rho)
    if s.certificate is not None:
        if form_equal(target, clifford(s.certificate, rho), region=s.region,
                      samples=samples, seed=seed, tol=tol):
            return IntegrabilityResult(True, s.certificate, "stored certificate verified",
                                       "stored")
        return IntegrabilityResult(False, None, "stored certificate fails to reproduce d_H rho",
                                   "stored")
    cert, rank, extras = _exact_certificate(rho, target, s.region)
    if cert is None:
        opaque = [e for e in extras if not is_constant_extra(e)]
        if opaque:
            raise SpinorError(
                f"integrability undecided: no constant certificate, but "
                f"{', '.join(map(str, opaque))} may obey relations the linear solve cannot see")
        return IntegrabilityResult(False, None, "not integrable: no constant certificate",
                                   "exact", rank)
    # an independent check of the solve, a formal zero
    if not form_equal(target, clifford(cert, rho), region=s.region):
        raise SpinorError("the exact certificate fails to reproduce d_H rho")
    return IntegrabilityResult(True, cert, "certificate found by linear solve", "exact", rank)


def _exact_certificate(rho: MixedForm, target: MixedForm, region: Optional[Region] = None
                       ) -> tuple[Optional[GeneralizedSection], int, tuple]:
    """Solve target = (X + xi) . rho for constant X and xi.

    The unknowns' actions on rho (the vector legs' interior products,
    then the covector legs' wedges) and the target, with the region's
    bumps pinned, are read with one :func:`~gcx.scalars.read_fractions`
    call, and each form key's equations are put over the least common
    denominator of that key's fractions.  Each pair (form key,
    monomial in the legs and the extra generators other than ``pi`` and
    ``E``) is one linear equation in the 2n unknowns, over ``QQ_I``, or
    ``QQ_I(pi, E)`` when those occur.  ``DomainMatrix.rref`` solves the
    augmented system.  Returns the certificate, with every free unknown
    set to 0, or None when the system is inconsistent; the rank; and the
    extra generators.  An infinite or undefined coefficient raises
    :class:`~gcx.scalars.EvaluationError`.
    """
    chart, n = rho.chart, rho.chart.dim
    columns = ([interior({leg.name: 1}, rho) for leg in chart.legs]
               + [wedge(MixedForm.basis(chart, leg.name), rho) for leg in chart.legs] + [target])
    cells = [(key, col, c) for col, form in enumerate(columns)
             for key, c in form.coefficients.items()]
    pairs, extras = read_fractions([c for _, _, c in cells], chart,
                                   region.bump_map if region is not None else None)
    dens: dict[tuple, list] = {}
    for (key, _, _), (_, den) in zip(cells, pairs):
        dens.setdefault(key, []).append(den)
    common = {key: common_denominator(d) for key, d in dens.items()}
    constants = [n + j for j, e in enumerate(extras) if is_constant_extra(e)]
    rows: dict[tuple, dict[int, dict]] = {}  # (key, monomial) -> column -> pi, E terms
    for (key, col, _), (num, den) in zip(cells, pairs):
        for monom, coeff in over(num, den, common[key]).iterterms():
            split = tuple(0 if j in constants else m for j, m in enumerate(monom))
            rows.setdefault((key, split), {}).setdefault(col, {})[
                tuple(monom[j] for j in constants)] = coeff
    domain = QQ_I.frac_field(*(extras[j - n] for j in constants)) if constants else QQ_I

    def entry(terms: dict):
        return domain.field(domain.field.ring(terms)) if constants else terms[()]

    last = 2 * n
    system = DomainMatrix({i: {col: entry(terms) for col, terms in row.items()}
                           for i, row in enumerate(rows.values())}, (len(rows), last + 1), domain)
    reduced, pivots = system.rref()
    if last in pivots:
        return None, len(pivots) - 1, extras
    entries = reduced.to_dok()
    solution = [sympy.Integer(0)] * last
    for row, col in enumerate(pivots):
        solution[col] = domain.to_sympy(entries.get((row, last), domain.zero))
    vector = {leg.name: c for leg, c in zip(chart.legs, solution) if not is_structural_zero(c)}
    covector = MixedForm(chart, {(i,): scalar_of(chart, c) for i, c in enumerate(solution[n:])})
    return GeneralizedSection.make(chart, vector, covector), len(pivots), extras


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    locus: Optional[sympy.Expr]  # None means the anticanonical section never vanishes
    message: str

    def __bool__(self):
        return self.stable


def check_stable(s: SpinorStructure) -> StabilityResult:
    """Whether the degree-0 part s0 of rho vanishes transversally on the
    whole chart, whatever the spinor's region (see the module docstring).

    A Groebner basis {1} of p and q alone means s0 never vanishes.  With
    neither a certificate nor a witness (:func:`_witness`), and for an s0
    that is not a polynomial over ``QQ_I``, :class:`SpinorError` is raised.
    s0 is read as stored; the messages print it as an expression.
    """
    chart = s.chart
    stored = s.rho.coefficients.get(())
    if stored is None:
        raise SpinorError("degree-0 part vanishes identically: not a pure spinor")
    s0_ring, s0 = to_ring(chart, stored), as_expr(stored)
    if s0_ring is None:
        raise SpinorError(f"degree-0 part {s0} is not a polynomial over QQ_I "
                          f"in the legs of chart {chart.name!r}")
    field = chart.extended_ring(0)
    p, q, one = s0_ring.to_field(), chart.conjugate(s0_ring).to_field(), [field.one]
    if groebner([p, q], field) == one:
        return StabilityResult(True, None, "degree-0 part has empty zero set")
    minors = [m for a, b in combinations(field.gens, 2)
              if (m := p.diff(a) * q.diff(b) - p.diff(b) * q.diff(a))]
    if groebner([p, q, *minors], field) == one:
        return StabilityResult(
            True, s0, f"transverse: Groebner basis {{1}}; type change locus {{{s0} = 0}}")
    witness = _witness(chart, [p, *minors])
    if witness is None:
        raise SpinorError(
            "stability undecided: no Groebner certificate and no rational real witness")
    at = ", ".join(f"{name} = {value}" for name, value in witness.items())
    return StabilityResult(False, s0, f"real differential drops rank at {at}")


def _witness(chart: Chart, polys: Sequence[PolyElement]) -> Optional[dict[str, sympy.Expr]]:
    """A real point of the chart, with Gaussian-rational coordinates and
    its radial ones positive, where every polynomial vanishes; None when
    no candidate is one.

    The candidates lie on the real axes (x or i y of a complex coordinate,
    or a real or radial coordinate) through the base point, where every
    radial coordinate is 1 and every other one 0: the base point itself
    and, on each axis, the rational roots of the first polynomial not
    identically zero there.  Each is verified exactly, so the search only
    proposes points.
    """
    t, one, i = _T_RING.gens[0], QQ_I.one, QQ_I(0, 1)
    radial = {chart.leg_index(c.name) for c in chart.coords if c.kind == "radial"}
    base = [_T_RING(int(j in radial)) for j in range(chart.dim)]  # the legs off the axis
    for c in chart.coords:
        j = chart.leg_index(c.name)
        for step in ((one, one), (i, -i)) if c.kind == "complex" else ((one,),):
            axis = list(base)  # each leg's value on the axis, a polynomial in t
            axis[j:j + len(step)] = [t * s for s in step]
            lines = [_on_line(f, axis) for f in polys]
            first = next((line for line in lines if line), _T_RING.zero)
            roots = [-f.get((0,), QQ_I.zero) / f.LC for f, _ in first.factor_list()[1]
                     if f.degree() == 1]
            for value in [QQ_I.zero, *roots]:
                at = {c: axis[chart.leg_index(c.name)](value) for c in chart.coords}
                if (not value.y and all(at[c].x > 0 for c in at if c.kind == "radial")
                        and not any(line(value) for line in lines)):
                    return {c.name: QQ_I.to_sympy(v) for c, v in at.items()}
    return None


def _on_line(f: PolyElement, line: Sequence[PolyElement]) -> PolyElement:
    """f with each leg j replaced by ``line[j]``, a polynomial in t."""
    return sum((_T_RING.ground_new(c) * math.prod(v ** m for v, m in zip(line, monom) if m)
                for monom, c in f.iterterms()), _T_RING.zero)


# ---------------------------------------------------------------------------
# B-field transform
# ---------------------------------------------------------------------------


def b_field_transform(s: SpinorStructure, b: MixedForm) -> SpinorStructure:
    """rho -> e^B ^ rho, H -> H - dB; the certificate is transported."""
    if not b.is_homogeneous(2):
        raise SpinorError("B-field must be a 2-form")
    if not form_equal(b, b.conjugate(), region=s.region, samples=_BUILD_SAMPLES):
        raise SpinorError("B-field must be real")
    rho = wedge(exp_form(b), s.rho)
    h = s.h - d(b)
    cert = s.certificate
    if cert is not None:
        # (X, xi) -> (X, xi - i_X B)
        cert = GeneralizedSection.make(
            s.chart, cert.vector_map, cert.covector - interior(cert.vector_map, b)
        )
    return SpinorStructure(s.chart, rho, h, s.region, cert)


# ---------------------------------------------------------------------------
# Surgery spinors (Luttinger and Gluck)
# ---------------------------------------------------------------------------

# the default radial bump: xi = 0 on [0, 1/4], 1 from 1/2
XI = bump_function("xi", 0.25, 0.5)


def _as_params(params) -> SurgeryParams:
    if isinstance(params, SurgeryParams):
        return params
    return validate_surgery_params(*params)


def surgery_exponent(chart: Chart, params: SurgeryParams, bump: type = XI,
                     gluck: bool = False) -> MixedForm:
    """The closed 2-form exponent of the surgery spinor z1 e^E.

    ``gluck`` selects the bump argument |z1|^2 instead of |z1| and
    appends the Gluck block in the stereographic coordinate z3.
    """
    p, q, a, b = params.p, params.q, params.a, params.b
    z1, z1b = chart.symbol("z1"), chart.symbol("z1b")
    arg = z1 * z1b if gluck else sympy.sqrt(z1 * z1b)
    i1, i1b = chart.leg_index("z1"), chart.leg_index("z1b")
    i2, i2b = chart.leg_index("z2"), chart.leg_index("z2b")
    half_a = sympy.Rational(a, 2)
    terms = {
        (i1, i1b): -sympy.Rational(p, 4) * bump(arg) / (z1 * z1b),
        (i2, i2b): -sympy.Rational(b, 2),
        (i1, i2): (half_a - q) / (2 * z1),
        (i1, i2b): -(half_a + q) / (2 * z1),
    }
    if gluck:
        z3, z3b = chart.symbol("z3"), chart.symbol("z3b")
        i3, i3b = chart.leg_index("z3"), chart.leg_index("z3b")
        den = (1 + z3 * z3b) ** 2
        terms[(i2, i3)] = -2 * z3b / den
        terms[(i2, i3b)] = -2 * z3 / den
    return MixedForm(chart, terms)


def surgery_certificate(chart: Chart, params: SurgeryParams,
                        exponent: MixedForm) -> GeneralizedSection:
    """The analytic certificate for z1 e^E: d(z1 e^E) = (X + xi) . (z1 e^E).

    X is a constant field in the z2 directions chosen so that i_X E
    reproduces the singular dz1/z1 term; the covector part is then
    dz1/z1 - i_X E, stored as computed; :class:`SpinorError` is raised unless
    in lowest terms in the chart's ring no denominator factor has z1.
    """
    a, q = params.a, params.q
    if a != 2 * q:
        vector = {"z2": sympy.Rational(-4, a - 2 * q)}
    else:
        # valid parameters force q != 0 here
        vector = {"z2b": sympy.Rational(1, q)}
    cov = MixedForm.basis(chart, "z1").scale(1 / chart.symbol("z1")) - interior(vector, exponent)
    pairs, _ = read_fractions(list(cov.coefficients.values()), chart)
    i1 = chart.leg_index("z1")
    if any(f.degree(i1) > 0 for pair in pairs for f, _ in lowest_terms(*pair)[1]):
        raise SpinorError("certificate covector failed to desingularize")
    return GeneralizedSection.make(chart, vector, cov)


def surgery_regions(chart: Chart, bump: type = XI,
                    squared: bool = False) -> dict[str, Region]:
    """The sampling regions of the surgery disk: full, bump-0 core, bump-1 annulus.

    The bump's argument is |z1|, or |z1|^2 when ``squared`` (Gluck), so
    the core ends and the plateau starts where that argument meets the
    bump's thresholds.  The annulus keeps 0.1 clear of the plateau's
    edge, or half the gap to its outer radius 0.95 when that is less.
    """
    radius = math.sqrt if squared else float
    inner, outer = radius(bump.spec.zero_upto), radius(bump.spec.one_from)
    name = bump.__name__
    return {
        "disk": Region.make(chart, "disk", bounds={"z1": (0.05, 1.0)}),
        "core": Region.make(chart, "core", bounds={"z1": (0.02, inner)},
                            bump_values={name: 0}),
        "annulus": Region.make(chart, "annulus",
                               bounds={"z1": (min(outer + 0.1, (outer + 0.95) / 2), 0.95)},
                               bump_values={name: 1}),
    }


def build_luttinger_spinor(params, sigma_form: Optional[MixedForm] = None,
                           chart: Optional[Chart] = None,
                           bump: type = XI) -> SpinorStructure:
    """The extension spinor z1 e^E ^ e^{i phi*(omega_Sigma)} on D^2 x T^2 x Sigma.

    With no Sigma factor the chart is C^2 = {(z1, z2)}; otherwise the
    supplied chart must contain z1, z2 and the Sigma coordinates of
    sigma_form (on which the gluing acts as the identity, so the
    pullback of omega_Sigma is omega_Sigma itself).
    """
    return _surgery_spinor(params, sigma_form, chart, bump, gluck=False)


def build_gluck_spinor(params, r_form: Optional[MixedForm] = None,
                       chart: Optional[Chart] = None,
                       bump: type = XI) -> SpinorStructure:
    """The Gluck spinor rho~1 ^ e^{i phi*(omega_R)} on D^2 x T^2 x R x S^2.

    z3 is the stereographic coordinate on S^2; with R a point this
    reduces to rho~1 alone.
    """
    return _surgery_spinor(params, r_form, chart, bump, gluck=True)


def _surgery_spinor(params, extra: Optional[MixedForm], chart: Optional[Chart],
                    bump: type, gluck: bool) -> SpinorStructure:
    """z1 e^E ^ e^{i extra}, the Gluck exponent having the bump argument
    |z1|^2 and the sphere block."""
    params = _as_params(params)
    if chart is None:
        names = ("z1", "z2", "z3") if gluck else ("z1", "z2")
        chart = extra.chart if extra is not None else Chart(
            "gluck" if gluck else "luttinger", [(n, "complex") for n in names]
        )
    exponent = surgery_exponent(chart, params, bump, gluck=gluck)
    if extra is not None:
        if not form_equal(d(extra), MixedForm.zero(chart), samples=_BUILD_SAMPLES):
            raise SpinorError(f"{'R' if gluck else 'Sigma'} symplectic form must be closed")
        exponent = exponent + extra.scale(sympy.I)
    z1 = chart.symbol("z1")
    rho = wedge(MixedForm.scalar(chart, z1), exp_form(exponent))
    cert = surgery_certificate(chart, params, exponent)
    full = surgery_regions(chart, bump, squared=gluck)["disk"]
    return SpinorStructure(chart, rho, MixedForm.zero(chart), full, cert)


# ---------------------------------------------------------------------------
# The gluing diffeomorphism and the Lemma equivalence
# ---------------------------------------------------------------------------

RADIAL_PROFILES = ("lemma", "paper")


def collar_charts() -> tuple[Chart, Chart]:
    """Polar collar charts for the two sides of the gluing."""
    src = Chart("collar", [("r", "radial"), ("t0", "angle"), ("t1", "angle"),
                           ("t2", "angle")])
    tgt = Chart("collar~", [("rt", "radial"), ("s0", "angle"), ("s1", "angle"),
                            ("s2", "angle")])
    return src, tgt


def luttinger_gluing_map(params, profile: str = "lemma") -> tuple[CoordinateMap, MixedForm]:
    """The gluing phi on the collar, and the product form omega~ upstairs.

    The radial profile fixes r_t as a function of r: "paper" uses
    sqrt(2 log(r e)) as displayed; "lemma" uses sqrt(log(r e)), for
    which r_t dr_t = dr/2r and the extension spinor's imaginary
    exponent equals phi*(omega~) exactly.  The angular part is
    (t0, t2) -> (p t0 + a t2, q t0 + b t2), identity on t1.  The collar
    checks sample phi on the annulus r in (0.6, 0.95), where it is defined.
    """
    params = _as_params(params)
    if profile not in RADIAL_PROFILES:
        raise SpinorError(f"unknown radial profile {profile!r}")
    src, tgt = collar_charts()
    r = src.symbol("r")
    inner = sympy.log(r * sympy.E)
    rt = sympy.sqrt(2 * inner) if profile == "paper" else sympy.sqrt(inner)
    table = {
        "rt": rt,
        "s0": params.p * src.symbol("t0") + params.a * src.symbol("t2"),
        "s1": src.symbol("t1"),
        "s2": params.q * src.symbol("t0") + params.b * src.symbol("t2"),
    }
    phi = CoordinateMap.make(src, tgt, table, name="phi")
    omega_tilde = MixedForm(tgt, {
        (tgt.leg_index("rt"), tgt.leg_index("s0")): tgt.symbol("rt"),
        (tgt.leg_index("s1"), tgt.leg_index("s2")): sympy.Integer(1),
    })
    return phi, omega_tilde


def disk_to_complex_map(polar: Chart, cx: Chart) -> CoordinateMap:
    """z1 = r e^{i t0}, z2 = t1 + i t2."""
    r, t0, t1, t2 = (polar.symbol(n) for n in ("r", "t0", "t1", "t2"))
    table = {"z1": r * sympy.exp(sympy.I * t0), "z2": t1 + sympy.I * t2}
    return CoordinateMap.make(polar, cx, table, name="psi")


def _collar(params, profile: str):
    """The setup both collar checks share.

    Returns the Luttinger spinor and its exponent E pulled back along
    psi to the polar collar, the gluing phi with its form omega~, the
    xi = 1 annulus r in (0.6, 0.95), and z1 = r e^{i t0} there.
    """
    params = _as_params(params)
    phi, omega_tilde = luttinger_gluing_map(params, profile=profile)
    s = build_luttinger_spinor(params)
    polar, _ = collar_charts()
    psi = disk_to_complex_map(polar, s.chart)
    rho = pullback(psi, s.rho)
    exponent = pullback(psi, surgery_exponent(s.chart, params))
    annulus = Region.make(polar, "annulus", bounds={"r": (0.6, 0.95)},
                          bump_values={XI.__name__: 1})
    z1 = polar.symbol("r") * sympy.exp(sympy.I * polar.symbol("t0"))
    return rho, exponent, phi, omega_tilde, annulus, z1


def lemma_extension_check(params, profile: str = "lemma", samples: int = 64,
                          seed: int = 0, tol: float = 1e-9) -> EqualityResult:
    """On the xi = 1 annulus, z1 e^E equals z1 e^{B0 + i phi*(omega~)}.

    This is the extension lemma with Sigma a point: the imaginary part
    of the pulled-back exponent must coincide with phi*(omega~) for the
    chosen radial profile, the real part being the B-field witness B0.
    The result names the first coefficient that differs.
    """
    rho, exponent, phi, omega_tilde, annulus, z1 = _collar(params, profile)
    omega_pull = pullback(phi, omega_tilde)
    same = form_equal(exponent.imag_part(), omega_pull, region=annulus,
                      samples=samples, seed=seed, tol=tol)
    if not same:
        return same
    stated = wedge(
        MixedForm.scalar(annulus.chart, z1),
        exp_form(exponent.real_part() + omega_pull.scale(sympy.I)),
    )
    return form_equal(rho, stated, region=annulus, samples=samples,
                      seed=seed, tol=tol)


def assembly_check(params, profile: str = "lemma", samples: int = 16, seed: int = 0,
                   tol: float = 1e-9) -> EqualityResult:
    """Compare the two pieces of the glued structure on the collar.

    The inside piece is the extension spinor pulled back to polar
    coordinates; the outside piece is e^{B0} ^ phi*(e^{i omega~}), with
    B0 the real part of the extension exponent.  They must agree on the
    xi = 1 annulus up to the scalar z1 = r e^{i t0}; the result names
    the first coefficient that differs.  ``profile`` is the gluing's
    radial profile, as in :func:`luttinger_gluing_map`.
    """
    rho, exponent, phi, omega_tilde, annulus, z1 = _collar(params, profile)
    b0 = exponent.real_part()
    outside = wedge(exp_form(b0), pullback(phi, exp_form(omega_tilde.scale(sympy.I))))
    return form_equal(rho, outside.scale(z1), region=annulus, samples=samples,
                      seed=seed, tol=tol)
