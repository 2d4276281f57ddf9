"""Invariant-tracking surgery calculus on manifold descriptors.

A descriptor records the invariants this toolkit actually tracks
(dimension, Euler characteristic, signature, spin flag, a fundamental
group presentation, H2 data, and the list of type-change components);
the surgery operations transform descriptors and never touch geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .groups import (
    GroupPresentation,
    Word,
    _pow_word,
    free_product,
    parse_word,
    quotient_normal_closure,
)

SPIN_STATES = ("spin", "non-spin", "unknown")


class TopologyError(ValueError):
    """Descriptor invariant or surgery precondition violated."""


# ---------------------------------------------------------------------------
# Type-change components
# ---------------------------------------------------------------------------

# b1 of each admissible label factor; Sigma_g and R are handled separately.
_FACTOR_B1 = {"T2": 2, "S2": 0, "pt": 0}


def factor_b1(factor: str, r_b1: int = 0) -> int:
    if factor in _FACTOR_B1:
        return _FACTOR_B1[factor]
    if factor.startswith("Sigma_"):
        try:
            g = int(factor[len("Sigma_"):])
        except ValueError:
            raise TopologyError(f"bad surface factor {factor!r}") from None
        if g < 0:
            raise TopologyError(f"bad genus in {factor!r}")
        return 2 * g
    if factor == "R":
        return r_b1
    raise TopologyError(f"unknown label factor {factor!r}")


@dataclass(frozen=True)
class TypeChangeComponent:
    """One path component of the type change locus.

    The label is a product of factors from {T2, Sigma_g, S2, pt, R};
    the generic factor R carries its own first Betti number since it is
    not determined by the name.
    """

    factors: tuple[str, ...]
    origin: str = "original"
    r_b1: int = 0

    @staticmethod
    def make(label: str, origin: str = "original", r_b1: int = 0) -> "TypeChangeComponent":
        factors = tuple(f.strip() for f in label.split("x") if f.strip())
        comp = TypeChangeComponent(factors, origin, r_b1)
        comp.b1  # validate factors eagerly
        return comp

    @property
    def label(self) -> str:
        return "x".join(self.factors) if self.factors else "pt"

    @property
    def b1(self) -> int:
        # b1 of a product is the sum of the factor b1's
        return sum(factor_b1(f, self.r_b1) for f in self.factors)


# ---------------------------------------------------------------------------
# Surgery loci and parameters
# ---------------------------------------------------------------------------

LOCUS_KINDS = ("luttinger", "gluck", "branch")


@dataclass(frozen=True)
class SurgeryLocus:
    """An embedded locus with the data a surgery transform consumes.

    For torus surgeries the pi1 gluing data consists of a presentation
    of the complement of a tubular neighborhood together with words (in
    the complement generators) for the images of the meridian of the
    excised D2 and the two torus circles.
    """

    name: str
    kind: str
    neighborhood_trivial: bool = True
    j_symplectic: bool = True
    sigma_label: str = "Sigma_1"
    r_b1: int = 0
    complement: Optional[GroupPresentation] = None
    meridian: Optional[Word] = None
    circle1: Optional[Word] = None
    circle2: Optional[Word] = None

    def __post_init__(self):
        if self.kind not in LOCUS_KINDS:
            raise TopologyError(f"unknown locus kind {self.kind!r}")
        for attr in ("meridian", "circle1", "circle2"):
            w = getattr(self, attr)
            if isinstance(w, str):
                w = parse_word(w)
                object.__setattr__(self, attr, w)
            if w and self.complement is not None:
                for gen, _ in w:
                    if gen not in self.complement.generators:
                        raise TopologyError(f"{attr} uses {gen!r}, which is not a "
                                            "generator of the complement")

    @property
    def has_pi1_data(self) -> bool:
        return (
            self.complement is not None
            and self.meridian is not None
            and self.circle1 is not None
            and self.circle2 is not None
        )


@dataclass(frozen=True)
class SurgeryParams:
    """Gluing parameters (p, q, a, b) of the torus surgery diffeomorphism."""

    p: int
    q: int
    a: int
    b: int

    @property
    def determinant(self) -> int:
        return self.p * self.b - self.a * self.q

    @property
    def matrix(self) -> tuple[tuple[int, int, int], ...]:
        return ((self.p, 0, self.q), (0, 1, 0), (self.a, 0, self.b))


def validate_surgery_params(p: int, q: int, a: int, b: int) -> SurgeryParams:
    """Check |pb - aq| = 1 and f(t) = pbt - aq nonzero on [0, 1].

    Returns the validated parameters (carrying the boundary matrix);
    raises TopologyError naming the failing condition.
    """
    params = SurgeryParams(int(p), int(q), int(a), int(b))
    det = params.determinant
    if det not in (1, -1):
        raise TopologyError(f"determinant pb - aq = {det}, expected +-1")
    f0 = -a * q
    f1 = p * b - a * q
    if f0 == 0 or f1 == 0:
        t = 0 if f0 == 0 else 1
        raise TopologyError(f"f(t) = pbt - aq vanishes at t = {t}")
    if f0 * f1 < 0:
        raise TopologyError(
            f"f(t) = pbt - aq changes sign on [0,1]: f(0)={f0}, f(1)={f1}"
        )
    return params


# ---------------------------------------------------------------------------
# Manifold descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldDescriptor:
    name: str
    dimension: int
    euler: int
    signature: Optional[int] = None
    spin: str = "unknown"
    pi1: Optional[GroupPresentation] = None  # None means unknown
    b2: Optional[int] = None
    components: tuple[TypeChangeComponent, ...] = ()
    loci: tuple[SurgeryLocus, ...] = ()

    def __post_init__(self):
        if self.dimension % 2 or self.dimension < 0:
            raise TopologyError("descriptor dimension must be even and nonnegative")
        if self.dimension % 4 != 0 and self.signature is not None:
            raise TopologyError(
                "signature only makes sense when dimension = 0 mod 4"
            )
        if self.spin not in SPIN_STATES:
            raise TopologyError(f"spin flag must be one of {SPIN_STATES}")
        if self.b2 is not None and self.b2 < 0:
            raise TopologyError("b2 must be nonnegative")

    def locus(self, name: str) -> SurgeryLocus:
        for l in self.loci:
            if l.name == name:
                return l
        raise TopologyError(f"descriptor {self.name!r} has no locus {name!r}")

    def describe(self) -> str:
        sig = "" if self.signature is None else f", sigma={self.signature}"
        pi1 = "unknown" if self.pi1 is None else self.pi1.describe()
        return (
            f"{self.name}: dim {self.dimension}, chi={self.euler}{sig}, "
            f"spin={self.spin}, pi1={pi1}, "
            f"{len(self.components)} type-change component(s)"
        )


def _surgery_pi1(locus: SurgeryLocus, params: SurgeryParams):
    """(pi1(complement) * <t1,t2 | [t1,t2]>) / N.

    N is generated by the images of the three boundary generators under
    the gluing matrix [[p,0,q],[0,1,0],[a,0,b]]: the meridian circle
    maps to exponents (p, 0, q), the first torus circle is fixed, and
    the second maps to exponents (a, 0, b).
    """
    torus = GroupPresentation.make(["t1", "t2"], ["[t1,t2]"])
    amalgam = free_product(locus.complement, torus)
    m, l1, l2 = locus.meridian, locus.circle1, locus.circle2
    p, q, a, b = params.p, params.q, params.a, params.b
    relators = [
        tuple(_pow_word(m, p) + _pow_word(l2, q)),
        tuple(list(l1) + [("t1", -1)]),
        tuple(_pow_word(m, a) + _pow_word(l2, b) + [("t2", -1)]),
    ]
    return quotient_normal_closure(amalgam, relators)


def _do_torus_surgery(m: ManifoldDescriptor, locus: SurgeryLocus,
                      params: SurgeryParams, kind: str, label: str) -> ManifoldDescriptor:
    """The descriptor after the surgery: one more type-change component, and
    pi1 from the gluing data, or unknown when the locus has none."""
    if locus.kind != kind:
        raise TopologyError(f"locus {locus.name!r} has kind {locus.kind!r}, need {kind!r}")
    if not locus.neighborhood_trivial:
        raise TopologyError(f"locus {locus.name!r} lacks a trivial neighborhood")
    if not locus.j_symplectic:
        raise TopologyError(f"locus {locus.name!r} is not J-symplectic")
    pi1 = _surgery_pi1(locus, params) if locus.has_pi1_data else None
    comp = TypeChangeComponent.make(label, origin=kind, r_b1=locus.r_b1)
    return replace(m, pi1=pi1, components=m.components + (comp,))


def apply_luttinger(m: ManifoldDescriptor, locus: SurgeryLocus,
                    params: SurgeryParams) -> ManifoldDescriptor:
    """Torus surgery along a T2 x Sigma locus; chi and sigma unchanged."""
    label = "T2" if locus.sigma_label == "pt" else f"{locus.sigma_label}xT2"
    return _do_torus_surgery(m, locus, params, "luttinger", label)


def apply_gluck(m: ManifoldDescriptor, locus: SurgeryLocus,
                params: SurgeryParams) -> ManifoldDescriptor:
    """Combined torus surgery / Gluck twist along T2 x R x S2: the torus
    surgery of multiplicity p on D2 x T2 and the Gluck twist on D2 x S2.
    With R a point (``sigma_label`` ``pt``) it is the 6-dimensional torus
    surgery."""
    label = f"T2x{locus.sigma_label}xS2" if locus.sigma_label != "pt" else "T2xS2"
    return _do_torus_surgery(m, locus, params, "gluck", label)


@dataclass(frozen=True)
class BranchComponent:
    """One branch component with the ramification indices above it."""

    label: str
    euler: int
    indices: tuple[int, ...]

    def __post_init__(self):
        for t in self.indices:
            if t < 2:
                raise TopologyError("branching indices must be >= 2")


@dataclass(frozen=True)
class BranchingData:
    degree: int
    components: tuple[BranchComponent, ...] = ()

    def __post_init__(self):
        if self.degree < 1:
            raise TopologyError("covering degree must be >= 1")
        for comp in self.components:
            total = sum(comp.indices)
            if total > self.degree:
                raise TopologyError(
                    f"indices over {comp.label!r} sum to {total} > degree {self.degree}"
                )

    def defect(self) -> int:
        return sum(
            (t - 1) * comp.euler for comp in self.components for t in comp.indices
        )


def keeps_signature(branching: Optional[BranchingData]) -> bool:
    """Whether a product keeps its factor's known signature.  ``branching``
    is None for a surgery, which keeps it; a cover keeps it only without
    branch components, since this bookkeeping does not determine it."""
    return branching is None or not branching.components


def apply_branched_cover(m: ManifoldDescriptor,
                         branching: BranchingData) -> ManifoldDescriptor:
    """Branched d-fold cover, by the stratified chi convention: chi =
    d*chi(M) - sum (t_i - 1)*chi(branch component).  Each component comes
    in d copies; pi1, b2 and the spin flag become unknown, and so does the
    signature unless it is kept.  A 1-fold cover without branch components is m."""
    d = branching.degree
    if d == 1 and not branching.components:
        return m
    # signature is multiplicative under finite unbranched covers
    keep = keeps_signature(branching) and m.signature is not None
    comps = tuple(replace(c, origin=f"cover-preimage-{i+1}")
                  for c in m.components for i in range(d))
    return replace(m, euler=d * m.euler - branching.defect(),
                   signature=d * m.signature if keep else None,
                   pi1=None, spin="unknown", b2=None, components=comps)


def apply_cover(m: ManifoldDescriptor, d: int) -> ManifoldDescriptor:
    """Unbranched d-fold cover: the branched cover without branch components."""
    return apply_branched_cover(m, BranchingData(int(d)))


# ---------------------------------------------------------------------------
# Riemann-Hurwitz
# ---------------------------------------------------------------------------


def riemann_hurwitz_check(g_cover: int, g_base: int, d: int,
                          indices: Sequence[int]) -> None:
    """Verify 2 - 2g~ = d(2 - 2g) - sum (t_i - 1); raises on violation."""
    if d < 1:
        raise TopologyError("degree must be >= 1")
    for t in indices:
        if t < 2:
            raise TopologyError("branching indices must be >= 2")
    if g_cover < g_base:
        raise TopologyError(
            f"cover genus {g_cover} < base genus {g_base}: impossible"
        )
    lhs = 2 - 2 * g_cover
    rhs = d * (2 - 2 * g_base) - sum(t - 1 for t in indices)
    if lhs != rhs:
        raise TopologyError(
            f"Riemann-Hurwitz fails: 2-2g~ = {lhs} but d(2-2g) - sum(t-1) = {rhs}"
        )


# ---------------------------------------------------------------------------
# Smale-Barden classification and component reports
# ---------------------------------------------------------------------------


def classify_simply_connected_5(k: int, spin: str,
                                torsion: Sequence[int] = ()) -> str:
    """Diffeomorphism type of a simply connected 5-manifold with b2 = k.

    Only the torsion-free regime is in scope; torsion in H2 is reported
    as out of scope rather than guessed.
    """
    if torsion:
        raise TopologyError("H2 torsion present: outside classifier scope")
    k = int(k)
    if k < 1:
        raise TopologyError("classifier needs k >= 1")
    if spin == "spin":
        return "S2xS3" if k == 1 else f"#_{k} S2xS3"
    if spin == "non-spin":
        if k == 1:
            return "S2x~S3"
        return f"S2x~S3 # #_{k - 1} S2xS3"
    raise TopologyError("classifier needs a definite spin flag")


def classify_from_surface(b2: int, genus: int, spin: str,
                          torsion: Sequence[int] = ()) -> str:
    """Classify the simply connected 5-manifold with k = b2 + 2g - 1.

    This is the rank produced by the multiplicity-zero surgery along
    T2 x Sigma_g inside a simply connected 4-manifold with second Betti
    number b2.
    """
    return classify_simply_connected_5(b2 + 2 * genus - 1, spin, torsion)


@dataclass(frozen=True)
class ComponentsReport:
    lines: tuple[str, ...]
    heterogeneous: bool

    def __str__(self):
        return "\n".join(self.lines)


def components_report(m: ManifoldDescriptor) -> ComponentsReport:
    """List type-change components; flag label-b1 heterogeneity.

    Distinct label b1's suffice to distinguish homotopy types at the
    label level.  Four-dimensional descriptors must have every
    component a 2-torus.
    """
    lines = [f"type change locus of {m.name}: {len(m.components)} component(s)"]
    b1s = set()
    for i, comp in enumerate(m.components):
        if m.dimension == 4 and comp.label != "T2":
            raise TopologyError(
                f"4-dimensional type-change component {comp.label!r} is not a 2-torus"
            )
        b1s.add(comp.b1)
        lines.append(f"  [{i}] {comp.label}  b1={comp.b1}  origin={comp.origin}")
    hetero = len(b1s) > 1
    if m.components:
        lines.append(
            "heterogeneous: components of distinct label b1 are not homotopy equivalent"
            if hetero
            else "homogeneous at the label-b1 level"
        )
    return ComponentsReport(tuple(lines), hetero)
