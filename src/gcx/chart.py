"""Coordinate charts, named sub-regions, and sample-point generation.

A chart is an ordered list of coordinates, each of one of four kinds:

* ``real``    -- an unconstrained real coordinate,
* ``radial``  -- a positive real coordinate (r > 0),
* ``angle``   -- a periodic coordinate; its differential is a legal
  global 1-form even though the coordinate itself is only local,
* ``complex`` -- a complex coordinate z; it contributes *two* legs to
  the chart, z and its formal conjugate zb, treated as independent
  symbols (Wirtinger calculus).

The "legs" of a chart index the basis covectors of the (complexified)
cotangent space: one leg per real/radial/angle coordinate, two legs
(dz, dzb) per complex coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.rings import PolyElement, PolyRing, ring

from .poly import GaussPoly, GaussRing

COORD_KINDS = ("real", "radial", "angle", "complex")

_TWO_PI = 2 * math.pi


class ChartError(ValueError):
    """Malformed chart or region declaration."""


@dataclass(frozen=True)
class Coordinate:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in COORD_KINDS:
            raise ChartError(f"unknown coordinate kind {self.kind!r}")


@dataclass(frozen=True)
class Leg:
    """One basis direction of the chart (dz and dzb are separate legs)."""

    name: str
    symbol: sympy.Symbol
    conj: int  # index of the conjugate leg (self for real kinds)


def _symbol_for(name: str, kind: str) -> sympy.Symbol:
    if kind == "radial":
        return sympy.Symbol(name, positive=True)
    if kind in ("real", "angle"):
        return sympy.Symbol(name, real=True)
    return sympy.Symbol(name)


class Chart:
    """A named coordinate chart; immutable after construction."""

    def __init__(self, name: str, coords: Iterable[Coordinate | tuple]):
        self.name = name
        self.coords: tuple[Coordinate, ...] = tuple(
            c if isinstance(c, Coordinate) else Coordinate(*c) for c in coords
        )
        seen: set[str] = set()
        legs: list[Leg] = []
        for c in self.coords:
            if c.name in seen:
                raise ChartError(f"duplicate coordinate name {c.name!r}")
            seen.add(c.name)
            if c.kind == "complex":
                bname = c.name + "b"
                if bname in seen:
                    raise ChartError(f"conjugate name {bname!r} collides")
                seen.add(bname)
                i = len(legs)
                legs.append(Leg(c.name, _symbol_for(c.name, c.kind), i + 1))
                legs.append(Leg(bname, _symbol_for(bname, c.kind), i))
            else:
                i = len(legs)
                legs.append(Leg(c.name, _symbol_for(c.name, c.kind), i))
        self.legs: tuple[Leg, ...] = tuple(legs)
        self._index = {leg.name: i for i, leg in enumerate(self.legs)}
        self._rings: dict[int, PolyRing] = {}  # extended_ring by k

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.legs)

    def __contains__(self, name: str) -> bool:
        """Whether the chart has a leg named ``name``."""
        return name in self._index

    def leg_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ChartError(f"chart {self.name!r} has no leg {name!r}") from None

    def symbol(self, name: str) -> sympy.Symbol:
        return self.legs[self.leg_index(name)].symbol

    @property
    def symbols(self) -> tuple[sympy.Symbol, ...]:
        return tuple(leg.symbol for leg in self.legs)

    def conj_index(self, i: int) -> int:
        return self.legs[i].conj

    @cached_property
    def ring(self) -> GaussRing:
        """The kernel's polynomial coefficients in the chart's legs: each a
        numerator with Gaussian-integer coefficients over one positive
        integer denominator (:mod:`gcx.poly`), so that sums, products,
        derivatives, conjugation and pullback substitution take no gcd.
        Its field is :meth:`extended_ring` ``(0)``."""
        return GaussRing(self.extended_ring(0))

    def extended_ring(self, k: int) -> PolyRing:
        """The polynomials over the Gaussian rationals ``QQ_I`` in the legs
        and ``k`` extra generators after them, built once per chart and
        ``k``: the ring of the fraction reader and the solvers, where a
        coefficient of :attr:`ring` is read in lowest terms.  The extra
        generators' names are not identifiers, so no leg shares one."""
        extended = self._rings.get(k)
        if extended is None:
            extra = tuple(sympy.Symbol(f"extra {j}") for j in range(k))
            extended = self._rings[k] = ring(self.symbols + extra, QQ_I)[0]
        return extended

    def to_ring(self, value) -> Optional[GaussPoly]:
        """``value`` as an element of :attr:`ring`, or None when it is not a
        polynomial over the Gaussian rationals in the legs.

        An expression is read in :meth:`extended_ring` ``(0)`` and then put
        over one integer denominator.  A value with a subexpression that
        :meth:`fractions` would read as an extra generator (a float, a
        foreign symbol, a function, ``pi``, a non-integer power) is None at
        once, and no extended ring is built; so is one whose denominator is
        not a nonzero constant.  A float is refused rather than read as the
        rational it rounds to.
        """
        if isinstance(value, GaussPoly):
            return value if value.ring == self.ring else None
        value = sympy.sympify(value)
        if _opaque_nodes(value, self._leg_gens, {}):
            return None
        try:
            num, den = _read_fraction(value, self.extended_ring(0), self._leg_gens)
        except ZeroDivisionError:
            return None
        return None if den else self.ring.from_field(num)

    @cached_property
    def _leg_gens(self) -> dict:
        return dict(zip(self.symbols, self.extended_ring(0).gens))

    def fractions(self, exprs: Sequence) -> tuple[list, tuple]:
        """The expressions as fractions over one ring, with no gcd taken.

        Sums, products, integer powers, legs, Gaussian rationals and ``I``
        are read in :meth:`extended_ring`; every other subexpression
        (``pi``, ``E``, a float, a bump application, any other function, a
        non-integer power) becomes one extra generator, shared by equal
        subexpressions; an element of :attr:`ring` is taken as it is.
        Returns ``(pairs, extras)``: a ``(numerator, denominator)`` pair per
        expression, where the denominator maps each of its distinct
        non-constant factors to its multiplicity (``{}`` is 1), and the
        subexpressions read as the extra generators, in order.  An element
        of :attr:`ring` is read in lowest terms (:meth:`GaussPoly.to_field`).
        A negative power of a base that is zero in the ring raises
        ``ZeroDivisionError``.
        :func:`~gcx.scalars.read_fractions`, the one caller, sympifies the
        expressions and guards it.
        """
        found: dict = {}
        for e in exprs:
            if not isinstance(e, GaussPoly):
                _opaque_nodes(e, self._leg_gens, found)
        extended = self.extended_ring(len(found))
        gens = dict(zip(self.symbols + tuple(found), extended.gens))
        return [(e.to_field(extended), {}) if isinstance(e, GaussPoly)
                else _read_fraction(e, extended, gens) for e in exprs], tuple(found)

    def __repr__(self):
        return f"Chart({self.name!r}, dim={self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.name == other.name
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.name, self.coords))

    # -- points --------------------------------------------------------

    def point(self, values: Mapping[str, complex]) -> dict[str, complex]:
        """Canonical point: every leg gets a value, conjugates filled in."""
        pt: dict[str, complex] = {}
        for key, val in values.items():
            if key not in self._index:
                raise ChartError(f"chart {self.name!r} has no leg {key!r}")
            pt[key] = complex(val)
        for c in self.coords:
            if c.kind == "complex":
                bname = c.name + "b"
                if c.name in pt and bname not in pt:
                    pt[bname] = pt[c.name].conjugate()
                elif bname in pt and c.name not in pt:
                    pt[c.name] = pt[bname].conjugate()
        missing = [leg.name for leg in self.legs if leg.name not in pt]
        if missing:
            raise ChartError(f"point misses legs {missing} on chart {self.name!r}")
        return pt

    # -- formal conjugation --------------------------------------------

    def conjugate(self, value):
        """Formal conjugation: swap z <-> zb, conjugate constants, in
        :attr:`ring` for an element of it.

        Real-valued symbols (real/radial/angle legs, opaque bump symbols)
        are fixed; elementary functions are conjugated argument-wise, which
        is valid on the real domains this toolkit restricts them to.
        """
        if isinstance(value, GaussPoly):
            return value.conjugate(self._conj)
        swap = {leg.symbol: self.legs[leg.conj].symbol
                for i, leg in enumerate(self.legs) if leg.conj != i}
        return _conj_walk(sympy.sympify(value), swap)

    @cached_property
    def _conj(self) -> tuple[int, ...]:
        return tuple(leg.conj for leg in self.legs)


def _conj_walk(e: sympy.Expr, swap: dict) -> sympy.Expr:
    if e.is_Symbol:
        return swap.get(e, e)
    if e.is_Number or e is sympy.I:
        return sympy.conjugate(e)
    if not e.args:
        return e
    return e.func(*(_conj_walk(a, swap) for a in e.args))


def _opaque_nodes(e: sympy.Expr, legs: Mapping, found: dict) -> dict:
    """Add to ``found``, and return it, each subexpression of ``e`` that
    :func:`_read_fraction` does not read as a field operation on legs and
    Gaussian rationals."""
    if e.is_Add or e.is_Mul:
        for a in e.args:
            _opaque_nodes(a, legs, found)
    elif e.is_Pow and e.exp.is_Integer:
        _opaque_nodes(e.base, legs, found)
    elif not (e.is_Rational or e is sympy.I or e in legs):
        found[e] = None
    return found


def _read_fraction(e: sympy.Expr, R: PolyRing, gens: dict) -> tuple[PolyElement, dict]:
    """``e`` as (numerator, denominator) over ``R``, whose generators
    ``gens`` maps from sympy.  The denominator maps each distinct monic
    non-constant factor to its multiplicity, so a repeated factor is never
    multiplied in twice; constants go to the numerator.  Every opaque
    subexpression of ``e`` (:func:`_opaque_nodes`) must be in ``gens``.
    ``ZeroDivisionError`` at a negative power of a base that is zero in
    ``R``."""
    gen = gens.get(e)
    if gen is not None:
        return gen, {}
    if e.is_Add or e.is_Mul:
        parts = [_read_fraction(a, R, gens) for a in e.args]
        return _sum(parts, R) if e.is_Add else _product(parts, R)
    if e.is_Pow and e.exp.is_Integer:
        num, den = _read_fraction(e.base, R, gens)
        n = int(e.exp)
        if n >= 0:
            return num ** n, {f: m * n for f, m in den.items()}
        if not num:
            raise ZeroDivisionError(f"{e.base} is zero")
        n = -n
        lc = num.LC
        inverse = R.ground_new(R.domain.revert(lc) ** n)
        for f, m in den.items():
            inverse *= f ** (m * n)
        factor = num.quo_ground(lc)
        return inverse, ({} if factor.is_ground else {factor: n})
    # a Gaussian rational or I
    return R.ground_new(R.domain.from_sympy(e)), {}


def _product(parts: list, R: PolyRing) -> tuple[PolyElement, dict]:
    num, den = R.one, {}
    for n, d in parts:
        num *= n
        for f, m in d.items():
            den[f] = den.get(f, 0) + m
    return (num, den) if num else (R.zero, {})


def _sum(parts: list, R: PolyRing) -> tuple[PolyElement, dict]:
    """The sum over the least common denominator."""
    common = common_denominator(d for _, d in parts)
    total = sum((over(n, d, common) for n, d in parts), R.zero)
    return (total, common) if total else (R.zero, {})


def common_denominator(dens: Iterable[Mapping]) -> dict:
    """The least common denominator: each factor at its largest multiplicity."""
    common: dict = {}
    for den in dens:
        for f, m in den.items():
            if common.get(f, 0) < m:
                common[f] = m
    return common


def over(num: PolyElement, den: Mapping, common: Mapping) -> PolyElement:
    """The numerator of ``num / den`` over ``common``, a multiple of
    ``den`` such as :func:`common_denominator` gives."""
    for f, m in common.items():
        if m != den.get(f, 0):
            num = num * f ** (m - den.get(f, 0))
    return num


@dataclass(frozen=True)
class Interval:
    lo: Optional[float] = None
    hi: Optional[float] = None


# Default sampling windows per coordinate kind, and of a bounded or
# nonzero complex coordinate's modulus.
_DEFAULT_WINDOW = {
    "real": (-2.0, 2.0),
    "radial": (0.25, 2.0),
    "angle": (0.0, _TWO_PI),
    "modulus": (0.0, 2.0),
}


class RegionError(ValueError):
    """A point lies outside a declared region, or sampling failed."""


@dataclass(frozen=True)
class Region:
    """A coordinate-inequality box on a chart.

    ``bounds`` constrains coordinates by name; for a complex coordinate
    the bound applies to its modulus (so ``z1 in (0.5, 1)`` is an
    annulus).  ``nonzero`` names complex coordinates excluded from 0.
    ``bump_values`` pins declared opaque bump functions to 0 or 1 on
    this region, enabling exact symbolic checks piecewise.
    """

    chart: Chart
    name: str = "region"
    bounds: tuple[tuple[str, Interval], ...] = ()
    nonzero: tuple[str, ...] = ()
    bump_values: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(chart: Chart, name: str = "region", bounds: Mapping[str, tuple] | None = None,
             nonzero: Iterable[str] = (), bump_values: Mapping[str, int] | None = None) -> "Region":
        bnds = tuple(
            (k, v if isinstance(v, Interval) else Interval(*v))
            for k, v in (bounds or {}).items()
        )
        nonzero = tuple(nonzero)
        coords = {c.name for c in chart.coords}
        for cname in [k for k, _ in bnds] + list(nonzero):
            if cname not in coords:
                raise ChartError(f"region {name!r}: {cname!r} is not a coordinate "
                                 f"of chart {chart.name!r}")
        return Region(chart, name, bnds, nonzero, tuple(sorted((bump_values or {}).items())))

    def bound_for(self, coord: str) -> Interval:
        return dict(self.bounds).get(coord, Interval())

    @property
    def bump_map(self) -> dict[str, int]:
        return dict(self.bump_values)

    # -- sampling ------------------------------------------------------

    def sample(self, rng) -> dict[str, complex]:
        """One point inside the region; deterministic for a seeded rng."""
        values: dict[str, complex] = {}
        for c in self.chart.coords:
            iv = self.bound_for(c.name)
            if c.kind != "complex":
                values[c.name] = complex(rng.uniform(*self._window(c.name, iv, c.kind)))
            elif iv.lo is not None or iv.hi is not None or c.name in self.nonzero:
                radius = rng.uniform(*self._window(c.name, iv, "modulus"))
                angle = rng.uniform(0.0, _TWO_PI)
                values[c.name] = radius * complex(math.cos(angle), math.sin(angle))
            else:
                re = rng.uniform(-2.0, 2.0)
                im = rng.uniform(-2.0, 2.0)
                values[c.name] = complex(re, im)
        return self.chart.point(values)

    def _window(self, coord: str, iv: Interval, kind: str) -> tuple[float, float]:
        """The sampling window (lo, hi) of a coordinate of the kind, or of a
        complex coordinate's ``modulus``; :class:`RegionError` when it is
        empty.

        The bounds' ends are taken, and the kind's default window fills in
        a missing one; a ``nonzero`` modulus starts at 0.25 at the least.
        Where that window is empty, the given ends are kept instead: a
        positive lower bound already excludes 0, a missing upper end lies
        one default width above the given lower one, and a missing lower
        end lies as far below the given upper one, or at half of it for a
        radial coordinate or a nonzero modulus.
        """
        dlo, dhi = _DEFAULT_WINDOW[kind]
        lo = dlo if iv.lo is None else iv.lo
        hi = dhi if iv.hi is None else iv.hi
        nonzero = kind == "modulus" and coord in self.nonzero
        if nonzero:
            lo = max(lo, 0.25)
        if hi <= lo:  # a default end crosses a given one
            positive = kind == "radial" or nonzero
            if iv.hi is None:
                hi = lo + dhi - dlo
            elif iv.lo is None or (positive and iv.lo <= 0):
                lo = hi / 2 if positive else hi - (dhi - dlo)
            else:
                lo = iv.lo
        if hi <= lo:
            raise RegionError(f"region {self.name!r} leaves no room to sample {coord!r}: "
                              f"its window ({lo:g}, {hi:g}) is empty")
        return lo, hi


def everywhere(chart: Chart) -> Region:
    return Region(chart, "everywhere")
