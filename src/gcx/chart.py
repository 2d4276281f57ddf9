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
from typing import Iterable, Mapping, Optional

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.rings import PolyElement, PolyRing, ring

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

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.legs)

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
    def ring(self) -> PolyRing:
        """The polynomials over the Gaussian rationals in the chart's legs."""
        return ring(self.symbols, QQ_I)[0]

    def to_ring(self, value) -> Optional[PolyElement]:
        """``value`` as an element of :attr:`ring`, or None when it is not a
        polynomial over ``QQ_I`` in the legs.

        A float is refused rather than read as the rational it rounds to.
        """
        if isinstance(value, PolyElement):
            return value if value.ring == self.ring else None
        value = sympy.sympify(value)
        if value.has(sympy.Float):
            return None
        try:
            return self.ring.from_expr(value)
        except ValueError:  # a denominator, a function, pi, a foreign symbol
            return None

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

    def conj_expr(self, expr) -> sympy.Expr:
        """Formal conjugation: swap z <-> zb, conjugate constants.

        Real-valued symbols (real/radial/angle legs, opaque bump
        symbols) are fixed; elementary functions are conjugated
        argument-wise, which is valid on the real domains this toolkit
        restricts them to.
        """
        expr = sympy.sympify(expr)
        swap = {}
        for i, leg in enumerate(self.legs):
            if leg.conj != i:
                swap[leg.symbol] = self.legs[leg.conj].symbol
        return _conj_walk(expr, swap)

    def conj_poly(self, p: PolyElement) -> PolyElement:
        """Formal conjugation in :attr:`ring`: each exponent moves to the
        conjugate leg's slot and each coefficient is conjugated."""
        conj = [leg.conj for leg in self.legs]
        return self.ring({
            tuple(monom[j] for j in conj): QQ_I.new(c.x, -c.y)
            for monom, c in p.iterterms()
        })


def _conj_walk(e: sympy.Expr, swap: dict) -> sympy.Expr:
    if e.is_Symbol:
        return swap.get(e, e)
    if e.is_Number or e is sympy.I:
        return sympy.conjugate(e)
    if not e.args:
        return e
    return e.func(*(_conj_walk(a, swap) for a in e.args))


@dataclass(frozen=True)
class Interval:
    lo: Optional[float] = None
    hi: Optional[float] = None

    def intersect(self, other: "Interval") -> "Interval":
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        return Interval(lo, hi)


# Default sampling windows per coordinate kind.
_DEFAULT_WINDOW = {
    "real": (-2.0, 2.0),
    "radial": (0.25, 2.0),
    "angle": (0.0, _TWO_PI),
    "complex": (-2.0, 2.0),  # box for Re and Im; modulus bounds may refine
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
        return Region(chart, name, bnds, tuple(nonzero), tuple(sorted((bump_values or {}).items())))

    def bound_for(self, coord: str) -> Interval:
        iv = Interval()
        for k, v in self.bounds:
            if k == coord:
                iv = iv.intersect(v)
        return iv

    @property
    def bump_map(self) -> dict[str, int]:
        return dict(self.bump_values)

    def intersect(self, other: "Region") -> "Region":
        if self.chart is not other.chart and self.chart != other.chart:
            raise RegionError("cannot intersect regions on different charts")
        bumps = dict(self.bump_values)
        for k, v in other.bump_values:
            if bumps.setdefault(k, v) != v:
                raise RegionError(f"conflicting bump pinning for {k!r}")
        return Region(
            self.chart,
            f"{self.name}&{other.name}",
            self.bounds + other.bounds,
            tuple(dict.fromkeys(self.nonzero + other.nonzero)),
            tuple(sorted(bumps.items())),
        )

    # -- sampling ------------------------------------------------------

    def sample(self, rng) -> dict[str, complex]:
        """One point inside the region; deterministic for a seeded rng."""
        values: dict[str, complex] = {}
        for c in self.chart.coords:
            iv = self.bound_for(c.name)
            if c.kind == "complex":
                if iv.lo is not None or iv.hi is not None or c.name in self.nonzero:
                    mlo = iv.lo if iv.lo is not None else 0.0
                    mhi = iv.hi if iv.hi is not None else 2.0
                    if c.name in self.nonzero:
                        mlo = max(mlo, 0.25)
                    radius = rng.uniform(mlo, mhi)
                    angle = rng.uniform(0.0, _TWO_PI)
                    values[c.name] = radius * complex(math.cos(angle), math.sin(angle))
                else:
                    re = rng.uniform(-2.0, 2.0)
                    im = rng.uniform(-2.0, 2.0)
                    values[c.name] = complex(re, im)
            else:
                lo, hi = _window(iv, c.kind)
                values[c.name] = complex(rng.uniform(lo, hi))
        return self.chart.point(values)


def merge_regions(a: Optional[Region], b: Optional[Region]) -> Optional[Region]:
    """The intersection of two optional regions; None when both are None."""
    if a is None:
        return b
    if b is None or b is a:
        return a
    return a.intersect(b)


def _window(iv: Interval, kind: str) -> tuple[float, float]:
    dlo, dhi = _DEFAULT_WINDOW[kind]
    lo = iv.lo if iv.lo is not None else dlo
    hi = iv.hi if iv.hi is not None else dhi
    if hi <= lo:
        hi = lo + 1e-6
    return lo, hi


def everywhere(chart: Chart) -> Region:
    return Region(chart, "everywhere")
