"""Coordinate charts, their rings, named sub-regions, and sample points.

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

A chart owns the polynomial rings in its legs (:attr:`Chart.ring`,
:meth:`Chart.extended_ring`); :mod:`gcx.scalars` reads values into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.rings import PolyRing, ring

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
        ``k``: the ring of :mod:`gcx.scalars`' fraction reader and of the
        solvers, where a coefficient of :attr:`ring` is read in lowest
        terms.  The extra generators' names are not identifiers, so no leg
        shares one."""
        extended = self._rings.get(k)
        if extended is None:
            extra = tuple(sympy.Symbol(f"extra {j}") for j in range(k))
            extended = self._rings[k] = ring(self.symbols + extra, QQ_I)[0]
        return extended

    @cached_property
    def leg_gens(self) -> dict:
        """Each leg's symbol mapped to its generator of
        :meth:`extended_ring` ``(0)``."""
        return dict(zip(self.symbols, self.extended_ring(0).gens))

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
