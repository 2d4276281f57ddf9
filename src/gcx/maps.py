"""Smooth maps between charts and the pullback of mixed forms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import sympy

from .chart import Chart
from .forms import FormError, MixedForm, as_expr, d_scalar, wedge_list
from .poly import GaussPoly, GaussRing
from .scalars import is_structural_zero, to_ring


class MapError(ValueError):
    """Incomplete or inconsistent coordinate map."""


@dataclass(frozen=True)
class CoordinateMap:
    """A map source -> target given by one scalar per target leg: an
    expression, or an element of the source chart's ring that stays one
    until :attr:`table` reads it.  For complex target coordinates the
    anti-holomorphic leg may be omitted, in which case it is filled in by
    formal conjugation of the holomorphic one.
    """

    source: Chart
    target: Chart
    assignments: tuple[tuple[str, object], ...]
    name: str = "map"

    @staticmethod
    def make(source: Chart, target: Chart, assignments: Mapping[str, object],
             name: str = "map") -> "CoordinateMap":
        table: dict[str, object] = {}
        for key, value in assignments.items():
            target.leg_index(key)
            ring = isinstance(value, GaussPoly) and value.ring == source.ring
            table[key] = value if ring else as_expr(value)
        for coord in target.coords:
            if coord.kind == "complex":
                bname = coord.name + "b"
                if coord.name in table and bname not in table:
                    table[bname] = source.conjugate(table[coord.name])
                elif bname in table and coord.name not in table:
                    table[coord.name] = source.conjugate(table[bname])
        missing = [leg.name for leg in target.legs if leg.name not in table]
        if missing:
            raise MapError(f"map {name!r} misses target legs {missing}")
        src_syms = set(source.symbols)
        for key, value in table.items():
            extra = set() if isinstance(value, GaussPoly) else value.free_symbols - src_syms
            if extra:
                raise MapError(
                    f"assignment {key!r} of map {name!r} uses non-source symbols {extra}"
                )
        return CoordinateMap(
            source, target, tuple(sorted(table.items(), key=lambda kv: kv[0])), name,
        )

    @cached_property
    def table(self) -> dict[str, sympy.Expr]:
        return {k: as_expr(v) for k, v in self.assignments}

    def scalar_subs(self) -> dict[sympy.Symbol, sympy.Expr]:
        return {self.target.symbol(k): v for k, v in self.table.items()}

    @cached_property
    def ring_images(self) -> Optional[tuple[GaussPoly, ...]]:
        """The assignment of each target leg, in leg order, as an element of
        the source chart's ring; None when one is not a polynomial."""
        values = dict(self.assignments)
        images = tuple(to_ring(self.source, values[leg.name]) for leg in self.target.legs)
        return None if any(g is None for g in images) else images

    @cached_property
    def differentials(self) -> tuple[MixedForm, ...]:
        """The source differential of each target leg's assignment, in leg
        order: of :attr:`ring_images` when the map is polynomial, else of
        :attr:`table`."""
        images = self.ring_images or [self.table[leg.name] for leg in self.target.legs]
        return tuple(d_scalar(self.source, g) for g in images)

    def compose(self, outer: "CoordinateMap", name: str | None = None) -> "CoordinateMap":
        """The composite ``outer after self`` (self: A->B, outer: B->C), by one
        simultaneous ``xreplace`` of B's legs, so A and B may share names."""
        if outer.source != self.target:
            raise MapError("charts do not chain for composition")
        subs = self.scalar_subs()
        table = {k: v.xreplace(subs) for k, v in outer.table.items()}
        return CoordinateMap.make(
            self.source, outer.target, table, name or f"{outer.name}*{self.name}",
        )


def _substitute(p: GaussPoly, images: tuple[GaussPoly, ...], ring: GaussRing
                ) -> Optional[GaussPoly]:
    """``p`` with every generator replaced by its image at once; the images
    live in ``ring``, which may differ from the ring of ``p``.  The
    numerator's terms are substituted and summed in ``ring``, and the sum
    is divided by the denominator of ``p`` at the end.  A quotient has its
    numerator and each denominator factor substituted, and is None when
    the image of a factor is zero."""
    if p.den_factors is not None:
        num, factors = p.fraction()
        out, dens = _substitute(num, images, ring), [_substitute(f, images, ring) for f in factors]
        if not all(dens):
            return None
        for den in dens:
            out = out / den
        return out
    out = ring.zero
    powers: dict[tuple[int, int], GaussPoly] = {}
    for monom, coeff in p.num.items():
        term = GaussPoly(ring, {ring.zero_monom: coeff}, 1)
        for i, n in enumerate(monom):
            if n:
                power = powers.get((i, n))
                if power is None:
                    power = powers[(i, n)] = images[i] ** n
                term = term * power
        out = out + term
    return GaussPoly(ring, out.num, out.den * p.den if out else 1)


def pullback(f: CoordinateMap, a: MixedForm) -> MixedForm:
    """Pull a form on the target chart back along f.

    Each target differential is replaced by the source exterior derivative
    of its defining scalar, so the pullback commutes with wedge and d by
    construction.  A ring coefficient pulled back along a polynomial map
    stays in the source chart's ring (:func:`_substitute`), unless it is a
    quotient with a denominator factor that pulls back to zero; any other
    has every target leg replaced at once by one ``xreplace``, complete
    since no coefficient holds a bound variable such as a ``Derivative``.  The
    ``xreplace`` substitution is built only when some coefficient needs it.
    """
    if a.chart != f.target:
        raise FormError(
            f"form lives on {a.chart.name!r}, expected target {f.target.name!r}"
        )
    images, dlegs, subs = f.ring_images, f.differentials, None
    out = MixedForm.zero(f.source)
    for key, c in a.coefficients.items():
        pc = None
        if isinstance(c, GaussPoly) and images is not None:
            pc = _substitute(c, images, f.source.ring)
        if pc is None:
            if subs is None:
                subs = f.scalar_subs()
            pc = as_expr(c).xreplace(subs)
        if not is_structural_zero(pc):
            out = out + wedge_list([MixedForm.scalar(f.source, pc)] + [dlegs[i] for i in key])
    return out
