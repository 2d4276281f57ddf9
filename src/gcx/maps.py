"""Smooth maps between charts and the pullback of mixed forms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import sympy

from .chart import Chart, Region
from .forms import FormError, MixedForm, d_scalar, wedge_list
from .scalars import compile_exprs, is_structural_zero, merge_domains


class MapError(ValueError):
    """Incomplete or inconsistent coordinate map."""


@dataclass(frozen=True)
class CoordinateMap:
    """A map source -> target given by one scalar per target leg.

    For complex target coordinates the anti-holomorphic leg may be
    omitted, in which case it is filled in by formal conjugation of the
    holomorphic one.
    """

    source: Chart
    target: Chart
    assignments: tuple[tuple[str, sympy.Expr], ...]
    domain: Optional[Region] = None
    name: str = "map"

    @staticmethod
    def make(source: Chart, target: Chart, assignments: Mapping[str, object],
             domain: Optional[Region] = None, name: str = "map") -> "CoordinateMap":
        table: dict[str, sympy.Expr] = {}
        for key, expr in assignments.items():
            target.leg_index(key)
            table[key] = sympy.sympify(expr)
        for coord in target.coords:
            if coord.kind == "complex":
                bname = coord.name + "b"
                if coord.name in table and bname not in table:
                    table[bname] = source.conj_expr(table[coord.name])
                elif bname in table and coord.name not in table:
                    table[coord.name] = source.conj_expr(table[bname])
        missing = [leg.name for leg in target.legs if leg.name not in table]
        if missing:
            raise MapError(f"map {name!r} misses target legs {missing}")
        src_syms = set(source.symbols)
        for key, expr in table.items():
            extra = expr.free_symbols - src_syms
            if extra:
                raise MapError(
                    f"assignment {key!r} of map {name!r} uses non-source symbols {extra}"
                )
        return CoordinateMap(
            source, target, tuple(sorted(table.items(), key=lambda kv: kv[0])),
            domain, name,
        )

    @staticmethod
    def identity(chart: Chart, name: str = "id") -> "CoordinateMap":
        return CoordinateMap.make(
            chart, chart, {leg.name: leg.symbol for leg in chart.legs}, name=name
        )

    @property
    def table(self) -> dict[str, sympy.Expr]:
        return dict(self.assignments)

    def scalar_subs(self) -> dict[sympy.Symbol, sympy.Expr]:
        return {self.target.symbol(k): v for k, v in self.assignments}

    def apply_point(self, point: Mapping[str, complex]) -> dict[str, complex]:
        """Push a source point forward to the target chart."""
        keys = [k for k, _ in self.assignments]
        values = compile_exprs([v for _, v in self.assignments], self.source)(point)
        return self.target.point(dict(zip(keys, values)))

    def compose(self, outer: "CoordinateMap", name: str | None = None) -> "CoordinateMap":
        """The composite ``outer after self`` (self: A->B, outer: B->C)."""
        if outer.source != self.target:
            raise MapError("charts do not chain for composition")
        subs = self.scalar_subs()
        # simultaneous: source and target may share symbol names
        table = {
            k: sympy.sympify(v).subs(subs, simultaneous=True)
            for k, v in outer.assignments
        }
        return CoordinateMap.make(
            self.source, outer.target, table, self.domain,
            name or f"{outer.name}*{self.name}",
        )


def pullback(f: CoordinateMap, a: MixedForm) -> MixedForm:
    """Pull a form on the target chart back along f.

    Scalars are substituted; each target differential is replaced by the
    source exterior derivative of its defining scalar, so the pullback
    commutes with wedge and d by construction.
    """
    if a.chart != f.target:
        raise FormError(
            f"form lives on {a.chart.name!r}, expected target {f.target.name!r}"
        )
    subs = f.scalar_subs()
    dlegs = {
        f.target.leg_index(k): d_scalar(f.source, v) for k, v in f.assignments
    }
    out = MixedForm.zero(f.source)
    for key, c in a.terms.items():
        pc = sympy.sympify(c).subs(subs, simultaneous=True)
        if is_structural_zero(pc):
            continue
        factor = MixedForm.scalar(f.source, pc)
        if key:
            factor = wedge_list([factor] + [dlegs[i] for i in key])
        out = out + factor
    return MixedForm(out.chart, out.terms, merge_domains(f.domain, None))
