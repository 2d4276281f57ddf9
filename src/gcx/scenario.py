"""The .gcx scenario language: declarations plus a command script.

Line-oriented; ``#`` starts a comment.  Declarations build named
charts, regions, bumps, forms, maps, spinors, groups, and manifold
descriptors; commands run checks and surgeries with machine-checkable
expected outcomes.  Statement clauses are separated by ``;``.

Form expressions use ``^`` for the wedge product, ``**`` for scalar
powers, ``d(...)`` for the exterior derivative, ``i`` for the imaginary
unit, and ``exp/re/im/conj/pullback`` plus the usual scalar functions.
A wedge with a repeated differential (``dx1^dx1``) parses to the zero
form with a warning.  Scalars stay bare, in the chart's polynomial ring
while polynomial (numbers, ``i``, legs; sums, products, powers, division
by a nonzero constant) and else as sympy expressions; a form (see
:mod:`gcx.forms`) is made only when a differential joins.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

import sympy

from .chart import Chart, Region
from .forms import (
    GeneralizedSection, MixedForm, as_expr, d as ext_d, exp_form, scalar_of, wedge,
)
from .maps import CoordinateMap, pullback
from .poly import GaussPoly
from .scalars import bump_function, is_structural_zero
from .groups import (
    AbelianInvariants, GroupPresentation, Word, checked_words, parse_relators, parse_word,
)
from .spinor import (
    RADIAL_PROFILES,
    XI,
    SpinorStructure,
    build_gluck_spinor,
    build_luttinger_spinor,
)
from .topology import (
    BranchComponent,
    BranchingData,
    ManifoldDescriptor,
    SurgeryLocus,
    TypeChangeComponent,
    apply_branched_cover,
    apply_gluck,
    apply_luttinger,
    keeps_signature,
    validate_surgery_params,
)


class ParseError(ValueError):
    """Syntax or semantic error, with the line that the statement loop gives it."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"[^"]*")
      | (?P<number>\d+\.\d*|\.\d+|\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\*\*|->|<=|>=|[][()<>|,;=+\-*/^:])
    )""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # string | number | name | op
    text: str


class TokenStream:
    """The tokens of one statement, scanned on demand."""

    def __init__(self, statement: str):
        self.text = statement
        self.pos = 0  # where the next unconsumed token's scan starts
        # the peeked token (None at the end of the statement) and its end
        self._next: Optional[tuple[Optional[Token], int]] = None

    def peek(self) -> Optional[Token]:
        if self._next is None:
            m = _TOKEN_RE.match(self.text, self.pos)
            if m is None:
                rest = self.text[self.pos:].lstrip()
                if rest:
                    raise ParseError(f"unexpected character {rest[0]!r}")
                self._next = (None, self.pos)
            else:
                kind = m.lastgroup
                self._next = (Token(kind, m.group(kind)), m.end())
        return self._next[0]

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of statement")
        self.pos = self._next[1]
        self._next = None
        return tok

    def expect(self, want: str) -> Token:
        tok = self.next()
        if tok.text != want:
            raise ParseError(f"expected {want!r}, got {tok.text!r}")
        return tok

    def accept(self, want: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == want:
            self.next()
            return True
        return False

    def at_end(self) -> bool:
        return self.peek() is None

    def raw_until(self, char: str) -> str:
        """Consume the raw text up to the next ``char``, and the char."""
        end = self.text.find(char, self.pos)
        if end < 0:
            raise ParseError(f"expected {char!r}")
        raw = self.text[self.pos:end]
        self.pos = end + 1
        self._next = None
        return raw


# ---------------------------------------------------------------------------
# Scenario object
# ---------------------------------------------------------------------------


@dataclass
class Command:
    kind: str  # check | product | report: the runner's cmd_<kind>
    payload: dict
    line: int
    text: str


@dataclass
class Scenario:
    title: str = ""
    charts: dict[str, Chart] = field(default_factory=dict)
    regions: dict[str, Region] = field(default_factory=dict)
    bumps: dict[str, type] = field(default_factory=dict)  # name -> bump class
    forms: dict[str, MixedForm] = field(default_factory=dict)
    maps: dict[str, CoordinateMap] = field(default_factory=dict)
    spinors: dict[str, SpinorStructure] = field(default_factory=dict)
    groups: dict[str, GroupPresentation] = field(default_factory=dict)
    manifolds: dict[str, ManifoldDescriptor] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    statements: list[str] = field(default_factory=list)
    line: int = 0  # the line of the statement being read
    # (table, scope, name) -> the line that declared it
    declared: dict[tuple[str, str, str], int] = field(default_factory=dict)

    def declare(self, table: str, name: str, scope: str = "") -> str:
        """Record ``name`` as declared in ``table`` on this line; a second
        declaration into the same table is a parse error naming the first."""
        key = (table, scope, name)
        if key in self.declared:
            raise ParseError(f"{table} {name!r}{scope} is already declared "
                             f"on line {self.declared[key]}")
        self.declared[key] = self.line
        return name

    def command(self, kind: str, payload: dict):
        """Append the command that the statement being read makes."""
        self.commands.append(Command(kind, payload, self.line, self.statements[-1]))

    def pretty(self) -> str:
        """Canonical text whose re-parse is structurally identical."""
        return "\n".join(self.statements) + "\n"

    def only_chart(self) -> Chart:
        if len(self.charts) != 1:
            raise ParseError("statement needs an explicit 'on <chart>' clause")
        return next(iter(self.charts.values()))


# ---------------------------------------------------------------------------
# Expression parser (scalars in the chart's ring until a form joins)
# ---------------------------------------------------------------------------

_SCALAR_FUNCS = {
    "sqrt": sympy.sqrt, "log": sympy.log, "sin": sympy.sin, "cos": sympy.cos,
}

Value = Union[GaussPoly, sympy.Expr, MixedForm]  # a scalar, or a form

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3, "**": 4}


class ExprParser:
    """Pratt parser over a fixed chart.  A scalar stays bare: in ``chart.ring``
    while it is a polynomial or a quotient by a nonzero one, else a sympy
    expression that is not a structural zero.  A MixedForm is made only when
    a differential, a named form or a form function joins, with the value
    that reading scalars as 0-forms gives."""

    def __init__(self, scenario: Scenario, chart: Chart, ts: TokenStream):
        self.sc = scenario
        self.chart = chart
        self.ts = ts

    def parse(self, min_prec: int = 0) -> Value:
        left = self.atom()
        while True:
            tok = self.ts.peek()
            if tok is None or tok.kind != "op":
                break
            prec = _PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self.ts.next()
            if tok.text == "**":
                n = self.ts.next()
                if not n.text.isdigit():
                    raise ParseError("** needs an integer exponent")
                left = self.scalar(left) ** int(n.text)
                continue
            right = self.parse(prec + 1)
            left = self.combine(tok.text, left, right)
        return left

    def form(self, value: Value) -> MixedForm:
        return value if isinstance(value, MixedForm) else MixedForm.scalar(self.chart, value)

    def expr(self, value: sympy.Expr) -> Value:
        return self.chart.ring.zero if is_structural_zero(value) else value

    def atom(self) -> Value:
        tok = self.ts.next()
        if tok.kind == "number":
            text = tok.text
            return self.chart.ring.ground_new(int(text) if text.isdigit() else Fraction(text))
        if tok.text == "(":
            inner = self.parse()
            self.ts.expect(")")
            return inner
        if tok.text == "-":
            return -self.parse(5)
        if tok.text == "+":
            return self.parse(5)
        if tok.kind == "name":
            return self.name_atom(tok)
        raise ParseError(f"unexpected token {tok.text!r} in expression")

    def name_atom(self, tok: Token) -> Value:
        name = tok.text
        if name == "i":
            return self.chart.ring.i
        if name == "pi":
            return sympy.pi
        following = self.ts.peek()
        if following is not None and following.text == "(":
            return self.call(name)
        # differential of a leg
        if name.startswith("d") and name[1:] in self.chart:
            return MixedForm.basis(self.chart, name[1:])
        if name in self.chart:
            return self.chart.ring.gens[self.chart.leg_index(name)]
        if name in self.sc.forms:
            f = self.sc.forms[name]
            if f.chart != self.chart:
                raise ParseError(f"form {name!r} lives on chart {f.chart.name!r}")
            return f
        raise ParseError(f"unknown name {name!r}")

    def call(self, name: str) -> Value:
        self.ts.expect("(")
        if name == "pullback":
            mname = self.ts.next().text
            cmap = _named(self.sc.maps, "map", mname)
            self.ts.expect(",")
            arg = parse_expr(self.sc, cmap.target, self.ts)
            self.ts.expect(")")
            if cmap.source != self.chart:
                raise ParseError(f"pullback along {mname!r} lands on {cmap.source.name!r}")
            return pullback(cmap, arg)
        arg = self.parse()
        self.ts.expect(")")
        if name == "d":
            return ext_d(self.form(arg))
        if name == "exp":
            return self.exp(self.form(arg))
        if name == "re":
            return self.form(arg).real_part()
        if name == "im":
            return self.form(arg).imag_part()
        if name == "conj":
            return self.form(arg).conjugate()
        func = _SCALAR_FUNCS.get(name) or self.sc.bumps.get(name)
        if func is None:
            raise ParseError(f"unknown function {name!r}")
        return self.expr(func(as_expr(self.scalar(arg))))

    def exp(self, arg: MixedForm) -> MixedForm:
        rest = arg - arg.degree_block(0)
        out = exp_form(rest) if not rest.is_zero() else MixedForm.one(self.chart)
        if () in arg.coefficients:
            out = out.scale(sympy.exp(as_expr(arg.coefficients[()])))
        return out

    def scalar(self, value: Value, message: str = "expected a scalar expression"):
        """The stored coefficient of a degree-0 value."""
        if not isinstance(value, MixedForm):
            return value
        if not value.is_homogeneous(0):
            raise ParseError(message)
        return value.coefficients.get((), self.chart.ring.zero)

    def scale(self, value: Value, factor) -> Value:
        """``value`` times a scalar, kept in the ring as MixedForm.scale keeps it."""
        if isinstance(value, MixedForm):
            return value.scale(factor)
        return self.expr(scalar_of(self.chart, factor) * value)

    def combine(self, op: str, a: Value, b: Value) -> Value:
        if op == "-":
            op, b = "+", -b
        if op == "+":
            if isinstance(a, MixedForm) or isinstance(b, MixedForm):
                return self.form(a) + self.form(b)
            return self.expr(a + b)
        if op == "^":
            a, b = self.form(a), self.form(b)
            out = wedge(a, b)
            # a shared key means that both factors have terms
            if out.is_zero() and any(set(k1) & set(k2) for k1 in a.coefficients
                                      for k2 in b.coefficients):
                self.sc.warnings.append(
                    f"line {self.sc.line}: wedge with repeated differential is zero")
            return out
        if op == "*":
            if isinstance(a, MixedForm) and not a.is_homogeneous(0):
                a, b = b, a  # the scalar factor first
            message = "'*' needs a scalar factor; use '^' to wedge forms"
            return self.scale(b, self.scalar(a, message))
        # op == "/"
        divisor = self.scalar(b)
        if isinstance(divisor, GaussPoly) and divisor:
            return self.scale(a, divisor.inverse())
        # an expression or a zero divisor goes to the expression path, so
        # 1/(z1 - z1) is zoo and fails its check
        return self.scale(a, 1 / as_expr(divisor))


def parse_expr(sc: Scenario, chart: Chart, ts: TokenStream) -> MixedForm:
    parser = ExprParser(sc, chart, ts)
    return parser.form(parser.parse())


# ---------------------------------------------------------------------------
# Statement parsing
# ---------------------------------------------------------------------------


def _strip_comment(raw: str) -> str:
    # a '#' after an even number of quotes is outside every string
    pos = raw.find("#")
    while pos >= 0:
        if raw.count('"', 0, pos) % 2 == 0:
            return raw[:pos]
        pos = raw.find("#", pos + 1)
    return raw


def _read_statements(sc: Scenario, source: str, read: Callable):
    """``read(sc, statement)`` for every line that is not blank or a comment,
    with ``sc.line`` set to its number; an error it raises names that line."""
    for sc.line, raw in enumerate(source.splitlines(), start=1):
        statement = " ".join(_strip_comment(raw).split())
        if statement:
            try:
                read(sc, statement)
            except ValueError as exc:  # gcx's errors, and sympy's on a bad constant
                raise ParseError(str(exc), sc.line) from exc


def parse_scenario(source: str) -> Scenario:
    sc = Scenario()
    _read_statements(sc, source, _parse_statement)
    _resolve_manifolds(sc)
    return sc


def read_title(source: str) -> str:
    """The title that :func:`parse_scenario` gives, read without the other statements."""
    sc = Scenario()
    _read_statements(sc, source, _read_title_statement)
    return sc.title


def _read_title_statement(sc: Scenario, statement: str):
    ts = TokenStream(statement)
    if ts.accept("title"):
        _stmt_title(sc, ts)
        _assert_consumed(ts)


def _resolve_manifolds(sc: Scenario):
    """Every manifold a command names is declared or made by an earlier
    command, and ``check sigma`` names one whose signature is known."""
    signature_known = {name: m.signature is not None for name, m in sc.manifolds.items()}
    for cmd in sc.commands:
        p = cmd.payload
        name = p.get("manifold")
        if p.get("what") == "abelianization" and p["target"] not in sc.groups:
            name = p["target"]
        if name is not None and name not in signature_known:
            raise ParseError(f"unknown manifold {name!r}", cmd.line)
        if p.get("what") == "sigma" and not signature_known[name]:
            raise ParseError(f"the signature of manifold {name!r} is unknown", cmd.line)
        if "new" in p:
            known = signature_known[name] and keeps_signature(p.get("branching"))
            signature_known[p["new"]] = known


def _parse_statement(sc: Scenario, statement: str):
    sc.statements.append(statement)
    ts = TokenStream(statement)
    head = ts.next()
    table: dict[str, Callable] = {
        "title": _stmt_title, "chart": _stmt_chart, "region": _stmt_region,
        "bump": _stmt_bump, "form": _stmt_form, "scalar": _stmt_form,
        "map": _stmt_map, "spinor": _stmt_spinor, "build": _stmt_build,
        "group": _stmt_group, "manifold": _stmt_manifold, "locus": _stmt_locus,
        "check": _stmt_check, "surgery": _stmt_surgery,
        "cover": lambda sc, ts: _stmt_cover(sc, ts, branches=False),
        "report": _stmt_report,
    }
    if head.text == "branched" and ts.accept("-"):
        ts.expect("cover")
        fn = _stmt_cover
    else:
        fn = table.get(head.text)
        if fn is None:
            raise ParseError(f"unknown statement {head.text!r}")
    try:
        fn(sc, ts)
    except RecursionError:  # the expression parser recurses once per nesting level
        raise ParseError("expression nested too deeply") from None
    _assert_consumed(ts)


def _stmt_title(sc, ts):
    tok = ts.next()
    if tok.kind != "string":
        raise ParseError("title needs a quoted string")
    sc.title = tok.text.strip('"')


def _items(ts: TokenStream, sep: str):
    """Yield once for each item of a ``sep``-separated list of at least one."""
    yield
    while ts.accept(sep):
        yield


def _stmt_chart(sc, ts):
    name = sc.declare("chart", ts.next().text)
    ts.expect("=")
    coords = []
    for _ in _items(ts, ","):
        kind = ts.next().text
        coords.append((ts.next().text, kind))
    sc.charts[name] = Chart(name, coords)


def _read_number(ts) -> float:
    sign = -1.0 if ts.accept("-") else 1.0
    tok = ts.next()
    if tok.kind != "number":
        raise ParseError(f"expected a number, got {tok.text!r}")
    return sign * float(sympy.Rational(tok.text))


def _read_int(ts) -> int:
    """An integer with an optional sign; ``2.5`` and ``2.0`` are not integers."""
    sign = -1 if ts.accept("-") else 1
    tok = ts.next()
    if not tok.text.isdigit():
        raise ParseError(f"expected an integer, got {tok.text!r}")
    return sign * int(tok.text)


def _stmt_region(sc, ts):
    name = sc.declare("region", ts.next().text)
    ts.expect("on")
    chart = _chart_ref(sc, ts)
    ts.expect("=")
    bounds: dict[str, tuple] = {}
    nonzero: list[str] = []
    bump_values: dict[str, int] = {}

    def once(seen, cname: str, what: str) -> str:
        if cname in seen:
            raise ParseError(f"region {name!r} {what} {cname!r} twice")
        return cname

    for _ in _items(ts, ","):
        if ts.accept("nonzero"):
            nonzero.append(once(nonzero, ts.next().text, "names nonzero"))
            continue
        bar = ts.accept("|")
        cname = ts.next().text
        if bar:
            ts.expect("|")
            ts.expect("in")
        if bar or ts.accept("in"):
            bounds[once(bounds, cname, "bounds")] = _interval(ts)
        else:
            ts.expect("=")
            val = _read_int(ts)
            if val not in (0, 1):
                raise ParseError("bump pinning must be 0 or 1")
            bump_values[once(bump_values, cname, "pins bump")] = val
    sc.regions[name] = Region.make(chart, name, bounds, nonzero, bump_values)


def _int_list(ts) -> list[int]:
    """``[a, b, ...]``; the commas are optional."""
    ts.expect("[")
    out = []
    while not ts.accept("]"):
        out.append(_read_int(ts))
        ts.accept(",")
    return out


def _spin_flag(ts) -> str:
    """A spin flag: one name, or ``non-spin``."""
    tok = ts.next().text
    if tok == "non" and ts.accept("-"):
        tok = "non-" + ts.next().text
    return tok


def _interval(ts) -> tuple[float, float]:
    ts.expect("(")
    lo = _read_number(ts)
    ts.expect(",")
    hi = _read_number(ts)
    ts.expect(")")
    if not lo < hi:
        raise ParseError(f"empty interval ({lo:g}, {hi:g})")
    return (lo, hi)


def _stmt_bump(sc, ts):
    name = sc.declare("bump", ts.next().text)
    ts.expect("=")
    ts.expect("0")
    ts.expect("upto")
    zero_upto = _read_number(ts)
    ts.expect(",")
    ts.expect("1")
    ts.expect("from")
    one_from = _read_number(ts)
    sc.bumps[name] = bump_function(name, zero_upto, one_from)


def _chart_ref(sc, ts) -> Chart:
    tok = ts.peek()
    if tok is not None and tok.kind == "name" and tok.text in sc.charts:
        ts.next()
        return sc.charts[tok.text]
    raise ParseError("expected a chart name")


def _opt_chart(sc, ts) -> Chart:
    if ts.accept("on"):
        return _chart_ref(sc, ts)
    return sc.only_chart()


def _stmt_form(sc, ts):
    name = sc.declare("form", ts.next().text)
    chart = _opt_chart(sc, ts)
    ts.expect("=")
    sc.forms[name] = parse_expr(sc, chart, ts)


def _stmt_map(sc, ts):
    name = sc.declare("map", ts.next().text)
    ts.expect(":")
    source = _chart_ref(sc, ts)
    ts.expect("->")
    target = _chart_ref(sc, ts)
    ts.expect("=")
    table = {}
    for _ in _items(ts, ","):
        leg = ts.next().text
        ts.expect("->")
        table[leg] = _scalar(sc, source, ts, "map assignments must be scalar expressions")
    sc.maps[name] = CoordinateMap.make(source, target, table, name=name)


def _scalar(sc, chart, ts, message: str):
    """A value that must be a scalar, as its stored degree-0 coefficient;
    a form raises ``message``."""
    parser = ExprParser(sc, chart, ts)
    return parser.scalar(parser.parse(), message)


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise ParseError(f"unknown {kind} {name!r}")
    return table[name]


def _clauses(ts, statement: str, readers: dict[str, Callable], got: Optional[dict] = None) -> dict:
    """The ``;``-separated clauses of a statement, keyword -> value.

    Each clause is a keyword and what its reader reads from ``ts`` after it.  An
    unknown keyword is a parse error, and so is one given twice, except
    ``component``, whose values are collected in a tuple.  ``got`` is
    filled as the clauses are read, so a reader may look at the earlier
    ones.
    """
    got = {} if got is None else got
    for _ in _items(ts, ";"):
        key = ts.next().text
        if key not in readers:
            raise ParseError(f"unknown {statement} clause {key!r}")
        if key == "component":
            got[key] = got.get(key, ()) + (readers[key](ts),)
        elif key in got:
            raise ParseError(f"{statement} clause {key!r} is given twice")
        else:
            got[key] = readers[key](ts)
    return got


def _stmt_spinor(sc, ts):
    name = sc.declare("spinor", ts.next().text)
    ts.expect("=")
    got: dict = {}

    def chart():
        return got.get("on") or sc.only_chart()

    def form(ts):
        return parse_expr(sc, chart(), ts)

    def region(ts):
        return _named(sc.regions, "region", ts.next().text)

    def vector(ts):
        out = {}
        for _ in _items(ts, ","):
            leg = ts.next().text
            ts.expect("=")
            out[leg] = _scalar(sc, chart(), ts, f"vector {leg!r} needs a scalar expression")
        return out

    readers = {"on": lambda ts: _chart_ref(sc, ts), "rho": form, "h": form,
               "region": region, "vector": vector, "covector": form}
    first = ts.peek()
    if first is None or first.text not in readers:
        # shorthand: the whole right-hand side is the spinor expression
        sc.spinors[name] = SpinorStructure.make(form(ts))
        return
    _clauses(ts, "spinor", readers, got)
    if "rho" not in got:
        raise ParseError("spinor needs a 'rho' clause")
    certificate = None
    if "vector" in got or "covector" in got:
        certificate = GeneralizedSection.make(chart(), got.get("vector"), got.get("covector"))
    sc.spinors[name] = SpinorStructure.make(
        got["rho"], got.get("h"), region=got.get("region"), certificate=certificate
    )


def _params(ts) -> tuple[int, int, int, int]:
    ts.expect("(")
    vals = tuple(_read_int(ts) for _ in _items(ts, ","))
    ts.expect(")")
    if len(vals) != 4:
        raise ParseError("params needs four integers (p, q, a, b)")
    return vals


def _stmt_build(sc, ts):
    which = ts.next().text
    if which not in ("luttinger", "gluck"):
        raise ParseError("build needs 'luttinger' or 'gluck'")
    name = sc.declare("spinor", ts.next().text)
    ts.expect("=")
    ts.expect("params")
    params = _params(ts)
    got: dict = {}
    if ts.accept(";"):
        _clauses(ts, "build", {
            "on": lambda ts: _chart_ref(sc, ts),
            "sigma": lambda ts: parse_expr(sc, got.get("on") or sc.only_chart(), ts),
        }, got)
    chart, extra = got.get("on"), got.get("sigma")
    xi = sc.bumps.setdefault("xi", XI)
    if which == "luttinger":
        sc.spinors[name] = build_luttinger_spinor(params, sigma_form=extra, chart=chart, bump=xi)
    else:
        sc.spinors[name] = build_gluck_spinor(params, r_form=extra, chart=chart, bump=xi)


def _presentation(ts) -> GroupPresentation:
    """``< gens | relators >``: the generators are a comma-separated list of
    names, maybe empty; the relator body runs to the first ``>``."""
    ts.expect("<")
    gens = []
    if not ts.accept("|"):
        for _ in _items(ts, ","):
            tok = ts.next()
            if tok.kind != "name":
                raise ParseError(f"expected a generator name, got {tok.text!r}")
            gens.append(tok.text)
        ts.expect("|")
    # spaces are deleted, so `x y` is the one generator `xy`
    body = ts.raw_until(">").replace(" ", "")
    gens = tuple(gens)
    return GroupPresentation(gens, checked_words(gens, parse_relators(body)))


def _stmt_group(sc, ts):
    name = sc.declare("group", ts.next().text)
    ts.expect("=")
    sc.groups[name] = _presentation(ts)


def _group_ref(sc, ts) -> GroupPresentation:
    """A presentation, or the name of a declared group."""
    tok = ts.peek()
    if tok is not None and tok.text == "<":
        return _presentation(ts)
    return _named(sc.groups, "group", ts.next().text)


# clause keyword -> ManifoldDescriptor field, where the two differ
_MANIFOLD_FIELDS = {"dim": "dimension", "chi": "euler", "sigma": "signature",
                    "component": "components"}


def _stmt_manifold(sc, ts):
    name = sc.declare("manifold", ts.next().text)
    ts.expect("=")
    got = _clauses(ts, "manifold", {
        "dim": _read_int, "chi": _read_int, "sigma": _read_int, "b2": _read_int,
        "spin": _spin_flag, "pi1": lambda ts: None if ts.accept("unknown") else _group_ref(sc, ts),
        "component": lambda ts: TypeChangeComponent.make(ts.next().text),
    })
    if "dim" not in got or "chi" not in got:
        raise ParseError("manifold needs 'dim' and 'chi'")
    sc.manifolds[name] = ManifoldDescriptor(
        name=name, **{_MANIFOLD_FIELDS.get(key, key): value for key, value in got.items()})


def _word(ts) -> Word:
    """One free-group word, up to ';' or the end of the statement, whose
    factors are joined by ``*``: ``1 junk`` and ``l1 x`` are parse errors."""
    text, ends_factor = "", False
    while (tok := ts.peek()) is not None and tok.text != ";":
        atom = tok.kind != "op"
        if ends_factor and (atom or tok.text == "["):
            raise ParseError(f"expected '*' or ';' before {tok.text!r} in a group word")
        ends_factor = atom or tok.text == "]"
        text += ts.next().text
    if not text:
        raise ParseError("expected a group word")
    return parse_word(text)


# clause keyword -> SurgeryLocus field, where the two differ
_LOCUS_FIELDS = {"nontrivial_neighborhood": "neighborhood_trivial",
                 "not_j_symplectic": "j_symplectic"}


def _stmt_locus(sc, ts):
    name = ts.next().text
    ts.expect("on")
    mname = ts.next().text
    m = _named(sc.manifolds, "manifold", mname)
    sc.declare("locus", name, scope=f" on manifold {mname!r}")
    ts.expect("=")
    got = _clauses(ts, "locus", {
        "kind": lambda ts: ts.next().text, "complement": lambda ts: _group_ref(sc, ts),
        "meridian": _word, "circle1": _word, "circle2": _word,
        "sigma_label": lambda ts: ts.next().text, "r_b1": _read_int,
        "nontrivial_neighborhood": lambda ts: False, "not_j_symplectic": lambda ts: False,
    })
    if "kind" not in got:
        raise ParseError("locus needs a 'kind' clause")
    locus = SurgeryLocus(name=name, **{_LOCUS_FIELDS.get(key, key): value
                                       for key, value in got.items()})
    sc.manifolds[mname] = replace(m, loci=m.loci + (locus,))


def _point(sc, chart, ts) -> dict[str, complex]:
    """``leg = value`` pairs, each value a constant expression on the chart,
    as the chart's canonical point.

    Each leg of the chart is given at most once, a real-valued leg gets a
    real value, a radial leg a positive one, and a conjugate leg given
    beside its partner gets exactly the partner's conjugate; the parsed
    values are compared, not floats.  Every leg must have a value once
    conjugates are filled in.
    """
    out, exact = {}, {}
    for _ in _items(ts, ","):
        leg = ts.next().text
        index = chart.leg_index(leg)
        if leg in exact:
            raise ParseError(f"coordinate {leg!r} is given twice")
        ts.expect("=")
        message = f"coordinate {leg!r} needs a constant value"
        number = as_expr(_scalar(sc, chart, ts, message))
        if not number.is_number:
            raise ParseError(message)
        partner = chart.legs[chart.conj_index(index)].name
        if partner == leg and sympy.im(number).is_zero is False:
            raise ParseError(f"coordinate {leg!r} is real, but its value is {number}")
        if partner in exact and not is_structural_zero(
                sympy.expand(sympy.conjugate(exact[partner]) - number)):
            raise ParseError(f"coordinate {leg!r} is not the conjugate of {partner!r}")
        exact[leg] = number
        out[leg] = complex(number)
        if not cmath.isfinite(out[leg]):
            raise ParseError(f"coordinate {leg!r} has no finite value")
        if chart.legs[index].symbol.is_positive and not out[leg].real > 0:
            raise ParseError(f"coordinate {leg!r} is radial, but its value is {number}")
    return chart.point(out)


# The two expectation words of each yes/no check, the holding one first.
# Every other check expects an integer, except abelianization (rank and
# torsion) and classify5 (a quoted string).
VERDICTS = {
    "params": ("ok", "reject"), "riemann-hurwitz": ("ok", "reject"),
    "lemma": ("ok", "fail"), "assembly": ("ok", "fail"),
    "stable": ("true", "false"), "integrable": ("true", "false"),
    "nondegenerate": ("true", "false"), "hetero": ("true", "false"),
    "equal": ("equal", "different"),
}


def _stmt_check(sc, ts):
    what = ts.next().text
    payload: dict = {"what": what}
    chart = None  # the chart a region clause must lie on
    if what == "params":
        payload["params"] = _params(ts)
    elif what in ("type", "nondegenerate"):
        spinor = payload["spinor"] = _named(sc.spinors, "spinor", ts.next().text)
        chart = spinor.chart
        ts.expect("at")
        payload["point"] = _point(sc, chart, ts)
        if what == "type" and ts.accept("on"):
            payload["region"] = _named(sc.regions, "region", ts.next().text)
    elif what in ("stable", "integrable"):
        payload["spinor"] = _named(sc.spinors, "spinor", ts.next().text)
    elif what == "equal":
        chart = _opt_chart(sc, ts)
        payload["left"] = parse_expr(sc, chart, ts)
        ts.expect(",")
        payload["right"] = parse_expr(sc, chart, ts)
        if ts.accept("on"):
            payload["region"] = _named(sc.regions, "region", ts.next().text)
    elif what in ("lemma", "assembly"):
        ts.expect("params")
        payload["params"] = _params(ts)
        payload["profile"] = ts.next().text if ts.accept("profile") else "lemma"
        if payload["profile"] not in RADIAL_PROFILES:
            raise ParseError(f"unknown radial profile {payload['profile']!r}")
    elif what in ("chi", "sigma", "components", "hetero"):
        payload["manifold"] = ts.next().text
    elif what == "abelianization":
        payload["target"] = ts.next().text
    elif what == "classify5":
        if ts.accept("k"):
            payload["k"] = _read_int(ts)
        else:
            ts.expect("b2")
            b2 = _read_int(ts)
            ts.expect("genus")
            genus = _read_int(ts)
            payload["k"] = b2 + 2 * genus - 1
        ts.expect("spin")
        payload["spin"] = _spin_flag(ts)
    elif what == "riemann":
        ts.expect("-")
        ts.expect("hurwitz")
        what = payload["what"] = "riemann-hurwitz"
        ts.expect("gcover")
        payload["gcover"] = _read_int(ts)
        ts.expect("gbase")
        payload["gbase"] = _read_int(ts)
        ts.expect("degree")
        payload["degree"] = _read_int(ts)
        ts.expect("indices")
        payload["indices"] = _int_list(ts)
    else:
        raise ParseError(f"unknown check {what!r}")
    ts.expect("expect")
    if what == "abelianization":
        ts.expect("rank")
        rank = _read_int(ts)
        ts.expect("torsion")
        payload["expect"] = AbelianInvariants(rank, tuple(_int_list(ts)))
    elif what == "classify5":
        tok = ts.next()
        if tok.kind != "string":
            raise ParseError("classify5 expects a quoted string")
        payload["expect"] = tok.text.strip('"')
    elif what in VERDICTS:
        word = ts.next().text
        if word not in VERDICTS[what]:
            raise ParseError(f"check {what} expects {' or '.join(VERDICTS[what])}, "
                             f"got {word!r}")
        payload["expect"] = word
    else:
        payload["expect"] = _read_int(ts)
    region = payload.get("region")
    if region is not None and region.chart != chart:
        raise ParseError(f"region {region.name!r} lies on chart {region.chart.name!r}, "
                         f"not on {chart.name!r}")
    sc.command("check", payload)


def _stmt_surgery(sc, ts):
    new = sc.declare("manifold", ts.next().text)
    ts.expect("=")
    which = ts.next().text
    if which not in ("luttinger", "gluck"):
        raise ParseError("surgery needs 'luttinger' or 'gluck'")
    mname = ts.next().text
    ts.expect("at")
    lname = ts.next().text
    ts.expect("params")
    params = _params(ts)
    surgery = apply_luttinger if which == "luttinger" else apply_gluck
    # the locus and the parameters are checked when the product is made
    sc.command("product", {"new": new, "manifold": mname, "make": lambda m: surgery(
        m, m.locus(lname), validate_surgery_params(*params))})


def _stmt_cover(sc, ts, branches: bool = True):
    """``branched-cover``, and with ``branches`` off ``cover``: a cover is a
    branched cover without branch components."""
    new = sc.declare("manifold", ts.next().text)
    ts.expect("=")
    mname = ts.next().text
    ts.expect("degree")
    deg = _read_int(ts)
    components = []
    while branches and ts.accept(";"):
        ts.expect("branch")
        label = ts.next().text
        ts.expect("chi")
        chi = _read_int(ts)
        ts.expect("indices")
        idx = []
        while not ts.at_end() and ts.peek().kind == "number":
            idx.append(_read_int(ts))
            ts.accept(",")
        components.append(BranchComponent(label, chi, tuple(idx)))
    branching = BranchingData(deg, tuple(components))
    sc.command("product", {"new": new, "manifold": mname, "branching": branching,
                           "make": lambda m: apply_branched_cover(m, branching)})


def _stmt_report(sc, ts):
    ts.expect("components")
    mname = ts.next().text
    sc.command("report", {"manifold": mname})


def _assert_consumed(ts: TokenStream):
    rest = []
    while not ts.at_end():
        rest.append(ts.next().text)
    if rest:
        raise ParseError(f"trailing tokens: {' '.join(rest)!r}")
