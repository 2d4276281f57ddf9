"""Source hygiene: no module of the package imports a name it never uses,
no module imports numpy or mpmath, numpy is no declared dependency, gcds
and sympy's expansion run only in the functions listed for each, nothing
calls sympy's ``cancel``, ``together``, ``solve`` or ``subs``, no function
asks whether a whole form is polynomial, only ``scalars.read_fractions``
and ``scalars.to_ring`` call the fraction reader, ``chart.py`` holds no
reader, no module imports a private name of ``gcx.scalars``, package code
reads form coefficients as stored, not through their expression view,
``QQ_I`` is named only where a coefficient leaves the kernel, and a
coefficient's kind is tested only where the algorithm differs by kind,
no module names sympy's Gaussian integers ``ZZ_I`` or reads a ring
of them, and no module compiles through sympy's printers."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import gcx
from gcx import parse_scenario, run
from gcx.poly import GaussPoly

_PACKAGE = Path(gcx.__file__).parent
_SOURCES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a name anywhere in the
    module, the root of an attribute chain included, or inside a quoted
    annotation.  ``from __future__`` imports are not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_unused_import_is_reported():
    assert unused_imports("import os\nfrom typing import Optional\nx: Optional[int] = 1\n") == [
        "line 1: os"
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from x import T\ndef f() -> 'T': pass\n") == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules an import statement names; relative
    imports are left out."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_numpy(path):
    # mpmath too: every solve is exact, and numeric evaluation uses cmath
    assert not {"numpy", "mpmath"} & imported_modules(path.read_text()), path.name


@pytest.mark.parametrize("name", ["groups.py", "topology.py"])
def test_topology_layer_does_not_import_sympy(name):
    # group presentations and surgery invariants are integer bookkeeping:
    # neither module imports sympy, nor any package module but groups
    source = (_PACKAGE / name).read_text()
    assert "sympy" not in imported_modules(source), name
    relative = {node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative <= {"groups"}, name


def test_imported_modules_reads_every_import_form():
    source = "import numpy.linalg as la\nfrom sympy.printing import pycode\nfrom .chart import Chart\n"
    assert imported_modules(source) == {"numpy", "sympy"}


def test_numpy_is_not_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert "numpy" not in {re.match(r"[\w.-]+", req).group(0).lower() for req in requirements}


_SIMPLIFIERS = ("cancel", "together", "expand", "gcd", "solve", "subs")
# the functions that may call each: equality reads fractions and takes no
# gcd, and compiling and the surgery certificate's smoothness check put
# each coefficient in lowest terms in the chart's ring, where a gcd runs
# only for a leftover denominator factor that is not provably irreducible,
# so no function may cancel; stability is decided by Groebner bases, so
# no function may call solve; a pullback or composition substitutes with
# xreplace, and a ring image with maps._substitute, so no function may
# call subs; the kernel's coefficients take no gcd, the inverse of a
# constant takes one of three integers, and a quotient's hash takes the
# gcd of its numerator and denominator, so equal values hash alike
_CANCEL_SITES: set[str] = set()
_SIMPLIFIER_SITES = {
    "cancel": _CANCEL_SITES,
    "together": _CANCEL_SITES,
    "expand": {"scenario._point"},
    "gcd": {"scalars.lowest_terms", "poly.GaussPoly.inverse", "poly.GaussPoly.__hash__"},
    "solve": set(),
    "subs": set(),
}


def _scoped(source: str, module: str):
    """(node, dotted name of the function or class it sits in) for every
    node of the source; a lambda counts as its enclosing function."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield child, scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            else:
                yield from visit(child, scope)

    return visit(ast.parse(source), module)


def simplifier_calls(source: str, module: str) -> set[tuple[str, str]]:
    """(name, function) for each call of ``cancel``, ``together``,
    ``expand``, ``gcd``, ``solve`` or ``subs``, as a function or a method,
    with the dotted name of the function or class it sits in."""
    found = set()
    for node, scope in _scoped(source, module):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _SIMPLIFIERS:
                found.add((name, scope))
    return found


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_gcd_and_expansion_only_where_kept(path):
    calls = simplifier_calls(path.read_text(), path.stem)
    assert sorted((name, scope) for name, scope in calls
                  if scope not in _SIMPLIFIER_SITES[name]) == []


def test_simplifier_calls_reads_functions_methods_and_lambdas():
    source = ("import sympy\nfrom sympy import together\n"
              "class A:\n    def f(self, c):\n        return sympy.cancel(together(c))\n"
              "def g(c):\n    return map(lambda e: e.expand(), c)\n"
              "def h(p, q):\n    return p.gcd(q)\n"
              "def k(e, z):\n    return sympy.solve(e, z)\n"
              "def s(e, t):\n    return e.subs(t, simultaneous=True)\n")
    assert simplifier_calls(source, "m") == {
        ("cancel", "m.A.f"), ("together", "m.A.f"), ("expand", "m.g"), ("gcd", "m.h"),
        ("solve", "m.k"), ("subs", "m.s")}


# each coefficient is a ring element or an expression on its own, and
# no function asks whether every coefficient of a form is one
_RING_TERMS_READERS: set[str] = set()


def attribute_reads(source: str, module: str, attr: str) -> set[str]:
    """The dotted names of the functions and classes that read ``.attr``;
    a definition or an assignment of that name is not a read."""
    return {scope for node, scope in _scoped(source, module)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_ring_terms_read_only_by_the_integrability_solve(path):
    assert attribute_reads(path.read_text(), path.stem, "ring_terms") <= _RING_TERMS_READERS


def test_fractions_are_read_only_by_the_guarded_reader():
    # read_fractions pins bumps and turns zoo or a zero base into an
    # EvaluationError, and to_ring refuses an opaque value before reading
    # it; any other caller of _read_fraction would skip that
    callers = set().union(*(name_reads(path.read_text(), path.stem, "_read_fraction")
                            for path in _PACKAGE.glob("*.py")))
    assert callers == {"scalars.read_fractions", "scalars.to_ring", "scalars._read_fraction"}


# the functions that read a coefficient into the chart's rings; they live
# in scalars.py, beside the guard and the final rule, and chart.py keeps
# only the rings
_READER = {"to_ring", "_opaque_nodes", "_read_fraction", "_sum", "_product",
           "common_denominator", "over"}


def defined_functions(source: str) -> set[str]:
    """The names of the functions and methods the source defines."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def private_imports(source: str, module: str) -> set[str]:
    """The underscore-prefixed names that the source imports from the
    package module ``module``, relative or absolute."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module == f"gcx.{module}" or (node.level == 1 and node.module == module))
            for alias in node.names if alias.name.startswith("_")}


def test_one_module_reads_coefficients_into_the_ring():
    chart = (_PACKAGE / "chart.py").read_text()
    assert "PolyElement" not in chart
    assert defined_functions(chart) & _READER == set()
    assert _READER <= defined_functions((_PACKAGE / "scalars.py").read_text())
    found = {path.name: private_imports(path.read_text(), "scalars")
             for path in _PACKAGE.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def test_reader_scans_read_definitions_and_private_imports():
    source = ("from .scalars import _lowest_terms, over\nfrom gcx.scalars import _X as y\n"
              "from .chart import _hidden\n"
              "class C:\n    def to_ring(self):\n        pass\n"
              "def over():\n    pass\n")
    assert private_imports(source, "scalars") == {"_lowest_terms", "_X"}
    assert defined_functions(source) == {"to_ring", "over"}


def test_coefficients_are_read_as_stored():
    # terms and coefficient() convert ring coefficients to expressions for
    # callers outside the package; package code reads coefficients, so no
    # ring coefficient becomes an expression only to be read back
    sources = [(path.read_text(), path.stem) for path in _PACKAGE.glob("*.py")]
    terms = set().union(*(attribute_reads(source, module, "terms") for source, module in sources))
    assert {scope for scope in terms if not scope.startswith("forms.MixedForm.")} == set()
    calls = {scope for source, module in sources for node, scope in _scoped(source, module)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "coefficient"}
    assert calls == set()


# QQ_I, sympy's Gaussian rationals, is named only where a coefficient
# leaves the kernel: the rings of the fraction reader and the solvers
# (Chart.extended_ring), the exact certificate's rref, and the stability
# check's polynomials on an axis.  Kernel arithmetic runs on gcx.poly's
# fraction-free coefficients, and the parser reads its numbers straight
# into them.
_QQ_I_SITES = {
    "chart.Chart.extended_ring",
    "spinor",  # _T_RING
    "spinor._exact_certificate",
    "spinor._witness",
}


def name_reads(source: str, module: str, name: str) -> set[str]:
    """The dotted names of the functions and classes, or the module, that
    read the name ``name``; an import binds it but does not read it."""
    return {scope for node, scope in _scoped(source, module)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)}


def test_gaussian_rationals_only_at_the_kernel_boundaries():
    readers = set().union(*(name_reads(path.read_text(), path.stem, "QQ_I")
                            for path in _PACKAGE.glob("*.py")))
    assert readers == _QQ_I_SITES


def test_kernel_numerators_are_integer_pairs():
    # a GaussPoly numerator is a dict of Python int pairs: no module reads
    # sympy's Gaussian integers or a ring of them
    sources = [(path.read_text(), path.stem) for path in _PACKAGE.glob("*.py")]
    assert set().union(*(name_reads(source, module, "ZZ_I") for source, module in sources)) == set()
    assert set().union(*(attribute_reads(source, module, "numerators")
                         for source, module in sources)) == set()


def test_name_reads_names_the_module_or_the_enclosing_function():
    source = ("from d import QQ_I\nR = ring(QQ_I)\n"
              "class P:\n    def atom(self):\n        return QQ_I(0, 1)\n"
              "def f():\n    QQ_I = 1\n")
    assert name_reads(source, "m", "QQ_I") == {"m", "m.P.atom"}


def test_attribute_reads_names_the_enclosing_function():
    source = ("class A:\n    @property\n    def ring_terms(self):\n        return self.c\n"
              "    def f(self):\n        return self.ring_terms is None\n"
              "def g(a):\n    return (lambda: a.ring_terms)()\n"
              "def h(a):\n    a.ring_terms = {}\n")
    assert attribute_reads(source, "m", "ring_terms") == {"m.A.f", "m.g"}


# Coefficients of either kind combine with +, * and ==, so a value is
# tested against GaussPoly only where the algorithm differs by kind:
# reading into the ring and into QQ_I, the ring-ring compare, the
# index-or-symbol derivative, conjugation, pullback substitution and the
# map that keeps its ring images for it, the chart checks, the bump pins,
# the conversion to an expression, and the parser's constant divisor.
_KIND_TEST_SITES = {
    "scalars.to_ring",
    "scalars.read_fractions",
    "scalars.expr_equal",
    "forms.d",
    "chart.Chart.conjugate",
    "maps.pullback",
    "maps.CoordinateMap.make",
    "forms.MixedForm.__init__",
    "forms.scalar_of",
    "spinor._require_plateau",
    "forms.as_expr",
    "scenario.ExprParser.combine",
}


def kind_tests(source: str, module: str) -> set[str]:
    """The dotted names of the functions and classes that test a value
    against ``GaussPoly`` with ``isinstance`` or ``type(...) is``."""
    found = set()
    for node, scope in _scoped(source, module):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(c, "id", None) == "GaussPoly" for c in classes):
                found.add(scope)
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot))
                                                   for op in node.ops):
            sides = [node.left, *node.comparators]
            typed = any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "type"
                        for n in sides)
            if typed and any(getattr(n, "id", None) == "GaussPoly" for n in sides):
                found.add(scope)
    return found


def test_coefficient_kind_is_tested_only_where_the_algorithm_differs():
    sites = set().union(*(kind_tests(path.read_text(), path.stem)
                          for path in _PACKAGE.glob("*.py") if path.name != "poly.py"))
    assert sites == _KIND_TEST_SITES


def test_kind_tests_reads_isinstance_and_type_is():
    source = ("def f(a, b):\n    return type(a) is GaussPoly and type(b) is not GaussPoly\n"
              "class M:\n    def g(self, c):\n        return isinstance(c, (int, GaussPoly))\n"
              "def h(c):\n    return isinstance(c, MixedForm) or type(c) is int\n")
    assert kind_tests(source, "m") == {"m.f", "m.M.g"}


# compile_exprs prints the extra generators itself: sympy's code printers
# and lambdify, and the sympy.codegen they import, stay out of the package
_PRINTER_MODULES = (["sympy", "printing"], ["sympy", "codegen"])


def printer_uses(source: str) -> set[str]:
    """Each module under ``sympy.printing`` or ``sympy.codegen`` that the
    source imports or reads as an attribute chain, and ``lambdify`` when
    the source names it in an import, a name or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names = [ast.unparse(node)]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if "lambdify" in parts:
                found.add("lambdify")
            if parts[:2] in _PRINTER_MODULES:
                found.add(name)
    return found


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_compile_through_sympy_printers(path):
    assert printer_uses(path.read_text()) == set(), path.name


def test_printer_uses_reads_imports_calls_and_attribute_chains():
    source = ("import sympy.codegen.ast\nfrom sympy.printing.pycode import PythonCodePrinter\n"
              "from sympy import lambdify\nf = sympy.printing.pycode.pycode\n"
              "g = sympy.lambdify\nfrom sympy.utilities.lambdify import implemented_function\n")
    assert printer_uses(source) == {
        "sympy.codegen.ast", "sympy.printing.pycode", "sympy.printing.pycode.PythonCodePrinter",
        "sympy.printing.pycode.pycode", "sympy.printing", "lambdify"}
    clean = "import sympy\nx = sympy.sin(1)\nfrom sympy.polys.rings import ring\n"
    assert printer_uses(clean) == set()


def test_sampled_check_loads_no_sympy_codegen():
    # a fresh interpreter, since another test may have imported it
    script = (
        "import sys\n"
        "from gcx import parse_scenario, run\n"
        "report = run(parse_scenario('chart C = real x, real y\\n'\n"
        "    'check equal on C sin(x)**2 + cos(x)**2, 1 expect equal\\n'))\n"
        "assert report.ok, report.render()\n"
        "print(sorted(m for m in sys.modules if m.startswith('sympy.codegen')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_rational_identity_check_builds_no_sympy_expression(monkeypatch):
    # a quotient by a polynomial stays in the kernel's ring: parsing and
    # deciding the identities benchmark's rational check, (P^2 - Q^2)/(P - Q)
    # = P + Q, converts no ring element to an expression and builds no sum
    p, q = "((-1/3) + (1/3)*z2)", "((5/3) + (-5/3)*z2)"
    text = ("chart C = complex z1, complex z2, real x1, real y1\n"
            "form R on C = ((4/3 + -5/3*i) + (2/3 + -5/3*i)*x1)*dy1\n"
            f"check equal on C (({p})**2 - ({q})**2)/({p} - ({q})) * R, ({p} + {q}) * R"
            " expect equal\n"
            f"check equal on C (({p})**2 - ({q})**2)/({p} - ({q})) * R, ({p} - {q}) * R"
            " expect different\n")

    def fail(*args, **kwargs):
        raise AssertionError("a sympy expression was built")

    with monkeypatch.context() as patched:
        patched.setattr(GaussPoly, "as_expr", fail)
        patched.setattr(sympy.Add, "flatten", classmethod(fail))
        report = run(parse_scenario(text))
    assert report.ok and len(report.lines) == 2, report.render()
