"""Bundled corpus and command-line interface."""

import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gcx.cli import main
from gcx.runner import RunError, corpus_dir, corpus_files, list_corpus, run
from gcx.scenario import parse_scenario

EXPECTED_STEMS = {
    "cor_2_8",
    "ex_2_9",
    "prop_3_1",
    "ex_3_2_kill",
    "ex_3_3_torsion",
    "lemma_3_3",
    "thm_3_5",
    "thm_3_6",
    "prop_3_8",
    "prop_3_9_e1",
    "sec_4_gluck",
    "lemma_5_5_cover",
    "thm_5_6_branched",
    "ex_5_2_surfaces",
    "ex_5_3_elliptic",
    "ex_5_7_add_cover",
    "ex_5_8_add",
    "ex_5_9_surfaces",
}


def test_corpus_manifest():
    listing = list_corpus()
    stems = {name for name, _ in listing}
    assert EXPECTED_STEMS <= stems
    assert all(title for _, title in listing)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_scenario_passes(path):
    report = run(path, seed=0, samples=32, tolerance=1e-9)
    assert report.ok, report.render()


def _strip_timing(text: str) -> str:
    return re.sub(r"elapsed_s: .*", "elapsed_s: <t>", text)


def test_report_deterministic_for_fixed_seed():
    path = corpus_files()[0]
    a = run(path, seed=0).render()
    b = run(path, seed=0).render()
    assert _strip_timing(a) == _strip_timing(b)


def test_cli_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.gcx"
    good.write_text(
        'title "ok"\nchart C = complex z1\n'
        "check equal on C z1, z1 expect equal\n"
    )
    assert main(["run", str(good)]) == 0
    bad = tmp_path / "bad.gcx"
    bad.write_text(
        'title "bad"\nchart C = complex z1\n'
        "check equal on C z1, z1b expect equal\n"
    )
    assert main(["run", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "result: fail" in out
    broken = tmp_path / "broken.gcx"
    broken.write_text("chart C = complex z1\nform w on C = ^^\n")
    assert main(["run", str(broken)]) == 2
    assert main(["run", str(tmp_path / "missing.gcx")]) == 2


def test_cli_parse_time_errors_exit_2(tmp_path, capsys):
    # errors raised by the kernel while a statement is parsed are parse errors
    dup = tmp_path / "dup.gcx"
    dup.write_text("chart C = complex z1, complex z1\n")
    for command in ("verify", "run"):
        assert main([command, str(dup)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "duplicate coordinate" in err
        assert "Traceback" not in err
    short_map = tmp_path / "map.gcx"
    short_map.write_text(
        "chart A = real x1, real x2\nchart B = real y1, real y2\n"
        "map f : A -> B = y1 -> x1\n"
    )
    assert main(["verify", str(short_map)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("statement, message", [
    ('title "a" @', "unexpected character '@'"),
    ("group G = < x, y | x * y $ >", "'$'"),
    ("group G = < x, y | x y >", "undeclared generator 'xy'"),
    ("group G = < x, y | [x, y]^ >", "integer exponent"),
    ("group G = < x, y | x * y", "expected '>'"),
    ("bump xi = 0 upto 0.5, 1 from 0.25", "zero_upto < one_from"),
    ("check lemma params (0, 1, 1, 0) profile cubic expect ok", "unknown radial profile 'cubic'"),
    ("check assembly params (0, 1, 1, 0) profile cubic expect ok", "unknown radial profile"),
    ("region bad on C = z1 in (0.5, 0.2)", "empty interval (0.5, 0.2)"),
    ("region bad on C = |z1| in (0.5, 0.5)", "empty interval (0.5, 0.5)"),
    ("check type foo at z1 = 0 expect 0", "unknown spinor 'foo'"),
    ("check integrable foo expect true", "unknown spinor 'foo'"),
    ("check chi M expect 0", "unknown manifold 'M'"),
    ("report components M", "unknown manifold 'M'"),
    ("check abelianization M expect rank 0 torsion []", "unknown manifold 'M'"),
    ("check abelianization M expect rank 0 torsion [2] x", "trailing tokens: 'x'"),
    ('check classify5 k 1 spin spin expect "S2xS3" x', "trailing tokens: 'x'"),
    ("check classify5 k 1 spin spin expect S2xS3", "classify5 expects a quoted string"),
    ('title "a" junk', "trailing tokens: 'junk'"),
    ("chart D = complex w1 junk", "trailing tokens: 'junk'"),
    ("bump b = 0 upto 0.25, 1 from 0.5 junk", "trailing tokens: 'junk'"),
    ("region R on C = z1 in (0.3, 0.4) junk", "trailing tokens: 'junk'"),
    ("group G = < x | x > junk", "trailing tokens: 'junk'"),
    ("manifold M = dim 4; chi 2 junk", "trailing tokens: 'junk'"),
    ("map f : C -> C = z1 -> z1, z1b -> z1b junk", "trailing tokens: 'junk'"),
    ("spinor s = on C; rho z1 junk", "trailing tokens: 'junk'"),
    ("build luttinger s = params (0, 1, 1, 0) junk", "trailing tokens: 'junk'"),
    ("check params (0.5, 1, 1, 0) expect ok", "expected an integer, got '0.5'"),
    ("check params (0, 1, 1) expect ok", "params needs four integers"),
    ("region R on C = z1 in (0.3, 0.4), xi = 0.5", "expected an integer, got '0.5'"),
    ("manifold M = dim 4.7; chi 2.9", "expected an integer, got '4.7'"),
    ("manifold M = dim -4; chi 2", "descriptor dimension must be even"),
    ("check chi M expect 2.5", "expected an integer, got '2.5'"),
    ("check equal on C z1, z1 expect same", "check equal expects equal or different, got 'same'"),
    ("form w on C = z1**2.5", "** needs an integer exponent"),
    ("form f on C = foo(z1)", "unknown function 'foo'"),
    ("manifold M = dim 4; chi 2; chi 3", "manifold clause 'chi' is given twice"),
    ("spinor s = on C; rho z1 + dz1; rho 1", "spinor clause 'rho' is given twice"),
    ("build luttinger s = params (0, 1, 1, 0); on C; on C", "build clause 'on' is given twice"),
    ("region A on C = w in (0.1, 0.2)", "region 'A': 'w' is not a coordinate of chart 'C'"),
    ("region A on C = nonzero q", "region 'A': 'q' is not a coordinate of chart 'C'"),
    ("region A on C = z1b in (0.1, 0.2)", "region 'A': 'z1b' is not a coordinate of chart 'C'"),
    ("region B on C = xi = 0, xi = 1", "region 'B' pins bump 'xi' twice"),
    ("region B on C = |z1| in (0.1, 0.2), |z1| in (0.6, 0.9)", "region 'B' bounds 'z1' twice"),
    ("region B on C = z1 in (0.1, 0.2), |z1| in (0.6, 0.9)", "region 'B' bounds 'z1' twice"),
    ("region B on C = nonzero z1, nonzero z1", "region 'B' names nonzero 'z1' twice"),
    ("spinor s = on C; rho z1; hint_b 0", "unknown spinor clause 'hint_b'"),
    # '²' is a digit to str.isdigit and int() rejects it; 'é' is a letter to
    # str.isalpha but not part of a generator name
    ("group G = < x | x^² >", "'^' needs an integer exponent"),
    ("group G = < x | x*é >", "unexpected token 'é' in word"),
    # check equal has no scale clause: c*(expr) on the right scales it
    ("check equal on C z1, z1 scale dz1 + 2 expect equal", "expected 'expect', got 'scale'"),
])
def test_cli_statement_errors_exit_2(tmp_path, capsys, statement, message):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = complex z1\n{statement}\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gcx: error: line 2: ") and _line_prefixes(err) == 1, err
        assert message in err and "Traceback" not in err, err


def _line_prefixes(err: str) -> int:
    """How often a ``line N:`` prefix occurs in ``err``."""
    return len(re.findall(r"line \d+:", err))


@pytest.mark.parametrize("expr", ["-" * 600 + "z1", "(" * 500 + "z1" + ")" * 500],
                         ids=["signs", "parentheses"])
def test_cli_deep_nesting_is_a_parse_error(tmp_path, capsys, expr):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = complex z1\ncheck equal on C {expr}, z1 expect equal\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 2: expression nested too deeply" in err and "Traceback" not in err, err


@pytest.mark.parametrize("statement, message", [
    ("check type s at z1 = 0.3 + *i expect 2", "unexpected token '*'"),
    ("check type s at z1 = z1b expect 2", "needs a constant value"),
    ("check type s at z1 = 1/0 expect 2", "'z1' has no finite value"),
    ("check nondegenerate s at z1 = dz1 expect true", "needs a constant value"),
    ("check stable s expect ture", "check stable expects true or false, got 'ture'"),
    ("locus L on M = kind branch junk", "trailing tokens: 'junk'"),
    ("locus L on M = kind branch; chi 5", "unknown locus clause 'chi'"),
    ("locus L on M = kind luttinger; kind gluck", "locus clause 'kind' is given twice"),
    # a cover is a branched cover without branch components
    ("cover N = M degree 0", "covering degree must be >= 1"),
    ("branched-cover N = M degree 0", "covering degree must be >= 1"),
])
def test_cli_errors_after_declarations_exit_2(tmp_path, capsys, statement, message):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = complex z1\nspinor s = z1\nmanifold M = dim 4; chi 2\n{statement}\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gcx: error: line 4: ") and _line_prefixes(err) == 1, err
        assert message in err, err


@pytest.mark.parametrize("s0, verdict", [("z1*z2", "false"), ("z1**2 + z2**2 - 1", "true")])
def test_cli_check_stable_decides_exactly(tmp_path, capsys, s0, verdict):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = complex z1, complex z2\nspinor s = on C; rho {s0} + dz1^dz2\n"
                   f"check stable s expect {verdict}\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr()


@pytest.mark.parametrize("chart, rho", [("radial r, radial s", "(r - 1)**2 + dr^ds"),
                                        ("complex z1, radial r", "z1*z1b - 1/4 + dz1^dr")])
def test_cli_check_stable_finds_witnesses_off_radial_axes(tmp_path, capsys, chart, rho):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = {chart}\nspinor s = on C; rho {rho}\ncheck stable s expect false\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr()


def test_cli_nonzero_region_inside_the_default_window_samples(tmp_path, capsys):
    scn = tmp_path / "s.gcx"
    scn.write_text("chart C = complex z1\nregion core on C = z1 in (0.02, 0.2), nonzero z1\n"
                   "check equal on C sin(z1*z1b), z1*z1b on core expect different\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr()


def test_cli_component_clause_repeats(tmp_path, capsys):
    scn = tmp_path / "s.gcx"
    scn.write_text("manifold M = dim 4; chi 2; component T2; component S2\n"
                   "check components M expect 2\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr()


@pytest.mark.parametrize("statement, message", [
    ("spinor s = rho z1 + dz1^dz2; vector z2 = dz1 + 3", "vector 'z2' needs a scalar expression"),
])
def test_cli_scalar_clauses_reject_forms(tmp_path, capsys, statement, message):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = complex z1, complex z2\n{statement}\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and message in err, err
    # the scalar part alone is accepted
    scn.write_text(scn.read_text().replace("dz1 + ", ""))
    assert main(["verify", str(scn)]) == 0


@pytest.mark.parametrize("group, message", [
    ("< a, 1 | a^2 >", "expected a generator name, got '1'"),
    ("< a b | a^2 >", "expected '|', got 'b'"),
    ("< a, | a^2 >", "expected a generator name, got '|'"),
])
def test_cli_generator_lists_hold_names(tmp_path, capsys, group, message):
    scn = tmp_path / "g.gcx"
    scn.write_text(f"group G = {group}\ncheck abelianization G expect rank 0 torsion [2]\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and message in err, err


@pytest.mark.parametrize("group, rank", [("< | >", 0), ("< x | >", 1), ("<x,y_2|[x,y_2]>", 2)])
def test_cli_generator_lists_may_be_empty(tmp_path, group, rank):
    scn = tmp_path / "g.gcx"
    scn.write_text(f"group G = {group}\ncheck abelianization G expect rank {rank} torsion []\n")
    assert main(["run", str(scn)]) == 0


@pytest.mark.parametrize("check", [
    "check equal on C z1, z1 on R expect equal",
    "check type s at z1 = 0.3 on R expect 0",
])
def test_cli_region_must_lie_on_the_checks_chart(tmp_path, capsys, check):
    scn = tmp_path / "s.gcx"
    scn.write_text("chart C = complex z1\nchart D = complex w1\n"
                   "region R on D = w1 in (0.2, 0.5)\nspinor s = on C; rho z1\n"
                   f"{check}\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 5: region 'R' lies on chart 'D', not on 'C'" in err, err
    # the same check on a region of its own chart runs
    scn.write_text(scn.read_text().replace("region R on D = w1", "region R on C = z1"))
    assert main(["run", str(scn)]) == 0


_SURGERY = (
    "group comp = < l1, l2 | [l1, l2] >\n"
    "manifold M = dim 6; chi 0; pi1 < a1, a2 | [a1, a2] >\n"
    "locus L on M = kind luttinger; complement comp; meridian 1; circle1 l1; circle2 l2\n"
)


def test_cli_products_carry_their_declared_names(tmp_path, capsys):
    scn = tmp_path / "p.gcx"
    scn.write_text(_SURGERY + "surgery N = luttinger M at L params (1, 3, 1, 2)\n"
                   "cover C3 = N degree 3\nbranched-cover B = C3 degree 2\n"
                   "report components C3\n")
    assert main(["run", str(scn)]) == 0
    out = capsys.readouterr().out
    for line in ("[do] N: ", "[do] C3: ", "[do] B: ", "type change locus of C3: 3 component(s)"):
        assert line in out, out
    assert "~" not in out and "[do] M" not in out


def test_cli_manifold_names_resolve_at_parse_time(tmp_path, capsys):
    scn = tmp_path / "m.gcx"
    # a manifold may be declared after the check that names it
    scn.write_text("check chi M expect 0\nmanifold M = dim 4; chi 0\n")
    assert main(["run", str(scn)]) == 0
    # or made by an earlier surgery, but not by a later one
    scn.write_text(_SURGERY + "surgery N = luttinger M at L params (1, 5, 1, 4)\n"
                   "check chi N expect 0\n")
    assert main(["run", str(scn)]) == 0
    scn.write_text(_SURGERY + "check chi N expect 0\n"
                   "surgery N = luttinger M at L params (1, 5, 1, 4)\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        assert "line 4: unknown manifold 'N'" in capsys.readouterr().err
    # a surgery that fails at run time leaves its product unmade: a failed check
    scn.write_text(_SURGERY + "surgery N = luttinger M at K params (1, 5, 1, 4)\n"
                   "check chi N expect 0\n")
    assert main(["verify", str(scn)]) == 0
    assert main(["run", str(scn)]) == 1
    out = capsys.readouterr().out
    assert "no locus 'K'" in out and "unknown manifold 'N'" in out


@pytest.mark.parametrize("clause, message", [
    ("meridian 1 junk", "expected '*' or ';' before 'junk' in a group word"),
    ("circle1 l1 x", "expected '*' or ';' before 'x' in a group word"),
    ("circle1 [l1, l2][l1, l2]", "expected '*' or ';' before '[' in a group word"),
    ("meridian junk", "meridian uses 'junk', which is not a generator of the complement"),
    ("circle2 l2*x^-1", "circle2 uses 'x', which is not a generator of the complement"),
])
def test_cli_locus_words_are_checked_at_parse_time(tmp_path, capsys, clause, message):
    scn = tmp_path / "locus.gcx"
    key = clause.split()[0]
    locus = re.sub(rf"{key} [^;\n]*", clause, _SURGERY)
    scn.write_text(locus + "surgery N = luttinger M at L params (1, 5, 1, 4)\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and message in err, err
    # factors joined by '*' make one word
    scn.write_text(_SURGERY.replace("circle1 l1", "circle1 [l1, l2]*l1^-1*l2")
                   + "surgery N = luttinger M at L params (1, 5, 1, 4)\n")
    assert main(["run", str(scn)]) == 0


def test_cli_check_sigma_needs_a_known_signature(tmp_path, capsys):
    scn = tmp_path / "sigma.gcx"
    base = ("manifold M = dim 4; chi 2; sigma 3\n"
            "branched-cover B = M degree 2; branch F chi 2 indices 2\n"
            "cover C = B degree 3\ncover D = M degree 2\n")
    scn.write_text(base + "check sigma D expect 6\n")
    assert main(["run", str(scn)]) == 0
    # a branched cover, and a cover of one, leave the signature unknown
    for name in ("B", "C"):
        scn.write_text(base + f"check sigma {name} expect 0\n")
        for command in ("verify", "run"):
            assert main([command, str(scn)]) == 2
            err = capsys.readouterr().err
            assert f"line 5: the signature of manifold {name!r} is unknown" in err, err
    scn.write_text("manifold M = dim 4; chi 2\ncheck sigma M expect 0\n")
    assert main(["verify", str(scn)]) == 2
    assert "line 2: the signature of manifold 'M' is unknown" in capsys.readouterr().err


@pytest.mark.parametrize("check", [
    "im(z1*dz2), ((z1*dz2) - conj(z1*dz2))/(2*i)",
    "+z1, z1",
], ids=["im", "unary-plus"])
def test_cli_equal_reads_im_and_unary_plus(tmp_path, capsys, check):
    scn = tmp_path / "s.gcx"
    scn.write_text(f"chart C = complex z1, complex z2\ncheck equal on C {check} expect equal\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr().out


def test_cli_infinite_value_fails_the_check(tmp_path, capsys):
    scn = tmp_path / "zoo.gcx"
    # an undefined value is not equal to itself either
    for check in ("1/(z1 - z1), 1 expect different",
                  "1/(z1 - z1), 1/(z1 - z1) expect equal"):
        scn.write_text(f"chart C = complex z1\ncheck equal on C {check}\n")
        assert main(["run", str(scn)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL]" in captured.out and "infinite or undefined" in captured.out
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("coefficient, message", [
    # the base is zero in the ring but not to sympy's Add
    ("1/(pi*(z1+1)**2 - pi*z1**2 - 2*pi*z1 - pi)", "infinite or undefined value on chart 'C'"),
    ("1/0", "infinite or undefined value in zoo"),
])
def test_cli_infinite_coefficient_fails_check_integrable(tmp_path, capsys, coefficient, message):
    scn = tmp_path / "integrable.gcx"
    scn.write_text("chart C = complex z1, complex z2\n"
                   f"spinor s = on C; rho z1 + ({coefficient})*dz1^dz2\n"
                   "check integrable s expect true\n")
    assert main(["run", str(scn)]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] #1 check integrable s expect true  ({message}" in captured.out
    assert "Traceback" not in captured.err


def test_check_that_raises_is_recorded_as_failed():
    report = run(parse_scenario(
        "chart C = complex z1, complex z2\n"
        "spinor p = on C; rho z1 + dz1^dz2\n"
        "spinor s = on C; rho (sin(z2)**2 + cos(z2)**2)*z1 + dz1^dz2\n"
        "check integrable p expect true\ncheck integrable s expect true\n"))
    assert "[FAIL] #2 check integrable s expect true  (integrability undecided" in report.render()
    assert report.values["check_1"] == "pass" and report.values["check_2"] == "fail"


def test_cli_assembly_check_uses_its_profile(tmp_path, capsys):
    scn = tmp_path / "assembly.gcx"
    for expect, code in (("ok", 1), ("fail", 0)):
        scn.write_text(f"check assembly params (0, 1, 1, 0) profile paper expect {expect}\n")
        assert main(["run", str(scn)]) == code
        assert "dr^dt0^dt1^dt2" in capsys.readouterr().out


def test_cli_nondegenerate_check_reads_rho(tmp_path, capsys):
    scn = tmp_path / "nondegenerate.gcx"
    scn.write_text(
        "chart C = real x1, real x2\n"
        "spinor s = on C; rho exp(i*dx1^dx2)\n"
        # omega vanishes on x1 = 0, so there rho is degenerate
        "spinor t = on C; rho exp(i*x1*dx1^dx2)\n"
        "check nondegenerate s at x1 = 0, x2 = 0.5 expect true\n"
        "check nondegenerate t at x1 = 0, x2 = 0.5 expect false\n"
    )
    assert main(["run", str(scn)]) == 0
    out = capsys.readouterr().out
    assert "expect true  (got true)" in out and "expect false  (got false)" in out


def test_cli_readme_nondegenerate_example_passes(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    prefixes = ("chart C = ", "form omega0 on C = ", "spinor s = on C; ", "check nondegenerate s at ")
    lines = [next(line for line in readme if line.startswith(p)) for p in prefixes]
    scn = tmp_path / "readme.gcx"
    scn.write_text("\n".join(lines) + "\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr()
    assert "expect true  (got true)" in capsys.readouterr().out


def _statement_lines(path) -> list[int]:
    lines = path.read_text().splitlines()
    return [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]


_CORPUS = corpus_files()
_MUTATION_CHARS = st.characters(min_codepoint=32, max_codepoint=126)  # printable ASCII


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_mutated_corpus_statement_never_crashes(tmp_path, capsys, data):
    # one corpus statement loses, gains or swaps a character
    path = data.draw(st.sampled_from(_CORPUS), label="scenario")
    lines = path.read_text().splitlines()
    index = data.draw(st.sampled_from(_statement_lines(path)), label="line")
    line = lines[index]
    pos = data.draw(st.integers(0, len(line) - 1), label="position")
    kind = data.draw(st.sampled_from(["delete", "insert", "swap"]), label="mutation")
    if kind == "delete":
        line = line[:pos] + line[pos + 1:]
    elif kind == "insert":
        line = line[:pos] + data.draw(_MUTATION_CHARS, label="char") + line[pos:]
    else:
        other = data.draw(st.integers(0, len(line) - 1), label="other")
        chars = list(line)
        chars[pos], chars[other] = chars[other], chars[pos]
        line = "".join(chars)
    lines[index] = line
    scn = tmp_path / "mutated.gcx"
    scn.write_text("\n".join(lines) + "\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


def test_cli_verify_and_report_flag(tmp_path, capsys):
    scn = tmp_path / "s.gcx"
    scn.write_text('title "static"\nchart C = complex z1\n')
    out_file = tmp_path / "report.txt"
    assert main(["--report", str(out_file), "verify", str(scn)]) == 0
    stdout = capsys.readouterr().out
    assert "verify: ok" in stdout
    assert out_file.read_text() == stdout


def test_cli_corpus_run_all_under_budget(capsys):
    start = time.monotonic()
    assert main(["corpus", "run-all"]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    out = capsys.readouterr().out
    assert "0 failing" in out


def test_corpus_dir_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GCX_CORPUS_DIR", str(tmp_path))
    assert corpus_dir() == tmp_path
    # empty corpus: empty manifest, run-all exits 0
    assert list_corpus() == []
    assert main(["corpus", "run-all"]) == 0
    (tmp_path / "solo.gcx").write_text(
        'title "override"\nchart C = complex z1\n'
        "check equal on C z1 + z1, 2 * z1 expect equal\n"
    )
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "solo" in out and "override" in out
    assert main(["corpus", "run-all"]) == 0


def test_corpus_list_reads_titles_as_the_parser_does(tmp_path, monkeypatch):
    monkeypatch.setenv("GCX_CORPUS_DIR", str(tmp_path))
    text = 'title  "Case  #1 of 2"  # a comment\nchart C = complex z1\n'
    (tmp_path / "hash.gcx").write_text(text)
    assert parse_scenario(text).title == "Case #1 of 2"
    assert list_corpus() == [("hash", parse_scenario(text).title)]


def test_cli_corpus_list_names_the_line_of_a_bad_title(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GCX_CORPUS_DIR", str(tmp_path))
    (tmp_path / "bad.gcx").write_text("chart C = complex z1\ntitle 5\n")
    assert main(["corpus", "list"]) == 2
    assert capsys.readouterr().err == "gcx: error: line 2: title needs a quoted string\n"


def test_cli_corpus_list_rejects_trailing_tokens_after_a_title(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GCX_CORPUS_DIR", str(tmp_path))
    (tmp_path / "t.gcx").write_text('title "x" junk\n')
    assert main(["corpus", "list"]) == 2
    assert capsys.readouterr().err == "gcx: error: line 1: trailing tokens: 'junk'\n"


def test_cli_missing_corpus_dir_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("GCX_CORPUS_DIR", str(tmp_path / "nope"))
    assert main(["corpus", "run-all"]) == 2


def test_corpus_report_matches_the_golden_file(capsys):
    # seeds 1 and 2 differ from seed 0 only in the `seed:` lines
    assert main(["--seed", "0", "corpus", "run-all"]) == 0
    out = re.sub(r"(?m)^elapsed_s: .*\n", "", capsys.readouterr().out)
    out = re.sub(r"(?m)^(corpus: .* failing), [0-9.]+s$", r"\1", out)
    assert out == (Path(__file__).parent / "data" / "corpus_seed0.txt").read_text()


_PLATEAU = (
    "chart C = complex z1, complex z2\n"
    "bump xi = 0 upto 0.25, 1 from 0.5\n"
    "region core on C = z1 in (0.02, 0.25), xi = 0\n"
    "spinor s = rho xi(sqrt(z1*z1b))*dz1^dz2 + (1 - xi(sqrt(z1*z1b)))\n"
)


def test_cli_type_point_off_the_regions_plateau_fails(tmp_path, capsys):
    scn = tmp_path / "plateau.gcx"
    scn.write_text(_PLATEAU + "check type s at z1 = 0.9, z2 = 0 on core expect 0\n")
    assert main(["run", str(scn)]) == 1
    out = capsys.readouterr().out
    assert "bump 'xi'" in out and "region 'core'" in out
    # off core's bounds but on its plateau, and off the region altogether
    scn.write_text(_PLATEAU + "check type s at z1 = 0, z2 = 0 on core expect 0\n"
                   "check type s at z1 = 0.9, z2 = 0 expect 2\n")
    assert main(["run", str(scn)]) == 0


@pytest.mark.parametrize("point, message", [
    ("z1 = 0, w = 1, x1 = 0", "chart 'C' has no leg 'w'"),
    ("z1 = 0, z1 = 1, x1 = 0", "coordinate 'z1' is given twice"),
    ("z1 = 0, x1 = i", "coordinate 'x1' is real, but its value is I"),
    ("z1 = 0, z1b = 1, x1 = 0", "coordinate 'z1b' is not the conjugate of 'z1'"),
])
def test_cli_points_are_checked_at_parse_time(tmp_path, capsys, point, message):
    scn = tmp_path / "p.gcx"
    scn.write_text(f"chart C = complex z1, real x1\nspinor s = z1\n"
                   f"check type s at {point} expect 0\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and message in err, err
    # exact conjugates and real values are accepted, in either order
    scn.write_text("chart C = complex z1, real x1\nspinor s = z1\n"
                   "check type s at z1b = 0.3 + 0.8*i, z1 = 0.3 - 0.8*i, x1 = sin(1) expect 0\n")
    assert main(["run", str(scn)]) == 0


@pytest.mark.parametrize("point, message", [
    ("z1 = 1, r = 1", "point misses legs ['x1'] on chart 'C'"),
    ("x1 = 0, r = 1", "point misses legs ['z1', 'z1b'] on chart 'C'"),
    ("z1 = 1, x1 = 0, r = -1", "coordinate 'r' is radial, but its value is -1"),
    ("z1 = 1, x1 = 0, r = 0", "coordinate 'r' is radial, but its value is 0"),
])
def test_cli_points_name_every_leg(tmp_path, capsys, point, message):
    scn = tmp_path / "p.gcx"
    chart = "chart C = complex z1, real x1, radial r\nspinor s = z1\n"
    scn.write_text(f"{chart}check type s at {point} expect 0\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and message in err, err
    # a conjugate leg stands in for its partner
    scn.write_text(f"{chart}check type s at z1b = 1, x1 = 0, r = 1/2 expect 0\n")
    assert main(["run", str(scn)]) == 0


_DECLARED = "chart C = complex z1\nmanifold M = dim 4; chi 0\n"


@pytest.mark.parametrize("first, second, message", [
    ("chart D = real x1", "chart D = real y1", "chart 'D'"),
    ("region R on C = z1 in (0.1, 0.2)", "region R on C = z1 in (0.3, 0.4)", "region 'R'"),
    ("bump b = 0 upto 0.25, 1 from 0.5", "bump b = 0 upto 0.3, 1 from 0.6", "bump 'b'"),
    ("form A on C = z1", "scalar A on C = z1b", "form 'A'"),
    ("map f : C -> C = z1 -> z1", "map f : C -> C = z1 -> z1b", "map 'f'"),
    ("spinor s = z1", "build luttinger s = params (0, 1, 1, 0)", "spinor 's'"),
    ("group G = < x | x^2 >", "group G = < y | y^3 >", "group 'G'"),
    ("manifold N = dim 4; chi 2", "manifold N = dim 4; chi 3", "manifold 'N'"),
    ("locus L on M = kind branch", "locus L on M = kind branch", "locus 'L' on manifold 'M'"),
])
def test_cli_second_declaration_is_a_parse_error(tmp_path, capsys, first, second, message):
    scn = tmp_path / "d.gcx"
    scn.write_text(f"{_DECLARED}{first}\n{second}\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert f"line 4: {message} is already declared on line 3" in err, err


@pytest.mark.parametrize("first, product", [
    ("manifold N = dim 4; chi 0; sigma 0", "surgery N = luttinger M at L params (1, 5, 1, 4)"),
    ("manifold N = dim 4; chi 0; sigma 0", "cover N = M degree 2"),
    ("manifold N = dim 4; chi 0; sigma 0", "branched-cover N = M degree 2"),
    ("cover N = M degree 2", "cover N = M degree 3"),
])
def test_cli_products_are_declared(tmp_path, capsys, first, product):
    scn = tmp_path / "d.gcx"
    scn.write_text(f"{_SURGERY}{first}\n{product}\ncheck chi N expect 0\n")
    for command in ("verify", "run"):
        assert main([command, str(scn)]) == 2
        err = capsys.readouterr().err
        assert "line 5: manifold 'N' is already declared on line 4" in err, err


def test_cli_names_repeat_across_tables(tmp_path):
    scn = tmp_path / "d.gcx"
    scn.write_text(f"{_DECLARED}manifold N = dim 4; chi 2\nlocus L on M = kind branch\n"
                   "locus L on N = kind branch\nform s on C = z1\nspinor s = z1\n"
                   "group s = < x | x^2 >\n")
    assert main(["verify", str(scn)]) == 0


_SAMPLED = "chart C = real x1\ncheck equal on C sin(x1)**2, 1 expect equal\n"


@pytest.mark.parametrize("flags, message", [
    (["--tolerance", "nan"], "tolerance must be finite and > 0, not nan"),
    (["--tolerance", "inf"], "tolerance must be finite and > 0, not inf"),
    (["--tolerance", "-1"], "tolerance must be finite and > 0, not -1.0"),
    (["--tolerance", "0"], "tolerance must be finite and > 0, not 0.0"),
    (["--samples", "0"], "samples must be an integer >= 1, not 0"),
    (["--samples", "-3"], "samples must be an integer >= 1, not -3"),
])
def test_cli_rejects_invalid_settings(tmp_path, capsys, flags, message):
    scn = tmp_path / "s.gcx"
    scn.write_text(_SAMPLED)
    for command in (["run", str(scn)], ["verify", str(scn)], ["corpus", "run-all"]):
        assert main(flags + command) == 2, command
        err = capsys.readouterr().err
        assert message in err, err


def test_run_rejects_invalid_settings():
    sc = parse_scenario(_SAMPLED)
    for settings_ in ({"tolerance": float("nan")}, {"tolerance": -1.0}, {"samples": 0}):
        with pytest.raises(RunError, match="must be"):
            run(sc, **settings_)
    # the settings still decide a sampled check
    assert not run(sc).ok
    assert not run(sc, samples=1, tolerance=1e-3).ok


def test_cli_removable_singularities(tmp_path, capsys):
    scn = tmp_path / "r.gcx"
    scn.write_text(
        "chart C = complex z1, complex z2\n"
        "spinor a = (z1**2 - 1)/(z1 - 1) + dz1^dz2\n"
        "spinor b = (z1 - 1)/(z1**2 - 1) + dz1^dz2\n"
        "spinor c = (z1*z2 - z2)/(z1**2 - 1) + dz1^dz2\n"
        "check type a at z1 = 1, z2 = 0.5 expect 0\n"
        "check type b at z1 = 1, z2 = 0.5 expect 0\n"
        "check type c at z1 = 1, z2 = 0.5 expect 0\n"
        "check type a at z1 = -1, z2 = 0.5 expect 2\n")
    assert main(["run", str(scn)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("statements", [
    "chart C = complex z1, complex z2\n"
    "spinor s = on C; rho z1*exp(z2) + math(z1*z1b)*dz1^dz2\n"
    "check type s at z1 = 0.4, z2 = 0.1 expect 0\n",
    "chart C = real x, real y\n"
    "check equal on C math(x)*exp(y), exp(y)*math(x) + 1/10**12*sin(x) expect equal\n",
], ids=["type", "equal"])
def test_cli_bump_named_math_beside_elementary_functions(tmp_path, capsys, statements):
    # compiled code binds its helpers to generated names, so a bump may be
    # named like a module or function the compiled code calls
    scn = tmp_path / "math_bump.gcx"
    scn.write_text("bump math = 0 upto 0.25, 1 from 0.5\n" + statements)
    assert main(["run", str(scn)]) == 0
    captured = capsys.readouterr()
    assert "result: pass" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("statements, number", [
    ("chart C = complex z1, complex z2\n"
     "spinor s = on C; rho 10**400*z1*exp(z2) + dz1^dz2\n"
     "check type s at z1 = 0.5, z2 = 0.1 expect 0\n", "1e+400"),
    ("chart C = real x, real y\n"
     "check equal on C x*10**400, x*10**400 + 1/10**12*sin(y) expect different\n", "1e+400"),
    ("chart C = real x, real y\n"
     "check equal on C sin(10**5000*x), sin(10**5000*x) + 1/10**12*sin(y) expect equal\n",
     "1e+5000"),
], ids=["type-coefficient", "equal-coefficient", "equal-extra"])
def test_cli_number_beyond_floating_point_fails_its_check(tmp_path, capsys, statements, number):
    # a ring coefficient or a number inside an extra generator that no
    # float can hold fails the check and names the number
    scn = tmp_path / "huge.gcx"
    scn.write_text(statements)
    assert main(["run", str(scn)]) == 1
    captured = capsys.readouterr()
    assert f"(the number {number} is too large for floating point)" in captured.out
    assert "Traceback" not in captured.out + captured.err
